"""Branch-and-bound minor containment search.

Decides whether a fixed small pattern graph H is a minor of a host
graph G by searching for a *minor model*: a family of vertex-disjoint
connected branch sets, one per vertex of H, such that every edge of H
is realized by at least one host edge between the corresponding branch
sets.

Minor containment is NP-hard for variable H, and this search is
exponential in the worst case; it is intended for small patterns
(K_4, K_5, K_{3,3}, ...) and cluster-sized hosts, which is exactly the
regime the property-testing experiments (Theorem 1.4) and the generator
validation tests need.  Cheap necessary/sufficient conditions (vertex
and edge counts, degree sums, planarity shortcuts) are applied first.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..graph import Graph
from .planarity import is_planar


def _quick_no(host: Graph, pattern: Graph) -> bool:
    """Cheap certificates that the pattern cannot be a minor."""
    if pattern.n > host.n or pattern.m > host.m:
        return True
    # A minor's max degree cannot exceed... (not true in general: a
    # branch set can aggregate degree), so only count-based checks and
    # planarity shortcuts are safe.
    if is_planar(host):
        # Planar graphs contain neither K_5 nor K_{3,3} as minors, and
        # minors of planar graphs are planar.
        if not is_planar(pattern):
            return True
    return False


class _MinorSearch:
    """Backtracking search for a minor model of ``pattern`` in ``host``."""

    def __init__(self, host: Graph, pattern: Graph, max_nodes: int) -> None:
        self.host = host
        self.pattern = pattern
        self.max_nodes = max_nodes
        self.nodes_expanded = 0
        # Process pattern vertices from highest degree down: they are
        # the most constrained and fail fastest.
        self.pattern_order = sorted(
            pattern.vertices(), key=pattern.degree, reverse=True
        )

    def search(self) -> Optional[Dict]:
        return self._extend({}, set())

    # ------------------------------------------------------------------
    def _extend(
        self, model: Dict, used: Set
    ) -> Optional[Dict]:
        """Try to assign a branch set to the next pattern vertex."""
        self.nodes_expanded += 1
        if self.nodes_expanded > self.max_nodes:
            raise TimeoutError("minor search exceeded its node budget")
        idx = len(model)
        if idx == len(self.pattern_order):
            return dict(model)
        p = self.pattern_order[idx]
        assigned_nbrs = [
            q for q in self.pattern.neighbors(p) if q in model
        ]
        free = set(self.host.vertices()) - used

        # Feasibility: remaining free vertices must cover remaining
        # pattern vertices one-to-one at minimum.
        if len(free) < len(self.pattern_order) - idx:
            return None

        for seed in sorted(free, key=self.host.degree, reverse=True):
            for branch in self._grow_branch_sets(seed, free, assigned_nbrs, model):
                model[p] = branch
                result = self._extend(model, used | branch)
                if result is not None:
                    return result
                del model[p]
        return None

    def _grow_branch_sets(
        self,
        seed,
        free: Set,
        assigned_nbrs: List,
        model: Dict,
    ):
        """Yield candidate branch sets containing ``seed``.

        Branch sets are grown greedily from ``seed``: start with the
        singleton and, while some required adjacency (to an
        already-assigned neighbor branch set) is unmet, absorb a free
        neighbor that makes progress toward it.  To bound the fan-out
        we yield each distinct prefix of one greedy growth per unmet
        requirement ordering, rather than all connected subsets.
        """
        targets = []
        for q in assigned_nbrs:
            targets.append(model[q])

        def touches(branch: Set, other: Set) -> bool:
            return any(
                w in other for u in branch for w in self.host.neighbors(u)
            )

        # Candidate 0: the singleton (checked for all requirements).
        branch = {seed}
        unmet = [t for t in targets if not touches(branch, t)]
        if not unmet:
            yield frozenset(branch)
        # Greedy growth: BFS from the branch toward each unmet target.
        attempt = set(branch)
        for target in list(unmet):
            path = self._connect(attempt, target, free)
            if path is None:
                return
            attempt |= path
        if all(touches(attempt, t) for t in targets):
            yield frozenset(attempt)

    def _connect(
        self, branch: Set, target: Set, free: Set
    ) -> Optional[Set]:
        """Shortest path of free vertices from ``branch`` to N(target)."""
        from collections import deque

        goal = set()
        for u in target:
            for w in self.host.neighbors(u):
                if w in free:
                    goal.add(w)
        if branch & goal:
            return set()
        parents: Dict = {}
        queue = deque(branch)
        seen = set(branch)
        while queue:
            u = queue.popleft()
            for w in self.host.neighbors(u):
                if w in seen or w not in free:
                    continue
                parents[w] = u if u not in branch else None
                if w in goal:
                    path = {w}
                    cur = parents[w]
                    while cur is not None:
                        path.add(cur)
                        cur = parents.get(cur)
                    return path
                seen.add(w)
                queue.append(w)
        return None


def has_minor(
    host: Graph, pattern: Graph, max_nodes: int = 200_000
) -> bool:
    """Decide whether ``pattern`` is a minor of ``host``.

    Exact for the regimes the quick certificates cover (planar hosts
    vs. non-planar patterns, count bounds); otherwise performs a
    bounded branch-and-bound search.  Raises ``TimeoutError`` when the
    search budget is exhausted without a verdict, so callers can fall
    back to a coarser test instead of silently getting a wrong answer.

    Note the search enumerates a *restricted* family of branch sets
    (greedy connectors), so a ``True`` answer is always correct (the
    model is verified), while a ``False`` answer is exact only when the
    host is small enough that the restricted family is exhaustive in
    practice; the test suite pins its accuracy against networkx-based
    oracles on such instances.
    """
    if pattern.n == 0:
        return True
    if _quick_no(host, pattern):
        return False
    # Work component by component: a connected pattern must embed in a
    # single host component.
    pattern_comps = pattern.connected_components()
    if len(pattern_comps) > 1:
        # A disjoint pattern is a minor iff its components can be packed
        # into host components; we approximate with the common case of
        # searching each pattern component in the full host minus the
        # previously used vertices.  Exact for our test patterns.
        remaining = host.copy()
        for comp in sorted(pattern_comps, key=len, reverse=True):
            sub = pattern.subgraph(comp)
            model = _find_model(remaining, sub, max_nodes)
            if model is None:
                return False
            for branch in model.values():
                remaining.remove_vertices(branch)
        return True
    model = _find_model(host, pattern, max_nodes)
    return model is not None


def _find_model(host: Graph, pattern: Graph, max_nodes: int) -> Optional[Dict]:
    for comp in host.connected_components():
        if len(comp) < pattern.n:
            continue
        sub = host.subgraph(comp)
        search = _MinorSearch(sub, pattern, max_nodes)
        model = search.search()
        if model is not None and _verify_model(sub, pattern, model):
            return model
    return None


def _verify_model(host: Graph, pattern: Graph, model: Dict) -> bool:
    """Check that ``model`` really is a minor model (safety net)."""
    branches = list(model.values())
    for i, a in enumerate(branches):
        for b in branches[i + 1:]:
            if a & b:
                return False
    for branch in branches:
        sub = host.subgraph(branch)
        if not sub.is_connected():
            return False
    for p, q in pattern.edges():
        bp, bq = model[p], model[q]
        if not any(w in bq for u in bp for w in host.neighbors(u)):
            return False
    return True
