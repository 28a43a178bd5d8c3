"""Exact minimum dominating set by branch and bound.

Standard scheme: pick an undominated vertex v (one of its closed
neighbors must be chosen) and branch over the candidates in N[v],
ordered by coverage.  The greedy solution seeds the incumbent, and a
coverage bound (remaining undominated / (Delta + 1)) prunes.  Sized for
the cluster-scale sparse graphs the framework produces, with a node
budget and a greedy fallback wrapper (:func:`solve_mds`).
"""

from __future__ import annotations

from typing import Dict, Set

from ..errors import SolverError
from ..graph import Graph
from .greedy import greedy_mds

#: Default search budget (branch nodes) before giving up.
DEFAULT_NODE_BUDGET = 500_000


class _MDSSearch:
    def __init__(self, graph: Graph, budget: int) -> None:
        self.graph = graph
        self.closed: Dict = {
            v: {v, *graph.neighbors(v)} for v in graph.vertices()
        }
        self.budget = budget
        self.nodes = 0
        self.best: Set = set(graph.vertices())

    def run(self) -> Set:
        incumbent = greedy_mds(self.graph)
        self.best = set(incumbent)
        self._search(set(), set(self.graph.vertices()))
        return self.best

    def _search(self, chosen: Set, undominated: Set) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise SolverError("exact MDS exceeded its node budget")
        if not undominated:
            if len(chosen) < len(self.best):
                self.best = set(chosen)
            return
        if len(chosen) + 1 >= len(self.best):
            return  # even one more vertex cannot beat the incumbent
        # Coverage bound: each added vertex dominates <= Delta + 1.
        max_cover = max(
            len(self.closed[v] & undominated) for v in self.graph.vertices()
        )
        lower = (len(undominated) + max_cover - 1) // max_cover
        if len(chosen) + lower >= len(self.best):
            return

        # Branch on the undominated vertex with the fewest candidates.
        v = min(undominated, key=lambda u: len(self.closed[u]))
        candidates = sorted(
            self.closed[v],
            key=lambda u: -len(self.closed[u] & undominated),
        )
        for u in candidates:
            self._search(chosen | {u}, undominated - self.closed[u])


def exact_mds(graph: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> Set:
    """Compute a minimum dominating set; raises on budget exhaustion."""
    if graph.n == 0:
        return set()
    result = _MDSSearch(graph, node_budget).run()
    from .util import is_dominating_set

    if not is_dominating_set(graph, result):
        raise SolverError("internal error: produced a non-dominating set")
    return result


def solve_mds(graph: Graph, node_budget: int = 100_000) -> Set:
    """Exact MDS when affordable, greedy otherwise (the leaders' solver)."""
    try:
        return exact_mds(graph, node_budget=node_budget)
    except SolverError:
        return greedy_mds(graph)
