"""Maximum cardinality matching via Edmonds' blossom algorithm.

A from-scratch O(V^3) implementation of Edmonds 1965: repeatedly grow
alternating BFS forests from free vertices, contracting odd cycles
(blossoms) on the fly via a ``base`` array, and augmenting along the
discovered path.  This is the exact solver cluster leaders run in the
Section 3.2 planar MCM pipeline, and the oracle the MCM experiments
compare against.  The test suite cross-validates it against brute force
and networkx on thousands of random instances.
"""

from __future__ import annotations

from collections import deque
from typing import List

from ..graph import Graph, edge_key
from .util import Matching


class _Blossom:
    """State of one run of the blossom algorithm over an indexed graph."""

    def __init__(self, n: int, adjacency: List[List[int]]) -> None:
        self.n = n
        self.adj = adjacency
        self.match: List[int] = [-1] * n
        # BFS state, reset per augmentation phase.
        self.parent: List[int] = [-1] * n
        self.base: List[int] = list(range(n))
        self.in_queue: List[bool] = [False] * n
        self.in_blossom: List[bool] = [False] * n

    # ------------------------------------------------------------------
    def solve(self) -> List[int]:
        for v in range(self.n):
            if self.match[v] == -1:
                self._find_augmenting_path(v)
        return self.match

    # ------------------------------------------------------------------
    def _lca(self, a: int, b: int) -> int:
        """Lowest common ancestor of a and b in the alternating forest."""
        visited = [False] * self.n
        x = a
        while True:
            x = self.base[x]
            visited[x] = True
            if self.match[x] == -1:
                break
            x = self.parent[self.match[x]]
        y = b
        while True:
            y = self.base[y]
            if visited[y]:
                return y
            y = self.parent[self.match[y]]

    def _mark_path(self, v: int, b: int, child: int) -> None:
        """Mark blossom vertices on the path from v down to base b."""
        while self.base[v] != b:
            self.in_blossom[self.base[v]] = True
            self.in_blossom[self.base[self.match[v]]] = True
            self.parent[v] = child
            child = self.match[v]
            v = self.parent[self.match[v]]

    def _find_augmenting_path(self, root: int) -> bool:
        self.parent = [-1] * self.n
        self.base = list(range(self.n))
        self.in_queue = [False] * self.n
        queue = deque([root])
        self.in_queue[root] = True

        while queue:
            v = queue.popleft()
            for to in self.adj[v]:
                if self.base[v] == self.base[to] or self.match[v] == to:
                    continue
                if to == root or (
                    self.match[to] != -1 and self.parent[self.match[to]] != -1
                ):
                    # An odd cycle: contract the blossom.
                    cur_base = self._lca(v, to)
                    self.in_blossom = [False] * self.n
                    self._mark_path(v, cur_base, to)
                    self._mark_path(to, cur_base, v)
                    for i in range(self.n):
                        if self.in_blossom[self.base[i]]:
                            self.base[i] = cur_base
                            if not self.in_queue[i]:
                                self.in_queue[i] = True
                                queue.append(i)
                elif self.parent[to] == -1:
                    self.parent[to] = v
                    if self.match[to] == -1:
                        self._augment(to)
                        return True
                    if not self.in_queue[self.match[to]]:
                        self.in_queue[self.match[to]] = True
                        queue.append(self.match[to])
        return False

    def _augment(self, v: int) -> None:
        """Flip matched/unmatched along the alternating path ending at v."""
        while v != -1:
            pv = self.parent[v]
            next_v = self.match[pv]
            self.match[v] = pv
            self.match[pv] = v
            v = next_v


def max_cardinality_matching(graph: Graph) -> Matching:
    """Compute a maximum cardinality matching of ``graph``.

    Returns the matching as a set of canonical edge tuples.  Runs in
    O(V^3); intended for cluster-sized graphs (hundreds of vertices),
    which is the regime the framework produces.
    """
    indexed, mapping = graph.relabeled()
    inverse = {i: v for v, i in mapping.items()}
    adjacency: List[List[int]] = [[] for _ in range(indexed.n)]
    for u, v in indexed.edges():
        adjacency[u].append(v)
        adjacency[v].append(u)

    match = _Blossom(indexed.n, adjacency).solve()
    result: Matching = set()
    for v, partner in enumerate(match):
        if partner != -1 and v < partner:
            result.add(edge_key(inverse[v], inverse[partner]))
    return result
