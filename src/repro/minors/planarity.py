"""Left-Right planarity test.

A from-scratch implementation of the Brandes formulation of the
de Fraysseix-Rosenstiehl Left-Right criterion.  Planarity is the
keystone property of the paper's experiments (Theorem 3.2 works on
planar networks; Theorem 1.4's flagship instance is planarity testing),
so the library carries its own linear-ish time test and uses networkx
only as an independent oracle in the test suite.

The algorithm, in two DFS phases:

1. *Orientation*: a DFS orients every edge, computing for each oriented
   edge its low point ``lowpt`` (lowest DFS height reachable through
   it), second-lowest point ``lowpt2``, and a ``nesting_depth`` used to
   pre-sort adjacency lists so that phase 2 visits edges innermost
   first.

2. *Testing*: a second DFS maintains a stack of *conflict pairs* of
   intervals of back edges.  Back edges that must be embedded on the
   same side are merged into intervals; two intervals that must be on
   different sides form a conflict pair.  The graph is planar iff no
   step forces two return edges onto both sides at once.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from ..graph import Graph

Edge = Tuple[object, object]


class _NotPlanar(Exception):
    """Internal control-flow signal: a conflict cannot be resolved."""


class _Interval:
    """An interval of back edges, identified by its low and high edges."""

    __slots__ = ("low", "high")

    def __init__(self, low: Optional[Edge] = None, high: Optional[Edge] = None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None


class _ConflictPair:
    """A pair of intervals whose back edges must go to opposite sides."""

    __slots__ = ("left", "right")

    def __init__(
        self,
        left: Optional[_Interval] = None,
        right: Optional[_Interval] = None,
    ):
        self.left = left if left is not None else _Interval()
        self.right = right if right is not None else _Interval()

    def swap(self) -> None:
        self.left, self.right = self.right, self.left

    def empty(self) -> bool:
        return self.left.empty() and self.right.empty()


class _LRPlanarity:
    """One run of the Left-Right test over a single graph."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.height: Dict = {v: None for v in graph.vertices()}
        self.lowpt: Dict[Edge, int] = {}
        self.lowpt2: Dict[Edge, int] = {}
        self.nesting_depth: Dict[Edge, int] = {}
        self.parent_edge: Dict = {v: None for v in graph.vertices()}
        self.oriented: set = set()
        self.adj: Dict = {v: graph.neighbors(v) for v in graph.vertices()}
        self.ordered_adj: Dict = {}
        self.ref: Dict[Edge, Optional[Edge]] = {}
        self.side: Dict[Edge, int] = {}
        self.stack: List[_ConflictPair] = []
        self.stack_bottom: Dict[Edge, Optional[_ConflictPair]] = {}
        self.lowpt_edge: Dict[Edge, Edge] = {}

    # ------------------------------------------------------------------
    def run(self) -> bool:
        g = self.graph
        if g.n <= 4:
            return True
        if g.m > 3 * g.n - 6:
            # Euler bound: planar graphs are sparse.
            return False

        roots = []
        for v in g.vertices():
            if self.height[v] is None:
                self.height[v] = 0
                roots.append(v)
                self._dfs_orient(v)

        # Sort adjacency lists by nesting depth (innermost loops first).
        for v in g.vertices():
            out_edges = [
                (v, w) for w in self.adj[v] if (v, w) in self.oriented
            ]
            out_edges.sort(key=lambda e: self.nesting_depth[e])
            self.ordered_adj[v] = out_edges

        try:
            for root in roots:
                self._dfs_test(root)
        except _NotPlanar:
            return False
        return True

    # ------------------------------------------------------------------
    # Phase 1: orientation
    # ------------------------------------------------------------------
    def _dfs_orient(self, root) -> None:
        # Iterative DFS to avoid Python recursion limits on long paths.
        stack = [(root, iter(self.adj[root]))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                ei = (v, w)
                if ei in self.oriented or (w, v) in self.oriented:
                    continue
                self.oriented.add(ei)
                self.lowpt[ei] = self.height[v]
                self.lowpt2[ei] = self.height[v]
                if self.height[w] is None:
                    # Tree edge: descend.
                    self.parent_edge[w] = ei
                    self.height[w] = self.height[v] + 1
                    stack.append((w, iter(self.adj[w])))
                    advanced = True
                    break
                # Back edge.
                self.lowpt[ei] = self.height[w]
                self._finish_edge(ei, v)
            if not advanced:
                stack.pop()
                e = self.parent_edge[v]
                if e is not None:
                    self._finish_edge(e, e[0])

    def _finish_edge(self, ei: Edge, v) -> None:
        """Set nesting depth of ``ei`` and fold its lowpoints into parent."""
        self.nesting_depth[ei] = 2 * self.lowpt[ei]
        if self.lowpt2[ei] < self.height[v]:
            # Chordal edge: nest it one level deeper.
            self.nesting_depth[ei] += 1
        e = self.parent_edge[v]
        if e is not None and e != ei:
            if self.lowpt[ei] < self.lowpt[e]:
                self.lowpt2[e] = min(self.lowpt[e], self.lowpt2[ei])
                self.lowpt[e] = self.lowpt[ei]
            elif self.lowpt[ei] > self.lowpt[e]:
                self.lowpt2[e] = min(self.lowpt2[e], self.lowpt[ei])
            else:
                self.lowpt2[e] = min(self.lowpt2[e], self.lowpt2[ei])

    # ------------------------------------------------------------------
    # Phase 2: testing
    # ------------------------------------------------------------------
    def _dfs_test(self, root) -> None:
        # Iterative DFS mirroring the recursive formulation: each frame
        # remembers which outgoing edge index it is processing and
        # whether it is returning from a tree-edge descent.
        stack: List[List] = [[root, 0, False]]
        while stack:
            frame = stack[-1]
            v, idx, returning = frame
            edges = self.ordered_adj[v]
            e = self.parent_edge[v]

            if returning:
                # We just came back from the tree edge edges[idx].
                ei = edges[idx]
                self._after_child(v, e, ei, idx)
                frame[1] = idx + 1
                frame[2] = False
                continue

            if idx < len(edges):
                ei = edges[idx]
                self.stack_bottom[ei] = self.stack[-1] if self.stack else None
                w = ei[1]
                if ei == self.parent_edge[w]:
                    # Tree edge: descend, then handle constraints on return.
                    frame[2] = True
                    stack.append([w, 0, False])
                else:
                    # Back edge: it is its own return edge.
                    self.lowpt_edge[ei] = ei
                    self.stack.append(
                        _ConflictPair(right=_Interval(ei, ei))
                    )
                    self._after_child(v, e, ei, idx)
                    frame[1] = idx + 1
                continue

            # All outgoing edges of v processed.
            stack.pop()
            if e is not None:
                u = e[0]
                self._trim_back_edges(u)
                if self.lowpt[e] < self.height[u] and self.stack:
                    # e has a return edge: remember the highest one.
                    hl = self.stack[-1].left.high
                    hr = self.stack[-1].right.high
                    if hl is not None and (
                        hr is None or self.lowpt[hl] > self.lowpt[hr]
                    ):
                        self.ref[e] = hl
                    else:
                        self.ref[e] = hr

    def _after_child(self, v, e: Optional[Edge], ei: Edge, idx: int) -> None:
        """Integrate the constraints produced by outgoing edge ``ei``."""
        if self.lowpt[ei] < self.height[v]:
            # ei has a return edge below v.
            if idx == 0 and e is not None:
                self.lowpt_edge[e] = self.lowpt_edge[ei]
            else:
                self._add_constraints(ei, e)

    def _add_constraints(self, ei: Edge, e: Optional[Edge]) -> None:
        p = _ConflictPair()
        # Merge the return edges of ei into p.right.
        while True:
            q = self.stack.pop()
            if not q.left.empty():
                q.swap()
            if not q.left.empty():
                raise _NotPlanar
            assert q.right.low is not None
            if e is not None and self.lowpt[q.right.low] > self.lowpt[e]:
                # Merge interval.
                if p.right.empty():
                    p.right.high = q.right.high
                else:
                    self.ref[p.right.low] = q.right.high
                p.right.low = q.right.low
            else:
                # Align.
                self.ref[q.right.low] = self.lowpt_edge[e] if e else None
            top = self.stack[-1] if self.stack else None
            if top is self.stack_bottom[ei]:
                break
        # Merge conflicting return edges of earlier siblings into p.left.
        while self.stack and (
            self._conflicting(self.stack[-1].left, ei)
            or self._conflicting(self.stack[-1].right, ei)
        ):
            q = self.stack.pop()
            if self._conflicting(q.right, ei):
                q.swap()
            if self._conflicting(q.right, ei):
                raise _NotPlanar
            # Merge the interval below lowpt(ei) into p.right.
            if p.right.low is not None:
                self.ref[p.right.low] = q.right.high
            if q.right.low is not None:
                p.right.low = q.right.low
            if p.left.empty():
                p.left.high = q.left.high
            else:
                self.ref[p.left.low] = q.left.high
            p.left.low = q.left.low
        if not p.empty():
            self.stack.append(p)

    def _conflicting(self, interval: _Interval, b: Edge) -> bool:
        return (
            not interval.empty()
            and interval.high is not None
            and self.lowpt[interval.high] > self.lowpt[b]
        )

    def _lowest(self, p: _ConflictPair) -> int:
        if p.left.empty():
            return self.lowpt[p.right.low]
        if p.right.empty():
            return self.lowpt[p.left.low]
        return min(self.lowpt[p.left.low], self.lowpt[p.right.low])

    def _trim_back_edges(self, u) -> None:
        """Drop back edges that end at DFS height of ``u``."""
        while self.stack and self._lowest(self.stack[-1]) == self.height[u]:
            p = self.stack.pop()
            if p.left.low is not None:
                self.side[p.left.low] = -1
        if self.stack:
            p = self.stack.pop()
            # Trim left interval.
            while p.left.high is not None and p.left.high[1] == u:
                p.left.high = self.ref.get(p.left.high)
            if p.left.high is None and p.left.low is not None:
                self.ref[p.left.low] = p.right.low
                self.side[p.left.low] = -1
                p.left.low = None
            # Trim right interval (symmetric).
            while p.right.high is not None and p.right.high[1] == u:
                p.right.high = self.ref.get(p.right.high)
            if p.right.high is None and p.right.low is not None:
                self.ref[p.right.low] = p.left.low
                self.side[p.right.low] = -1
                p.right.low = None
            self.stack.append(p)


def is_planar(graph: Graph) -> bool:
    """Decide planarity of ``graph`` via the Left-Right criterion.

    Works on disconnected graphs; a graph is planar iff each component
    is.  Runs in near-linear time, so it is safe to call on whole
    networks, not just clusters.
    """
    return _LRPlanarity(graph).run()
