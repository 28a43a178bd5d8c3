"""BFS-tree aggregation primitives.

The O(diameter)-round toolkit every distributed algorithm leans on:
build a BFS tree from a root, *convergecast* an associative aggregate
(count, sum, max) up the tree, and *broadcast* the result back down.
These are the in-network form of the Section 2.3 checks the paper says
take O(phi^-1 log n) rounds — e.g. letting a cluster leader learn
|V_i| and |E_i| so the Lemma 2.3 degree condition
deg(v*) >= c * phi^2 * |E_i| can be verified in-network.
``run_framework`` does not call them: it checks Lemma 2.3 centrally
with :func:`repro.core.failure.degree_condition_holds`, and only the
tests drive :func:`tree_aggregate` and :func:`cluster_statistics`.

Every message is O(log n) bits, but the protocols are not capacity-1:
a vertex that joins the tree sends its parent a child notice and, in
the same round, the beacon it floods to every neighbor.  So a run's
``max_edge_congestion`` is 2 and its ``effective_rounds`` exceeds its
``rounds`` (83 against 64 for :func:`tree_aggregate` on a 20-vertex
path).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..congest import (
    CongestMetrics,
    CongestSimulator,
    SimulationResult,
    VertexAlgorithm,
    VertexContext,
)
from ..errors import GraphError
from ..graph import Graph
from ..rng import SeedLike

#: Named aggregates: (neutral element, combiner).  All operate on ints
#: so messages stay within the budget.
AGGREGATES: Dict[str, Tuple[int, Callable[[int, int], int]]] = {
    "sum": (0, lambda a, b: a + b),
    "max": (0, lambda a, b: max(a, b)),
    "count": (0, lambda a, b: a + b),
}


class TreeAggregate(VertexAlgorithm):
    """Build a BFS tree, aggregate up, broadcast the total down.

    Schedule with depth budget B:

    * rounds 1..B — the root's beacon floods; first sender becomes the
      parent; vertices that adopt a parent announce ``CHILD`` to it;
    * rounds B+1..2B+2 — a vertex that has heard ``DONE`` (a partial
      aggregate) from all its children sends its combined value to its
      parent; leaves fire immediately;
    * rounds 2B+3..3B+4 — the root combines and floods ``TOTAL`` down
      the tree; everyone halts knowing the aggregate.
    """

    def __init__(
        self,
        root: Any,
        depth_budget: int,
        value: int,
        aggregate: str,
    ) -> None:
        if aggregate not in AGGREGATES:
            raise GraphError(f"unknown aggregate {aggregate!r}")
        self.root = root
        self.b = depth_budget
        self.value = value
        self.neutral, self.combine = AGGREGATES[aggregate]
        self.parent: Optional[Any] = None
        self.children: List[Any] = []
        self.pending_children: Optional[set] = None
        self.partial: int = value
        self.sent_up = False
        self.total: Optional[int] = None

    def initialize(self, ctx: VertexContext) -> None:
        if ctx.vertex == self.root:
            self.parent = ctx.vertex
            ctx.broadcast(("B",))

    def step(self, ctx: VertexContext, inbox: Dict[Any, List[Any]]) -> None:
        t = ctx.round_number
        beacons = []
        for sender, payloads in sorted(inbox.items(), key=lambda kv: repr(kv[0])):
            for payload in payloads:
                tag = payload[0]
                if tag == "B":
                    beacons.append(sender)
                elif tag == "C":
                    self.children.append(sender)
                elif tag == "D":
                    self.partial = self.combine(self.partial, payload[1])
                    if self.pending_children is not None:
                        self.pending_children.discard(sender)
                elif tag == "T":
                    if self.total is None:
                        self.total = payload[1]
                        for child in self.children:
                            ctx.send(child, ("T", self.total))

        if self.parent is None and beacons:
            self.parent = beacons[0]
            ctx.send(self.parent, ("C",))
            ctx.broadcast(("B",))

        # Tree building finishes at round B + 1 (CHILD messages arrive
        # one round after the beacon); then convergecast.
        if t == self.b + 1:
            self.pending_children = set(self.children)
        if (
            self.pending_children is not None
            and not self.pending_children
            and not self.sent_up
        ):
            self.sent_up = True
            if ctx.vertex == self.root:
                self.total = self.partial
                for child in self.children:
                    ctx.send(child, ("T", self.total))
            elif self.parent is not None:
                ctx.send(self.parent, ("D", self.partial))

        if t >= 3 * self.b + 4:
            ctx.halt(self.total)

    def is_idle(self, ctx: VertexContext) -> bool:
        # Only the phase boundaries need timed action; everything else
        # is message-driven.
        return self.sent_up or ctx.round_number < self.b + 1

    def next_wakeup(self, ctx: VertexContext) -> Optional[int]:
        if ctx.round_number < self.b + 1:
            return self.b + 1
        return 3 * self.b + 4


def tree_aggregate(
    graph: Graph,
    root: Any,
    values: Dict[Any, int],
    aggregate: str = "sum",
    depth_budget: Optional[int] = None,
    seed: SeedLike = None,
) -> Tuple[int, SimulationResult]:
    """Aggregate per-vertex ints over a BFS tree; all vertices learn it.

    Returns ``(total, simulation)``.  ``depth_budget`` defaults to the
    exact eccentricity bound (diameter + 1); the framework substitutes
    the analytic O(phi^-1 log n) bound when modeling failure-prone runs.
    """
    if root not in graph:
        raise GraphError(f"root {root!r} not in graph")
    if not graph.is_connected():
        raise GraphError("tree aggregation needs a connected graph")
    if graph.n == 1:
        neutral, combine = AGGREGATES[aggregate]
        return combine(neutral, values.get(root, 0)), SimulationResult(
            outputs={root: values.get(root, 0)},
            metrics=CongestMetrics(),
            halted=True,
        )
    if depth_budget is None:
        depth_budget = graph.diameter() + 1

    simulator = CongestSimulator(
        graph,
        lambda v: TreeAggregate(
            root, depth_budget, int(values.get(v, 0)), aggregate
        ),
        seed=seed,
    )
    result = simulator.run(max_rounds=3 * depth_budget + 8)
    total = result.outputs.get(root)
    return total, result


def cluster_statistics(
    cluster: Graph, leader: Any, seed: SeedLike = None
) -> Tuple[int, int, SimulationResult]:
    """Let ``leader`` (and everyone) learn |V_i| and |E_i| in-network.

    Two aggregations: a count of vertices and a sum of degrees (halved).
    This is the distributed realization of the Section 2.3 statement
    that the Lemma 2.3 condition is checkable in O(phi^-1 log n) rounds.
    """
    n, result_n = tree_aggregate(
        cluster, leader, {v: 1 for v in cluster.vertices()},
        aggregate="count", seed=seed,
    )
    degree_sum, result_m = tree_aggregate(
        cluster, leader, {v: cluster.degree(v) for v in cluster.vertices()},
        aggregate="sum", seed=seed,
    )
    combined = result_n.metrics.merge(result_m.metrics)
    result = SimulationResult(
        outputs=result_m.outputs, metrics=combined, halted=True
    )
    return n, degree_sum // 2, result
