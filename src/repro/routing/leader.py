"""Max-degree leader election within a cluster (Theorem 2.6 proof).

Each vertex floods the best (degree, ID) pair it has seen; after a
number of rounds at least the cluster diameter, all vertices agree on
the maximum-degree vertex (ties broken toward the larger ID, as in the
paper's description of comparing ID(u)).  The round budget is the
caller's responsibility: the framework passes the O(phi^-1 log n)
diameter bound of a phi-expander, and the Section 2.3 failure semantics
cover the case where the budget was insufficient.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

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


class MaxDegreeLeaderElection(VertexAlgorithm):
    """Flood (degree, ID); after ``budget`` rounds output the winner."""

    def __init__(self, budget: int) -> None:
        if budget < 1:
            raise GraphError("leader election budget must be >= 1")
        self.budget = budget
        self.best: Optional[Tuple[int, Any]] = None

    def initialize(self, ctx: VertexContext) -> None:
        self.best = (ctx.degree(), ctx.vertex)
        ctx.broadcast((self.best[0], self.best[1]))

    def step(self, ctx: VertexContext, inbox: Dict[Any, List[Any]]) -> None:
        improved = False
        for payloads in inbox.values():
            for message in payloads:
                # A corrupted message (not a tuple) is lost.
                if type(message) is not tuple:
                    continue
                degree, vertex = message
                candidate = (degree, vertex)
                if self.best is None or candidate > self.best:
                    self.best = candidate
                    improved = True
        if ctx.round_number >= self.budget:
            ctx.halt(self.best[1])
            return
        if improved:
            ctx.broadcast((self.best[0], self.best[1]))


def elect_leader(
    cluster: Graph,
    budget: Optional[int] = None,
    seed: SeedLike = None,
) -> Tuple[Any, SimulationResult]:
    """Run leader election on a connected cluster; returns (leader, result).

    ``budget`` defaults to the cluster's exact diameter plus one — the
    framework substitutes the O(phi^-1 log n) analytic bound when it
    wants to model a failure-prone run.
    """
    if cluster.n == 0:
        raise GraphError("cannot elect a leader of an empty cluster")
    if cluster.n == 1:
        only = cluster.vertices()[0]
        return only, SimulationResult(
            outputs={only: only}, metrics=CongestMetrics(), halted=True
        )
    if budget is None:
        budget = cluster.diameter() + 1
    simulator = CongestSimulator(
        cluster, lambda v: MaxDegreeLeaderElection(budget), seed=seed
    )
    result = simulator.run(max_rounds=budget + 2)
    outputs = set(result.outputs.values())
    leader = max(
        ((cluster.degree(v), v) for v in cluster.vertices()),
    )[1]
    # All vertices must agree with the true maximum (they do whenever
    # the budget covers the diameter); disagreement is surfaced to the
    # caller through the outputs, mirroring Section 2.3.
    agreed = outputs == {leader}
    if not agreed:
        # Return the plurality answer so failure handling can proceed.
        leader = max(outputs, key=lambda v: (cluster.degree(v), repr(v)))
    return leader, result
