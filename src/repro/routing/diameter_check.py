"""The Section 2.3 distributed diameter-check marking protocol.

The framework needs every cluster to *know* whether its diameter is
within the O(phi^-1 log n) bound ``b`` of a successful execution.  The
paper's protocol, implemented here verbatim on the CONGEST simulator:

1. for ``b`` rounds, every vertex floods the maximum ID it has seen, so
   each v ends with M_b(v) = max ID within distance b;
2. neighbors exchange their M_b values; a vertex marks itself ``*`` on
   any disagreement;
3. for ``2b + 1`` rounds, the ``*`` mark floods outward.

Outcome: if diam <= b, every vertex computed the same (global) maximum,
so nobody is marked; if diam >= 2b + 1, every vertex ends marked; in
between the outcome may be either, but it is *consistent* across the
cluster, which is all the failure handling needs — a marked vertex
resets its cluster to a singleton (Section 2.3).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

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


class DiameterProbe(VertexAlgorithm):
    """One vertex of the marking protocol with distance budget ``b``."""

    def __init__(self, b: int) -> None:
        if b < 1:
            raise GraphError("diameter budget must be >= 1")
        self.b = b
        self.best: Any = None
        self.marked = False
        self.announced_star = False

    def initialize(self, ctx: VertexContext) -> None:
        # IDs flood as strings (repr), compared lexicographically — any
        # consistent total order works for the protocol.
        self.best = repr(ctx.vertex)
        ctx.broadcast(("M", self.best))

    def step(self, ctx: VertexContext, inbox: Dict[Any, List[Any]]) -> None:
        t = ctx.round_number
        if t <= self.b:
            # Phase 1: flood the maximum ID for b rounds.
            improved = False
            for payloads in inbox.values():
                for tag, value in payloads:
                    if tag == "M" and value > self.best:
                        self.best = value
                        improved = True
            if improved and t < self.b:
                ctx.broadcast(("M", self.best))
            if t == self.b:
                # Phase 2 send: publish the final M_b value.
                ctx.broadcast(("F", self.best))
            return
        if t == self.b + 1:
            # Phase 2 receive: disagreement => mark *.
            for payloads in inbox.values():
                for tag, value in payloads:
                    if tag == "F" and value != self.best:
                        self.marked = True
            if self.marked:
                self.announced_star = True
                ctx.broadcast(("S", ""))
            return
        # Phase 3: propagate * for 2b + 1 rounds.
        if any(
            tag == "S" for payloads in inbox.values() for tag, _ in payloads
        ):
            if not self.marked:
                self.marked = True
            if not self.announced_star:
                self.announced_star = True
                ctx.broadcast(("S", ""))
        if t >= 3 * self.b + 3:
            ctx.halt(self.marked)


def distributed_diameter_check(
    cluster: Graph, b: int, seed: SeedLike = None
) -> Tuple[bool, SimulationResult]:
    """Run the marking protocol; returns (within_bound, simulation).

    ``within_bound`` is the cluster-consistent verdict: True when no
    vertex marked itself (guaranteed when diam <= b), False when the
    cluster marked itself (guaranteed when diam >= 2b + 1).
    """
    if cluster.n == 0:
        raise GraphError("cannot probe an empty cluster")
    if cluster.n == 1:
        return True, SimulationResult(
            outputs={}, metrics=CongestMetrics(), halted=True
        )
    simulator = CongestSimulator(
        cluster, lambda v: DiameterProbe(b), seed=seed
    )
    result = simulator.run(max_rounds=3 * b + 6)
    marks = set(result.outputs.values())
    # Consistency: the protocol guarantees a uniform verdict in the
    # decisive regimes; in the gap regime we take "any mark" as failure
    # (conservative, per Section 2.3).
    return not any(marks), result
