"""Distributed low-out-degree orientation (Barenboim-Elkin, [11]).

Given an upper bound ``d`` on the edge density of the cluster, peel in
O(log n) rounds: every vertex whose count of *unpeeled* neighbors drops
to at most ``ceil((2 + eta) * d)`` peels itself and announces the round
in which it did so.  Each edge is then oriented from the earlier-peeled
endpoint to the later-peeled one (ties broken by ID), giving every
vertex out-degree at most the peeling threshold.

The paper uses this so that gathering the topology of G[V_i] only needs
O(1) messages per vertex: each vertex announces just its *outgoing*
edges (Section 2.2, "Information Gathering").
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from ..congest import (
    CongestSimulator,
    SimulationResult,
    VertexAlgorithm,
    VertexContext,
)
from ..errors import GraphError
from ..graph import Graph
from ..rng import SeedLike


def peeling_threshold(density_bound: float, eta: float = 0.5) -> int:
    """The BE threshold: ceil((2 + eta) * d), at least 1."""
    if density_bound <= 0:
        raise GraphError("density bound must be positive")
    return max(1, math.ceil((2.0 + eta) * density_bound))


class PeelingOrientation(VertexAlgorithm):
    """One vertex of the peeling protocol.

    Protocol: in each round a vertex that is not yet peeled and whose
    live-neighbor count is at most the threshold announces ``PEEL`` to
    all neighbors and records its peel round.  After ``max_rounds``,
    stragglers force-peel (this only happens when the density bound was
    wrong — i.e. the graph was not from the promised class — and is
    part of the Section 2.3 failure behavior).  Output per vertex:
    ``(peel_round, out_neighbors)``.
    """

    def __init__(self, threshold: int, max_rounds: int) -> None:
        self.threshold = threshold
        self.max_rounds = max_rounds
        self.peel_round: Optional[int] = None
        self.neighbor_rounds: Dict[Any, int] = {}
        self.live: int = 0

    def initialize(self, ctx: VertexContext) -> None:
        self.live = ctx.degree()
        if self.live <= self.threshold:
            self.peel_round = 0
            ctx.broadcast(("PEEL", 0))

    def step(self, ctx: VertexContext, inbox: Dict[Any, List[Any]]) -> None:
        for neighbor, payloads in inbox.items():
            for message in payloads:
                # A corrupted message (not a tuple) is lost.
                if type(message) is not tuple:
                    continue
                tag, rnd = message
                if tag == "PEEL":
                    self.neighbor_rounds[neighbor] = rnd
                    self.live -= 1
        if self.peel_round is None and (
            self.live <= self.threshold or ctx.round_number >= self.max_rounds
        ):
            self.peel_round = ctx.round_number
            ctx.broadcast(("PEEL", self.peel_round))
            return
        if ctx.round_number >= self.max_rounds + 1:
            # Everyone has peeled; orientation is now locally computable.
            out = []
            mine = self.peel_round if self.peel_round is not None else self.max_rounds
            for neighbor in ctx.neighbors:
                theirs = self.neighbor_rounds.get(neighbor, self.max_rounds)
                if (mine, repr(ctx.vertex)) < (theirs, repr(neighbor)):
                    out.append(neighbor)
            ctx.halt((mine, tuple(out)))


def orient_low_out_degree(
    cluster: Graph,
    density_bound: float,
    eta: float = 0.5,
    seed: SeedLike = None,
) -> Tuple[Dict[Any, List[Any]], SimulationResult]:
    """Run the peeling orientation; returns (out-neighbor map, result).

    The returned map sends each vertex to its outgoing neighbors; each
    list has length at most ``peeling_threshold(density_bound, eta)``
    whenever the density promise holds.
    """
    threshold = peeling_threshold(density_bound, eta)
    max_rounds = max(2, 2 * math.ceil(math.log2(cluster.n + 2)))
    simulator = CongestSimulator(
        cluster,
        lambda v: PeelingOrientation(threshold, max_rounds),
        seed=seed,
    )
    result = simulator.run(max_rounds=max_rounds + 3)
    orientation = {
        v: list(result.outputs[v][1]) if result.outputs[v] else []
        for v in cluster.vertices()
    }
    # Consistency repair: ensure each edge is oriented exactly once
    # (guaranteed by the protocol; assert cheaply).
    for u, v in cluster.edges():
        forward = v in orientation[u]
        backward = u in orientation[v]
        if forward == backward:
            raise GraphError(
                f"orientation protocol produced an inconsistent edge "
                f"({u!r}, {v!r})"
            )
    return orientation, result
