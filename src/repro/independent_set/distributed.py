"""Distributed (1 - epsilon)-approximate MAXIS (Theorem 1.2 / Section 3.1).

The Section 3.1 recipe, verbatim: run the Theorem 2.6 framework with
parameter epsilon' = epsilon / (2d + 1) (d = edge density bound, so
alpha(G) >= n/(2d+1) by min-degree greedy), let every leader compute an
*exact* maximum independent set of its cluster, and then resolve the
only possible conflicts — both endpoints of an inter-cluster edge
chosen — by dropping one endpoint per conflicting cut edge.  Since
there are at most epsilon' * n cut edges, the loss is at most
epsilon * alpha(G).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from ..core.framework import FrameworkResult, density_bound, run_framework
from ..errors import SolverError
from ..graph import Graph
from ..rng import SeedLike, ensure_rng
from .exact import solve_maxis


@dataclass
class DistributedISResult:
    """The independent set plus its execution record."""

    independent_set: Set
    epsilon: float
    framework: FrameworkResult
    conflicts_resolved: int

    @property
    def size(self) -> int:
        return len(self.independent_set)


def distributed_maxis(
    graph: Graph,
    epsilon: float,
    phi: Optional[float] = None,
    seed: SeedLike = None,
    max_cluster_size: Optional[int] = None,
) -> DistributedISResult:
    """Theorem 1.2: (1 - epsilon)-approximate MAXIS on minor-free networks.

    Leaders solve clusters with :func:`solve_maxis`: exact within a
    search budget, strong local search beyond it.  ``max_cluster_size``
    optionally caps cluster sizes (at an edge-budget cost).
    """
    if not 0.0 < epsilon < 1.0:
        raise SolverError("epsilon must lie in (0, 1)")
    rng = ensure_rng(seed)

    d = density_bound(graph)
    epsilon_prime = epsilon / (2.0 * d + 1.0)

    def solver(sub: Graph, leader: Any, notes: Dict) -> Dict[Any, Any]:
        chosen = solve_maxis(sub)
        return {v: (1 if v in chosen else 0) for v in sub.vertices()}

    framework = run_framework(
        graph,
        epsilon_prime,
        solver=solver,
        phi=phi,
        seed=rng.getrandbits(64),
        max_cluster_size=max_cluster_size,
    )

    candidate = {v for v, take in framework.answers.items() if take == 1}

    # Conflict resolution on inter-cluster edges (Section 3.1's set Z):
    # in the network this is one communication round between cut-edge
    # endpoints; ties break toward keeping the larger ID.
    conflicts = 0
    dropped: Set = set()
    for u, v in framework.decomposition.cut_edges:
        if u in candidate and v in candidate and u not in dropped and v not in dropped:
            loser = min(u, v, key=repr)
            dropped.add(loser)
            conflicts += 1
    independent = candidate - dropped

    # Validity check (always holds; guards against solver bugs).
    for v in independent:
        for u in graph.neighbors(v):
            if u in independent:
                raise SolverError(
                    "distributed MAXIS produced a dependent set"
                )
    return DistributedISResult(
        independent_set=independent,
        epsilon=epsilon,
        framework=framework,
        conflicts_resolved=conflicts,
    )
