"""The Theorem 2.6 framework: partition, gather, solve, broadcast.

``run_framework`` is the library's single most important entry point.
Given an H-minor-free network, a budget ``epsilon``, and a sequential
``solver`` to run on each cluster's topology, it:

1. computes an (epsilon', phi) expander decomposition with
   epsilon' = epsilon / t where t bounds the edge density (so the
   number of inter-cluster edges is at most epsilon * min(|V|, |E|),
   exactly the Theorem 2.6 guarantee);
2. in every cluster — all clusters run in parallel in the real
   network, which the metric aggregation models — elects the
   maximum-degree leader, orients edges to O(1) out-degree, and routes
   the topology to the leader via random walks (Lemma 2.4);
3. runs the solver at each leader and delivers one O(log n)-bit answer
   to every vertex over the reversed routes (Section 2.3);
4. reports per-cluster failure verdicts per the Section 2.3 semantics.

Every application in the paper (Sections 3.1-3.5 and Theorem 1.1) is a
thin wrapper over this function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from ..congest import CongestMetrics
from ..decomposition.expander import (
    ExpanderDecomposition,
    expander_decomposition,
    phi_for_epsilon,
)
from ..errors import GraphError
from ..graph import Graph
from ..obs import registry as _telemetry
from ..rng import SeedLike, ensure_rng
from ..routing.gather import (
    Annotator,
    ClusterSolver,
    GatherResult,
    gather_topology,
)
from .failure import degree_condition_holds, diameter_bound, diameter_within


@dataclass
class ClusterRun:
    """One cluster's execution record."""

    index: int
    vertices: Set
    leader: Any
    certificate: float
    gather: GatherResult
    degree_condition_ok: bool
    diameter_ok: bool

    @property
    def success(self) -> bool:
        return self.gather.success and self.degree_condition_ok and self.diameter_ok


@dataclass
class PartitionResult:
    """Theorem 2.6 output without an application solver."""

    graph: Graph
    epsilon: float
    effective_epsilon: float
    phi: float
    decomposition: ExpanderDecomposition
    clusters: List[ClusterRun]
    metrics: CongestMetrics

    @property
    def leaders(self) -> List[Any]:
        return [c.leader for c in self.clusters]

    @property
    def all_succeeded(self) -> bool:
        return all(c.success for c in self.clusters)

    def inter_cluster_edges(self) -> int:
        return len(self.decomposition.cut_edges)


@dataclass
class FrameworkResult(PartitionResult):
    """Partition plus the per-vertex answers of the application solver."""

    answers: Dict[Any, Any] = field(default_factory=dict)


def density_bound(graph: Graph) -> float:
    """Measured stand-in for the Thomason bound t with |E| <= t |V|.

    The paper fixes t from the excluded minor H; since our inputs are
    generated (not promised), we use the measured density, which is at
    most the analytic t for every family in the suite.
    """
    if graph.n == 0:
        return 1.0
    return max(1.0, graph.m / graph.n)


def partition_minor_free(
    graph: Graph,
    epsilon: float,
    phi: Optional[float] = None,
    seed: SeedLike = None,
    solver: Optional[ClusterSolver] = None,
    transport: str = "walk",
    enforce_budget: bool = True,
    annotate: Optional[Annotator] = None,
    cut_slack: float = 1.0,
    max_cluster_size: Optional[int] = None,
) -> FrameworkResult:
    """Run the full Theorem 2.6 pipeline (optionally with a solver).

    Returns a :class:`FrameworkResult`; when ``solver`` is None the
    ``answers`` dict is empty and the result doubles as the pure
    partition of Theorem 2.6 (used by, e.g., Theorem 1.5).
    """
    if graph.n == 0:
        raise GraphError("cannot partition an empty graph")
    rng = ensure_rng(seed)

    # Theorem 2.6 parameterization: epsilon' = epsilon / t.
    t = density_bound(graph)
    effective_epsilon = min(0.999, epsilon / t)
    if phi is None:
        phi = phi_for_epsilon(effective_epsilon, max(1, graph.m))
    # The decomposition's seed is the outer generator's first draw, and
    # each cluster gather's seed is a later one.
    decomposition = expander_decomposition(
        graph,
        effective_epsilon,
        phi=phi,
        seed=rng.getrandbits(64),
        enforce_budget=enforce_budget,
        cut_slack=cut_slack,
        max_cluster_size=max_cluster_size,
    )

    diameter_cap = diameter_bound(phi, graph.n)
    runs: List[ClusterRun] = []
    cluster_metrics: List[CongestMetrics] = []
    with _telemetry.span("partition"):
        for i, cluster_vertices in enumerate(decomposition.clusters):
            sub = graph.subgraph(cluster_vertices)
            certificate = decomposition.certificates[i]
            cluster_phi = max(phi, certificate)
            with _telemetry.span("gather"):
                gather = gather_topology(
                    sub,
                    phi=cluster_phi,
                    density_bound=t,
                    solver=solver,
                    seed=rng.getrandbits(64),
                    network_n=graph.n,
                    transport=transport,
                    annotate=annotate,
                )
            runs.append(
                ClusterRun(
                    index=i,
                    vertices=set(cluster_vertices),
                    leader=gather.leader,
                    certificate=certificate,
                    gather=gather,
                    degree_condition_ok=degree_condition_holds(
                        sub, cluster_phi
                    ),
                    diameter_ok=diameter_within(sub, diameter_cap),
                )
            )
            cluster_metrics.append(gather.metrics)

    metrics = CongestMetrics.merge_parallel(cluster_metrics)
    _telemetry.count("framework.runs")
    _telemetry.count("framework.clusters", len(runs))
    _telemetry.count(
        "framework.failed_clusters",
        sum(1 for run in runs if not run.success),
    )
    answers: Dict[Any, Any] = {}
    for run in runs:
        answers.update(run.gather.answers)
    return FrameworkResult(
        graph=graph,
        epsilon=epsilon,
        effective_epsilon=effective_epsilon,
        phi=phi,
        decomposition=decomposition,
        clusters=runs,
        metrics=metrics,
        answers=answers,
    )


def run_framework(
    graph: Graph,
    epsilon: float,
    solver: ClusterSolver,
    phi: Optional[float] = None,
    seed: SeedLike = None,
    transport: str = "walk",
    annotate: Optional[Annotator] = None,
    cut_slack: float = 1.0,
    max_cluster_size: Optional[int] = None,
    enforce_budget: bool = True,
) -> FrameworkResult:
    """Partition + gather + solve + broadcast, with a mandatory solver.

    This is the "similar to the use of network decompositions in the
    LOCAL model" workflow of the paper's abstract: each leader runs
    ``solver`` on its cluster's exact topology and every vertex learns
    its own O(log n)-bit share of the result.
    """
    if solver is None:
        raise GraphError("run_framework requires a solver")
    return partition_minor_free(
        graph,
        epsilon,
        phi=phi,
        seed=seed,
        solver=solver,
        transport=transport,
        annotate=annotate,
        cut_slack=cut_slack,
        max_cluster_size=max_cluster_size,
        enforce_budget=enforce_budget,
    )
