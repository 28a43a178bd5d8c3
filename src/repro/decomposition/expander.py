"""(epsilon, phi) expander decomposition.

An (epsilon, phi) expander decomposition removes at most an epsilon
fraction of the edges so that every remaining connected component is a
phi-expander (Section 2 of the paper).  The paper consumes the
distributed construction of Chang-Saranurak (FOCS 2020) as a black box;
per the substitution policy in DESIGN.md we provide a from-scratch
*centralized reference construction* with the same interface and
machine-checkable certificates, and charge its distributed round cost
analytically (Theorems 2.1/2.2 formulas, exposed via
:meth:`ExpanderDecomposition.theoretical_rounds`).

Construction: recursive spectral refinement.  For each working cluster,
certify expansion via Cheeger (lambda_2 / 2 >= phi) — or exact
conductance for tiny clusters — and otherwise split along a Fiedler
sweep cut and recurse on the connected components of both sides.
Every emitted cluster carries a *certified* conductance lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import DecompositionError
from ..graph import Graph, edge_key
from ..obs import registry as _telemetry
from ..rng import SeedLike, ensure_rng
from ..spectral.conductance import (
    EXACT_CONDUCTANCE_LIMIT,
    conductance_lower_bound,
    exact_conductance,
    lambda2_and_fiedler,
    sweep_cut,
)


def phi_for_epsilon(epsilon: float, m: int) -> float:
    """Default conductance target phi = Theta(epsilon / log m).

    Matches the existentially optimal trade-off (Section 2): an
    (epsilon, phi) decomposition exists for phi = Omega(epsilon/log n),
    and the hypercube shows this is tight.  The constant 8 is the
    safety margin that lets the recursive construction meet its edge
    budget on every graph family in the benchmark suite.
    """
    if not 0.0 < epsilon < 1.0:
        raise DecompositionError("epsilon must lie in (0, 1)")
    return epsilon / (8.0 * max(1.0, math.log2(m + 2)))


@dataclass
class ExpanderDecomposition:
    """The output of :func:`expander_decomposition`.

    ``clusters``
        Vertex sets V_1, ..., V_k partitioning V; each induced subgraph
        (after removing cut edges) is connected.
    ``cut_edges``
        The inter-cluster edge set E^r.
    ``certificates``
        Per-cluster certified conductance lower bounds (Cheeger or
        exact); ``certificates[i]`` refers to ``clusters[i]``.
    """

    graph: Graph
    epsilon: float
    phi: float
    clusters: List[Set] = field(default_factory=list)
    cut_edges: List[Tuple] = field(default_factory=list)
    certificates: List[float] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.clusters)

    def cut_fraction(self) -> float:
        """|E^r| / |E| — must be at most epsilon."""
        if self.graph.m == 0:
            return 0.0
        return len(self.cut_edges) / self.graph.m

    def cluster_of(self) -> Dict:
        """Map each vertex to its cluster index."""
        assignment: Dict = {}
        for i, cluster in enumerate(self.clusters):
            for v in cluster:
                assignment[v] = i
        return assignment

    def cluster_subgraph(self, i: int) -> Graph:
        """G[V_i] (note: may contain cut edges' endpoints internally)."""
        return self.graph.subgraph(self.clusters[i])

    def min_certificate(self) -> float:
        """The weakest per-cluster conductance certificate."""
        return min(self.certificates, default=1.0)

    def theoretical_rounds(self, randomized: bool = True) -> float:
        """The Theorem 2.1 / 2.2 round cost charged for construction.

        The centralized reference construction replaces the distributed
        Chang-Saranurak algorithm (see DESIGN.md substitution 1); this
        is the round count the black box would have consumed:
        eps^{-O(1)} log^{O(1)} n randomized, or
        eps^{-O(1)} 2^{O(sqrt(log n log log n))} deterministic.  We
        instantiate the O(1) exponents as 3 (the exponent pair used in
        the paper's building blocks).
        """
        n = max(2, self.graph.n)
        eps_factor = self.epsilon ** -3
        if randomized:
            return eps_factor * math.log2(n) ** 3
        return eps_factor * 2 ** (3 * math.sqrt(math.log2(n) * math.log2(max(2, math.log2(n)))))


def expander_decomposition(
    graph: Graph,
    epsilon: float,
    phi: Optional[float] = None,
    seed: SeedLike = None,
    enforce_budget: bool = True,
    cut_slack: float = 1.0,
    max_cluster_size: Optional[int] = None,
) -> ExpanderDecomposition:
    """Compute an (epsilon, phi) expander decomposition of ``graph``.

    Parameters
    ----------
    graph:
        Any graph; the guarantees are strongest on sparse (H-minor-free)
        inputs, but the construction never *assumes* minor-freeness —
        matching the failure semantics of Section 2.3 that the property
        tester relies on.
    epsilon:
        Edge budget: at most ``epsilon * graph.m`` inter-cluster edges.
    phi:
        Conductance target for the clusters.  Defaults to
        :func:`phi_for_epsilon`.  Each emitted cluster carries a
        certificate >= phi.
    enforce_budget:
        When true (default), raise :class:`DecompositionError` if the
        final cut exceeds the epsilon budget; the property tester turns
        this off and inspects the overflow itself.
    cut_slack:
        With ``cut_slack > 1`` and a seed, each split is a random sweep
        prefix whose conductance is within the slack factor of the best
        one, so repeated runs with different seeds produce different
        cluster boundaries (used by iterated algorithms such as the
        distributed MWM).
    max_cluster_size:
        Keep splitting clusters larger than this even when certified.
        On minor-free graphs a phi-expander cluster has
        O(Delta / phi^2) vertices anyway (Lemma 2.3), so a size cap is
        a phi floor in disguise; applications use it to keep the
        leaders' exact solvers within their practical envelope.
    """
    if not 0.0 < epsilon < 1.0:
        raise DecompositionError("epsilon must lie in (0, 1)")
    if phi is None:
        phi = phi_for_epsilon(epsilon, graph.m)
    if phi <= 0:
        raise DecompositionError("phi must be positive")

    rng = ensure_rng(seed)
    result = ExpanderDecomposition(graph=graph, epsilon=epsilon, phi=phi)

    with _telemetry.span("decompose"):
        # Work on connected pieces; isolated vertices become singletons.
        stack: List[Set] = [set(c) for c in graph.connected_components()]
        while stack:
            cluster = stack.pop()
            sub = graph.subgraph(cluster)
            small_enough = (
                max_cluster_size is None
                or len(cluster) <= max(1, max_cluster_size)
            )
            # Certify and (if that fails) split off ONE eigensolve: the
            # Cheeger certificate lambda_2 / 2 and the Fiedler sweep vector
            # come from the same normalized Laplacian, so large clusters
            # that fail certification hand their vector straight to
            # sweep_cut instead of solving again.
            certificate = None
            fiedler = None
            if small_enough:
                with _telemetry.span("certify"):
                    if sub.n <= 1:
                        certificate = 1.0
                    elif sub.n == 2:
                        certificate = 1.0 if sub.m == 1 else None
                    elif sub.n <= min(12, EXACT_CONDUCTANCE_LIMIT):
                        value, _ = exact_conductance(sub)
                        certificate = value if value >= phi else None
                    else:
                        gap, fiedler = lambda2_and_fiedler(sub)
                        lower = gap / 2.0
                        certificate = lower if lower >= phi else None
            if certificate is not None:
                result.clusters.append(cluster)
                result.certificates.append(certificate)
                continue
            # Not certified: split along a (possibly randomized) sweep cut.
            with _telemetry.span("split"):
                _, side = sweep_cut(
                    sub, vector=fiedler, rng=rng, slack=cut_slack
                )
                if not side or len(side) == len(cluster):
                    # Degenerate sweep (should not happen); fall back to a
                    # single-vertex shave to guarantee progress.
                    side = {next(iter(cluster))}
                for u, v in sub.boundary(side):
                    result.cut_edges.append(edge_key(u, v))
                for piece in (side, cluster - side):
                    piece_sub = sub.subgraph(piece)
                    for comp in piece_sub.connected_components():
                        stack.append(set(comp))
            _telemetry.count("decompose.splits")

    if enforce_budget and result.cut_fraction() > epsilon + 1e-12:
        raise DecompositionError(
            f"cut fraction {result.cut_fraction():.4f} exceeds epsilon="
            f"{epsilon} (phi={phi:.5f} too aggressive for this graph)"
        )
    _telemetry.count("decompose.runs")
    _telemetry.count("decompose.clusters", result.k)
    _telemetry.count("decompose.cut_edges", len(result.cut_edges))
    return result


def verify_expander_decomposition(
    decomposition: ExpanderDecomposition,
    recheck_conductance: bool = True,
) -> Dict[str, float]:
    """Independently validate a decomposition; raises on violation.

    Checks: the clusters partition V; cut edges are exactly the
    inter-cluster edges; the edge budget holds; every cluster (minus
    cut edges) is connected; and (optionally) every certificate is a
    genuine conductance lower bound of its cluster.  Returns a summary
    report used by the benchmark tables.
    """
    graph = decomposition.graph
    assignment: Dict = {}
    for i, cluster in enumerate(decomposition.clusters):
        for v in cluster:
            if v in assignment:
                raise DecompositionError(f"vertex {v!r} is in two clusters")
            assignment[v] = i
    if set(assignment) != set(graph.vertices()):
        raise DecompositionError("clusters do not cover the vertex set")

    cut_set = {edge_key(u, v) for u, v in decomposition.cut_edges}
    for u, v in graph.edges():
        crossing = assignment[u] != assignment[v]
        in_cut = edge_key(u, v) in cut_set
        if crossing and not in_cut:
            raise DecompositionError(
                f"inter-cluster edge ({u!r}, {v!r}) missing from cut set"
            )

    if decomposition.cut_fraction() > decomposition.epsilon + 1e-12:
        raise DecompositionError("edge budget violated")

    min_cert = 1.0
    for i, cluster in enumerate(decomposition.clusters):
        sub = graph.subgraph(cluster).remove_edges(cut_set)
        if len(sub.connected_components()) > 1:
            raise DecompositionError(f"cluster {i} is disconnected")
        cert = decomposition.certificates[i]
        min_cert = min(min_cert, cert)
        if recheck_conductance and sub.n > 2:
            lower = conductance_lower_bound(sub)
            if sub.n <= 12:
                lower = max(lower, exact_conductance(sub)[0])
            if lower + 1e-9 < cert and lower < decomposition.phi:
                raise DecompositionError(
                    f"cluster {i} certificate {cert:.5f} not supported "
                    f"(recheck gives {lower:.5f})"
                )
    return {
        "clusters": float(decomposition.k),
        "cut_fraction": decomposition.cut_fraction(),
        "min_certificate": min_cert,
        "max_cluster_size": float(
            max((len(c) for c in decomposition.clusters), default=0)
        ),
    }
