"""Low-diameter decompositions (Theorem 1.5 and its ingredients).

An (epsilon, D) low-diameter decomposition partitions V so that at most
``epsilon * |E|`` edges cross clusters and every induced cluster has
diameter at most D.  The paper improves the distributed dependence from
D = epsilon^{-O(1)} to the optimal D = O(1/epsilon) on H-minor-free
networks by composing the Theorem 2.6 framework with *any sequential*
LDD run locally at cluster leaders.

This module provides the sequential ingredients:

* :func:`ball_carving_ldd` — classic region growing; works on every
  graph with D = O(log(m)/epsilon) (the Linial-Saks-style guarantee).
* :func:`chop_ldd` — iterated BFS-layer chopping with random offsets
  (the Klein-Plotkin-Rao recipe the paper cites [68]); on minor-free
  graphs a constant number of chopping rounds yields D = O(1/epsilon).

and the headline composition :func:`theorem_1_5_ldd`, which performs
an expander decomposition and refines each cluster with the chop at
parameter epsilon/2, exactly as Section 3.5 prescribes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import DecompositionError
from ..graph import Graph, edge_key
from ..rng import SeedLike, ensure_rng


@dataclass
class LowDiameterDecomposition:
    """Partition with per-cluster diameters and the crossing edge set."""

    graph: Graph
    epsilon: float
    clusters: List[Set] = field(default_factory=list)
    cut_edges: List[Tuple] = field(default_factory=list)

    def cut_fraction(self) -> float:
        if self.graph.m == 0:
            return 0.0
        return len(self.cut_edges) / self.graph.m

    def cut_weight_fraction(self) -> float:
        """Weight of crossing edges over total weight (the weighted
        guarantee of Czygrinow et al., paper §1.1)."""
        total = self.graph.total_weight()
        if total == 0:
            return 0.0
        crossing = sum(self.graph.weight(u, v) for u, v in self.cut_edges)
        return crossing / total

    def max_diameter(self) -> int:
        """Largest induced-subgraph diameter over all clusters."""
        worst = 0
        for cluster in self.clusters:
            sub = self.graph.subgraph(cluster)
            for comp in sub.connected_components():
                worst = max(worst, sub.subgraph(comp).diameter())
        return worst

    def cluster_of(self) -> Dict:
        assignment: Dict = {}
        for i, cluster in enumerate(self.clusters):
            for v in cluster:
                assignment[v] = i
        return assignment


def _crossing_edges(graph: Graph, clusters: Sequence[Set]) -> List[Tuple]:
    assignment: Dict = {}
    for i, cluster in enumerate(clusters):
        for v in cluster:
            assignment[v] = i
    return [
        edge_key(u, v)
        for u, v in graph.edges()
        if assignment[u] != assignment[v]
    ]


def ball_carving_ldd(
    graph: Graph,
    epsilon: float,
    seed: SeedLike = None,
    weighted: bool = False,
) -> LowDiameterDecomposition:
    """Region-growing LDD: D = O(log(m)/epsilon), cut <= epsilon|E|.

    Repeatedly grow a BFS ball from an arbitrary uncarved vertex,
    stopping at the first radius where the boundary has at most
    ``epsilon/2`` times the edges inside the ball (plus one); such a
    radius exists within O(log m / epsilon) layers by the standard
    charging argument, giving the diameter bound unconditionally.

    With ``weighted=True`` the growth condition compares edge *weights*
    instead of counts — the edge-weighted guarantee of Czygrinow et al.
    (paper §1.1): the weight of inter-cluster edges is at most an
    epsilon fraction of the total weight.  Hop diameter is still what
    is bounded (the paper's weighted setting weights costs, not
    distances).
    """
    if not 0.0 < epsilon < 1.0:
        raise DecompositionError("epsilon must lie in (0, 1)")
    rng = ensure_rng(seed)
    remaining = set(graph.vertices())
    clusters: List[Set] = []
    growth = epsilon / 2.0
    while remaining:
        root = min(remaining, key=repr)
        sub = graph.subgraph(remaining)
        layers = sub.bfs_layers(root)
        ball: Set = set()
        internal = 0.0
        chosen: Optional[Set] = None
        for i, layer in enumerate(layers):
            new = set(layer)
            # Edges incident to the new layer that land inside the ball
            # or the layer itself become internal.
            for v in new:
                for u in sub.neighbors(v):
                    if u in ball or (u in new and repr(u) < repr(v)):
                        internal += sub.weight(u, v) if weighted else 1
            ball |= new
            boundary = (
                sub.cut_weight(ball) if weighted else sub.cut_size(ball)
            )
            if boundary <= growth * (internal + 1):
                chosen = set(ball)
                break
        if chosen is None:
            chosen = set(ball)  # whole component
        clusters.append(chosen)
        remaining -= chosen
    result = LowDiameterDecomposition(
        graph=graph, epsilon=epsilon, clusters=clusters
    )
    result.cut_edges = _crossing_edges(graph, clusters)
    return result


def chop_ldd(
    graph: Graph,
    epsilon: float,
    depth: int = 3,
    seed: SeedLike = None,
) -> LowDiameterDecomposition:
    """Iterated BFS-layer chopping (the KPR recipe, [68] in the paper).

    Each round chops every current piece into bands of
    ``width = ceil(2 * depth / epsilon)`` consecutive BFS layers with a
    random offset, then recurses on the connected components of the
    bands.  Each round cuts an expected ``epsilon / depth`` fraction of
    edges, so ``depth`` rounds stay within the epsilon budget while, on
    minor-free graphs, a constant depth suffices to bring the strong
    diameter down to O(width) = O(1/epsilon).
    """
    if not 0.0 < epsilon < 1.0:
        raise DecompositionError("epsilon must lie in (0, 1)")
    if depth < 1:
        raise DecompositionError("depth must be at least 1")
    rng = ensure_rng(seed)
    width = max(2, math.ceil(2.0 * depth / epsilon))
    target_diameter = 4 * width

    pieces: List[Set] = [set(c) for c in graph.connected_components()]
    for _ in range(depth):
        next_pieces: List[Set] = []
        for piece in pieces:
            sub = graph.subgraph(piece)
            if sub.n <= 2 or sub.diameter() <= target_diameter:
                next_pieces.append(piece)
                continue
            root = min(piece, key=repr)
            layers = sub.bfs_layers(root)
            offset = rng.randrange(width)
            bands: Dict[int, Set] = {}
            for depth_index, layer in enumerate(layers):
                band = (depth_index + offset) // width
                bands.setdefault(band, set()).update(layer)
            for band in bands.values():
                band_sub = sub.subgraph(band)
                for comp in band_sub.connected_components():
                    next_pieces.append(set(comp))
        pieces = next_pieces

    result = LowDiameterDecomposition(
        graph=graph, epsilon=epsilon, clusters=pieces
    )
    result.cut_edges = _crossing_edges(graph, pieces)
    return result


def theorem_1_5_ldd(
    graph: Graph,
    epsilon: float,
    seed: SeedLike = None,
) -> LowDiameterDecomposition:
    """The Section 3.5 composition: expander decomposition, then local LDD.

    Runs the Theorem 2.6 partition with parameter epsilon/2, then (as
    each leader would, on its gathered topology) refines every cluster
    with the KPR chop (:func:`chop_ldd`) at parameter epsilon/2.  The
    total cut is at most epsilon|E| and each final cluster has diameter
    O(1/epsilon) on minor-free inputs.
    """
    from ..core.framework import partition_minor_free

    rng = ensure_rng(seed)
    outer = partition_minor_free(graph, epsilon / 2.0, seed=rng)

    final_clusters: List[Set] = []
    for cluster in outer.decomposition.clusters:
        sub = graph.subgraph(cluster)
        inner = chop_ldd(sub, epsilon / 2.0, seed=rng)
        final_clusters.extend(inner.clusters)

    result = LowDiameterDecomposition(
        graph=graph, epsilon=epsilon, clusters=final_clusters
    )
    result.cut_edges = _crossing_edges(graph, final_clusters)
    return result


def verify_ldd(
    decomposition: LowDiameterDecomposition,
    max_diameter: Optional[int] = None,
) -> Dict[str, float]:
    """Validate partition/cut consistency and the diameter bound.

    Returns a report with the cut fraction and worst diameter; raises
    :class:`DecompositionError` on partition violations, on a cut
    fraction above epsilon, or (when ``max_diameter`` is given) on a
    cluster exceeding it.
    """
    graph = decomposition.graph
    seen: Set = set()
    for cluster in decomposition.clusters:
        overlap = seen & cluster
        if overlap:
            raise DecompositionError(f"vertices in two clusters: {overlap}")
        seen |= cluster
    if seen != set(graph.vertices()):
        raise DecompositionError("clusters do not cover the vertex set")
    expected_cut = {
        edge_key(u, v) for u, v in _crossing_edges(graph, decomposition.clusters)
    }
    actual_cut = {edge_key(u, v) for u, v in decomposition.cut_edges}
    if expected_cut != actual_cut:
        raise DecompositionError("cut edge set inconsistent with clusters")
    if decomposition.cut_fraction() > decomposition.epsilon + 1e-12:
        raise DecompositionError(
            f"cut fraction {decomposition.cut_fraction():.4f} exceeds "
            f"epsilon={decomposition.epsilon}"
        )
    worst = decomposition.max_diameter()
    if max_diameter is not None and worst > max_diameter:
        raise DecompositionError(
            f"cluster diameter {worst} exceeds bound {max_diameter}"
        )
    return {
        "clusters": float(len(decomposition.clusters)),
        "cut_fraction": decomposition.cut_fraction(),
        "max_diameter": float(worst),
    }
