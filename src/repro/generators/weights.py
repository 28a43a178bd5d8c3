"""Edge weight and edge sign workload generators.

The MWM experiments (Theorem 1.1) need positive integer weights with a
controllable maximum W, matching the paper's assumption.  The
correlation clustering experiments (Theorem 1.3) need +/- edge labels;
:func:`planted_signs` produces the classic planted-partition workload
(intra-community edges positive, inter-community negative, with noise)
that motivates the problem's applications.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..errors import GraphError
from ..graph import Graph, Vertex, edge_key
from ..rng import SeedLike, ensure_rng

Sign = int  # +1 or -1
SignMap = Dict[Tuple[Vertex, Vertex], Sign]


def random_integer_weights(
    graph: Graph, max_weight: int, seed: SeedLike = None
) -> Graph:
    """Copy of ``graph`` with i.i.d. uniform weights in {1, ..., W}."""
    if max_weight < 1:
        raise GraphError("max_weight must be a positive integer")
    rng = ensure_rng(seed)
    g = Graph()
    for v in graph.vertices():
        g.add_vertex(v)
    for u, v in graph.edges():
        g.add_edge(u, v, float(rng.randint(1, max_weight)))
    return g


def with_weights(graph: Graph, weights: Dict[Tuple[Vertex, Vertex], float]) -> Graph:
    """Copy of ``graph`` with explicit per-edge weights.

    ``weights`` is keyed by canonical edge keys; missing edges keep
    their current weight.
    """
    g = graph.copy()
    for (u, v), w in weights.items():
        if not g.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph")
        g.add_edge(u, v, w)
    return g


def random_signs(graph: Graph, positive_fraction: float = 0.5, seed: SeedLike = None) -> SignMap:
    """Label each edge +1 with the given probability, else -1."""
    if not 0.0 <= positive_fraction <= 1.0:
        raise GraphError("positive_fraction must lie in [0, 1]")
    rng = ensure_rng(seed)
    return {
        edge_key(u, v): (1 if rng.random() < positive_fraction else -1)
        for u, v in graph.edges()
    }


def planted_signs(
    graph: Graph,
    communities: int,
    noise: float = 0.1,
    seed: SeedLike = None,
) -> Tuple[SignMap, Dict[Vertex, int]]:
    """Planted-partition edge signs.

    Vertices are assigned to ``communities`` groups uniformly at
    random; intra-community edges are labeled +1 and inter-community
    edges -1, then each label is flipped independently with probability
    ``noise``.  Returns ``(signs, ground_truth_community)``.
    """
    if communities < 1:
        raise GraphError("need at least one community")
    if not 0.0 <= noise <= 1.0:
        raise GraphError("noise must lie in [0, 1]")
    rng = ensure_rng(seed)
    community = {v: rng.randrange(communities) for v in graph.vertices()}
    signs: SignMap = {}
    for u, v in graph.edges():
        sign = 1 if community[u] == community[v] else -1
        if rng.random() < noise:
            sign = -sign
        signs[edge_key(u, v)] = sign
    return signs, community
