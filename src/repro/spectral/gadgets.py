"""Vertex splitting into constant-degree expander gadgets (Lemma 2.5).

The deterministic routing of Lemma 2.5 preprocesses each cluster G_i by
replacing every vertex v with a deg(v)-vertex gadget X_v of Theta(1)
conductance and Theta(1) maximum degree, attaching v's edges to
distinct gadget vertices.  The resulting graph G'_i has maximum degree
O(1) and sparsity Psi(G'_i) = Theta(Phi(G_i)) ([20, Lemma C.2]), which
is what lets flow-based routing run on it.

We implement the transformation (the paper's flow machinery itself is
out of scope — see docs/theorems.md), using the classic
cycle-plus-random-matching construction for the gadgets (w.h.p. an
expander; the test suite certifies each gadget's spectral gap), and an
exact sparsity computation so the Theta relation can be measured on
small instances.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Set, Tuple

from ..errors import GraphError, SolverError
from ..graph import Graph
from ..rng import SeedLike, ensure_rng

#: Largest vertex count for which exact (2^n) sparsity is allowed.
EXACT_SPARSITY_LIMIT = 20


def expander_gadget(size: int, seed: SeedLike = None) -> Graph:
    """A Theta(1)-conductance, max-degree <= 5 graph on ``size`` vertices.

    For size <= 4 the complete graph; otherwise a cycle plus a random
    perfect matching on vertex positions (the classic whp-expander
    construction), retried until connected with a positive spectral
    gap.
    """
    if size < 1:
        raise GraphError("gadget size must be positive")
    if size <= 4:
        g = Graph()
        for v in range(size):
            g.add_vertex(v)
        for u, v in combinations(range(size), 2):
            g.add_edge(u, v)
        return g
    rng = ensure_rng(seed)
    for _attempt in range(20):
        g = Graph()
        for v in range(size):
            g.add_vertex(v)
        for v in range(size):
            g.add_edge(v, (v + 1) % size)
        order = list(range(size))
        rng.shuffle(order)
        for i in range(0, size - 1, 2):
            u, v = order[i], order[i + 1]
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v)
        if g.is_connected():
            return g
    raise SolverError("failed to build a connected gadget")


def split_vertices(
    graph: Graph, seed: SeedLike = None
) -> Tuple[Graph, Dict]:
    """Replace each vertex by an expander gadget (the G' of Lemma 2.5).

    Returns ``(split_graph, ports)`` where ``ports[(u, v)]`` is the
    gadget vertex of u that carries the original edge {u, v}.  Gadget
    vertices are labeled ``(v, i)`` for ``i < deg(v)`` (isolated
    vertices keep a single ``(v, 0)`` node).  The split graph has
    maximum degree <= 7 (gadget degree <= 5 plus the attached edge,
    with slack for tiny gadgets).
    """
    rng = ensure_rng(seed)
    split = Graph()
    ports: Dict = {}

    for v in graph.vertices():
        degree = max(1, graph.degree(v))
        gadget = expander_gadget(degree, seed=rng.getrandbits(64))
        for i in gadget.vertices():
            split.add_vertex((v, i))
        for a, b in gadget.edges():
            split.add_edge((v, a), (v, b))
        for i, u in enumerate(sorted(graph.neighbors(v), key=repr)):
            ports[(v, u)] = (v, i)

    for u, v in graph.edges():
        split.add_edge(ports[(u, v)], ports[(v, u)], graph.weight(u, v))
    return split, ports


def exact_sparsity(graph: Graph) -> Tuple[float, Set]:
    """Brute-force Psi(G) = min |boundary(S)| / min(|S|, |V \\ S|)."""
    if graph.n > EXACT_SPARSITY_LIMIT:
        raise SolverError(
            f"exact sparsity is limited to n <= {EXACT_SPARSITY_LIMIT}"
        )
    if graph.n < 2:
        raise GraphError("sparsity needs at least two vertices")
    vertices = graph.vertices()
    anchor = vertices[0]
    rest = vertices[1:]
    best = float("inf")
    best_cut: Set = set()
    for r in range(len(rest) + 1):
        for combo in combinations(rest, r):
            s = {anchor, *combo}
            if len(s) == graph.n:
                continue
            value = graph.sparsity_of_cut(s)
            if value < best:
                best = value
                best_cut = s
    return best, best_cut
