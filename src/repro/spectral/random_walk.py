"""Lazy random walks and mixing times (Section 2, "Mixing Time").

The paper's routing lemma (Lemma 2.4) rides on the fact that a lazy
random walk on a phi-expander mixes in O(phi^-2 log n) steps.  This
module provides the matrix form of the walk, the exact mixing time by
the paper's definition (for small graphs), the spectral estimate used
at scale, and a message-free single-walk simulator used by tests.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import GraphError, SolverError
from ..graph import Graph
from ..rng import SeedLike, ensure_rng

#: Largest vertex count for which the exact O(n^3 t) mixing time runs.
EXACT_MIXING_LIMIT = 512


def lazy_walk_matrix(graph: Graph, order: Optional[List] = None) -> np.ndarray:
    """P = 1/2 I + 1/2 A D^{-1}, columns indexed by the current vertex.

    Row u of ``P @ p`` is exactly the paper's update
    ``p_i(u) = p_{i-1}(u)/2 + sum_w p_{i-1}(w) / (2 deg(w))``.
    """
    if order is None:
        order = graph.vertices()
    a = graph.adjacency_matrix(order)
    deg = a.sum(axis=0)
    if np.any(deg == 0) and graph.n > 1:
        raise GraphError("lazy walks need a graph without isolated vertices")
    p = 0.5 * np.eye(graph.n) + 0.5 * (a / np.maximum(deg, 1.0)[None, :])
    return p


def stationary_distribution(graph: Graph, order: Optional[List] = None) -> np.ndarray:
    """pi(u) = deg(u) / vol(V) — the walk's unique fixed point."""
    if order is None:
        order = graph.vertices()
    if graph.m == 0:
        raise GraphError("stationary distribution undefined without edges")
    deg = np.array([graph.degree(v) for v in order], dtype=float)
    return deg / (2.0 * graph.m)


def mixing_time_exact(graph: Graph, max_steps: int = 1_000_000) -> int:
    """tau_mix per the paper: min t with |p_t^v(u) - pi(u)| <= pi(u)/n for all u, v.

    Computed by powering the walk matrix (each column of P^t is p_t^v),
    so intended for cluster-sized graphs.
    """
    if graph.n > EXACT_MIXING_LIMIT:
        raise SolverError(
            f"exact mixing time is limited to n <= {EXACT_MIXING_LIMIT}"
        )
    if not graph.is_connected():
        raise GraphError("mixing time is defined for connected graphs")
    if graph.n == 1:
        return 0
    order = graph.vertices()
    p = lazy_walk_matrix(graph, order)
    pi = stationary_distribution(graph, order)
    tolerance = pi / graph.n
    state = np.eye(graph.n)
    for t in range(1, max_steps + 1):
        state = p @ state
        if np.all(np.abs(state - pi[:, None]) <= tolerance[:, None] + 1e-15):
            return t
    raise SolverError(f"walk did not mix within {max_steps} steps")


def mixing_time_bound(graph: Graph) -> float:
    """Spectral upper estimate O(log|V| / Phi^2) via the Cheeger bound.

    Uses ``tau <= 2 log(n / pi_min) / gap`` with ``gap`` the spectral
    gap of the lazy walk (= lambda_2(normalized Laplacian) / 2).
    """
    from .conductance import spectral_gap

    if graph.n < 2:
        return 0.0
    gap = spectral_gap(graph) / 2.0
    if gap <= 0:
        return float("inf")
    pi_min = graph.min_degree() / (2.0 * graph.m) if graph.m else 1.0
    return float(2.0 * np.log(graph.n / max(pi_min, 1e-12)) / gap)


def simulate_lazy_walk(
    graph: Graph, start, steps: int, seed: SeedLike = None
) -> List:
    """Trajectory of one lazy random walk (start included, length steps+1)."""
    if start not in graph:
        raise GraphError(f"start vertex {start!r} not in graph")
    rng = ensure_rng(seed)
    path = [start]
    current = start
    for _ in range(steps):
        if rng.random() < 0.5 or graph.degree(current) == 0:
            path.append(current)
            continue
        current = rng.choice(graph.neighbors(current))
        path.append(current)
    return path


def hitting_fraction(
    graph: Graph,
    target,
    walk_length: int,
    trials: int,
    seed: SeedLike = None,
) -> float:
    """Fraction of random-start walks that visit ``target``.

    Empirical counterpart of the Lemma 2.4 argument that a walk of
    length O(phi^-2 log n) segments hits the high-degree vertex with
    probability Omega(phi^2) per segment.
    """
    rng = ensure_rng(seed)
    vertices = graph.vertices()
    hits = 0
    for _ in range(trials):
        start = rng.choice(vertices)
        path = simulate_lazy_walk(graph, start, walk_length, seed=rng)
        if target in path:
            hits += 1
    return hits / trials if trials else 0.0
