"""Conductance: exact computation, spectral certificates, sweep cuts.

The expander decomposition needs two directions of evidence about a
cluster G_i:

* an *upper bound* witness — a concrete low-conductance cut, found by a
  sweep over the Fiedler vector, telling the decomposition where to
  split; and
* a *lower bound* certificate — Cheeger's inequality
  ``Phi(G) >= lambda_2 / 2`` on the normalized Laplacian, proving that
  a finished cluster really is a phi-expander.

Exact conductance (brute force over all cuts) is provided for small
graphs and is what the test suite pins both bounds against.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Set, Tuple

import numpy as np
from scipy.linalg import eigh as _scipy_eigh

from ..errors import GraphError, SolverError
from ..graph import Graph

#: Largest vertex count for which exact (2^n) conductance is allowed.
EXACT_CONDUCTANCE_LIMIT = 20

#: Matrix size above which only the two smallest eigenpairs are computed
#: (LAPACK ``syevr`` range selection) instead of the full spectrum.
_PARTIAL_EIGH_MIN_N = 64


def _smallest_two(lap: np.ndarray, vectors: bool):
    """Eigenvalues (and optionally vectors) for the two smallest pairs.

    Large Laplacians only ever need ``lambda_2`` and its eigenvector, so
    restricting the solve to the bottom of the spectrum avoids the full
    O(n^3) dense eigendecomposition on big clusters.
    """
    if lap.shape[0] >= _PARTIAL_EIGH_MIN_N:
        return _scipy_eigh(
            lap, subset_by_index=[0, 1], eigvals_only=not vectors
        )
    if vectors:
        return np.linalg.eigh(lap)
    return np.linalg.eigvalsh(lap)


def exact_conductance(graph: Graph) -> Tuple[float, Set]:
    """Brute-force Phi(G) and an optimal cut; exponential, small n only.

    Subsets are walked as adjacency bitmasks (cut size and volume come
    from ``int.bit_count`` instead of set algebra), which makes the
    2^n sweep cheap enough that the expander decomposition can afford
    exact certificates for every small cluster.  Enumeration order and
    tie-breaking match the original set-based implementation exactly.
    """
    if graph.n > EXACT_CONDUCTANCE_LIMIT:
        raise SolverError(
            f"exact conductance is limited to n <= {EXACT_CONDUCTANCE_LIMIT}"
        )
    if graph.n < 2:
        raise GraphError("conductance needs at least two vertices")
    vertices = graph.vertices()
    n = graph.n
    index = {v: i for i, v in enumerate(vertices)}
    degrees = [graph.degree(v) for v in vertices]
    adj_masks = []
    for v in vertices:
        mask = 0
        for u in graph.neighbors(v):
            mask |= 1 << index[u]
        adj_masks.append(mask)
    total_volume = 2 * graph.m
    full = (1 << n) - 1

    best = float("inf")
    best_mask = 0
    anchor_deg = degrees[0]
    anchor_adj = adj_masks[0]
    # It suffices to enumerate subsets containing vertices[0] (cut
    # symmetry) of size 1..n-1.
    rest = list(range(1, n))
    for r in range(len(rest) + 1):
        if r + 1 == n:
            continue
        for combo in combinations(rest, r):
            mask = 1
            vol_s = anchor_deg
            for i in combo:
                mask |= 1 << i
                vol_s += degrees[i]
            complement = full & ~mask
            other = min(vol_s, total_volume - vol_s)
            if other == 0:
                # A side with zero volume is a disconnection witness.
                phi = 0.0
            else:
                cut = (anchor_adj & complement).bit_count()
                for i in combo:
                    cut += (adj_masks[i] & complement).bit_count()
                phi = cut / other
            if phi < best:
                best = phi
                best_mask = mask
    best_cut = {vertices[i] for i in range(n) if best_mask >> i & 1}
    return best, best_cut


def normalized_laplacian(graph: Graph, order: Optional[List] = None) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2}; isolated vertices get L[i, i] = 0."""
    if order is None:
        order = graph.vertices()
    a = graph.adjacency_matrix(order)
    deg = a.sum(axis=1)
    with np.errstate(divide="ignore"):
        d_inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    lap = -a * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
    np.fill_diagonal(lap, np.where(deg > 0, 1.0, 0.0))
    return lap


def spectral_gap(graph: Graph) -> float:
    """lambda_2 of the normalized Laplacian (0 iff disconnected)."""
    if graph.n < 2:
        raise GraphError("spectral gap needs at least two vertices")
    lap = normalized_laplacian(graph)
    eigenvalues = _smallest_two(lap, vectors=False)
    return float(max(0.0, eigenvalues[1]))


def fiedler_vector(graph: Graph, order: Optional[List] = None) -> np.ndarray:
    """Eigenvector of the normalized Laplacian for lambda_2."""
    if order is None:
        order = graph.vertices()
    lap = normalized_laplacian(graph, order)
    _, vectors = _smallest_two(lap, vectors=True)
    return vectors[:, 1]


def lambda2_and_fiedler(graph: Graph) -> Tuple[float, np.ndarray]:
    """``(lambda_2, Fiedler vector)`` from a single partial eigensolve.

    The expander decomposition needs both the Cheeger certificate
    (``lambda_2 / 2``) and — when the certificate fails — the Fiedler
    vector to sweep along.  Both come from the same normalized
    Laplacian, so solving once halves the dominant eigensolver cost of
    the decomposition.  The vector is in ``graph.vertices()`` order,
    matching what :func:`sweep_cut` expects via its ``vector`` argument.
    """
    if graph.n < 2:
        raise GraphError("spectral gap needs at least two vertices")
    lap = normalized_laplacian(graph)
    values, vectors = _smallest_two(lap, vectors=True)
    return float(max(0.0, values[1])), vectors[:, 1]


def cheeger_bounds(graph: Graph) -> Tuple[float, float]:
    """(lambda_2 / 2, sqrt(2 * lambda_2)): Cheeger's sandwich on Phi(G)."""
    gap = spectral_gap(graph)
    return gap / 2.0, float(np.sqrt(2.0 * gap))


def conductance_lower_bound(graph: Graph) -> float:
    """Certified lower bound on Phi(G): lambda_2 / 2.

    This is the certificate attached to every cluster the expander
    decomposition emits.
    """
    if graph.n < 2:
        # A single vertex is vacuously a perfect expander.
        return 1.0
    return cheeger_bounds(graph)[0]


def sweep_cut(
    graph: Graph,
    vector: Optional[np.ndarray] = None,
    balanced: bool = False,
    rng=None,
    slack: float = 1.0,
) -> Tuple[float, Set]:
    """Best prefix cut of a vertex ordering by the (scaled) Fiedler vector.

    Sorts vertices by ``D^{-1/2} v`` (the degree-normalized Fiedler
    embedding) and evaluates the conductance of every prefix, returning
    the minimum.  Cheeger's proof guarantees the result is at most
    ``sqrt(2 * lambda_2)``, i.e. within a quadratic factor of optimal.

    With ``balanced=True``, only prefixes whose sides both contain at
    least |V|/3 vertices are considered — the variant used to build
    edge separators (Theorem 1.6).

    With ``rng`` set and ``slack > 1``, return a uniformly random
    prefix among those with conductance at most ``slack`` times the
    best — the randomization hook iterated algorithms (distributed MWM)
    use to vary cluster boundaries between rounds while keeping the
    conductance guarantee within the slack factor.
    """
    if graph.n < 2:
        raise GraphError("sweep cut needs at least two vertices")
    order = graph.vertices()
    if vector is None:
        vector = fiedler_vector(graph, order)
    degrees = np.array([max(1, graph.degree(v)) for v in order], dtype=float)
    embedding = vector / np.sqrt(degrees)
    ranked = [order[i] for i in np.argsort(embedding)]

    total_volume = 2 * graph.m
    prefix: Set = set()
    cut_edges = 0
    vol = 0
    candidates: List[Tuple[float, int]] = []  # (phi, prefix length)
    for i, v in enumerate(ranked[:-1]):
        # Incremental cut-size update: edges into the prefix flip from
        # cut to internal; edges out of the prefix become cut.
        for u in graph.neighbors(v):
            if u in prefix:
                cut_edges -= 1
            else:
                cut_edges += 1
        prefix.add(v)
        vol += graph.degree(v)
        size = i + 1
        if balanced and not (
            size * 3 >= graph.n and (graph.n - size) * 3 >= graph.n
        ):
            continue
        denom = min(vol, total_volume - vol)
        phi = cut_edges / denom if denom > 0 else 0.0
        candidates.append((phi, size))

    if not candidates:
        # No balanced prefix existed (tiny graphs): fall back to the
        # most balanced split available.
        half = max(1, graph.n // 2)
        cut = set(ranked[:half])
        return graph.conductance_of_cut(cut), cut

    best = min(phi for phi, _size in candidates)
    if rng is not None and slack > 1.0:
        eligible = [
            size for phi, size in candidates if phi <= slack * best + 1e-12
        ]
        chosen = rng.choice(eligible)
    else:
        chosen = min(
            (size for phi, size in candidates if phi <= best + 1e-12)
        )
    cut = set(ranked[:chosen])
    return graph.conductance_of_cut(cut), cut
