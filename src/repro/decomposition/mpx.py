"""Distributed low-diameter decomposition via exponential shifts (MPX).

The Miller-Peng-Xu clustering is the classic *distributed* LDD the
paper's Theorem 1.5 improves upon on minor-free networks: every vertex
u draws a shift delta_u ~ Exp(beta), and each vertex v joins the
cluster of the u maximizing delta_u - d(u, v).  With beta = eps / 2
each edge is cut with probability O(eps) and clusters have diameter
O(log n / eps) with high probability — the eps^{-1} log n diameter that
Theorem 1.5's O(1/eps) beats.

The construction here runs genuinely message-by-message on the CONGEST
simulator: each vertex floods its best known (shift - distance) key and
adopts improvements, a shifted-BFS wave that stabilizes within
max-shift + cluster-diameter rounds.  Shifts travel as fixed-point
integers so messages stay within the O(log n)-bit budget.
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
from ..congest.algorithm import register_kernel
from ..congest.kernels import KernelBase, int_bit_lengths, seg_max
from ..errors import DecompositionError
from ..graph import Graph
from ..rng import SeedLike, ensure_rng
from .low_diameter import LowDiameterDecomposition, _crossing_edges

#: Fixed-point denominator for shipping fractional shifts in messages.
SHIFT_SCALE = 1_000_000


class MPXClustering(VertexAlgorithm):
    """One vertex of the exponential-shift clustering protocol.

    State: the best key (shift_u - d(u, v), tie-broken by root ID) seen
    so far.  Protocol: broadcast your own candidacy at start; whenever
    the best key improves, re-broadcast it with the distance
    incremented.  Halt at the round budget with the adopted root.
    """

    def __init__(self, beta: float, shift_cap: float, budget: int) -> None:
        self.beta = beta
        self.shift_cap = shift_cap
        self.budget = budget
        # (scaled shift of root, root, hop distance to root); the
        # adoption key is (scaled_shift - dist * SCALE, root).
        self.best: Optional[Tuple[int, Any, int]] = None

    @staticmethod
    def _key(scaled: int, root: Any, dist: int) -> Tuple[int, Any]:
        return (scaled - dist * SHIFT_SCALE, root)

    def initialize(self, ctx: VertexContext) -> None:
        shift = min(ctx.rng.expovariate(self.beta), self.shift_cap)
        scaled = int(shift * SHIFT_SCALE)
        self.best = (scaled, ctx.vertex, 0)
        ctx.broadcast((ctx.vertex, scaled, 0))

    def step(self, ctx: VertexContext, inbox: Dict[Any, List[Any]]) -> None:
        improved = False
        for payloads in inbox.values():
            for message in payloads:
                # A corrupted message (not a tuple) is lost.
                if type(message) is not tuple:
                    continue
                root, scaled, dist = message
                candidate = (scaled, root, dist + 1)
                if self._key(*candidate) > self._key(*self.best):
                    self.best = candidate
                    improved = True
        if improved:
            scaled, root, dist = self.best
            ctx.broadcast((root, scaled, dist))
        if ctx.round_number >= self.budget:
            ctx.halt(self.best[1])


@register_kernel(MPXClustering)
class MPXKernel(KernelBase):
    """Columnar twin of :class:`MPXClustering` (see ``docs/kernels.md``).

    A vertex's last broadcast always equals its current best (any
    improvement re-broadcasts), so inbound candidates reconstruct from
    the senders' best columns masked by who broadcast last round.  The
    lexicographic max over (key, root) runs as three masked segment
    maxima, and not at all in the settled rounds after one in which
    nobody broadcast.  The exponential shifts are drawn from each
    vertex's scalar generator and mapped through ``math.log`` per
    vertex, because NumPy's SIMD ``log`` is not guaranteed ULP-identical
    to libm's.
    """

    #: Sentinel below any reachable adoption key.
    _KEY_MIN = -(2**62)

    @classmethod
    def _supports_population(cls, engine) -> bool:
        first = engine._algorithms[0]
        return all(
            a.beta == first.beta
            and a.shift_cap == first.shift_cap
            and a.budget == first.budget
            for a in engine._algorithms
        )

    def _load_columns(self) -> None:
        np = self.np
        n = self.n
        algo = self.algorithms[0]
        self.beta = algo.beta
        self.shift_cap = algo.shift_cap
        self.budget = algo.budget
        # Label column for vectorized payload sizing (labels are ints
        # wherever a kernel engages).
        self.labels = np.array(self.verts, dtype=np.int64)
        self.best_scaled = np.zeros(n, np.int64)
        self.best_root = np.zeros(n, np.int64)
        self.best_dist = np.zeros(n, np.int64)
        self.best_key = np.full(n, self._KEY_MIN, np.int64)
        self.sent = np.zeros(n, bool)  # broadcast in the last round

    def _write_columns(self) -> None:
        # Every vertex has a best: a kernel run initializes them all.
        verts = self.verts
        scaled = self.best_scaled.tolist()
        root = self.best_root.tolist()
        dist = self.best_dist.tolist()
        for i, algo in enumerate(self.algorithms):
            algo.best = (scaled[i], verts[root[i]], dist[i])

    def _broadcast(self, rows) -> None:
        verts = self.verts
        scaled = self.best_scaled[rows]
        root = self.best_root[rows]
        dist = self.best_dist[rows]
        self.sent[:] = False
        self.sent[rows] = True

        def payloads():
            s = scaled.tolist()
            r = root.tolist()
            d = dist.tolist()
            return [(verts[r[k]], s[k], d[k]) for k in range(len(r))]

        # (label, scaled, dist) int triples: 2 bits of tuple framing
        # plus three (bit_length + 3)-bit fields, computed columnar so
        # the hot path builds no payload objects.
        sizes = (
            11
            + int_bit_lengths(self.labels[root])
            + int_bit_lengths(scaled)
            + int_bit_lengths(dist)
        )
        self._emit_broadcast(rows, payloads, size=sizes)

    def _initialize_rows(self, rows) -> None:
        # One scalar draw per vertex (the only draw of the protocol);
        # per-vertex math.log keeps bit-parity with rng.expovariate.
        # See "RNG discipline" in docs/kernels.md for why draws this
        # sparse stay on the scalar generators.
        contexts = self.contexts
        log = math.log
        beta = self.beta
        cap = self.shift_cap
        scaled = [
            int(
                min(-log(1.0 - contexts[i].rng.random()) / beta, cap)
                * SHIFT_SCALE
            )
            for i in rows.tolist()
        ]
        self.best_scaled[rows] = scaled
        self.best_root[rows] = rows
        self.best_dist[rows] = 0
        self.best_key[rows] = self.best_scaled[rows]
        self._broadcast(rows)

    def _step_rows(self, rows, round_number: int) -> None:
        np = self.np
        if self.sent.any():
            # Once a round passes with no broadcast the wave has
            # settled: every candidate would be masked to _KEY_MIN, no
            # row could improve and ``sent`` is already clear, so the
            # reduction is skipped and only the halt below runs.
            nbr = self.nbr
            indptr = self.indptr
            dst = self.edge_dst
            key_min = self._KEY_MIN
            cand_key = self.best_scaled[nbr] - (
                self.best_dist[nbr] + 1
            ) * SHIFT_SCALE
            cand_root = self.best_root[nbr]
            masked = np.where(self.sent[nbr], cand_key, key_min)
            key_max = seg_max(masked, indptr, key_min)
            # Lexicographic tie-break on the root, then recover the
            # winner's distance (equal-key equal-root candidates share
            # one distance, since a root's scaled shift is constant).
            tie = self.sent[nbr] & (cand_key == key_max[dst])
            root_max = seg_max(np.where(tie, cand_root, -1), indptr, -1)
            tie &= cand_root == root_max[dst]
            dist_win = seg_max(
                np.where(tie, self.best_dist[nbr] + 1, -1), indptr, -1
            )
            due = np.zeros(self.n, bool)
            due[rows] = True
            improved = due & (
                (key_max > self.best_key)
                | ((key_max == self.best_key) & (root_max > self.best_root))
            )
            improved_rows = np.nonzero(improved)[0]
            if improved_rows.size:
                self.best_key[improved_rows] = key_max[improved_rows]
                self.best_root[improved_rows] = root_max[improved_rows]
                self.best_dist[improved_rows] = dist_win[improved_rows]
                self.best_scaled[improved_rows] = (
                    key_max[improved_rows]
                    + dist_win[improved_rows] * SHIFT_SCALE
                )
            if improved_rows.size:
                self._broadcast(improved_rows)
            else:
                self.sent[:] = False
        if round_number >= self.budget:
            verts = self.verts
            for i, r in zip(rows.tolist(), self.best_root[rows].tolist()):
                self._halt(i, verts[r])


def mpx_ldd(
    graph: Graph,
    epsilon: float,
    seed: SeedLike = None,
    beta: Optional[float] = None,
) -> Tuple[LowDiameterDecomposition, SimulationResult]:
    """Run the distributed MPX clustering; returns (LDD, simulation).

    ``beta`` defaults to epsilon / 2, so the expected cut fraction is
    at most epsilon (each edge is cut with probability <= 1 - e^{-beta}
    <= beta per endpoint ordering).  The LDD's cut budget is therefore
    probabilistic — callers that need a hard budget retry with a fresh
    seed (the benchmark does, and reports the observed distribution).
    """
    if not 0.0 < epsilon < 1.0:
        raise DecompositionError("epsilon must lie in (0, 1)")
    if graph.n == 0:
        raise DecompositionError("cannot decompose an empty graph")
    rng = ensure_rng(seed)
    if beta is None:
        beta = epsilon / 2.0
    shift_cap = 4.0 * math.log(graph.n + 2) / beta
    budget = int(math.ceil(shift_cap)) + 4

    simulator = CongestSimulator(
        graph,
        lambda v: MPXClustering(beta, shift_cap, budget),
        seed=rng.getrandbits(64),
    )
    result = simulator.run(max_rounds=budget + 2)

    by_root: Dict[Any, set] = {}
    for v, root in result.outputs.items():
        by_root.setdefault(root, set()).add(v)
    clusters = list(by_root.values())
    ldd = LowDiameterDecomposition(
        graph=graph, epsilon=epsilon, clusters=clusters
    )
    ldd.cut_edges = _crossing_edges(graph, clusters)
    return ldd, result
