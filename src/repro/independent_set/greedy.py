"""Independent set baselines: min-degree greedy and Luby's MIS.

``greedy_min_degree_is`` is the constructive half of the Section 3.1
linearity argument: on a graph of edge density d the minimum degree is
at most 2d, so repeatedly taking a minimum-degree vertex yields an
independent set of size at least n/(2d+1) — the alpha(G) = Theta(n)
fact the framework's approximation analysis charges against.

``luby_mis`` is Luby's classic randomized maximal independent set run
genuinely on the CONGEST simulator; an MIS is a (1/Delta)-approximation
to MAXIS, which is the CONGEST state of the art on general graphs that
Theorem 1.2 improves upon for minor-free networks.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Set, Tuple

from ..congest import (
    CongestSimulator,
    SimulationResult,
    VertexAlgorithm,
    VertexContext,
)
from ..congest.algorithm import register_kernel
from ..congest.kernels import KernelBase, seg_any
from ..congest.message import message_bits
from ..graph import Graph
from ..rng import SeedLike


def greedy_min_degree_is(graph: Graph) -> Set:
    """Repeatedly take a minimum-degree vertex and delete its neighbors."""
    remaining: Dict = {v: set(graph.neighbors(v)) for v in graph.vertices()}
    heap = [(len(nbrs), repr(v), v) for v, nbrs in remaining.items()]
    heapq.heapify(heap)
    independent: Set = set()
    alive = set(remaining)
    while heap:
        deg, _key, v = heapq.heappop(heap)
        if v not in alive or deg != len(remaining[v] & alive):
            if v in alive:
                heapq.heappush(
                    heap, (len(remaining[v] & alive), repr(v), v)
                )
            continue
        independent.add(v)
        dead = {v} | (remaining[v] & alive)
        alive -= dead
        for u in dead:
            for w in remaining[u] & alive:
                heapq.heappush(
                    heap, (len(remaining[w] & alive), repr(w), w)
                )
    return independent


class LubyMIS(VertexAlgorithm):
    """One vertex of Luby's randomized MIS protocol.

    Each phase takes two rounds.  Odd round: every still-undecided
    vertex has broadcast a fresh random priority in the previous round;
    a vertex whose (priority, ID) beats every priority it received
    joins the MIS and announces ``IN``.  Even round: vertices that
    received an ``IN`` leave as out and halt; winners halt as in; the
    rest redraw and re-announce.  Decided vertices stop sending
    priorities, so the comparisons automatically restrict to undecided
    neighbors.  With high probability O(log n) phases decide everyone.
    """

    def __init__(self, max_phases: int) -> None:
        self.max_phases = max_phases
        self.state = "undecided"
        self.priority: Optional[Tuple[float, Any]] = None

    def initialize(self, ctx: VertexContext) -> None:
        self._draw_and_announce(ctx)

    def _draw_and_announce(self, ctx: VertexContext) -> None:
        self.priority = (ctx.rng.random(), ctx.vertex)
        ctx.broadcast(("PRI", self.priority[0]))

    def step(self, ctx: VertexContext, inbox: Dict[Any, List[Any]]) -> None:
        if ctx.round_number % 2 == 1:
            # Comparison round: join iff best among undecided neighbors.
            if self.state != "undecided":
                return
            best = True
            for neighbor, payloads in inbox.items():
                for message in payloads:
                    # A corrupted message (not a tuple) is lost.
                    if type(message) is not tuple:
                        continue
                    tag, value = message
                    if tag == "PRI" and (value, neighbor) > self.priority:
                        best = False
            if best:
                self.state = "in"
                ctx.broadcast(("IN", 0.0))
        else:
            # Resolution round: losers of an IN neighbor leave.
            if self.state == "undecided":
                for _neighbor, payloads in inbox.items():
                    if any(
                        type(message) is tuple and message[0] == "IN"
                        for message in payloads
                    ):
                        self.state = "out"
                        break
            if self.state != "undecided":
                ctx.halt(self.state == "in")
                return
            if ctx.round_number >= 2 * self.max_phases:
                # Budget exhausted (failure path); stay out.
                ctx.halt(False)
                return
            self._draw_and_announce(ctx)


@register_kernel(LubyMIS)
class LubyKernel(KernelBase):
    """Columnar twin of :class:`LubyMIS` (see ``docs/kernels.md``).

    State columns: ``status`` (0 undecided / 1 in / 2 out) and the
    current ``pri`` draw.  Inbound reconstruction: a comparison round's
    priorities are the senders' ``pri`` columns masked by who broadcast
    last round; a resolution round's ``IN`` flags are last round's
    winner mask.  Tie-breaks compare dense indices — faithful because
    canonical order is label order for the int-labelled graphs the
    ``supports`` gate admits.
    """

    @classmethod
    def _supports_population(cls, engine) -> bool:
        first = engine._algorithms[0].max_phases
        return all(a.max_phases == first for a in engine._algorithms)

    _STATES = ("undecided", "in", "out")

    def _load_columns(self) -> None:
        np = self.np
        n = self.n
        self.max_phases = self.algorithms[0].max_phases
        # Both message shapes have value-independent sizes (a 3-char
        # tag plus a float); measure once, charge per edge.
        self._pri_size = message_bits(("PRI", 0.0))
        self._in_size = message_bits(("IN", 0.0))
        self.status = np.zeros(n, np.int8)
        self.pri = np.zeros(n, np.float64)
        self.sent_pri = np.zeros(n, bool)  # broadcast PRI last round
        self.sent_in = np.zeros(n, bool)  # broadcast IN last round

    def _write_columns(self) -> None:
        # Every vertex has drawn: a kernel run initializes them all.
        status = self.status.tolist()
        pri = self.pri.tolist()
        verts = self.verts
        states = self._STATES
        for i, algo in enumerate(self.algorithms):
            algo.state = states[status[i]]
            algo.priority = (pri[i], verts[i])

    def _draw_and_announce(self, rows) -> None:
        """Columnar twin of ``LubyMIS._draw_and_announce``.

        Draws go through each vertex's scalar generator (see the "RNG
        discipline" section of ``docs/kernels.md``): the protocol
        consumes O(log n) words per vertex, far too few to amortize
        columnar stream adoption, and scalar draws keep the per-vertex
        streams bit-identical by construction.
        """
        pri = self.pri
        self.sent_pri[:] = False
        self.sent_pri[rows] = True
        contexts = self.contexts
        payloads = []
        append = payloads.append
        for i in rows.tolist():
            p = contexts[i].rng.random()
            pri[i] = p
            append(("PRI", p))
        self._emit_broadcast(rows, payloads, size=self._pri_size)

    def _initialize_rows(self, rows) -> None:
        self._draw_and_announce(rows)

    def _step_rows(self, rows, round_number: int) -> None:
        status = self.status
        if round_number % 2 == 1:
            # Comparison round: join iff best among undecided neighbors.
            undecided = rows[status[rows] == 0]
            nbr = self.nbr
            dst = self.edge_dst
            nbrp = self.pri[nbr]
            dstp = self.pri[dst]
            beat_e = self.sent_pri[nbr] & (
                (nbrp > dstp) | ((nbrp == dstp) & (nbr > dst))
            )
            beaten = seg_any(beat_e, self.indptr)
            winners = undecided[~beaten[undecided]]
            status[winners] = 1
            self.sent_pri[:] = False
            self.sent_in[:] = False
            self.sent_in[winners] = True
            self._emit_broadcast(
                winners,
                [("IN", 0.0) for _ in range(winners.shape[0])],
                size=self._in_size,
            )
        else:
            # Resolution round: losers of an IN neighbor leave.
            undecided = rows[status[rows] == 0]
            saw_in = seg_any(self.sent_in[self.nbr], self.indptr)
            out_rows = undecided[saw_in[undecided]]
            status[out_rows] = 2
            decided = rows[status[rows] != 0]
            for i, s in zip(decided.tolist(), status[decided].tolist()):
                self._halt(i, s == 1)
            self.sent_in[:] = False
            remaining = rows[status[rows] == 0]
            if remaining.size == 0:
                self.sent_pri[:] = False
                return
            if round_number >= 2 * self.max_phases:
                # Budget exhausted (failure path); stay out.
                self.sent_pri[:] = False
                for i in remaining.tolist():
                    self._halt(i, False)
                return
            self._draw_and_announce(remaining)


def luby_mis_max_phases(n: int) -> int:
    """The pinned phase budget for an ``n``-vertex Luby MIS run."""
    import math

    return 8 * max(1, math.ceil(math.log2(n + 2)))


def luby_mis_protocol(n: int, max_phases: Optional[int] = None):
    """``(vertex factory, round budget)`` of an ``n``-vertex Luby MIS
    run: the one definition :func:`luby_mis` and
    :func:`repro.resilience.graded_run` build their simulator from."""
    if max_phases is None:
        max_phases = luby_mis_max_phases(n)
    return (lambda v: LubyMIS(max_phases)), 2 * max_phases + 4


def mis_from_outputs(outputs) -> Set:
    """The vertices whose output claims MIS membership."""
    return {v for v, in_mis in outputs.items() if in_mis}


def luby_mis(
    graph: Graph,
    seed: SeedLike = None,
    max_phases: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    on_checkpoint=None,
) -> Tuple[Set, SimulationResult]:
    """Run Luby's MIS on the CONGEST simulator; returns (MIS, result).

    ``checkpoint_every``/``on_checkpoint`` pass straight through to
    :meth:`~repro.congest.network.CongestSimulator.run`, so long runs
    can persist :class:`~repro.congest.checkpoint.SimulationCheckpoint`
    snapshots (``repro faults --save-checkpoint``).
    """
    factory, max_rounds = luby_mis_protocol(graph.n, max_phases)
    result = CongestSimulator(graph, factory, seed=seed).run(
        max_rounds=max_rounds,
        checkpoint_every=checkpoint_every,
        on_checkpoint=on_checkpoint,
    )
    return mis_from_outputs(result.outputs), result
