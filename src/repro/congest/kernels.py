"""Shared runtime for round kernels (fast engine only).

A registered kernel replaces the fast engine's per-vertex
``initialize``/``step`` loop for one algorithm class.  There are two
kinds, told apart by the kernel class itself:

* A **columnar** kernel (a :class:`KernelBase` subclass) keeps NumPy
  columns — one entry per vertex, with CSR adjacency for neighborhood
  reductions.  It sends only through :meth:`KernelBase._emit_broadcast`
  / :meth:`KernelBase._emit_send`, which collect the round's sends into
  one :class:`SendPlan`; ``FastEngine._collect`` charges the plan
  vectorized (:meth:`SendPlan.account`) with exactly the bits, errors,
  and per-edge counts the scalar drain of the same sends would produce.
  Every columnar run takes dense rounds: every live vertex is due
  every round, so :meth:`KernelBase.step_round` steps the live indices
  as one array and drops the indices it halts.  Random draws stay on
  the per-vertex scalar generators (``ctx.rng``): the registered
  protocols consume O(log n) words per vertex, far too few to amortize
  columnar stream adoption (see the measurements in
  ``docs/kernels.md``).
* A kernel that **keeps its own schedule** (the walk exchange's, in
  :mod:`repro.routing.walk_exchange`) is plain Python over the vertex
  objects.  It steps exactly the vertices the per-vertex scheduler
  would, derived from its own state instead of the ``is_idle`` /
  ``next_wakeup`` hints, so its algorithm may override them.

Both kinds meet the engine through one interface, driven by
``FastEngine._run_kernel``: ``initialize(cohort)``; ``next_round(r)``,
the next round after ``r`` in which a live vertex is due, which the
engine fast-forwards to; ``step_round(r)``, which steps that round's
due vertices and returns ``(stepped, halted)`` as rank sequences; a
plan left in ``engine._send_plan`` for the round's sends, whose
``account(engine)`` charges them and whose ``materialize(engine)``
writes them into the pending inboxes at a checkpoint capture; and
``sync()``, which writes the kernel's state back into the scalar
objects (and, for a kernel with its own schedule, the scheduler's
fields and the pending inboxes, so its ``materialize`` has nothing
left to do) at every observation point.

Activation (:func:`maybe_build_kernel`) runs once, at the first
``run()`` of a fresh fast engine, and is deliberately conservative.
A kernel engages only when

* kernels are enabled (the ``REPRO_NO_KERNELS`` environment variable
  or :func:`~repro.congest.algorithm.set_kernels_enabled` flip this
  off),
* for a columnar kernel: the population is at least
  ``kernel_threshold()`` vertices big,
* the population is uniform (every vertex runs the same registered
  algorithm class) and the kernel ``supports`` it,
* the run has no fault plan: kernels reconstruct inbound traffic from
  their own record of the previous round's sends, which is only
  faithful on the model's lossless, static channel.  (An empty plan
  compiles to no plan at all.)

A run restored from a checkpoint never builds a kernel (nor counts a
``congest.kernel.*`` activation): it finishes on the per-vertex path
from the restored inbox dictionaries.  The fallback is always silent
and always bit-identical — a kernel is a pure performance feature
(``tests/test_kernels.py`` and ``tests/test_walk_kernel.py`` pin this).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import MessageTooLargeError
from .algorithm import kernel_class_for, kernel_threshold, kernels_enabled
from .message import message_bits

#: Private sentinel distinguishing "no shared payload" from a shared
#: payload of ``None`` (a legal CONGEST signal).
_NO_PAYLOAD = object()


def maybe_build_kernel(engine) -> Optional[object]:
    """Build the registered kernel for ``engine``, or ``None`` to run
    scalar.  See the module docstring for the activation rules."""
    algorithms = engine._algorithms
    if not algorithms:
        return None
    cls = type(algorithms[0])
    kernel_cls = kernel_class_for(cls)
    if kernel_cls is None:
        return None
    # Only columnar kernels build NumPy columns, and only they cost
    # more than they save on small graphs.
    columnar = issubclass(kernel_cls, KernelBase)
    reason = None
    if not kernels_enabled():
        reason = "disabled"
    elif columnar and engine._n < kernel_threshold():
        reason = "below-threshold"
    elif any(type(a) is not cls for a in algorithms):
        reason = "mixed-population"
    elif getattr(engine, "_want_detail", False):
        # Per-message provenance tracing needs the scalar channel;
        # kernels never materialize individual transmissions.
        reason = "trace-detail"
    elif engine.faults is not None:
        reason = "fault-plan"
    elif not kernel_cls.supports(engine):
        reason = "unsupported-population"
    registry = engine._registry
    if reason is not None:
        # Diagnostic only: congest.kernel.* counters are excluded from
        # telemetry identity comparisons (see Registry.comparable_dict).
        if registry is not None:
            registry.count("congest.kernel.fallback")
        return None
    kernel = kernel_cls(engine)
    if registry is not None:
        registry.count("congest.kernel.engaged")
    return kernel


# -- CSR segment reductions --------------------------------------------------

def seg_count(flags, indptr):
    """Per-row count of true flags over CSR edge data."""
    csum = np.concatenate(
        (np.zeros(1, np.int64), np.cumsum(flags, dtype=np.int64))
    )
    return csum[indptr[1:]] - csum[indptr[:-1]]


def seg_any(flags, indptr):
    """Per-row "any flag true" over CSR edge data."""
    return seg_count(flags, indptr) > 0


def seg_max(vals, indptr, empty):
    """Per-row max over CSR edge data; empty rows yield ``empty``.

    ``np.maximum.reduceat`` mishandles empty segments (it returns the
    element *at* the segment start); padding with a sentinel and
    overwriting empty rows afterwards restores exact semantics.
    """
    n_rows = indptr.shape[0] - 1
    if vals.shape[0] == 0:
        return np.full(n_rows, empty, dtype=vals.dtype)
    padded = np.append(vals, vals.dtype.type(empty))
    starts = np.minimum(indptr[:-1], vals.shape[0])
    out = np.maximum.reduceat(padded, starts)
    out[indptr[:-1] == indptr[1:]] = empty
    return out


# -- send plans --------------------------------------------------------------

def int_bit_lengths(vals):
    """Vectorized ``int.bit_length() or 1`` for an integer column.

    Matches :func:`repro.congest.message.message_bits`'s charge for an
    int field (before the sign/framing extra): ``frexp`` on the exact
    float64 image of the magnitude yields the bit length, which is
    exact for ``|value| < 2**53`` — far beyond any vertex label or
    fixed-point shift the kernels ship.  Zero maps to 1, like scalar.
    """
    mags = np.abs(vals)
    if mags.size and int(mags.max()) >= 2**53:
        raise ValueError("int_bit_lengths requires |values| < 2**53")
    return np.maximum(
        np.frexp(mags.astype(np.float64))[1], 1
    ).astype(np.int64)


def _too_large(verts, size: int, budget_bits: int, sender, receiver):
    """The error the scalar drain raises for one over-budget send
    between ranks ``sender`` and ``receiver``."""
    return MessageTooLargeError(
        size,
        budget_bits,
        detail=f"from {verts[int(sender)]!r} to {verts[int(receiver)]!r}",
    )


class SendPlan:
    """One round of kernel sends in columnar form.

    A plan holds the segments a kernel emitted through
    :meth:`KernelBase._emit_broadcast` / :meth:`KernelBase._emit_send`
    this round.  Each segment is ``(kind, rows, targets, payloads,
    shared, size)``:

    * ``kind`` — ``"b"`` (broadcast to every CSR neighbor of each row)
      or ``"u"`` (one explicit target per row);
    * ``rows`` — ascending dense sender indices;
    * ``targets`` — dense receiver indices aligned with ``rows``
      (``kind == "u"`` only);
    * ``payloads`` — a per-row payload column, a zero-argument
      callable returning one (built only if the plan materializes, so
      the hot path never constructs payload objects), or ``None`` when
      every row sends the ``shared`` payload object;
    * ``size`` — the ``message_bits`` of the payloads: a uniform int,
      a per-row ``int64`` column aligned with ``rows`` (computed
      vectorized by the kernel, e.g. via :func:`int_bit_lengths`), or
      ``None`` to measure (once per distinct payload, not per edge).

    The engine charges the whole plan vectorized in :meth:`account` —
    per-edge congestion via ``bincount``-style unique/count reduction
    over dense ``sender * n + receiver`` edge keys, the budget check as
    an array comparison that reproduces the scalar error text and
    attribution exactly — and defers building per-receiver inbox
    dictionaries until a checkpoint capture needs object-level
    messages (:meth:`materialize`).

    Faithfulness constraint (holds for every shipped kernel, asserted
    nowhere for speed): the flattened segment-major order of a plan
    must equal the order the scalar path would drain the same sends —
    i.e. a sender appears in at most one segment per round, or only
    single-sender plans span segments.  Error attribution and
    materialized inbox insertion order both rely on it.
    """

    __slots__ = ("kernel", "segments")

    def __init__(self, kernel: "KernelBase", segments: List[tuple]) -> None:
        self.kernel = kernel
        self.segments = segments

    def account(self, engine):
        """Vectorized twin of the scalar ``_collect`` accounting.

        Returns ``(per_edge, messages, bits, bits_hist, max_bits)``
        without touching any pending inbox; raises
        ``MessageTooLargeError`` for the same first over-budget message,
        with the same text, as the scalar path.
        """
        kernel = self.kernel
        indptr = kernel.indptr
        nbr = kernel.nbr
        n = engine._n
        verts = engine._verts
        budget_bits = engine.budget.bits
        want_hist = engine._want_bits_hist
        messages = 0
        bits = 0
        max_bits = 0
        bits_hist: dict = {}
        key_arrays = []
        # Segments run in plan (= scalar drain) order, so the first
        # over-budget message found is the one the scalar loop raises
        # on; nothing is written before the raise.
        for kind, rows, targets, payloads, shared, size in self.segments:
            rows = rows.astype(np.int64, copy=False)
            if kind == "b":
                deg = indptr[rows + 1] - indptr[rows]
                total = int(deg.sum())
                if total == 0:
                    continue
                starts = indptr[rows]
                cum = np.cumsum(deg)
                flat = np.repeat(starts - (cum - deg), deg) + np.arange(
                    total, dtype=np.int64
                )
                tgt = nbr[flat]
                senders = np.repeat(rows, deg)
            else:
                total = int(rows.shape[0])
                if total == 0:
                    continue
                deg = None
                tgt = targets.astype(np.int64, copy=False)
                senders = rows
            if payloads is None or (
                size is not None and not isinstance(size, np.ndarray)
            ):
                # One distinct payload (or one declared size): measure
                # once, charge everywhere.
                if size is None:
                    size = message_bits(shared)
                if size > budget_bits:
                    raise _too_large(
                        verts, size, budget_bits, senders[0], tgt[0]
                    )
                bits += size * total
                if size > max_bits:
                    max_bits = size
                if want_hist:
                    bits_hist[size] = bits_hist.get(size, 0) + total
            else:
                # Per-sender size column (vectorized by the kernel) or
                # one measurement per payload (never per edge).
                if size is not None:
                    row_sizes = size.astype(np.int64, copy=False)
                else:
                    if callable(payloads):
                        payloads = payloads()
                    row_sizes = np.fromiter(
                        (message_bits(p) for p in payloads),
                        np.int64,
                        count=len(payloads),
                    )
                edge_sizes = (
                    np.repeat(row_sizes, deg) if deg is not None else row_sizes
                )
                over = edge_sizes > budget_bits
                if over.any():
                    k = int(np.argmax(over))
                    raise _too_large(
                        verts, int(edge_sizes[k]), budget_bits, senders[k],
                        tgt[k],
                    )
                bits += int(edge_sizes.sum())
                if deg is not None:
                    charged = row_sizes[deg > 0]
                else:
                    charged = row_sizes
                if charged.shape[0]:
                    m = int(charged.max())
                    if m > max_bits:
                        max_bits = m
                if want_hist:
                    if deg is not None:
                        uniq, inv = np.unique(row_sizes, return_inverse=True)
                        weights = np.bincount(
                            inv, weights=deg, minlength=uniq.shape[0]
                        ).astype(np.int64)
                    else:
                        uniq, weights = np.unique(
                            row_sizes, return_counts=True
                        )
                    for s, c in zip(uniq.tolist(), weights.tolist()):
                        if c:
                            bits_hist[s] = bits_hist.get(s, 0) + c
            key_arrays.append(senders * n + tgt)
            messages += total
        if not key_arrays:
            return {}, 0, 0, {}, 0
        all_keys = (
            key_arrays[0]
            if len(key_arrays) == 1
            else np.concatenate(key_arrays)
        )
        uniq_keys, counts = np.unique(all_keys, return_counts=True)
        per_edge = dict(zip(uniq_keys.tolist(), counts.tolist()))
        return per_edge, messages, bits, bits_hist, max_bits

    def materialize(self, engine) -> None:
        """Build the per-receiver inbox dictionaries this plan deferred.

        Iterates the segments in plan (= scalar send) order and writes
        dictionaries identical in structure — same payload objects, one
        shared object per broadcast, insertion order matching the
        scalar drain, and no inbox for a halted receiver — so a
        checkpoint captures exactly the pending state the scalar path
        would have built.
        """
        contexts = engine._contexts
        pending = engine._pending
        pending_ids_add = engine._pending_ids.add
        verts = engine._verts
        index = engine._index
        for kind, rows, targets, payloads, shared, _size in self.segments:
            if callable(payloads):
                payloads = payloads()
            row_list = rows.tolist()
            if kind == "b":
                for k, i in enumerate(row_list):
                    payload = shared if payloads is None else payloads[k]
                    v = verts[i]
                    for neighbor in contexts[i].neighbors:
                        j = index[neighbor]
                        box = pending[j]
                        if box is None:
                            if not contexts[j]._halted:
                                pending[j] = {v: [payload]}
                                pending_ids_add(j)
                        else:
                            lst = box.get(v)
                            if lst is None:
                                box[v] = [payload]
                            else:
                                lst.append(payload)
            else:
                target_list = targets.tolist()
                for k, i in enumerate(row_list):
                    payload = shared if payloads is None else payloads[k]
                    j = target_list[k]
                    v = verts[i]
                    box = pending[j]
                    if box is None:
                        if not contexts[j]._halted:
                            pending[j] = {v: [payload]}
                            pending_ids_add(j)
                    else:
                        lst = box.get(v)
                        if lst is None:
                            box[v] = [payload]
                        else:
                            lst.append(payload)


class KernelBase:
    """A columnar (vectorized) round executor and its shared plumbing.

    One kernel instance drives *all* vertices of its algorithm class in
    a simulation; the engine calls it instead of the per-vertex
    ``initialize``/``step`` loop.  Implementations must preserve the
    scalar path bit-for-bit: the same sends (same payload values, one
    shared payload object per broadcast, neighbors in canonical order),
    the same ``halt`` outputs, the same per-vertex RNG word
    consumption.  See ``docs/kernels.md`` for the full contract.

    A columnar kernel only ever drives a fresh, fault-free run in dense
    rounds (see :func:`maybe_build_kernel`): every vertex initializes,
    then every live vertex steps every round, and the previous round's
    sends are always in the sender-side columns.

    Subclasses implement ``_load_columns`` (allocate the state columns
    and read the population's shared parameters, at construction),
    ``_write_columns`` (columns -> scalar objects, run at ``sync``),
    ``_initialize_rows`` and ``_step_rows``, and send only through
    ``_emit_broadcast`` / ``_emit_send``.
    """

    #: Set by :func:`~repro.congest.algorithm.register_kernel`.
    algorithm_cls: Optional[type] = None

    @classmethod
    def supports(cls, engine) -> bool:
        """May this kernel drive ``engine``'s population?  Called after
        the generic activation checks; refuse anything the columnar
        encoding cannot represent (non-integer vertex labels,
        non-uniform parameters, ...)."""
        # Columnar tie-breaks compare dense indices instead of vertex
        # labels, which is only faithful when canonical order is label
        # order — true exactly for the int-labelled graphs the
        # generators produce.  bool is an int subclass; exclude it.
        return all(
            type(v) is int for v in engine._verts
        ) and cls._supports_population(engine)

    @classmethod
    def _supports_population(cls, engine) -> bool:
        return True

    def __init__(self, engine) -> None:
        self.engine = engine
        self.n = n = engine._n
        self.contexts = engine._contexts
        self.algorithms = engine._algorithms
        self.verts = engine._verts
        # CSR adjacency in canonical order, from the graph's layout: row
        # i's slice lists i's neighbors exactly as ``ctx.neighbors`` does
        # (ascending label order), so "the k-th active neighbor" means
        # the same thing columnar and scalar.  Shared and read-only.
        indptr, self.nbr = engine._layout.csr()
        self.indptr = indptr
        degrees = indptr[1:] - indptr[:-1]
        self.edge_dst = np.repeat(np.arange(n, dtype=np.int64), degrees)
        # Rounds in which each vertex last stepped, mirrored into
        # ``ctx.round_number`` at sync (the scalar path sets it per
        # step; doing that eagerly would cost a Python attribute write
        # per vertex per round).
        self.last_step = np.zeros(n, dtype=np.int64)
        self._rn_dirty = np.zeros(n, dtype=bool)
        self._state_dirty = False
        # Segments emitted through _emit_broadcast/_emit_send this
        # round, handed to the engine as one SendPlan.
        self._plan_segments: List[tuple] = []
        # Indices halted (_halt) since the current step_round began.
        self._halts: List[int] = []
        self._load_columns()

    # -- engine-facing entry points ------------------------------------
    def initialize(self, live: Sequence[int]) -> None:
        """Vectorized twin of the per-vertex ``initialize`` pass."""
        rows = np.fromiter(live, np.intp, count=len(live))
        self._state_dirty = True
        self._initialize_rows(rows)
        self._flush_plan()
        # The live ranks, ascending: every one is due every round, and
        # the array shrinks only by the ranks the kernel halts.
        contexts = self.contexts
        self.live = np.array(
            [i for i in live if not contexts[i]._halted], dtype=np.intp
        )

    def next_round(self, round_number: int) -> int:
        """Dense rounds: every live vertex is due in the next round."""
        return round_number + 1

    def step_round(self, round_number: int):
        """Vectorized twin of one round's per-vertex ``step`` loop.

        Steps the live ranks (an ascending ``intp`` array), consuming
        their pending inboxes, parks the round's sends on the engine as
        a :class:`SendPlan`, sets ``_halted``/``_output`` for vertices
        that halt, and returns ``(rows, halted)``: the stepped array and
        the halted ranks, which leave the live array.
        """
        engine = self.engine
        rows = self.live
        self.last_step[rows] = round_number
        self._rn_dirty[rows] = True
        self._state_dirty = True
        # Inboxes exist only where a checkpoint capture materialized the
        # parked plan; consume them exactly like the scalar loop.
        pids = engine._pending_ids
        if pids:
            pending = engine._pending
            consumed = pids.intersection(rows.tolist())
            for i in consumed:
                pending[i] = None
            pids.difference_update(consumed)
        self._halts = halts = []
        self._step_rows(rows, round_number)
        self._flush_plan()
        if halts:
            self.live = rows[np.isin(rows, halts, invert=True)]
        return rows, halts

    def _flush_plan(self) -> None:
        segments = self._plan_segments
        if segments:
            self._plan_segments = []
            self.engine._send_plan = SendPlan(self, segments)

    def sync(self) -> None:
        """Write columnar state back into the scalar objects.

        Called at observation points (checkpoint capture, end of run)
        so that pickled algorithm/context objects — including
        materialized per-vertex ``random.Random`` states — are exactly
        what the scalar path would have produced.  Idempotent.
        """
        for i in np.nonzero(self._rn_dirty)[0].tolist():
            self.contexts[i].round_number = int(self.last_step[i])
        self._rn_dirty[:] = False
        if self._state_dirty:
            self._write_columns()
            self._state_dirty = False

    # -- helpers for concrete kernels ----------------------------------
    def _halt(self, i: int, output) -> None:
        ctx = self.contexts[i]
        ctx._halted = True
        ctx._output = output
        self._halts.append(i)

    def _emit_broadcast(self, rows, payloads=None, shared=_NO_PAYLOAD,
                        size=None) -> None:
        """Queue a broadcast from each of ``rows`` to all its neighbors.

        Pass either ``payloads`` (a list aligned with ``rows`` — or a
        zero-argument callable building one, deferred until a
        checkpoint capture materializes the plan; each row's object is
        shared across its neighbors, as the scalar path does) or
        ``shared`` (one object for every row).  ``size`` optionally
        declares the ``message_bits`` of the payloads — a uniform int or
        a per-row ``int64`` column — so accounting skips measuring them.
        """
        if rows.shape[0] == 0:
            return
        self._plan_segments.append(("b", rows, None, payloads, shared, size))

    def _emit_send(self, rows, targets, payload, size=None) -> None:
        """Queue one ``payload`` from each of ``rows`` to the aligned
        dense index in ``targets`` (a unicast column)."""
        if rows.shape[0] == 0:
            return
        self._plan_segments.append(("u", rows, targets, None, payload, size))

    # -- subclass responsibilities -------------------------------------
    def _load_columns(self) -> None:
        raise NotImplementedError

    def _write_columns(self) -> None:
        raise NotImplementedError

    def _initialize_rows(self, rows) -> None:
        raise NotImplementedError

    def _step_rows(self, rows, round_number: int) -> None:
        raise NotImplementedError
