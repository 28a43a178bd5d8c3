"""Shared runtime for columnar round kernels (fast engine only).

A registered :class:`KernelBase` subclass replaces the fast engine's
per-vertex ``initialize``/``step`` loop with NumPy columns — one entry
per vertex, with CSR adjacency for neighborhood reductions.  A kernel
sends only through :meth:`KernelBase._emit_broadcast` /
:meth:`KernelBase._emit_send`, which collect the round's sends into
one :class:`SendPlan`; ``FastEngine._collect`` charges the plan
vectorized (:meth:`SendPlan.account`) with exactly the bits, errors,
and per-edge counts the scalar drain of the same sends would produce.
Metrics and traces stay on the engine's scalar path.  Every kernel run
takes dense rounds (``FastEngine._run_dense``): every live vertex is
due every round, so the engine hands :meth:`KernelBase.step_round` the
live indices as one array and drops the indices it returns as halted.
Random draws stay on the per-vertex scalar generators (``ctx.rng``):
the registered protocols consume O(log n) words per vertex, far too
few to amortize columnar stream adoption (see the measurements in
``docs/kernels.md``).

Activation (:func:`maybe_build_kernel`) runs once, at the first
``run()`` of a fresh fast engine, and is deliberately conservative.
A kernel engages only when

* kernels are enabled (the ``REPRO_NO_KERNELS`` environment variable
  or :func:`~repro.congest.algorithm.set_kernels_enabled` flip this
  off),
* NumPy is importable (``HAVE_NUMPY`` — otherwise everything silently
  degrades to scalar),
* the population is uniform (every vertex runs the same registered
  algorithm class) and at least ``kernel_threshold()`` vertices big,
* the run has no fault plan: kernels reconstruct inbound traffic from
  the sender-side columns of the previous round, which is only
  faithful on the model's lossless, static channel with every vertex
  stepping every round.  (An empty plan compiles to no plan at all.)

A run restored from a checkpoint never builds a kernel (nor counts a
``congest.kernel.*`` activation): it finishes on the per-vertex path
from the restored inbox dictionaries.  The fallback is always silent
and always bit-identical — a kernel is a pure performance feature
(``tests/test_kernels.py`` pins this).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .. import rng as _rng
from ..errors import MessageTooLargeError, ProtocolError
from .algorithm import kernel_class_for, kernel_threshold, kernels_enabled
from .message import message_bits

#: Private sentinel distinguishing "no shared payload" from a shared
#: payload of ``None`` (a legal CONGEST signal).
_NO_PAYLOAD = object()


def maybe_build_kernel(engine) -> Optional[KernelBase]:
    """Build the columnar kernel for ``engine``, or ``None`` to run
    scalar.  See the module docstring for the activation rules."""
    algorithms = engine._algorithms
    if not algorithms:
        return None
    cls = type(algorithms[0])
    kernel_cls = kernel_class_for(cls)
    if kernel_cls is None:
        return None
    reason = None
    if not kernels_enabled():
        reason = "disabled"
    elif not _rng.HAVE_NUMPY:
        reason = "no-numpy"
    elif engine._n < kernel_threshold():
        reason = "below-threshold"
    elif any(type(a) is not cls for a in algorithms):
        reason = "mixed-population"
    elif getattr(engine, "_want_detail", False):
        # Per-message provenance tracing needs the scalar channel;
        # batched plans never materialize individual transmissions.
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


def _np():
    return _rng.np


# -- CSR segment reductions --------------------------------------------------

def seg_count(flags, indptr):
    """Per-row count of true flags over CSR edge data."""
    np = _np()
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
    np = _np()
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
    np = _np()
    mags = np.abs(vals)
    if mags.size and int(mags.max()) >= 2**53:
        raise ValueError("int_bit_lengths requires |values| < 2**53")
    return np.maximum(
        np.frexp(mags.astype(np.float64))[1], 1
    ).astype(np.int64)


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
    over dense ``sender * n + receiver`` edge keys, budget and strict
    checks as array comparisons that reproduce the scalar error text
    and attribution exactly — and defers building per-receiver inbox
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
        ``MessageTooLargeError`` / ``ProtocolError`` for the same first
        offending message, with the same text, as the scalar path.
        """
        kernel = self.kernel
        np = kernel.np
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
        # Earliest over-budget message, as (flat position in plan
        # order, measured bits, sender index, receiver index).  The
        # scalar loop checks budget before strict capacity on each
        # message, so ties at the same position resolve to budget.
        first_budget = None
        flat_base = 0
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
                if size > budget_bits and first_budget is None:
                    first_budget = (
                        flat_base, size, int(senders[0]), int(tgt[0])
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
                if first_budget is None:
                    over = edge_sizes > budget_bits
                    if over.any():
                        k = int(np.argmax(over))
                        first_budget = (
                            flat_base + k,
                            int(edge_sizes[k]),
                            int(senders[k]),
                            int(tgt[k]),
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
            flat_base += total
        if not key_arrays:
            return {}, 0, 0, {}, 0
        all_keys = (
            key_arrays[0]
            if len(key_arrays) == 1
            else np.concatenate(key_arrays)
        )
        uniq_keys, counts = np.unique(all_keys, return_counts=True)
        first_strict = None
        capacity = engine.capacity
        if engine.strict and int(counts.max()) > capacity:
            # Per-position occurrence rank of each edge key, in plan
            # order: the first position whose edge already carried
            # ``capacity`` messages is exactly where the scalar loop
            # raises.
            order = np.argsort(all_keys, kind="stable")
            sorted_keys = all_keys[order]
            new_group = np.empty(sorted_keys.shape[0], dtype=bool)
            new_group[0] = True
            np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
            group_start = np.nonzero(new_group)[0]
            group_idx = np.cumsum(new_group) - 1
            occurrence = np.empty(sorted_keys.shape[0], dtype=np.int64)
            occurrence[order] = (
                np.arange(sorted_keys.shape[0], dtype=np.int64)
                - group_start[group_idx]
            )
            over = occurrence >= capacity
            k = int(np.argmax(over))
            first_strict = (k, int(all_keys[k]))
        if first_budget is not None and (
            first_strict is None or first_budget[0] <= first_strict[0]
        ):
            _, size, si, ti = first_budget
            raise MessageTooLargeError(
                size,
                budget_bits,
                detail=f"from {verts[si]!r} to {verts[ti]!r}",
            )
        if first_strict is not None:
            _, key = first_strict
            v = verts[key // n]
            neighbor = verts[key % n]
            raise ProtocolError(
                f"edge {(v, neighbor)!r} carried {capacity + 1} messages "
                f"in one round (capacity {capacity})"
            )
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

    A kernel only ever drives a fresh, fault-free run in dense rounds
    (see :func:`maybe_build_kernel`): every vertex initializes, then
    every live vertex steps every round, and the previous round's sends
    are always in the sender-side columns.

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
        np = _np()
        self.np = np
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
        np = self.np
        rows = np.fromiter(live, np.intp, count=len(live))
        self._state_dirty = True
        self._initialize_rows(rows)
        self._flush_plan()

    def step_round(self, rows, round_number: int) -> List[int]:
        """Vectorized twin of one round's per-vertex ``step`` loop.

        ``rows`` is the ``intp`` array of live engine indices, ascending,
        that dense rounds keep.  Consumes their pending inboxes, parks
        the round's sends on the engine as a :class:`SendPlan`, sets
        ``_halted``/``_output`` for vertices that halt, and returns
        those vertices' indices.
        """
        engine = self.engine
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
        self._halts = []
        self._step_rows(rows, round_number)
        self._flush_plan()
        return self._halts

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
        np = self.np
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
