"""The fast-path CONGEST engine.

Semantically identical to :class:`repro.congest.reference.ReferenceEngine`,
but built for speed.  Both engines share their state layout, the message
channel, crash recovery, checkpointing and round bookkeeping
(:class:`repro.congest.channel.EngineCore`); what this module adds is
scheduling and accounting:

* **Wakeup min-heap** — scheduled wakeups sit in a ``(round, rank)``
  heap with lazy invalidation instead of being scanned in full every
  round.
* **Active-set message collection** — only vertices that stepped this
  round can have queued messages, so delivery drains exactly those
  outboxes instead of scanning all ``n`` vertices per round.
* **Inlined sizing and delivery** — the dominant payload shapes are
  measured inline, and on a fault-free channel without detail tracing
  messages go straight into the inboxes; only a fault injector or
  detail tracing routes them through the shared channel.
* **Kernel rounds** — a registered kernel engages only on a fresh,
  fault-free run and then decides each round's due set itself
  (:meth:`FastEngine._run_kernel`): a columnar kernel steps its live
  ranks as one array every round and hands over a
  :class:`~repro.congest.kernels.SendPlan` charged as arrays; the walk
  exchange's kernel steps only the ranks that hold or receive a token
  and names the next round anyone is due, which the engine
  fast-forwards to.  The wakeup heap, due-set sort, rescheduling pass
  and outbox scan are skipped.

The differential harness in ``tests/test_engine_equivalence.py`` and
the fuzzer in ``tests/test_engine_fuzz.py`` pin outputs, metrics, and
traces bit-for-bit against the reference.  Traffic is recorded against
the round it is delivered into, so ``metrics.rounds`` equals the number
of rounds executed.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import MessageTooLargeError
from ..graph import Graph
from .algorithm import VertexAlgorithm
from .channel import _NO_TRAFFIC, EngineCore
from .checkpoint import (
    SimulationCheckpoint,
    capture_engine_state,
    restore_engine_state,
)
from .faults import NO_FAULTS, FaultInjector
from .kernels import maybe_build_kernel
from .message import (
    _BOOL_BITS,
    _FLOAT_TOTAL,
    _INT_EXTRA,
    FIELD_OVERHEAD_BITS,
    MessageBudget,
    message_bits,
)
from .trace import TraceRecorder

#: Private sentinel no user payload can be identical to.
_UNSET = object()


def _never_idle(algorithm: VertexAlgorithm) -> bool:
    """Does ``algorithm`` keep the base-class scheduling hints (never
    idle), so the hot path may skip the virtual ``is_idle`` call?"""
    return type(algorithm).is_idle is VertexAlgorithm.is_idle


class FastEngine(EngineCore):
    """Heap-scheduled, active-set engine; see the module docstring."""

    name = "fast"

    def __init__(
        self,
        graph: Graph,
        algorithm_factory: Callable[[Any], VertexAlgorithm],
        budget: Optional[MessageBudget] = None,
        seed=None,
        trace: Optional[TraceRecorder] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(
            graph, algorithm_factory, budget=budget, seed=seed, trace=trace,
            faults=faults,
        )
        self._default_hints = [_never_idle(a) for a in self._algorithms]
        # Wakeup heap with lazy invalidation: an entry (w, i) is live
        # iff self._wake_round[i] == w.
        self._heap: List[Tuple[int, int]] = []
        # Number of vertices that have not halted.
        self._live = self._n
        # Batched delivery (see repro.congest.kernels): a kernel parks
        # the current round's sends as a plan in _send_plan for
        # _collect to charge without per-message objects; the charged
        # plan then waits in _lazy_plan, standing in for the pending
        # inbox dictionaries until the next round consumes it — or
        # until a checkpoint capture materializes it.
        self._send_plan = None
        self._lazy_plan = None
        # Round kernel, when the algorithm class registered one and
        # this run qualifies (see repro.congest.kernels): the first
        # run() of a fresh engine builds it and then takes the kernel's
        # rounds.  None means the per-vertex scheduler; a restored
        # engine never builds one.
        self._kernel = None
        self._restored = False

    def run(
        self,
        max_rounds: int = 10_000,
        checkpoint_every: Optional[int] = None,
        on_checkpoint: Optional[Callable[..., None]] = None,
    ):
        """Execute until all vertices halt or ``max_rounds`` elapse.

        When both ``checkpoint_every`` and ``on_checkpoint`` are given,
        a :class:`~repro.congest.checkpoint.SimulationCheckpoint` is
        captured after every ``checkpoint_every``-th executed round and
        passed to ``on_checkpoint``.  On a restored engine, execution
        continues from the checkpointed round; ``max_rounds`` stays an
        absolute bound on the round counter.
        """
        if not self._initialized:
            self._initialized = True
            if not self._restored:
                self._kernel = maybe_build_kernel(self)
            cohort = self._initial_cohort()
            if self._kernel is not None:
                self._kernel.initialize(cohort)
            else:
                for i in cohort:
                    self._algorithms[i].initialize(self._contexts[i])
            self._drain(range(self._n))
            self._runnable = {
                i for i in range(self._n) if not self._contexts[i]._halted
            }
            self._live = len(self._runnable)
        kernel = self._kernel
        if kernel is not None:
            self._run_kernel(max_rounds, checkpoint_every, on_checkpoint)
            # Write the kernel's state (algorithm attributes, round
            # numbers, advanced RNG streams, the scheduler's fields)
            # back into the objects callers observe.
            kernel.sync()
        else:
            self._run_scheduled(max_rounds, checkpoint_every, on_checkpoint)
        return self._result()

    def _run_kernel(
        self,
        max_rounds: int,
        checkpoint_every: Optional[int],
        on_checkpoint: Optional[Callable[..., None]],
    ) -> None:
        """The round loop of a kernel run.

        A kernel engages only without a fault plan (no crash, rejoin or
        delayed message), so its own state says which vertices are due:
        a columnar kernel steps every live vertex every round (its
        algorithm keeps the default scheduling hints), and a kernel
        that keeps its own schedule names the next round anyone is due
        and who.  The engine fast-forwards to that round, so no round
        sorts a heap-fed due set, reschedules vertex by vertex or scans
        outboxes.  Rounds open, drain and close exactly as in
        :meth:`_run_scheduled`, so metrics, traces, telemetry and
        checkpoints stay the scheduler's.
        """
        kernel = self._kernel
        record_skipped = self.metrics.record_skipped
        while self._round < max_rounds and self._live:
            target = kernel.next_round(self._round)
            skipped = target - self._round - 1
            if skipped:
                if target > max_rounds:
                    record_skipped(max_rounds - self._round)
                    self._round = max_rounds
                    break
                record_skipped(skipped)
            self._round = target
            delivered = self._open_round()
            live_before = self._live
            stepped, halted = kernel.step_round(target)
            # Every receiver of the parked plan was due and has just
            # consumed it.
            self._lazy_plan = None
            # Kernels send only through their plans; no outbox holds a
            # message to scan for.
            self._drain(())
            if halted:
                self._runnable.difference_update(halted)
                self._live -= len(halted)
            if self._registry is not None:
                self._registry.count("congest.kernel.rounds")
            self._close_round(
                delivered,
                stepped,
                crashed=0,
                idle=live_before - len(stepped),
                halted=self._n - self._live,
                skipped=skipped,
                rejoined=0,
                checkpoint_every=checkpoint_every,
                on_checkpoint=on_checkpoint,
            )

    def _run_scheduled(
        self,
        max_rounds: int,
        checkpoint_every: Optional[int],
        on_checkpoint: Optional[Callable[..., None]],
    ) -> None:
        """The round loop of the per-vertex scheduler: due set from the
        runnable set, pending mail and the wakeup heap; fast-forward
        over quiescent stretches; crash filtering; rescheduling."""
        contexts = self._contexts
        algorithms = self._algorithms
        crash_rounds = self._crash_rounds
        due_vertices = self._due_vertices
        reschedule = self._reschedule
        record_skipped = self.metrics.record_skipped
        pending = self._pending
        pending_ids_discard = self._pending_ids.discard

        while self._round < max_rounds and (
            self._live > 0 or self._rejoin_queue
        ):
            next_round = self._round + 1
            if self._delay_queue:
                self._deliver_delayed(next_round)
            due = due_vertices(next_round)
            skipped = 0
            if not due:
                target = self._next_wakeup_round()
                rejoin_queue = self._rejoin_queue
                if rejoin_queue and (
                    target is None or rejoin_queue[0][0] < target
                ):
                    # A scheduled rejoin is an event like a wakeup: the
                    # quiescent stretch before it can be fast-forwarded.
                    target = rejoin_queue[0][0]
                if self._delay_queue:
                    # A withheld payload's release is an event too: its
                    # receiver becomes due the round it is delivered.
                    release = min(self._delay_queue)
                    if target is None or release < target:
                        target = release
                if target is None:
                    break  # nothing will ever happen again
                if target > max_rounds:
                    record_skipped(max_rounds - self._round)
                    self._round = max_rounds
                    break
                skipped = target - next_round
                record_skipped(skipped)
                next_round = target
                if self._delay_queue:
                    self._deliver_delayed(next_round)
                due = due_vertices(next_round)
            self._round = next_round
            revived = (
                self._process_rejoins(next_round)
                if self._rejoin_queue
                else ()
            )
            delivered = self._open_round()
            live_before = self._live
            crashed_now = 0
            if crash_rounds is None:
                stepping = due
            else:
                # Fail-stop filtering happens before any stepping: a
                # vertex never steps at or after its crash round and
                # its mail dies with it.
                stepping = []
                for i in due:
                    cr = crash_rounds[i]
                    if cr is not None and next_round >= cr:
                        ctx = contexts[i]
                        ctx._halted = True
                        ctx._output = None
                        self._crashed_ids.add(i)
                        crashed_now += 1
                        if pending[i] is not None:
                            pending[i] = None
                            pending_ids_discard(i)
                        continue
                    stepping.append(i)
            for i in stepping:
                ctx = contexts[i]
                ctx.round_number = next_round
                box = pending[i]
                if box is None:
                    box = {}
                else:
                    pending[i] = None
                    pending_ids_discard(i)
                algorithms[i].step(ctx, box)
            # Revived vertices may have queued messages while (re-)
            # initializing; drain their outboxes along with the steppers,
            # in canonical order like every other drain.
            self._drain(sorted(due + revived) if revived else due)
            reschedule(due)
            self._close_round(
                delivered,
                stepping,
                crashed=crashed_now,
                idle=live_before - len(due),
                halted=self._n - self._live,
                skipped=skipped,
                rejoined=len(revived),
                checkpoint_every=checkpoint_every,
                on_checkpoint=on_checkpoint,
            )

    def _process_rejoins(self, round_number: int) -> List[int]:
        """Shared revival, plus this scheduler's hint and live count."""
        revived = super()._process_rejoins(round_number)
        for i in revived:
            self._default_hints[i] = _never_idle(self._algorithms[i])
            if not self._contexts[i]._halted:
                self._live += 1
        return revived

    # -- checkpoint / restore -------------------------------------------
    def capture_checkpoint(self) -> SimulationCheckpoint:
        """Freeze the simulation at the current round boundary (see
        :func:`~repro.congest.checkpoint.capture_engine_state`)."""
        if self._kernel is not None:
            # Kernel state becomes scalar truth before pickling, so the
            # envelope stays engine- and kernel-neutral.
            self._kernel.sync()
        plan = self._lazy_plan
        if plan is not None:
            # Checkpoints serialize pending inboxes as real
            # dictionaries; a lazily-delivered plan must become one
            # first so restores stay bit-identical across modes.
            self._lazy_plan = None
            plan.materialize(self)
            if self._registry is not None:
                self._registry.count("congest.delivery.materialized")
        return capture_engine_state(self)

    def restore_checkpoint(self, checkpoint: SimulationCheckpoint) -> None:
        """Replace this engine's state with a captured checkpoint (see
        :func:`~repro.congest.checkpoint.restore_engine_state`) and
        rebuild the scheduler's own indexes over it.  The restored run
        finishes on the per-vertex scheduler, kernel or not."""
        restore_engine_state(self, checkpoint)
        self._default_hints = [_never_idle(a) for a in self._algorithms]
        self._heap = [
            (w, i) for i, w in enumerate(self._wake_round) if w is not None
        ]
        heapify(self._heap)
        self._live = sum(1 for ctx in self._contexts if not ctx._halted)
        # Restored pending state is always dictionary-shaped (capture
        # materializes); discard any plan from the pre-restore life.
        self._send_plan = None
        self._lazy_plan = None
        # The previous round's sends exist only as the restored inbox
        # dictionaries, which the columns cannot read: step scalar, and
        # build no kernel at the first run() either.
        self._kernel = None
        self._restored = True

    # ------------------------------------------------------------------
    def _due_vertices(self, round_number: int) -> List[int]:
        due = self._runnable | self._pending_ids
        heap = self._heap
        wake = self._wake_round
        while heap and heap[0][0] <= round_number:
            w, i = heappop(heap)
            if wake[i] == w:
                wake[i] = None
                due.add(i)
        contexts = self._contexts
        live_due = []
        for i in sorted(due):
            if contexts[i]._halted:
                # A halted vertex never steps again; drop it from the
                # active set for good.
                self._pending_ids.discard(i)
            else:
                live_due.append(i)
        return live_due

    def _next_wakeup_round(self) -> Optional[int]:
        """Earliest live scheduled wakeup, discarding stale heap entries."""
        heap = self._heap
        wake = self._wake_round
        while heap:
            w, i = heap[0]
            if wake[i] != w:
                heappop(heap)
                continue
            return w
        return None

    def _reschedule(self, stepped: List[int]) -> None:
        contexts = self._contexts
        algorithms = self._algorithms
        default_hints = self._default_hints
        runnable_discard = self._runnable.discard
        runnable_add = self._runnable.add
        wake = self._wake_round
        heap = self._heap
        current_round = self._round
        crash_rounds = self._crash_rounds
        for i in stepped:
            ctx = contexts[i]
            runnable_discard(i)
            wake[i] = None
            if ctx._halted:
                self._live -= 1
                continue
            if default_hints[i]:
                runnable_add(i)
                continue
            algo = algorithms[i]
            if algo.is_idle(ctx):
                w = algo.next_wakeup(ctx)
                if crash_rounds is not None:
                    # Clamp the wakeup so a scheduled crash is noticed
                    # at its exact round even while the vertex is idle.
                    cr = crash_rounds[i]
                    if (
                        cr is not None
                        and cr > current_round
                        and (w is None or cr < w)
                    ):
                        w = cr
                if w is not None and w > current_round:
                    wake[i] = w
                    heappush(heap, (w, i))
            else:
                runnable_add(i)

    def _collect(self, sender_ids) -> None:
        """Drain the outboxes of the vertices that just stepped.

        Only a stepped (or just-initialized) vertex can hold queued
        messages, so delivery touches the active set instead of all
        ``n`` vertices.  The collected traffic is buffered in
        ``_inflight`` and recorded against the round that delivers it.

        A kernel leaves its sends in ``_send_plan`` instead of the
        outboxes; those rounds divert to :meth:`_collect_batched` and
        never touch per-message objects.
        """
        plan = self._send_plan
        if plan is not None:
            self._send_plan = None
            self._collect_batched(plan)
            return
        contexts = self._contexts
        senders = [i for i in sender_ids if contexts[i]._outbox]
        if not senders:
            self._inflight = _NO_TRAFFIC
            return
        if self._registry is not None:
            self._registry.count("congest.delivery.scalar")
        per_edge: Dict[int, int] = {}
        messages = 0
        bits = 0
        max_bits = 0
        want_hist = self._want_bits_hist
        bits_hist: Dict[int, int] = {}
        n = self._n
        index = self._index
        pending = self._pending
        pending_ids_add = self._pending_ids.add
        verts = self._verts
        sizeof = message_bits
        per_edge_get = per_edge.get
        budget_bits = self.budget.bits
        # A fault injector or detail tracing sends every charged
        # message through the shared channel; otherwise it is
        # delivered inline below.
        channel = (
            self._transmit
            if self.faults is not None or self._want_detail
            else None
        )
        counts = [0] * len(NO_FAULTS)
        for i in senders:
            ctx = contexts[i]
            outbox = ctx._outbox
            ctx._outbox = []
            v = verts[i]
            base = i * n
            last_payload = _UNSET
            last_size = 0
            for neighbor, payload in outbox:
                # Broadcasts queue the same payload object once per
                # neighbor; measuring it once per distinct object is
                # safe because the identity check cannot conflate values.
                if payload is last_payload:
                    size = last_size
                else:
                    # Inlined fast path of message_bits() for the two
                    # dominant payload shapes (bare ints and flat
                    # tuples); message_bits handles everything else
                    # with identical results, and the differential
                    # harness holds the two accountings equal.
                    tp = type(payload)
                    if tp is int:
                        size = (payload.bit_length() or 1) + _INT_EXTRA
                    elif tp is tuple:
                        size = FIELD_OVERHEAD_BITS
                        for item in payload:
                            ti = type(item)
                            if ti is int:
                                size += (item.bit_length() or 1) + _INT_EXTRA
                            elif ti is str:
                                size += 8 * len(item) + FIELD_OVERHEAD_BITS
                            elif item is None:
                                size += 1
                            elif ti is float:
                                size += _FLOAT_TOTAL
                            elif ti is bool:
                                size += _BOOL_BITS
                            else:
                                size += sizeof(item)
                    else:
                        size = sizeof(payload)
                    last_payload = payload
                    last_size = size
                if size > budget_bits:
                    raise MessageTooLargeError(
                        size,
                        budget_bits,
                        detail=f"from {v!r} to {neighbor!r}",
                    )
                if size > max_bits:
                    max_bits = size
                j = index[neighbor]
                ekey = base + j
                count = per_edge_get(ekey, 0) + 1
                per_edge[ekey] = count
                messages += 1
                bits += size
                if want_hist:
                    # Keyed on what the sender was charged, so the
                    # histogram total always equals ``bits`` even when
                    # the fault channel below drops the transmission.
                    bits_hist[size] = bits_hist.get(size, 0) + 1
                if channel is not None:
                    channel(v, neighbor, j, payload, size, count - 1, counts)
                    continue
                box = pending[j]
                if box is None:
                    # A halted receiver gets no inbox: nothing reads it.
                    if not contexts[j]._halted:
                        pending[j] = {v: [payload]}
                        pending_ids_add(j)
                else:
                    lst = box.get(v)
                    if lst is None:
                        box[v] = [payload]
                    else:
                        lst.append(payload)
        if max_bits > self.metrics.max_message_bits:
            self.metrics.max_message_bits = max_bits
        self._inflight = (
            per_edge,
            messages,
            bits,
            bits_hist,
            tuple(counts) if self.faults is not None else NO_FAULTS,
        )

    def _collect_batched(self, plan) -> None:
        """Charge a kernel's send plan without materializing inboxes.

        The plan's accounting (the vectorized one of a columnar
        :class:`~repro.congest.kernels.SendPlan`, or the walk kernel's
        per-token tally) reproduces the scalar path bit-for-bit (same
        per-edge counts, bits, histogram, errors).  A kernel's schedule
        steps every receiver in the next round, so no receiver needs
        marking due; the inbox dictionaries stay unbuilt — the plan
        itself is parked in ``_lazy_plan`` and reconstructed only if a
        checkpoint capture needs object-level messages.  Kernels never
        run under a fault plan, so the fault channel is skipped.
        """
        per_edge, messages, bits, bits_hist, max_bits = plan.account(self)
        if max_bits > self.metrics.max_message_bits:
            self.metrics.max_message_bits = max_bits
        self._lazy_plan = plan
        if self._registry is not None:
            self._registry.count("congest.delivery.batched")
        self._inflight = (
            per_edge,
            messages,
            bits,
            bits_hist,
            NO_FAULTS,
        )
