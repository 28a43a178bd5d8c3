"""The fast-path CONGEST engine.

Semantically identical to :class:`repro.congest.reference.ReferenceEngine`
(the differential harness in ``tests/test_engine_equivalence.py`` pins
outputs and metrics bit-for-bit), but built for speed:

* **Interned vertex IDs** — vertices are sorted once into canonical
  order at construction and addressed by dense integers from then on.
  Contexts, algorithms, inboxes, and wakeups live in flat lists indexed
  by those integers; the per-round ``repr``-keyed sorts of the original
  simulator are gone.
* **Wakeup min-heap** — scheduled wakeups sit in a ``(round, vertex)``
  heap with lazy invalidation instead of a dict that was scanned in
  full every round.
* **Active-set message collection** — only vertices that stepped this
  round can have queued messages, so delivery drains exactly those
  outboxes instead of scanning all ``n`` vertices per round.

The engine shares the vertex-facing API (:class:`VertexAlgorithm`,
:class:`VertexContext`) and the accounting policy: traffic is recorded
against the round it is delivered into, so ``metrics.rounds`` equals
the number of rounds executed.
"""

from __future__ import annotations

import pickle
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import CheckpointError, MessageTooLargeError, ProtocolError
from ..graph import Graph, canonical_vertex_order
from ..rng import ensure_rng
from .algorithm import VertexAlgorithm, VertexContext
from .checkpoint import (
    PICKLE_PROTOCOL,
    SimulationCheckpoint,
    graph_fingerprint,
    verify_restore_target,
)
from .faults import (
    CORRUPT,
    DELIVER,
    DROP,
    DUPLICATE,
    NO_FAULTS,
    FaultInjector,
    pad_fault_counts,
)
from .message import (
    _BOOL_BITS,
    _FLOAT_TOTAL,
    _INT_EXTRA,
    FIELD_OVERHEAD_BITS,
    MessageBudget,
    message_bits,
)
from .metrics import CongestMetrics
from .trace import RoundTrace, TraceRecorder, detail_event_sort_key
from ..obs import registry as _telemetry

#: Sentinel for "no traffic in flight": (per-edge counts, messages,
#: bits, message-size histogram, per-round fault counters).
_NO_TRAFFIC: Tuple[Dict, int, int, Dict, Tuple[int, ...]] = (
    {}, 0, 0, {}, NO_FAULTS
)

#: Private sentinel no user payload can be identical to.
_UNSET = object()


def build_vertex_state(
    graph: Graph,
    algorithm_factory: Callable[[Any], VertexAlgorithm],
    seed,
) -> Tuple[List[Any], List[VertexContext], List[VertexAlgorithm]]:
    """Construct per-vertex contexts and algorithms in canonical order.

    Shared by both engines so that the per-vertex RNG streams (derived
    from the root seed in canonical vertex order) are identical no
    matter which engine runs the algorithm.
    """
    root_rng = ensure_rng(seed)
    getrandbits = root_rng.getrandbits
    order = canonical_vertex_order(graph.vertices())
    n = graph.n
    adj = graph._adj
    contexts: List[VertexContext] = []
    algorithms: List[VertexAlgorithm] = []
    for v in order:
        row = adj[v]
        neighbors = canonical_vertex_order(row)
        ctx = VertexContext(
            vertex=v,
            neighbors=neighbors,
            edge_weights={u: row[u] for u in neighbors},
            n=n,
            rng_seed=getrandbits(64),
        )
        contexts.append(ctx)
        algorithms.append(algorithm_factory(v))
    return order, contexts, algorithms


class FastEngine:
    """Integer-indexed scheduler; see the module docstring."""

    name = "fast"

    def __init__(
        self,
        graph: Graph,
        algorithm_factory: Callable[[Any], VertexAlgorithm],
        budget: Optional[MessageBudget] = None,
        strict: bool = False,
        capacity: int = 1,
        seed=None,
        trace: Optional[TraceRecorder] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.graph = graph
        self.budget = budget if budget is not None else MessageBudget(graph.n)
        self.strict = strict
        self.capacity = capacity
        self.metrics = CongestMetrics()
        self.trace = trace
        self.faults = faults
        # Kept for crash-recovery: a rejoining vertex with no local
        # snapshot re-initializes through the same factory.
        self._factory = algorithm_factory

        order, contexts, algorithms = build_vertex_state(
            graph, algorithm_factory, seed
        )
        self._verts: List[Any] = order
        self._index: Dict[Any, int] = {v: i for i, v in enumerate(order)}
        self._contexts = contexts
        self._algorithms = algorithms
        # Algorithms that keep the base-class scheduling hints are never
        # idle; skip the virtual dispatch for them on the hot path.
        self._default_hints = [
            type(a).is_idle is VertexAlgorithm.is_idle for a in algorithms
        ]
        n = len(order)
        self._n = n

        # Next-round inboxes: vertex id -> {sender vertex: [payloads]}.
        self._pending: List[Optional[Dict[Any, List[Any]]]] = [None] * n
        self._pending_ids: Set[int] = set()
        # Vertices that must step next round regardless of messages.
        self._runnable: Set[int] = set(range(n))
        # Wakeup heap with lazy invalidation: an entry (w, i) is live
        # iff self._wake_round[i] == w.
        self._heap: List[Tuple[int, int]] = []
        self._wake_round: List[Optional[int]] = [None] * n
        self._round = 0
        self._live = n
        # Telemetry is sampled once at construction: a simulator built
        # inside an enabled scope records into that scope's registry for
        # its whole run; outside one, the hot path stays branch-free.
        self._registry = (
            _telemetry.current_registry() if _telemetry.enabled() else None
        )
        # The per-size message histogram is only worth building when
        # something will consume it (a trace recorder or telemetry).
        self._want_bits_hist = trace is not None or self._registry is not None
        # Per-message provenance events (trace schema 5): opt-in via
        # TraceRecorder(detail=True); off by default so the hot path —
        # and the emitted JSONL — stay exactly the v4 shape.
        self._want_detail = trace is not None and getattr(
            trace, "detail", False
        )
        # Detail events buffered alongside _inflight: collected at the
        # end of round r, attributed to the round they deliver into.
        self._inflight_events: List[Dict[str, Any]] = []
        # Traffic collected at the end of the previous round, awaiting
        # delivery (and metric attribution) at the next executed round.
        self._inflight: Tuple[Dict, int, int, Dict, Tuple[int, ...]] = (
            _NO_TRAFFIC
        )
        # Payloads the fault channel withheld, keyed by release round:
        # release -> [(send round, sender, receiver, payload)].  Drained
        # at the top of each executed round; vertex-keyed (never by
        # engine index) so checkpoints stay engine-neutral.
        self._delay_queue: Dict[int, List[Tuple[int, Any, Any, Any]]] = {}
        # Crash schedule (per vertex id), or None when the plan has no
        # crashes so the hot path can skip the lookup entirely.
        if faults is not None and faults.plan.crashes:
            self._crash_rounds: Optional[List[Optional[int]]] = [
                faults.crash_round(v) for v in order
            ]
            # Crash-recovery schedule: (rejoin round, vertex id), sorted
            # by round with canonical order breaking ties (the stable
            # sort preserves the enumerate order within equal rounds).
            rejoins = [
                (faults.rejoin_round(v), i)
                for i, v in enumerate(order)
                if faults.rejoin_round(v) is not None
            ]
            rejoins.sort(key=lambda entry: entry[0])
            self._rejoin_queue: List[Tuple[int, int]] = rejoins
            self._snapshot_interval = faults.checkpoint_interval
        else:
            self._crash_rounds = None
            self._rejoin_queue = []
            self._snapshot_interval = None
        self._crashed_ids: Set[int] = set()
        # Local crash-recovery snapshots: only vertices still scheduled
        # to rejoin are worth snapshotting.
        self._snapshot_targets: Set[int] = {i for _, i in self._rejoin_queue}
        self._snapshots: Dict[int, bytes] = {}
        self._snapshot_rounds: Dict[int, int] = {}
        # Flipped by run() after the initialization pass; a restored
        # post-init checkpoint carries True, so run() then skips
        # initialization and continues mid-simulation.
        self._initialized = False
        # Batched delivery (see repro.congest.kernels.SendPlan): a
        # kernel parks the current round's sends as a plan in
        # _send_plan for _collect to charge vectorized; the charged
        # plan then waits in _lazy_plan, standing in for the pending
        # inbox dictionaries until the next round consumes it — or
        # until checkpoint capture / crash filtering materializes it.
        self._send_plan = None
        self._lazy_plan = None
        # Columnar round kernel, when the algorithm class registered
        # one and this run qualifies (see repro.congest.kernels);
        # None means the ordinary scalar step loop.
        from .kernels import maybe_build_kernel

        self._kernel = maybe_build_kernel(self)

    # ------------------------------------------------------------------
    @property
    def rounds_executed(self) -> int:
        """Final value of the synchronous round counter."""
        return self._round

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
        from .network import SimulationResult

        contexts = self._contexts
        algorithms = self._algorithms
        crash_rounds = self._crash_rounds
        kernel = self._kernel
        if not self._initialized:
            self._initialized = True
            init_crashed = 0
            live_init: List[int] = []
            for i in range(self._n):
                if crash_rounds is not None:
                    cr = crash_rounds[i]
                    if cr is not None and cr <= 0:
                        # Fail-stopped before round 0: never initializes.
                        contexts[i]._halted = True
                        self._crashed_ids.add(i)
                        init_crashed += 1
                        continue
                live_init.append(i)
            if kernel is not None:
                kernel.initialize(live_init)
            else:
                for i in live_init:
                    algorithms[i].initialize(contexts[i])
            if init_crashed:
                self.metrics.record_crashed(init_crashed)
            if self._registry is not None:
                with self._registry.span("congest.collect"):
                    self._collect(range(self._n))
            else:
                self._collect(range(self._n))
            self._runnable = {
                i for i in range(self._n) if not contexts[i]._halted
            }
            self._live = len(self._runnable)

        due_vertices = self._due_vertices
        collect = self._collect
        reschedule = self._reschedule
        record_round = self.metrics.record_round
        record_skipped = self.metrics.record_skipped
        trace = self.trace
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
            per_edge, messages, bits, bits_hist, fcounts = self._inflight
            self._inflight = _NO_TRAFFIC
            if self._want_detail:
                # Snapshot here, not at trace.record_round below: by
                # then _collect has already refilled the buffer with
                # the *next* round's events.
                detail_events = self._inflight_events
                self._inflight_events = []
                detail_events.sort(key=detail_event_sort_key)
            else:
                detail_events = None
            if self.faults is None:
                record_round(per_edge, messages, bits)
            else:
                record_round(per_edge, messages, bits, fcounts)
            live_before = self._live
            crashed_now = 0
            if crash_rounds is None:
                stepping = due
            else:
                # Fail-stop filtering happens before any stepping, so
                # both the scalar loop and a kernel see the same live
                # cohort (a vertex never steps at or after its crash
                # round and its mail dies with it).  Filtering drops a
                # crashing vertex's queued mail, which needs real inbox
                # dictionaries — materialize a lazily-delivered plan
                # first, preserving the scalar collect-then-filter
                # order.
                if self._lazy_plan is not None:
                    self._materialize_lazy()
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
            if kernel is not None:
                kernel.step_round(stepping, next_round)
            else:
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
            # A lazily-delivered plan is fully consumed by this round's
            # step (its receivers were all due); drop it before the
            # next collection replaces it.
            self._lazy_plan = None
            # Revived vertices may have queued messages while (re-)
            # initializing; drain their outboxes along with the steppers.
            registry = self._registry
            if registry is not None:
                with registry.span("congest.collect"):
                    collect(list(due) + list(revived) if revived else due)
            else:
                collect(list(due) + list(revived) if revived else due)
            reschedule(due)
            if self._snapshot_interval is not None and self._snapshot_targets:
                self._take_local_snapshots(due, next_round)
            if crashed_now:
                self.metrics.record_crashed(crashed_now)
            registry = self._registry
            if registry is not None:
                # Both observations are pure functions of the simulated
                # execution (the differential harness pins stepped
                # counts and message sizes equal across engines), so
                # fast and reference runs publish identical telemetry.
                registry.observe(
                    "congest.active_vertices", len(due) - crashed_now
                )
                if kernel is not None:
                    # Diagnostic hit counter; excluded from telemetry
                    # identity comparisons (see Registry.comparable_dict).
                    registry.count("congest.kernel.rounds")
                if bits_hist:
                    size_hist = registry.histogram("congest.message_bits")
                    for size, times in bits_hist.items():
                        size_hist.observe(size, times)
            if trace is not None:
                trace.record_round(
                    round_number=next_round,
                    per_edge_counts=per_edge,
                    messages=messages,
                    bits=bits,
                    stepped=len(due) - crashed_now,
                    idle=live_before - len(due),
                    halted=self._n - self._live,
                    skipped_before=skipped,
                    dropped=fcounts[0],
                    duplicated=fcounts[1],
                    corrupted=fcounts[2],
                    crashed=crashed_now,
                    rejoined=len(revived),
                    delayed=fcounts[3],
                    topo_lost=fcounts[4],
                    partitioned=fcounts[5],
                    message_bits_histogram=bits_hist,
                    events=detail_events,
                )
            if (
                on_checkpoint is not None
                and checkpoint_every is not None
                and next_round % checkpoint_every == 0
            ):
                on_checkpoint(self.capture_checkpoint())

        if kernel is not None:
            # Materialize columnar state (algorithm attributes, round
            # numbers, advanced RNG streams) back into the scalar
            # objects callers observe.
            kernel.sync()
        if self._registry is not None:
            self.metrics.publish_telemetry(self._registry)
        outputs = {self._verts[i]: contexts[i]._output for i in range(self._n)}
        return SimulationResult(
            outputs=outputs,
            metrics=self.metrics,
            halted=self._live == 0,
            crashed=frozenset(self._verts[i] for i in self._crashed_ids),
        )

    # -- crash recovery -------------------------------------------------
    def _process_rejoins(self, round_number: int) -> List[int]:
        """Revive crashed vertices whose scheduled rejoin round arrived.

        A revived vertex restores from its most recent local snapshot
        (see :meth:`_take_local_snapshots`) or, when none was taken,
        re-initializes from scratch with its original RNG seed.  Mail
        queued while it was dead is lost either way; the vertex steps
        again from the next round on.  A rejoin scheduled for a vertex
        that halted normally before its crash round fired is dropped —
        there is nothing to recover.
        """
        queue = self._rejoin_queue
        contexts = self._contexts
        algorithms = self._algorithms
        revived: List[int] = []
        while queue and queue[0][0] <= round_number:
            _, i = queue.pop(0)
            self._snapshot_targets.discard(i)
            if i not in self._crashed_ids:
                continue
            self._crashed_ids.discard(i)
            if self._crash_rounds is not None:
                # The crash has been consumed; without this the vertex
                # would fail-stop again on its next step.
                self._crash_rounds[i] = None
            snapshot = self._snapshots.pop(i, None)
            self._snapshot_rounds.pop(i, None)
            if snapshot is not None:
                algorithm, ctx = pickle.loads(snapshot)
                ctx.round_number = round_number
            else:
                old = contexts[i]
                ctx = VertexContext(
                    vertex=old.vertex,
                    neighbors=old.neighbors,
                    edge_weights=dict(old.edge_weights),
                    n=old.n,
                    rng_seed=old._rng_seed,
                )
                ctx.round_number = round_number
                algorithm = self._factory(old.vertex)
            contexts[i] = ctx
            algorithms[i] = algorithm
            self._default_hints[i] = (
                type(algorithm).is_idle is VertexAlgorithm.is_idle
            )
            if snapshot is None:
                algorithm.initialize(ctx)
            if self._pending[i] is not None:
                self._pending[i] = None
                self._pending_ids.discard(i)
            self._wake_round[i] = None
            if not ctx._halted:
                self._runnable.add(i)
                self._live += 1
            revived.append(i)
        if revived:
            self.metrics.record_rejoined(len(revived))
        return revived

    def _take_local_snapshots(self, stepped, round_number: int) -> None:
        """Snapshot rejoin-scheduled vertices every ``checkpoint_interval``
        executed steps, so their later revival restores real state.

        Runs after collection, so a snapshot never contains queued
        outbox messages and revival cannot re-send anything.
        """
        interval = self._snapshot_interval
        targets = self._snapshot_targets
        contexts = self._contexts
        last_rounds = self._snapshot_rounds
        for i in stepped:
            if i in targets and not contexts[i]._halted:
                last = last_rounds.get(i)
                if last is None or round_number - last >= interval:
                    self._snapshots[i] = pickle.dumps(
                        (self._algorithms[i], contexts[i]),
                        protocol=PICKLE_PROTOCOL,
                    )
                    last_rounds[i] = round_number

    # -- checkpoint / restore -------------------------------------------
    def capture_checkpoint(self) -> SimulationCheckpoint:
        """Freeze the simulation at the current round boundary.

        The state blob is keyed by vertex (never by engine-internal
        index), normalized so both engines capture identical logical
        state: inboxes, wakeups, and runnable flags of halted vertices
        are dead weight the engines handle lazily and are excluded.
        """
        if self._kernel is not None:
            # Columnar state becomes scalar truth before pickling, so
            # the envelope stays engine- and kernel-neutral.
            self._kernel.sync()
        if self._lazy_plan is not None:
            # Checkpoints serialize pending inboxes as real
            # dictionaries; a lazily-delivered plan must become one
            # first so restores stay bit-identical across modes.
            self._materialize_lazy()
        contexts = self._contexts
        verts = self._verts
        n = self._n
        per_edge, messages, bits, bits_hist, fcounts = self._inflight
        state = {
            "contexts": {verts[i]: contexts[i] for i in range(n)},
            "algorithms": {
                verts[i]: self._algorithms[i] for i in range(n)
            },
            "pending": {
                verts[i]: self._pending[i]
                for i in range(n)
                if self._pending[i] and not contexts[i]._halted
            },
            "runnable": {
                verts[i] for i in self._runnable if not contexts[i]._halted
            },
            "wakeups": {
                verts[i]: w
                for i, w in enumerate(self._wake_round)
                if w is not None and not contexts[i]._halted
            },
            "inflight": {
                "per_edge": [
                    (verts[key // n], verts[key % n], count)
                    for key, count in per_edge.items()
                ],
                "messages": messages,
                "bits": bits,
                "bits_hist": dict(bits_hist),
                "fcounts": tuple(fcounts),
            },
            # Withheld payloads still in flight, flattened in release
            # order (entries are already vertex-keyed in both engines;
            # detail-mode entries carry a trailing sequence number).
            "delayed": [
                (release,) + tuple(entry)
                for release in sorted(self._delay_queue)
                for entry in self._delay_queue[release]
            ],
            # Detail events buffered for the next executed round
            # (empty unless the trace recorder asked for detail).
            "inflight_events": [dict(e) for e in self._inflight_events],
            "crashed": {verts[i] for i in self._crashed_ids},
            "crash_rounds": (
                None
                if self._crash_rounds is None
                else {
                    verts[i]: cr
                    for i, cr in enumerate(self._crash_rounds)
                    if cr is not None
                }
            ),
            "rejoin_queue": [(r, verts[i]) for r, i in self._rejoin_queue],
            "snapshots": {
                verts[i]: blob for i, blob in self._snapshots.items()
            },
            "snapshot_rounds": {
                verts[i]: r for i, r in self._snapshot_rounds.items()
            },
            "initialized": self._initialized,
        }
        if self._registry is not None:
            self._registry.count("congest.checkpoints_captured")
        return SimulationCheckpoint(
            round=self._round,
            n=n,
            engine=self.name,
            graph=graph_fingerprint(self.graph),
            strict=self.strict,
            capacity=self.capacity,
            budget_n=self.budget.n,
            budget_words=self.budget.words,
            fault_plan=(
                self.faults.plan.to_dict() if self.faults is not None else None
            ),
            metrics=self.metrics.to_dict(include_per_round=True),
            state=pickle.dumps(state, protocol=PICKLE_PROTOCOL),
            trace_rounds=(
                [r.to_dict() for r in self.trace.rounds]
                if self.trace is not None
                else None
            ),
        )

    def restore_checkpoint(self, checkpoint: SimulationCheckpoint) -> None:
        """Replace this engine's state with a captured checkpoint.

        The engine must have been constructed over the same graph and
        configuration the checkpoint came from (mismatches raise
        :class:`~repro.errors.CheckpointError`); construction-time
        vertex state is discarded.  ``run()`` then continues from the
        checkpointed round.
        """
        verify_restore_target(self, checkpoint, self._n)
        try:
            state = pickle.loads(checkpoint.state)
        except Exception as exc:
            raise CheckpointError(
                f"cannot unpickle checkpoint state: {exc}"
            ) from exc
        index = self._index
        verts = self._verts
        n = self._n
        try:
            contexts = state["contexts"]
            algorithms = state["algorithms"]
            self._contexts = [contexts[v] for v in verts]
            self._algorithms = [algorithms[v] for v in verts]
            self._default_hints = [
                type(a).is_idle is VertexAlgorithm.is_idle
                for a in self._algorithms
            ]
            self._pending = [None] * n
            self._pending_ids = set()
            for v, box in state["pending"].items():
                i = index[v]
                self._pending[i] = box
                self._pending_ids.add(i)
            self._runnable = {index[v] for v in state["runnable"]}
            self._heap = []
            self._wake_round = [None] * n
            for v, w in state["wakeups"].items():
                i = index[v]
                self._wake_round[i] = w
                heappush(self._heap, (w, i))
            inflight = state["inflight"]
            self._inflight = (
                {
                    index[u] * n + index[w]: count
                    for u, w, count in inflight["per_edge"]
                },
                inflight["messages"],
                inflight["bits"],
                dict(inflight["bits_hist"]),
                pad_fault_counts(inflight["fcounts"]),
            )
            self._delay_queue = {}
            for entry in state.get("delayed", ()):
                # entry = (release, send_round, sender, receiver,
                # payload[, seq]); older checkpoints lack the trailing
                # detail-mode sequence number.
                self._delay_queue.setdefault(entry[0], []).append(
                    tuple(entry[1:])
                )
            self._inflight_events = [
                dict(e) for e in state.get("inflight_events", ())
            ]
            self._crashed_ids = {index[v] for v in state["crashed"]}
            crash_rounds = state["crash_rounds"]
            if crash_rounds is None:
                self._crash_rounds = None
            else:
                rebuilt: List[Optional[int]] = [None] * n
                for v, cr in crash_rounds.items():
                    rebuilt[index[v]] = cr
                self._crash_rounds = rebuilt
            self._rejoin_queue = [
                (r, index[v]) for r, v in state["rejoin_queue"]
            ]
            self._snapshot_targets = {i for _, i in self._rejoin_queue}
            self._snapshots = {
                index[v]: blob for v, blob in state["snapshots"].items()
            }
            self._snapshot_rounds = {
                index[v]: r for v, r in state["snapshot_rounds"].items()
            }
        except KeyError as exc:
            raise CheckpointError(
                f"checkpoint state is missing {exc}"
            ) from exc
        self._round = checkpoint.round
        self._live = sum(
            1 for ctx in self._contexts if not ctx._halted
        )
        self.metrics = CongestMetrics.from_dict(checkpoint.metrics)
        if self.trace is not None and checkpoint.trace_rounds is not None:
            self.trace.rounds = [
                RoundTrace.from_dict(d) for d in checkpoint.trace_rounds
            ]
        # A pre-initialization checkpoint (captured before run()) leaves
        # this False, so the resumed run still initializes normally.
        self._initialized = bool(state.get("initialized", True))
        # Restored pending state is always dictionary-shaped (capture
        # materializes); discard any plan from the pre-restore life.
        self._send_plan = None
        self._lazy_plan = None
        # Rebuild the kernel over the restored scalar state.  resume=True
        # makes its first round replay the restored inbox dictionaries
        # (the previous round's sends are not in any column yet).
        from .kernels import maybe_build_kernel

        self._kernel = maybe_build_kernel(self, resume=True)
        if self._registry is not None:
            self._registry.count("congest.checkpoints_restored")

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
                # A vertex that halted with mail still queued will never
                # read it; drop it from the active set for good.
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

    def _deliver_delayed(self, round_number: int) -> None:
        """Release withheld payloads whose delivery round has arrived.

        Entries are ordered by (send round, sender rank, receiver rank)
        — a pure function of the plan and the canonical vertex order —
        so both engines append released payloads to the pending inboxes
        in the identical order regardless of internal iteration order.
        """
        queue = self._delay_queue
        ready = [r for r in queue if r <= round_number]
        if not ready:
            return
        entries: List[Tuple] = []
        for release in sorted(ready):
            entries.extend(queue.pop(release))
        index = self._index
        entries.sort(key=lambda e: (e[0], index[e[1]], index[e[2]]))
        pending = self._pending
        pending_ids_add = self._pending_ids.add
        want_detail = self._want_detail
        for entry in entries:
            # Detail-mode entries carry a fifth element: the original
            # per-edge sequence number (see _collect).
            send_round, sender, receiver, payload = entry[:4]
            if want_detail:
                event = {
                    "s": repr(sender), "r": repr(receiver),
                    "o": "release", "sr": send_round,
                }
                if len(entry) > 4:
                    event["q"] = entry[4]
                self._inflight_events.append(event)
            j = index[receiver]
            box = pending[j]
            if box is None:
                pending[j] = {sender: [payload]}
                pending_ids_add(j)
            else:
                lst = box.get(sender)
                if lst is None:
                    box[sender] = [payload]
                else:
                    lst.append(payload)

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
        strict = self.strict
        capacity = self.capacity
        injector = self.faults
        send_round = self._round
        dropped = duplicated = corrupted = 0
        delayed = topo_lost = partitioned = 0
        want_detail = self._want_detail
        if want_detail:
            events_append = self._inflight_events.append
        if injector is not None:
            inj_topo = injector.has_topology
            inj_part = injector.has_partitions
            inj_delay = injector.has_delay
            delay_queue = self._delay_queue
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
                if strict and count > capacity:
                    raise ProtocolError(
                        f"edge {(v, neighbor)!r} carried {count} messages "
                        f"in one round (capacity {capacity})"
                    )
                messages += 1
                bits += size
                if want_hist:
                    # Keyed on what the sender was charged, so the
                    # histogram total always equals ``bits`` even when
                    # the fault channel below drops the transmission.
                    bits_hist[size] = bits_hist.get(size, 0) + 1
                copies = 1
                outcome = "deliver"
                if injector is not None:
                    # The sender has paid; what follows is the channel.
                    # Fault decisions key on the per-edge sequence
                    # number ``count - 1``, identical in both engines.
                    if inj_topo and not injector.topology_live(
                        v, neighbor, send_round
                    ):
                        topo_lost += 1
                        if want_detail:
                            events_append({
                                "s": repr(v), "r": repr(neighbor),
                                "q": count - 1, "b": size, "o": "topo_lost",
                            })
                        continue
                    if inj_part and injector.partitioned(
                        v, neighbor, send_round
                    ):
                        partitioned += 1
                        if want_detail:
                            events_append({
                                "s": repr(v), "r": repr(neighbor),
                                "q": count - 1, "b": size, "o": "partitioned",
                            })
                        continue
                    if injector.link_down(v, neighbor, send_round):
                        dropped += 1
                        if want_detail:
                            events_append({
                                "s": repr(v), "r": repr(neighbor),
                                "q": count - 1, "b": size, "o": "drop",
                            })
                        continue
                    action = injector.classify(
                        send_round, v, neighbor, count - 1
                    )
                    if action == DROP:
                        dropped += 1
                        if want_detail:
                            events_append({
                                "s": repr(v), "r": repr(neighbor),
                                "q": count - 1, "b": size, "o": "drop",
                            })
                        continue
                    if action == DUPLICATE:
                        duplicated += 1
                        copies = 2
                        outcome = "duplicate"
                    elif action == CORRUPT:
                        corrupted += 1
                        outcome = "corrupt"
                        payload = injector.corrupted_payload(
                            send_round, v, neighbor, count - 1
                        )
                    if inj_delay:
                        extra = injector.delay_rounds(
                            send_round, v, neighbor, count - 1
                        )
                        if extra:
                            # Charged now, handed over later: the
                            # payload (every copy of it) waits in the
                            # delay queue for its release round.
                            delayed += 1
                            release = delay_queue.setdefault(
                                send_round + 1 + extra, []
                            )
                            if want_detail:
                                # The per-edge sequence number rides
                                # along so the release event can be
                                # joined back to this transmission.
                                entry = (
                                    send_round, v, neighbor, payload,
                                    count - 1,
                                )
                                events_append({
                                    "s": repr(v), "r": repr(neighbor),
                                    "q": count - 1, "b": size, "o": "delay",
                                })
                            else:
                                entry = (send_round, v, neighbor, payload)
                            release.append(entry)
                            if copies == 2:
                                release.append(entry)
                            continue
                if want_detail:
                    events_append({
                        "s": repr(v), "r": repr(neighbor),
                        "q": count - 1, "b": size, "o": outcome,
                    })
                box = pending[j]
                if box is None:
                    pending[j] = {v: [payload] * copies}
                    pending_ids_add(j)
                else:
                    lst = box.get(v)
                    if lst is None:
                        box[v] = [payload] * copies
                    else:
                        lst.append(payload)
                        if copies == 2:
                            lst.append(payload)
        if max_bits > self.metrics.max_message_bits:
            self.metrics.max_message_bits = max_bits
        self._inflight = (
            per_edge,
            messages,
            bits,
            bits_hist,
            (dropped, duplicated, corrupted, delayed, topo_lost, partitioned)
            if injector is not None
            else NO_FAULTS,
        )

    def _collect_batched(self, plan) -> None:
        """Charge a columnar send plan without materializing inboxes.

        The plan's vectorized accounting reproduces the scalar path
        bit-for-bit (same per-edge counts, bits, histogram, errors);
        receivers are marked due via ``_pending_ids`` but their inbox
        dictionaries stay unbuilt — the plan itself is parked in
        ``_lazy_plan`` and reconstructed only if checkpoint capture or
        crash filtering needs object-level messages.  Kernelized plans
        ride a lossless channel by construction (message-faulting plans
        disable kernels), so the fault channel is skipped; crash-only
        injectors still get their zeroed per-round fault counters.
        """
        per_edge, messages, bits, bits_hist, max_bits, receivers = (
            plan.account(self)
        )
        if max_bits > self.metrics.max_message_bits:
            self.metrics.max_message_bits = max_bits
        self._pending_ids.update(receivers)
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

    def _materialize_lazy(self) -> None:
        """Build the inbox dictionaries a lazily-delivered plan deferred."""
        plan = self._lazy_plan
        self._lazy_plan = None
        plan.materialize(self)
        if self._registry is not None:
            self._registry.count("congest.delivery.materialized")
