"""What both CONGEST engines share: state, channel, recovery, bookkeeping.

The fast engine (:mod:`repro.congest.engine`) and the reference engine
(:mod:`repro.congest.reference`) differ only in *how they schedule*:
which vertices are due, in what order outboxes drain, how a message is
sized and charged.  Everything that does not depend on scheduling lives
here, once, in :class:`EngineCore`:

* the per-vertex state in canonical rank order (:func:`build_vertex_state`
  over the graph's shared :class:`~repro.graph.SimulationLayout`, so both
  engines derive identical per-vertex RNG streams), with flat
  rank-indexed lists for contexts, algorithms, inboxes and wakeups;
* the channel a charged transmission crosses (:meth:`EngineCore._transmit`):
  topology → partition → classify → delay, with its detail-mode
  events and the six per-round fault counters;
* the release of delayed payloads in canonical order;
* the crash schedule, rejoins and local crash-recovery snapshots;
* the per-round bookkeeping: recording delivered traffic, telemetry,
  the round trace and the checkpoint callback.

Checkpoint capture/restore of the same state lives beside the envelope
in :mod:`repro.congest.checkpoint`.  Because the two engines run this
code rather than two copies of it, ``tests/test_engine_equivalence.py``
cannot catch a bug here; the channel and recovery semantics are pinned
directly by ``tests/test_faults.py``, ``tests/test_adversity.py`` and
``tests/test_checkpoint.py`` (see ``docs/congest_model.md``).
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..graph import Graph, SimulationLayout
from ..rng import ensure_rng
from .algorithm import VertexAlgorithm, VertexContext
from .checkpoint import (
    SimulationCheckpoint,
    capture_engine_state,
    dump_state,
    restore_engine_state,
)
from .faults import CORRUPT, DROP, DUPLICATE, NO_FAULTS, FaultInjector
from .message import MessageBudget
from .metrics import CongestMetrics
from .trace import TraceRecorder, detail_event_sort_key
from ..obs import registry as _telemetry

#: Sentinel for "no traffic in flight": (per-edge counts, messages,
#: bits, message-size histogram, per-round fault counters).
_NO_TRAFFIC: Tuple[Dict, int, int, Dict, Tuple[int, ...]] = (
    {}, 0, 0, {}, NO_FAULTS
)

#: Slots of the per-round fault counters, in ``NO_FAULTS`` order.
DROPPED, DUPLICATED, CORRUPTED, DELAYED, TOPO_LOST, PARTITIONED = range(6)


def build_vertex_state(
    layout: SimulationLayout,
    algorithm_factory: Callable[[Any], VertexAlgorithm],
    seed,
) -> Tuple[List[VertexContext], List[VertexAlgorithm]]:
    """Construct per-vertex contexts and algorithms in canonical order.

    The per-vertex RNG streams are derived from the root seed in
    canonical vertex order, so they are identical whichever engine runs
    the algorithm.  Contexts share the layout's neighbor tuples; each
    gets its own weight dict.
    """
    getrandbits = ensure_rng(seed).getrandbits
    order = layout.order
    n = len(order)
    # Positional (vertex, neighbors, edge_weights, n, rng, rng_seed).
    contexts = [
        VertexContext(
            v, neighbors, dict(zip(neighbors, weights)), n, None,
            getrandbits(64),
        )
        for v, neighbors, weights in zip(
            order, layout.neighbors, layout.weights
        )
    ]
    algorithms = [algorithm_factory(v) for v in order]
    return contexts, algorithms


class EngineCore:
    """Simulation state and scheduling-independent semantics.

    Subclasses implement ``run`` (the round loop: due set, stepping,
    fast-forward) and ``_collect(senders)`` (draining outboxes, sizing
    and charging each message, then handing it to :meth:`_transmit`).
    Vertices are addressed by canonical rank: ``_verts[i]`` is the
    vertex of rank ``i`` and ``_index`` maps back.
    """

    name = ""

    def __init__(
        self,
        graph: Graph,
        algorithm_factory: Callable[[Any], VertexAlgorithm],
        budget: Optional[MessageBudget] = None,
        seed=None,
        trace: Optional[TraceRecorder] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.graph = graph
        self.budget = budget if budget is not None else MessageBudget(graph.n)
        self.metrics = CongestMetrics()
        self.trace = trace
        self.faults = faults
        # Kept for crash-recovery: a rejoining vertex with no local
        # snapshot re-initializes through the same factory.
        self._factory = algorithm_factory

        # The graph's layout, shared with every other simulation on it
        # and never written: rank order, rank index, neighbor rows (and
        # the kernels' CSR arrays).
        layout = graph.simulation_layout()
        self._layout = layout
        contexts, algorithms = build_vertex_state(
            layout, algorithm_factory, seed
        )
        order = layout.order
        self._verts: Sequence[Any] = order
        self._index: Dict[Any, int] = layout.index
        self._contexts = contexts
        self._algorithms = algorithms
        n = len(order)
        self._n = n
        self._round = 0

        # Next-round inboxes: rank -> {sender vertex: [payloads]}, or
        # None when empty.  _pending_ids indexes the ranks that received
        # mail for the fast engine's due set; the reference engine reads
        # _pending directly.
        self._pending: List[Optional[Dict[Any, List[Any]]]] = [None] * n
        self._pending_ids: Set[int] = set()
        # Vertices that must step next round regardless of messages.
        self._runnable: Set[int] = set(range(n))
        # Scheduled wakeup round per rank (None: wake on mail only).
        self._wake_round: List[Optional[int]] = [None] * n
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
        # Payloads the channel withheld, keyed by release round:
        # release -> [(send round, sender, receiver, payload[, seq])].
        self._delay_queue: Dict[int, List[Tuple]] = {}
        # Crash schedule per rank, or None when the plan has no crashes
        # so the hot path can skip the lookup entirely.
        if faults is not None and faults.plan.crashes:
            self._crash_rounds: Optional[List[Optional[int]]] = [
                faults.crash_round(v) for v in order
            ]
            # Crash-recovery schedule: (rejoin round, rank), sorted by
            # round with canonical order breaking ties (the stable sort
            # preserves the enumerate order within equal rounds).
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
        # Reference MT19937 keys per vertex seed, kept for the engine's
        # life so every capture and snapshot after the first reads only
        # the live generators (see repro.rng.reduce_seeded_random).
        self._rng_keys: Dict[Any, Any] = {}
        # Flipped by run() after the initialization pass; a restored
        # post-init checkpoint carries True, so run() then skips
        # initialization and continues mid-simulation.
        self._initialized = False

    # ------------------------------------------------------------------
    @property
    def rounds_executed(self) -> int:
        """Final value of the synchronous round counter."""
        return self._round

    def capture_checkpoint(self) -> SimulationCheckpoint:
        """Freeze the simulation at the current round boundary."""
        return capture_engine_state(self)

    def restore_checkpoint(self, checkpoint: SimulationCheckpoint) -> None:
        """Replace this engine's state with a captured checkpoint."""
        restore_engine_state(self, checkpoint)

    def _initial_cohort(self) -> List[int]:
        """Fail-stop the vertices that crash before round 0 (they never
        initialize) and return the ranks of the rest."""
        cohort = []
        for i, crash in enumerate(self._crash_rounds or [None] * self._n):
            if crash is not None and crash <= 0:
                self._contexts[i]._halted = True
                self._crashed_ids.add(i)
            else:
                cohort.append(i)
        self.metrics.record_crashed(self._n - len(cohort))
        return cohort

    # -- the channel ----------------------------------------------------
    def _transmit(self, v, neighbor, j: int, payload, size: int, seq: int,
                  counts: List[int]) -> None:
        """Carry one charged transmission from ``v`` to rank ``j``.

        The sender has paid; what follows is the channel.  Fault
        decisions key on the per-edge sequence number ``seq`` and run
        in a fixed order — topology, partition, classify, delay —
        so the first loss wins and lands in exactly one slot of
        ``counts``.  A surviving payload (both copies of a duplicate)
        reaches the receiver's inbox now, or waits in the delay queue
        for its release round.
        """
        injector = self.faults
        copies = 1
        outcome = "deliver"
        lost = None
        release = 0
        if injector is not None:
            send_round = self._round
            if injector.has_topology and not injector.topology_live(
                v, neighbor, send_round
            ):
                lost, slot = "topo_lost", TOPO_LOST
            elif injector.has_partitions and injector.partitioned(
                v, neighbor, send_round
            ):
                lost, slot = "partitioned", PARTITIONED
            else:
                action = injector.classify(send_round, v, neighbor, seq)
                if action == DROP:
                    lost, slot = "drop", DROPPED
                elif action == DUPLICATE:
                    counts[DUPLICATED] += 1
                    copies = 2
                    outcome = "duplicate"
                elif action == CORRUPT:
                    counts[CORRUPTED] += 1
                    outcome = "corrupt"
                    payload = injector.corrupted_payload(
                        send_round, v, neighbor, seq
                    )
            if lost is not None:
                counts[slot] += 1
                outcome = lost
            elif injector.has_delay:
                extra = injector.delay_rounds(send_round, v, neighbor, seq)
                if extra:
                    counts[DELAYED] += 1
                    outcome = "delay"
                    release = send_round + 1 + extra
        if self._want_detail:
            self._inflight_events.append({
                "s": repr(v), "r": repr(neighbor),
                "q": seq, "b": size, "o": outcome,
            })
        if lost is not None:
            return
        if release:
            # Charged now, handed over later.  In detail mode the
            # sequence number rides along so the release event can be
            # joined back to this transmission.
            entry = (self._round, v, neighbor, payload)
            if self._want_detail:
                entry += (seq,)
            self._delay_queue.setdefault(release, []).extend([entry] * copies)
        else:
            self._enqueue(j, v, payload, copies)

    def _enqueue(self, j: int, sender, payload, copies: int = 1) -> None:
        """Append ``copies`` of ``payload`` from ``sender`` to rank
        ``j``'s inbox, unless ``j`` has halted: nothing reads a halted
        vertex's mail, so it gets no inbox (the sender was charged)."""
        box = self._pending[j]
        if box is None:
            if self._contexts[j]._halted:
                return
            self._pending[j] = {sender: [payload] * copies}
            self._pending_ids.add(j)
            return
        payloads = box.get(sender)
        if payloads is None:
            box[sender] = [payload] * copies
        else:
            payloads.extend([payload] * copies)

    def _deliver_delayed(self, round_number: int) -> None:
        """Release withheld payloads whose delivery round has arrived.

        Entries are ordered by (send round, sender rank, receiver rank)
        — a pure function of the plan and the canonical vertex order —
        so released payloads join the inboxes in one fixed order.
        """
        queue = self._delay_queue
        ready = sorted(r for r in queue if r <= round_number)
        if not ready:
            return
        entries: List[Tuple] = []
        for release in ready:
            entries.extend(queue.pop(release))
        index = self._index
        entries.sort(key=lambda e: (e[0], index[e[1]], index[e[2]]))
        for entry in entries:
            send_round, sender, receiver, payload = entry[:4]
            if self._want_detail:
                event = {
                    "s": repr(sender), "r": repr(receiver),
                    "o": "release", "sr": send_round,
                }
                if len(entry) > 4:
                    event["q"] = entry[4]
                self._inflight_events.append(event)
            self._enqueue(index[receiver], sender, payload)

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
            else:
                old = self._contexts[i]
                ctx = VertexContext(
                    vertex=old.vertex,
                    neighbors=old.neighbors,
                    edge_weights=dict(old.edge_weights),
                    n=old.n,
                    rng_seed=old._rng_seed,
                )
                algorithm = self._factory(old.vertex)
            ctx.round_number = round_number
            self._contexts[i] = ctx
            self._algorithms[i] = algorithm
            if snapshot is None:
                algorithm.initialize(ctx)
            if self._pending[i] is not None:
                self._pending[i] = None
                self._pending_ids.discard(i)
            self._wake_round[i] = None
            if not ctx._halted:
                self._runnable.add(i)
            revived.append(i)
        self.metrics.record_rejoined(len(revived))
        return revived

    def _take_local_snapshots(self, stepped, round_number: int) -> None:
        """Snapshot rejoin-scheduled vertices every ``checkpoint_interval``
        executed steps, so their later revival restores real state.

        Runs after collection, so a snapshot never contains queued
        outbox messages and revival cannot re-send anything.
        """
        interval = self._snapshot_interval
        last_rounds = self._snapshot_rounds
        for i in stepped:
            if i in self._snapshot_targets and not self._contexts[i]._halted:
                last = last_rounds.get(i)
                if last is None or round_number - last >= interval:
                    ctx = self._contexts[i]
                    self._snapshots[i] = dump_state(
                        (self._algorithms[i], ctx), (ctx,), self._rng_keys
                    )
                    last_rounds[i] = round_number

    # -- per-round bookkeeping ------------------------------------------
    def _drain(self, senders) -> None:
        """Run ``_collect(senders)`` inside the ``congest.collect`` span."""
        registry = self._registry
        if registry is None:
            self._collect(senders)
        else:
            with registry.span("congest.collect"):
                self._collect(senders)

    def _open_round(self) -> Tuple:
        """Record the traffic delivered into the round just entered.

        Returns it, with the round's sorted detail events (None when
        detail is off), for :meth:`_close_round`.  The events are taken
        now because this round's collection refills the buffer with the
        next round's.
        """
        per_edge, messages, bits, bits_hist, fcounts = self._inflight
        self._inflight = _NO_TRAFFIC
        events = None
        if self._want_detail:
            events = self._inflight_events
            self._inflight_events = []
            events.sort(key=detail_event_sort_key)
        if self.faults is None:
            self.metrics.record_round(per_edge, messages, bits)
        else:
            self.metrics.record_round(per_edge, messages, bits, fcounts)
        return per_edge, messages, bits, bits_hist, fcounts, events

    def _close_round(self, delivered: Tuple, stepped, crashed: int,
                     idle: int, halted: int, skipped: int, rejoined: int,
                     checkpoint_every: Optional[int],
                     on_checkpoint: Optional[Callable[..., None]]) -> None:
        """Finish the round after stepping, collection and rescheduling:
        local snapshots, crash accounting, telemetry, the round trace,
        and the checkpoint callback."""
        round_number = self._round
        if self._snapshot_interval is not None and self._snapshot_targets:
            self._take_local_snapshots(stepped, round_number)
        self.metrics.record_crashed(crashed)
        per_edge, messages, bits, bits_hist, fcounts, events = delivered
        registry = self._registry
        if registry is not None:
            # Both observations are pure functions of the simulated
            # execution, so fast and reference runs publish identical
            # telemetry.
            registry.observe("congest.active_vertices", len(stepped))
            if bits_hist:
                size_hist = registry.histogram("congest.message_bits")
                for size, times in bits_hist.items():
                    size_hist.observe(size, times)
        if self.trace is not None:
            self.trace.record_round(
                round_number=round_number,
                per_edge_counts=per_edge,
                messages=messages,
                bits=bits,
                stepped=len(stepped),
                idle=idle,
                halted=halted,
                skipped_before=skipped,
                dropped=fcounts[DROPPED],
                duplicated=fcounts[DUPLICATED],
                corrupted=fcounts[CORRUPTED],
                crashed=crashed,
                rejoined=rejoined,
                delayed=fcounts[DELAYED],
                topo_lost=fcounts[TOPO_LOST],
                partitioned=fcounts[PARTITIONED],
                message_bits_histogram=bits_hist,
                events=events,
            )
        if (
            on_checkpoint is not None
            and checkpoint_every is not None
            and round_number % checkpoint_every == 0
        ):
            on_checkpoint(self.capture_checkpoint())

    def _result(self):
        """The :class:`~repro.congest.network.SimulationResult` of the run."""
        from .network import SimulationResult

        if self._registry is not None:
            self.metrics.publish_telemetry(self._registry)
        contexts = self._contexts
        return SimulationResult(
            outputs={v: ctx._output for v, ctx in zip(self._verts, contexts)},
            metrics=self.metrics,
            halted=all(ctx._halted for ctx in contexts),
            crashed=frozenset(self._verts[i] for i in self._crashed_ids),
        )
