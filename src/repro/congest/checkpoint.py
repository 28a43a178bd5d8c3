"""Durable simulation checkpoints for the CONGEST engines.

A :class:`SimulationCheckpoint` captures one simulation at a *round
boundary* — after a round's messages have been collected, before the
next round begins.  It holds everything the next round depends on:

* per-vertex algorithm objects and contexts (including each vertex's
  private RNG stream, exactly as advanced so far);
* in-flight traffic awaiting delivery, with its accounting tuple, the
  delay queue of withheld payloads, and any buffered detail-trace
  events;
* queued inboxes, the runnable set, and scheduled wakeups;
* the :class:`~repro.congest.metrics.CongestMetrics` accumulated so far
  and the rounds recorded by an attached trace recorder;
* the full fault state: the plan itself (fault decisions are a pure
  keyed hash of the plan, so beyond the delay queue nothing about the
  channel needs saving), the remaining crash schedule, unfired
  rejoins, and the local per-vertex snapshots the crash-recovery model
  keeps.

The invariant — pinned by ``tests/test_checkpoint.py`` on both engines,
fault-free and under every fault class — is that *resuming from a
checkpoint is bit-identical to never having stopped*: outputs, metrics,
and traces all match the uninterrupted run.  Both engines capture and
restore through the one implementation here
(:func:`capture_engine_state` / :func:`restore_engine_state`), which
stores the state as the engines hold it, indexed by rank.  Both engines
take their rank order from the graph's shared
:class:`~repro.graph.SimulationLayout`, and the graph fingerprint every
checkpoint binds digests the vertices in exactly that order, so a
checkpoint captured on the fast engine resumes on the reference engine
and vice versa.

Wire format: a JSON envelope of schema :data:`CHECKPOINT_SCHEMA_VERSION`
whose ``state`` field is a pickled (protocol-pinned) blob of the live
vertex objects, base64 encoded, and whose ``checksum`` field is
verified before that blob is decoded.  The blob must be one pickle so
that object identity between an algorithm and its context (a walker
caches bound methods of its context's generator) is preserved across
the round trip.  Checkpointing therefore requires the vertex
algorithms to be picklable — true for every algorithm in this library.
The blob is written by :func:`dump_state`.  A vertex's randomness is
its seed and the number of words it has drawn, so a context's generator
that is still within its first 624 words since seeding pickles as that
seed and count (:func:`repro.rng.reduce_seeded_random`), a few bytes;
every other generator pickles the default way.  The crash-recovery
snapshots of :mod:`repro.congest.channel` go through the same
serializer.
"""

from __future__ import annotations

import base64
import io
import json
import os
import pickle
import random
from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Dict, Iterable, List, Optional

from .. import storage
from ..errors import CheckpointError, StorageError
from ..graph import Graph
from ..rng import reduce_seeded_random
from .metrics import CongestMetrics
from .trace import RoundTrace

#: The one envelope schema :meth:`SimulationCheckpoint.from_dict` reads;
#: a file stamped with any other is refused before its state is decoded.
CHECKPOINT_SCHEMA_VERSION = 4

#: Pinned pickle protocol for the state blob, so identical state
#: pickles to identical bytes and checkpoints stay readable across
#: interpreter versions.
PICKLE_PROTOCOL = 4


class _StatePickler(pickle.Pickler):
    """Default pickling, except that an exact ``random.Random`` that is
    a context's generator pickles as seed and count when
    :func:`repro.rng.reduce_seeded_random` can write it so.  ``seeds``
    maps the ``id`` of each context's generator to that context's seed.
    """

    def __init__(self, file, seeds: Dict[int, Any], keys: Dict) -> None:
        super().__init__(file, protocol=PICKLE_PROTOCOL)
        self._seeds = seeds
        self._keys = keys

    def reducer_override(self, obj):
        if type(obj) is random.Random:
            seed = self._seeds.get(id(obj))
            if seed is not None:
                reduced = reduce_seeded_random(obj, seed, self._keys)
                if reduced is not None:
                    return reduced
        return NotImplemented


def dump_state(obj: Any, contexts: Iterable = (),
               keys: Optional[Dict] = None) -> bytes:
    """Pickle ``obj`` at :data:`PICKLE_PROTOCOL` through the state pickler.

    The one serializer for vertex state: checkpoint capture and the
    local crash-recovery snapshots both use it.  ``contexts`` are the
    vertex contexts whose generators ``obj`` holds; each seeded
    generator among them that is within its first 624 words pickles as
    its seed and count.  ``keys`` carries the reference keys of
    :func:`repro.rng.reduce_seeded_random` from one dump to the next
    (an engine keeps one for its life).  ``pickle.loads`` reads the result back;
    one pickle memo keeps object identity, so a cached bound method
    still points at its context's generator after the round trip.
    """
    seeds = {
        id(ctx._rng): ctx._rng_seed
        for ctx in contexts
        if ctx._rng is not None and ctx._rng_seed is not None
    }
    buffer = io.BytesIO()
    _StatePickler(buffer, seeds, {} if keys is None else keys).dump(obj)
    return buffer.getvalue()


def _envelope_checksum(data: Dict[str, Any]) -> str:
    """blake2b digest of an envelope: the canonical JSON of every field
    except ``checksum`` and ``state``, followed by the base64 ``state``
    text as it stands, so the blob is hashed once and never JSON-encoded
    again.

    Verified by :meth:`SimulationCheckpoint.from_dict` *before* the
    state blob is base64-decoded or unpickled, so a truncated,
    bit-flipped or relabeled checkpoint raises :class:`CheckpointError`
    instead of feeding garbage to pickle.
    """
    state = data.get("state")
    if not isinstance(state, str):
        raise TypeError(f"state is {type(state).__name__}, not base64 text")
    body = {k: v for k, v in data.items() if k not in ("checksum", "state")}
    digest = blake2b(
        storage.canonical_json(body).encode("utf-8"), digest_size=16
    )
    digest.update(state.encode("utf-8"))
    return digest.hexdigest()


def graph_fingerprint(graph: Graph) -> str:
    """Stable digest of a graph's exact topology and edge weights.

    Stored in every checkpoint and verified at resume: restoring vertex
    state into a *different* network would not fail loudly on its own —
    it would silently diverge — so the fingerprint turns that mistake
    into a :class:`~repro.errors.CheckpointError`.  Computed once per
    :class:`~repro.graph.SimulationLayout`
    (:meth:`~repro.graph.SimulationLayout.fingerprint`), so captures and
    resumes on one graph hash it once.
    """
    return graph.simulation_layout().fingerprint()


@dataclass
class SimulationCheckpoint:
    """One simulation frozen at a round boundary; see the module doc."""

    #: Round counter at capture time; the resumed run continues at
    #: ``round + 1`` (``run(max_rounds=...)`` stays an absolute bound).
    round: int
    n: int
    #: Engine that captured the checkpoint (informational: resume may
    #: use either engine).
    engine: str
    #: :func:`graph_fingerprint` of the captured network.
    graph: str
    budget_n: int
    budget_words: int
    #: ``FaultPlan.to_dict()`` payload, or ``None`` for fault-free runs.
    fault_plan: Optional[Dict[str, Any]]
    #: ``CongestMetrics.to_dict(include_per_round=True)`` payload.
    metrics: Dict[str, Any]
    #: The pickled rank-indexed state blob (see the module doc).
    state: bytes
    #: Rounds recorded by the attached trace recorder up to capture, as
    #: ``RoundTrace.to_dict()`` payloads; ``None`` when untraced.
    trace_rounds: Optional[List[Dict[str, Any]]] = None

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (the state blob is base64-encoded).

        The envelope carries a ``checksum`` (see
        :func:`_envelope_checksum`) so torn writes and bit-flips are
        caught at load time, never unpickled.
        """
        data = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "round": self.round,
            "n": self.n,
            "engine": self.engine,
            "graph": self.graph,
            "budget": {"n": self.budget_n, "words": self.budget_words},
            "fault_plan": self.fault_plan,
            "metrics": self.metrics,
            "trace_rounds": self.trace_rounds,
            "state": base64.b64encode(self.state).decode("ascii"),
        }
        data["checksum"] = _envelope_checksum(data)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimulationCheckpoint":
        """Rebuild a checkpoint from its envelope, verified first.

        Only schema :data:`CHECKPOINT_SCHEMA_VERSION` is read, and only
        once its checksum matches; any other schema marker, a missing or
        stale checksum, and a missing field each raise
        :class:`~repro.errors.CheckpointError`.  Unknown extra fields are
        ignored once the checksum over them holds, so a file that still
        carries the ``strict`` and ``capacity`` fields older code wrote
        loads unchanged.
        """
        if not isinstance(data, dict):
            raise CheckpointError(
                f"checkpoint payload is {type(data).__name__}, not an object"
            )
        schema = data.get("schema")
        if type(schema) is not int or schema != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint carries schema {schema!r}; this code reads "
                f"schema {CHECKPOINT_SCHEMA_VERSION} only"
            )
        expected = data.get("checksum")
        if expected is None:
            raise CheckpointError(
                "checkpoint envelope carries no checksum; refusing to "
                "unpickle its state"
            )
        try:
            actual = _envelope_checksum(data)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint envelope is not canonicalizable: {exc}"
            ) from exc
        if actual != expected:
            raise CheckpointError(
                "checkpoint failed checksum verification "
                f"(expected {expected!r}, got {actual!r}) — torn "
                "write or bit-flip; refusing to unpickle its state"
            )
        try:
            budget = data["budget"]
            return cls(
                round=int(data["round"]),
                n=int(data["n"]),
                engine=str(data["engine"]),
                graph=str(data["graph"]),
                budget_n=int(budget["n"]),
                budget_words=int(budget["words"]),
                fault_plan=data["fault_plan"],
                metrics=dict(data["metrics"]),
                trace_rounds=data["trace_rounds"],
                state=base64.b64decode(data["state"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint payload: {type(exc).__name__}: {exc}"
            ) from exc

    # -- file I/O --------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the checkpoint to ``path`` atomically (write + rename).

        Durability is the whole point of a checkpoint, so a crash while
        saving must never leave a half-written file where an older good
        checkpoint used to be.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True)
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        try:
            storage.atomic_write_text(path, payload + "\n")
        except StorageError as exc:
            raise CheckpointError(
                f"cannot save checkpoint {path!r}: {exc}"
            ) from exc

    @classmethod
    def load(cls, path: str) -> "SimulationCheckpoint":
        """Read a checkpoint file, wrapping every failure mode loudly."""
        try:
            text = storage.read_text(path)
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint {path!r}: {exc}"
            ) from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {path!r} is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(data)


def verify_restore_target(engine, checkpoint: SimulationCheckpoint,
                          n: int) -> None:
    """Refuse to restore ``checkpoint`` into a mismatched simulation.

    Shared by both engines' ``restore_checkpoint``: the bit-identical
    resume guarantee only holds when the graph, the message budget,
    and the fault plan all match the capturing run, so any mismatch
    raises :class:`~repro.errors.CheckpointError` instead of silently
    diverging.
    """
    if checkpoint.n != n:
        raise CheckpointError(
            f"checkpoint was captured over {checkpoint.n} vertices, "
            f"this simulation has {n}"
        )
    fingerprint = graph_fingerprint(engine.graph)
    if checkpoint.graph != fingerprint:
        raise CheckpointError(
            "checkpoint was captured over a different graph "
            f"(fingerprint {checkpoint.graph} != {fingerprint})"
        )
    if (
        engine.budget.n != checkpoint.budget_n
        or engine.budget.words != checkpoint.budget_words
    ):
        raise CheckpointError(
            "checkpoint was captured under a different message budget"
        )
    plan = (
        engine.faults.plan.to_dict() if engine.faults is not None else None
    )
    if plan != checkpoint.fault_plan:
        raise CheckpointError(
            "checkpoint was captured under a different fault plan"
        )


def capture_engine_state(engine) -> SimulationCheckpoint:
    """Freeze ``engine`` at the current round boundary.

    Shared by both engines.  The state blob holds the engine's own
    rank-indexed state, normalized so it only holds logical state:
    inboxes, wakeups, and runnable flags of halted vertices are dead
    weight and are excluded.  In-flight traffic, withheld (delayed)
    payloads and buffered detail events are serialized, so a checkpoint
    taken with messages on the wire resumes bit-identically.
    """
    contexts = engine._contexts
    state = {
        "contexts": contexts,
        "algorithms": engine._algorithms,
        "pending": {
            i: box
            for i, box in enumerate(engine._pending)
            if box and not contexts[i]._halted
        },
        "runnable": {i for i in engine._runnable if not contexts[i]._halted},
        "wakeups": {
            i: w
            for i, w in enumerate(engine._wake_round)
            if w is not None and not contexts[i]._halted
        },
        "inflight": engine._inflight,
        "delayed": engine._delay_queue,
        "inflight_events": engine._inflight_events,
        "crashed": engine._crashed_ids,
        "crash_rounds": engine._crash_rounds,
        "rejoin_queue": engine._rejoin_queue,
        "snapshots": engine._snapshots,
        "snapshot_rounds": engine._snapshot_rounds,
        "initialized": engine._initialized,
    }
    if engine._registry is not None:
        engine._registry.count("congest.checkpoints_captured")
    return SimulationCheckpoint(
        round=engine._round,
        n=engine._n,
        engine=engine.name,
        graph=graph_fingerprint(engine.graph),
        budget_n=engine.budget.n,
        budget_words=engine.budget.words,
        fault_plan=(
            engine.faults.plan.to_dict() if engine.faults is not None else None
        ),
        metrics=engine.metrics.to_dict(include_per_round=True),
        state=dump_state(state, contexts, engine._rng_keys),
        trace_rounds=(
            [r.to_dict() for r in engine.trace.rounds]
            if engine.trace is not None
            else None
        ),
    )


def restore_engine_state(engine, checkpoint: SimulationCheckpoint) -> None:
    """Replace ``engine``'s state with a captured checkpoint.

    Shared by both engines; accepts checkpoints captured by either.
    The engine must have been constructed over the same graph, budget
    and fault plan the checkpoint came from (see
    :func:`verify_restore_target`); construction-time vertex state is
    discarded, and ``run()`` then continues from the checkpointed round.
    """
    n = engine._n
    verify_restore_target(engine, checkpoint, n)
    try:
        state = pickle.loads(checkpoint.state)
    except Exception as exc:
        raise CheckpointError(
            f"cannot unpickle checkpoint state: {exc}"
        ) from exc
    try:
        algorithms = state["algorithms"]
        # The engine was built through the caller's factory; resuming
        # another protocol's objects would run them to this one's round
        # bound and grade foreign state.
        for v, restored, built in zip(
            engine._verts, algorithms, engine._algorithms
        ):
            if type(restored) is not type(built):
                raise CheckpointError(
                    f"checkpoint holds a {type(restored).__qualname__} at "
                    f"vertex {v!r}, but this simulation's factory builds "
                    f"{type(built).__qualname__}"
                )
        engine._contexts = state["contexts"]
        engine._algorithms = algorithms
        pending = state["pending"]
        engine._pending = [None] * n
        for i, box in pending.items():
            engine._pending[i] = box
        engine._pending_ids = set(pending)
        engine._runnable = state["runnable"]
        engine._wake_round = [None] * n
        for i, w in state["wakeups"].items():
            engine._wake_round[i] = w
        engine._inflight = state["inflight"]
        engine._delay_queue = state["delayed"]
        engine._inflight_events = state["inflight_events"]
        engine._crashed_ids = state["crashed"]
        engine._crash_rounds = state["crash_rounds"]
        engine._rejoin_queue = state["rejoin_queue"]
        engine._snapshot_targets = {i for _, i in engine._rejoin_queue}
        engine._snapshots = state["snapshots"]
        engine._snapshot_rounds = state["snapshot_rounds"]
        # A pre-initialization checkpoint (captured before run()) holds
        # False, so the resumed run still initializes normally.
        engine._initialized = state["initialized"]
    except KeyError as exc:
        raise CheckpointError(
            f"checkpoint state is missing {exc}"
        ) from exc
    engine._round = checkpoint.round
    engine.metrics = CongestMetrics.from_dict(checkpoint.metrics)
    if engine.trace is not None and checkpoint.trace_rounds is not None:
        engine.trace.rounds = [
            RoundTrace.from_dict(d) for d in checkpoint.trace_rounds
        ]
    if engine._registry is not None:
        engine._registry.count("congest.checkpoints_restored")


def resume_simulation(
    graph: Graph,
    algorithm_factory,
    checkpoint: SimulationCheckpoint,
    engine: Optional[str] = None,
    trace=None,
):
    """Rebuild a simulator mid-run from ``checkpoint``.

    ``graph`` and ``algorithm_factory`` must be the ones the original
    simulation was built from (the graph is verified against the
    checkpoint's fingerprint; the factory is only consulted if a
    crash-recovery rejoin later re-initializes a vertex).  ``engine``
    may differ from the capturing engine — checkpoints are
    engine-neutral.  The message budget and the fault plan are restored
    from the checkpoint itself, so the resumed run is bit-identical to
    the uninterrupted one by construction.

    Returns a ready :class:`~repro.congest.network.CongestSimulator`;
    call ``run(max_rounds)`` with the same *absolute* bound as the
    original run to finish it.
    """
    from .faults import FaultPlan
    from .message import MessageBudget
    from .network import CongestSimulator

    # An explicitly empty plan (rather than None) keeps an ambient
    # use_faults() region from leaking into the resumed run: the
    # checkpoint's own plan is the only fault source.
    plan = (
        FaultPlan.from_dict(checkpoint.fault_plan)
        if checkpoint.fault_plan is not None
        else FaultPlan()
    )
    sim = CongestSimulator(
        graph,
        algorithm_factory,
        budget=MessageBudget(checkpoint.budget_n, checkpoint.budget_words),
        seed=0,  # construction-time streams are discarded by the restore
        engine=engine,
        trace=trace,
        faults=plan,
    )
    sim._engine.restore_checkpoint(checkpoint)
    return sim
