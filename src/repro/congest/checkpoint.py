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
(:func:`capture_engine_state` / :func:`restore_engine_state`), and the
state is keyed by vertex, not by rank, so a checkpoint captured on the
fast engine resumes on the reference engine and vice versa.

Wire format: a schema-versioned JSON envelope whose ``state`` field is
a pickled (protocol-pinned) blob of the live vertex objects, base64
encoded, and whose ``checksum`` field is verified before that blob is
decoded.  The blob must be one pickle so that object identity between
an algorithm and its context (a walker caches bound methods of its
context's generator) is preserved across the round trip.
Checkpointing therefore requires the vertex algorithms to be
picklable — true for every algorithm in this library.
The blob is written by :func:`dump_state`.  A vertex's randomness is
its seed and the number of words it has drawn, so a context's generator
that is still within its first 624 words since seeding pickles as that
seed and count (:func:`repro.rng.reduce_seeded_random`), a few bytes;
every other exact ``random.Random`` pickles as its packed MT19937 words
(:func:`repro.rng.reduce_random`) instead of 625 Python ints.  The
crash-recovery snapshots of :mod:`repro.congest.channel` go through the
same serializer.
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
from ..rng import reduce_random, reduce_seeded_random
from .faults import pad_fault_counts
from .metrics import CongestMetrics
from .trace import RoundTrace

#: Version stamped on every serialized checkpoint.  History:
#:
#: * 1 — initial layout (round, engine-neutral state blob, metrics,
#:   optional trace prefix, fault plan + crash-recovery state); the
#:   optional ``checksum`` covers the whole envelope's canonical JSON.
#: * 2 — packed RNG states: the state blob pickles every exact
#:   ``random.Random`` as packed MT19937 words
#:   (:func:`repro.rng.rebuild_random`).  The ``checksum`` is mandatory
#:   and covers the metadata's canonical JSON followed by the base64
#:   ``state`` text, so the state is never re-encoded to verify it.
#: * 3 — seeded RNG states: a vertex context's generator that is its
#:   seed advanced by at most 624 words pickles as the seed and that
#:   count (:func:`repro.rng.rebuild_seeded_random`); every other exact
#:   ``random.Random`` keeps schema 2's packed words.  The checksum
#:   rule is schema 2's.
#:
#: ``from_dict`` accepts any version up to the current one and fills
#: absent newer fields with defaults, so pinned old fixtures keep
#: loading (see ``tests/data/checkpoint_v1.json``,
#: ``tests/data/checkpoint_v1_checksummed.json`` and
#: ``tests/data/checkpoint_v2.json``).
CHECKPOINT_SCHEMA_VERSION = 3

#: Pinned pickle protocol for the state blob, so identical state
#: pickles to identical bytes and checkpoints stay readable across
#: interpreter versions.
PICKLE_PROTOCOL = 4


class _StatePickler(pickle.Pickler):
    """Default pickling, except exact ``random.Random`` objects: one
    that is a context's generator pickles as seed and count when it
    can (:func:`repro.rng.reduce_seeded_random`), any other as packed
    words (:func:`repro.rng.reduce_random`).  ``seeds`` maps the
    ``id`` of each context's generator to that context's seed.
    """

    def __init__(self, file, seeds: Dict[int, Any], keys: Dict) -> None:
        super().__init__(file, protocol=PICKLE_PROTOCOL)
        self._seeds = seeds
        self._keys = keys

    def reducer_override(self, obj):
        if type(obj) is not random.Random:
            return NotImplemented
        seed = self._seeds.get(id(obj))
        if seed is None:
            return reduce_random(obj)
        return reduce_seeded_random(obj, seed, self._keys)


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
    """blake2b digest of an envelope, per its schema, sans checksum.

    Schema 1 digests the whole envelope's canonical JSON.  Schemas 2
    and 3 digest the canonical JSON of every field except ``state``,
    followed by the base64 ``state`` text itself, so the blob is hashed
    as it stands instead of being JSON-encoded again.
    Verified by :meth:`SimulationCheckpoint.from_dict` *before* the
    state blob is base64-decoded or unpickled, so a truncated or
    bit-flipped checkpoint raises :class:`CheckpointError` instead of
    feeding garbage to pickle.  Schema-1 envelopes written before
    checksums existed simply lack the field and stay loadable.
    """
    if data.get("schema") == 1:
        skip, tail = ("checksum",), b""
    else:
        state = data.get("state")
        if not isinstance(state, str):
            raise TypeError(
                f"state is {type(state).__name__}, not base64 text"
            )
        skip, tail = ("checksum", "state"), state.encode("utf-8")
    body = {k: v for k, v in data.items() if k not in skip}
    digest = blake2b(
        storage.canonical_json(body).encode("utf-8"), digest_size=16
    )
    digest.update(tail)
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
    #: Engine that captured the checkpoint (informational — resume may
    #: use either engine; the state is vertex-keyed).
    engine: str
    #: :func:`graph_fingerprint` of the captured network.
    graph: str
    strict: bool
    capacity: int
    budget_n: int
    budget_words: int
    #: ``FaultPlan.to_dict()`` payload, or ``None`` for fault-free runs.
    fault_plan: Optional[Dict[str, Any]]
    #: ``CongestMetrics.to_dict(include_per_round=True)`` payload.
    metrics: Dict[str, Any]
    #: The pickled engine-neutral state blob (see the module doc).
    state: bytes
    #: Rounds recorded by the attached trace recorder up to capture, as
    #: ``RoundTrace.to_dict()`` payloads; ``None`` when untraced.
    trace_rounds: Optional[List[Dict[str, Any]]] = None
    schema: int = CHECKPOINT_SCHEMA_VERSION

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (the state blob is base64-encoded).

        The envelope carries a ``checksum`` (computed per
        :attr:`schema`; see :func:`_envelope_checksum`) so torn writes
        and bit-flips are caught at load time, never unpickled.
        """
        data = {
            "schema": self.schema,
            "round": self.round,
            "n": self.n,
            "engine": self.engine,
            "graph": self.graph,
            "strict": self.strict,
            "capacity": self.capacity,
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
        """Rebuild a checkpoint, tolerating *older* schemas forever.

        Unknown fields from future minor additions are ignored and
        absent optional fields default, which is the forward-compat
        contract the pinned v1 fixture test locks in.  A schema newer
        than this code understands is refused rather than misread.
        """
        if not isinstance(data, dict):
            raise CheckpointError(
                f"checkpoint payload is {type(data).__name__}, not an object"
            )
        # The schema picks the checksum rule, so it is read first; a
        # forged schema marker fails the checksum it selects.
        schema = data.get("schema")
        if not isinstance(schema, int) or schema < 1:
            raise CheckpointError(
                f"checkpoint carries invalid schema marker {schema!r}"
            )
        if schema > CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint schema {schema} is newer than the supported "
                f"version {CHECKPOINT_SCHEMA_VERSION}"
            )
        expected = data.get("checksum")
        if expected is None and schema >= 2:
            raise CheckpointError(
                f"checkpoint schema {schema} envelope carries no checksum; "
                "refusing to unpickle its state"
            )
        if expected is not None:
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
            budget = data.get("budget", {})
            return cls(
                schema=schema,
                round=int(data["round"]),
                n=int(data["n"]),
                engine=str(data.get("engine", "")),
                graph=str(data["graph"]),
                strict=bool(data.get("strict", False)),
                capacity=int(data.get("capacity", 1)),
                budget_n=int(budget["n"]),
                budget_words=int(budget["words"]),
                fault_plan=data.get("fault_plan"),
                metrics=dict(data["metrics"]),
                trace_rounds=data.get("trace_rounds"),
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
    resume guarantee only holds when the graph, the CONGEST
    configuration, and the fault plan all match the capturing run, so
    any mismatch raises :class:`~repro.errors.CheckpointError` instead
    of silently diverging.
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
        engine.strict != checkpoint.strict
        or engine.capacity != checkpoint.capacity
        or engine.budget.n != checkpoint.budget_n
        or engine.budget.words != checkpoint.budget_words
    ):
        raise CheckpointError(
            "checkpoint was captured under a different simulator "
            "configuration (strict/capacity/budget mismatch)"
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

    Shared by both engines.  The state blob is keyed by vertex (never
    by rank), normalized so it only holds logical state: inboxes,
    wakeups, and runnable flags of halted vertices are dead weight and
    are excluded.  In-flight traffic, withheld (delayed) payloads and
    buffered detail events are serialized, so a checkpoint taken with
    messages on the wire resumes bit-identically.
    """
    contexts = engine._contexts
    verts = engine._verts
    n = engine._n
    per_edge, messages, bits, bits_hist, fcounts = engine._inflight
    crash_rounds = engine._crash_rounds
    state = {
        "contexts": dict(zip(verts, contexts)),
        "algorithms": dict(zip(verts, engine._algorithms)),
        "pending": {
            verts[i]: box
            for i, box in enumerate(engine._pending)
            if box and not contexts[i]._halted
        },
        "runnable": {
            verts[i] for i in engine._runnable if not contexts[i]._halted
        },
        "wakeups": {
            verts[i]: w
            for i, w in enumerate(engine._wake_round)
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
        # Withheld payloads flattened in release order; detail-mode
        # entries carry a trailing sequence number.
        "delayed": [
            (release,) + tuple(entry)
            for release in sorted(engine._delay_queue)
            for entry in engine._delay_queue[release]
        ],
        # Detail events buffered for the next executed round (empty
        # unless the trace recorder asked for detail).
        "inflight_events": [dict(e) for e in engine._inflight_events],
        "crashed": {verts[i] for i in engine._crashed_ids},
        "crash_rounds": (
            None
            if crash_rounds is None
            else {
                verts[i]: cr
                for i, cr in enumerate(crash_rounds)
                if cr is not None
            }
        ),
        "rejoin_queue": [(r, verts[i]) for r, i in engine._rejoin_queue],
        "snapshots": {
            verts[i]: blob for i, blob in engine._snapshots.items()
        },
        "snapshot_rounds": {
            verts[i]: r for i, r in engine._snapshot_rounds.items()
        },
        "initialized": engine._initialized,
    }
    if engine._registry is not None:
        engine._registry.count("congest.checkpoints_captured")
    return SimulationCheckpoint(
        round=engine._round,
        n=n,
        engine=engine.name,
        graph=graph_fingerprint(engine.graph),
        strict=engine.strict,
        capacity=engine.capacity,
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
    The engine must have been constructed over the same graph and
    configuration the checkpoint came from (see
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
    index = engine._index
    verts = engine._verts
    try:
        contexts = state["contexts"]
        algorithms = state["algorithms"]
        # The engine was built through the caller's factory; resuming
        # another protocol's objects would run them to this one's round
        # bound and grade foreign state.
        for v, built in zip(verts, engine._algorithms):
            restored = algorithms[v]
            if type(restored) is not type(built):
                raise CheckpointError(
                    f"checkpoint holds a {type(restored).__qualname__} at "
                    f"vertex {v!r}, but this simulation's factory builds "
                    f"{type(built).__qualname__}"
                )
        engine._contexts = [contexts[v] for v in verts]
        engine._algorithms = [algorithms[v] for v in verts]
        engine._pending = [None] * n
        engine._pending_ids = set()
        for v, box in state["pending"].items():
            engine._pending[index[v]] = box
            engine._pending_ids.add(index[v])
        engine._runnable = {index[v] for v in state["runnable"]}
        engine._wake_round = [None] * n
        for v, w in state["wakeups"].items():
            engine._wake_round[index[v]] = w
        inflight = state["inflight"]
        engine._inflight = (
            {
                index[u] * n + index[w]: count
                for u, w, count in inflight["per_edge"]
            },
            inflight["messages"],
            inflight["bits"],
            dict(inflight["bits_hist"]),
            pad_fault_counts(inflight["fcounts"]),
        )
        engine._delay_queue = {}
        for entry in state.get("delayed", ()):
            # entry = (release, send_round, sender, receiver,
            # payload[, seq]); older checkpoints lack the trailing
            # detail-mode sequence number.
            engine._delay_queue.setdefault(entry[0], []).append(
                tuple(entry[1:])
            )
        engine._inflight_events = [
            dict(e) for e in state.get("inflight_events", ())
        ]
        engine._crashed_ids = {index[v] for v in state["crashed"]}
        crash_rounds = state["crash_rounds"]
        if crash_rounds is None:
            engine._crash_rounds = None
        else:
            engine._crash_rounds = [None] * n
            for v, cr in crash_rounds.items():
                engine._crash_rounds[index[v]] = cr
        engine._rejoin_queue = [
            (r, index[v]) for r, v in state["rejoin_queue"]
        ]
        engine._snapshot_targets = {i for _, i in engine._rejoin_queue}
        engine._snapshots = {
            index[v]: blob for v, blob in state["snapshots"].items()
        }
        engine._snapshot_rounds = {
            index[v]: r for v, r in state["snapshot_rounds"].items()
        }
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
    # A pre-initialization checkpoint (captured before run()) leaves
    # this False, so the resumed run still initializes normally.
    engine._initialized = bool(state.get("initialized", True))
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
    engine-neutral.  The strict/capacity/budget configuration and the
    fault plan are restored from the checkpoint itself, so the resumed
    run is bit-identical to the uninterrupted one by construction.

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
        strict=checkpoint.strict,
        capacity=checkpoint.capacity,
        seed=0,  # construction-time streams are discarded by the restore
        engine=engine,
        trace=trace,
        faults=plan,
    )
    sim._engine.restore_checkpoint(checkpoint)
    return sim
