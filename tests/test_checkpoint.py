"""Checkpoint/restore: the bit-identical-resume invariant.

The core claim (see :mod:`repro.congest.checkpoint`): stopping a
simulation at any round boundary, serializing the checkpoint through
its wire format, and resuming — on either engine — produces outputs,
metrics, traces, and crash sets identical to the run that never
stopped.  The differential grid below pins that for every fault class
(fault-free, drop, duplicate, corrupt, crash, crash + rejoin) crossed
with every capture-engine/resume-engine pair, including cross-engine.
The churn rows also run the crash-recovery snapshots, which go through
the same serializer as capture (:func:`dump_state`).
"""

import dataclasses
import io
import json
import os
import pickle
import random
from hashlib import blake2b

import pytest

from repro.congest import (
    CHECKPOINT_SCHEMA_VERSION,
    CongestSimulator,
    FaultPlan,
    MessageBudget,
    SimulationCheckpoint,
    TraceRecorder,
    graph_fingerprint,
    resume_simulation,
)
from repro.congest import channel
from repro.congest import checkpoint as checkpoint_module
from repro.congest.algorithm import VertexAlgorithm, VertexContext
from repro.congest.checkpoint import dump_state
from repro import graph as graph_module
from repro import storage
from repro.errors import CheckpointError
from repro.generators import gnp_random_graph
from repro.graph import Graph
from repro.independent_set.greedy import LubyMIS
from repro.rng import rebuild_seeded_random
from repro.routing.walk_exchange import WalkExchange
from repro.storage import canonical_json

from tests import _checkpoint_fixture as checkpoint_fixture
from tests._checkpoint_fixture import FixtureFlood, FixtureWalker
from tests.test_adversity import _rng_states

PLANS = {
    "none": FaultPlan(),
    "drop": FaultPlan(seed=11, drop=0.15),
    "duplicate": FaultPlan(seed=12, duplicate=0.2),
    "corrupt": FaultPlan(seed=13, corrupt=0.1),
    "crash": FaultPlan(seed=14, crashes=((2, 2), (7, 3))),
    "churn": FaultPlan(
        seed=15,
        crashes=((2, 2), (7, 2)),
        rejoins=((2, 5), (7, 6)),
        checkpoint_interval=2,
    ),
}

ENGINE_PAIRS = [
    ("fast", "fast"),
    ("reference", "reference"),
    ("fast", "reference"),
    ("reference", "fast"),
]


def _graph(n=20, extra=14, seed=5):
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(extra):
        u, w = rng.randrange(n), rng.randrange(n)
        if u != w:
            edges.append((u, w))
    return Graph.from_edges(edges)


def _fingerprint(result, recorder):
    return (
        result.outputs,
        result.metrics.to_dict(include_per_round=True),
        result.halted,
        set(result.crashed),
        [r.to_dict() for r in recorder.rounds],
    )


def _run_uninterrupted(graph, factory, plan, engine, max_rounds=300):
    recorder = TraceRecorder("baseline")
    sim = CongestSimulator(
        graph, factory, seed=3, faults=plan, trace=recorder, engine=engine
    )
    return _fingerprint(sim.run(max_rounds), recorder)


def _capture_first(graph, factory, plan, engine, every=4, max_rounds=300):
    captured = []
    sim = CongestSimulator(
        graph, factory, seed=3, faults=plan,
        trace=TraceRecorder("capture"), engine=engine,
    )
    sim.run(
        max_rounds,
        checkpoint_every=every,
        on_checkpoint=lambda cp: captured.append(cp),
    )
    assert captured, "simulation ended before the first checkpoint fired"
    return captured[0]


# ----------------------------------------------------------------------
# The differential grid
# ----------------------------------------------------------------------


@pytest.mark.parametrize("capture_engine,resume_engine", ENGINE_PAIRS)
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_resume_is_bit_identical(plan_name, capture_engine, resume_engine):
    graph = _graph()
    plan = PLANS[plan_name]
    baseline = _run_uninterrupted(graph, FixtureFlood, plan, resume_engine)

    checkpoint = _capture_first(graph, FixtureFlood, plan, capture_engine)
    # Round-trip through the wire format: resuming a deserialized
    # checkpoint must be as good as resuming the live object.
    checkpoint = SimulationCheckpoint.from_dict(
        json.loads(json.dumps(checkpoint.to_dict()))
    )

    recorder = TraceRecorder("resumed")
    sim = resume_simulation(
        graph, FixtureFlood, checkpoint,
        engine=resume_engine, trace=recorder,
    )
    assert _fingerprint(sim.run(300), recorder) == baseline


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_resume_preserves_rng_streams(engine):
    """A checkpointed random walk continues on the exact same path."""
    graph = _graph()
    baseline = _run_uninterrupted(
        graph, FixtureWalker, FaultPlan(), engine, max_rounds=60
    )
    checkpoint = _capture_first(
        graph, FixtureWalker, FaultPlan(), engine, every=7, max_rounds=60
    )
    recorder = TraceRecorder("resumed")
    sim = resume_simulation(
        graph, FixtureWalker, checkpoint, engine=engine, trace=recorder
    )
    assert _fingerprint(sim.run(60), recorder) == baseline


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_checkpoint_before_run_resumes_from_round_zero(engine):
    graph = _graph()
    baseline = _run_uninterrupted(graph, FixtureFlood, FaultPlan(), engine)

    sim = CongestSimulator(
        graph, FixtureFlood, seed=3,
        trace=TraceRecorder("pre"), engine=engine,
    )
    checkpoint = sim.checkpoint()  # before run(): round 0, uninitialized
    assert checkpoint.round == 0

    recorder = TraceRecorder("resumed")
    resumed = resume_simulation(
        graph, FixtureFlood, checkpoint, engine=engine, trace=recorder
    )
    assert _fingerprint(resumed.run(300), recorder) == baseline


def test_every_checkpoint_boundary_resumes_identically():
    """Not just the first boundary: every captured round is resumable."""
    graph = _graph()
    plan = PLANS["drop"]
    baseline = _run_uninterrupted(graph, FixtureFlood, plan, "fast")

    captured = []
    sim = CongestSimulator(
        graph, FixtureFlood, seed=3, faults=plan,
        trace=TraceRecorder("capture"), engine="fast",
    )
    sim.run(300, checkpoint_every=2, on_checkpoint=captured.append)
    assert len(captured) >= 2
    for checkpoint in captured:
        recorder = TraceRecorder("resumed")
        resumed = resume_simulation(
            graph, FixtureFlood, checkpoint, trace=recorder
        )
        assert _fingerprint(resumed.run(300), recorder) == baseline


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("every", [0, -1])
def test_checkpoint_every_below_one_is_refused(engine, every):
    """An interval below 1 names no sensible capture round: refused
    before round 1, on either engine."""
    captured = []
    sim = CongestSimulator(_graph(), FixtureFlood, seed=3, engine=engine)
    with pytest.raises(ValueError, match="must be at least 1"):
        sim.run(300, checkpoint_every=every, on_checkpoint=captured.append)
    assert captured == []
    assert sim.rounds_executed == 0


# ----------------------------------------------------------------------
# Crash-recovery semantics
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_rejoined_vertices_count_and_answer(engine):
    graph = _graph()
    plan = PLANS["churn"]
    recorder = TraceRecorder("churn")
    sim = CongestSimulator(
        graph, FixtureFlood, seed=3, faults=plan,
        trace=recorder, engine=engine,
    )
    result = sim.run(300)
    summary = result.metrics.fault_summary()
    assert summary["vertices_crashed"] == 2
    assert summary["vertices_rejoined"] == 2
    assert recorder.total_faults()["rejoined"] == 2
    # Rejoined vertices are live again: not crashed, real outputs.
    assert not result.crashed
    assert result.outputs[2] is not None
    assert result.outputs[7] is not None


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_rejoin_beyond_horizon_stays_crashed(engine):
    graph = _graph()
    plan = FaultPlan(seed=14, crashes=((2, 2),), rejoins=((2, 500),))
    sim = CongestSimulator(graph, FixtureFlood, seed=3, faults=plan,
                           engine=engine)
    result = sim.run(50)
    assert result.crashed == frozenset({2})
    assert result.outputs[2] is None
    assert result.metrics.fault_summary()["vertices_rejoined"] == 0


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_snapshot_restore_keeps_learned_state(engine):
    """With an interval, a rejoined vertex resumes from its snapshot
    (pre-crash knowledge kept); without one it re-initializes fresh."""
    graph = _graph()

    def run(interval):
        plan = FaultPlan(
            seed=16, crashes=((7, 3),), rejoins=((7, 6),),
            checkpoint_interval=interval,
        )
        sim = CongestSimulator(graph, FixtureFlood, seed=3, faults=plan,
                               engine=engine)
        return sim.run(300)

    snap = run(1)
    fresh = run(None)
    assert snap.metrics.fault_summary()["vertices_rejoined"] == 1
    assert fresh.metrics.fault_summary()["vertices_rejoined"] == 1
    # The snapshot restore must preserve the minimum the vertex had
    # already learned before crashing; the global minimum 0 floods to
    # it within two rounds, so its answer survives the churn.
    assert snap.outputs[7] == 0


# ----------------------------------------------------------------------
# Wire format and validation
# ----------------------------------------------------------------------


def test_checkpoint_serialization_round_trips():
    graph = _graph()
    checkpoint = _capture_first(graph, FixtureFlood, PLANS["churn"], "fast")
    data = json.loads(json.dumps(checkpoint.to_dict(), sort_keys=True))
    assert data["schema"] == CHECKPOINT_SCHEMA_VERSION == 4
    assert SimulationCheckpoint.from_dict(data) == checkpoint


def test_checkpoint_save_and_load(tmp_path):
    graph = _graph()
    checkpoint = _capture_first(graph, FixtureFlood, FaultPlan(), "fast")
    path = str(tmp_path / "sub" / "cp.json")
    checkpoint.save(path)
    assert SimulationCheckpoint.load(path) == checkpoint
    # Saving is atomic: no temporary droppings next to the file.
    assert os.listdir(tmp_path / "sub") == ["cp.json"]


def test_load_failures_raise_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError):
        SimulationCheckpoint.load(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(CheckpointError):
        SimulationCheckpoint.load(str(bad))


def _state_text_checksum(data):
    """The one checksum rule: the canonical JSON of every field but
    ``checksum`` and ``state``, then the base64 ``state`` text."""
    meta = {k: v for k, v in data.items() if k not in ("checksum", "state")}
    digest = blake2b(canonical_json(meta).encode("utf-8"), digest_size=16)
    digest.update(data["state"].encode("ascii"))
    return digest.hexdigest()


def _relabeled(schema, checksum):
    """An envelope stamped ``schema`` whose checksum is removed, kept
    stale, or recomputed over the relabeled metadata."""

    def mangle(data):
        data = {**data, "schema": schema}
        if checksum == "removed":
            del data["checksum"]
        elif checksum == "recomputed":
            data["checksum"] = _state_text_checksum(data)
        return data

    return pytest.param(mangle, id=f"schema-{schema!r}-checksum-{checksum}")


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: "not a dict",
        lambda d: {**d, "schema": None},
        lambda d: {**d, "schema": 0},
        lambda d: {**d, "schema": CHECKPOINT_SCHEMA_VERSION + 1},
        lambda d: {k: v for k, v in d.items() if k != "state"},
        lambda d: {k: v for k, v in d.items() if k != "round"},
        lambda d: {**d, "budget": {}},
    ] + [
        _relabeled(schema, checksum)
        for schema in (1, True, 2, 3, 5, "4", 4.0)
        for checksum in ("removed", "stale", "recomputed")
    ],
)
def test_malformed_payloads_rejected(monkeypatch, mangle):
    """Refused before anything is unpickled: schema 4 is the one schema
    read, and only once its checksum matches."""
    graph = _graph()
    data = mangle(
        _capture_first(graph, FixtureFlood, FaultPlan(), "fast").to_dict()
    )
    unpickled = []
    monkeypatch.setattr(pickle, "loads", lambda *args: unpickled.append(1))
    with pytest.raises(CheckpointError):
        resume_simulation(
            graph, FixtureFlood, SimulationCheckpoint.from_dict(data)
        )
    assert not unpickled


def test_captures_and_resume_hash_the_graph_once(monkeypatch):
    """The fingerprint is cached on the graph's simulation layout."""
    hashed = []
    real_blake2b = graph_module.blake2b

    def counting_blake2b(*args, **kwargs):
        hashed.append(1)
        return real_blake2b(*args, **kwargs)

    monkeypatch.setattr(graph_module, "blake2b", counting_blake2b)
    graph = _graph()
    captured = []
    CongestSimulator(graph, FixtureFlood, seed=3).run(
        300, checkpoint_every=2, on_checkpoint=captured.append
    )
    assert len(captured) >= 2
    resume_simulation(graph, FixtureFlood, captured[0]).run(300)
    assert len(hashed) == 1


def test_restore_refuses_mismatched_target():
    graph = _graph()
    other = _graph(seed=6)  # same n, different edges
    checkpoint = _capture_first(graph, FixtureFlood, FaultPlan(), "fast")
    assert graph_fingerprint(graph) != graph_fingerprint(other)

    # The graph is the caller's responsibility, so resume_simulation()
    # itself can catch a wrong one via the fingerprint.
    with pytest.raises(CheckpointError):
        resume_simulation(other, FixtureFlood, checkpoint)
    # resume_simulation() rebuilds the simulator from the checkpoint's
    # own budget and fault plan, so mismatches of those can only arise
    # on a direct engine restore — the guard refuses them there.
    for kwargs in (
        {"budget": MessageBudget(checkpoint.budget_n, 99)},
        {"faults": FaultPlan(seed=1, drop=0.5)},
    ):
        mismatched = CongestSimulator(graph, FixtureFlood, seed=3, **kwargs)
        with pytest.raises(CheckpointError):
            mismatched._engine.restore_checkpoint(checkpoint)
    # A doctored checkpoint field trips the same guard from the facade.
    with pytest.raises(CheckpointError):
        resume_simulation(
            graph, FixtureFlood,
            dataclasses.replace(checkpoint, n=checkpoint.n + 1),
        )


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_restore_refuses_another_algorithm(engine):
    """Resuming under the wrong factory must not run and grade the
    checkpoint's foreign vertex objects as if they were its own."""
    graph = _graph()
    checkpoint = _capture_first(graph, FixtureFlood, FaultPlan(), engine)
    with pytest.raises(CheckpointError, match="FixtureFlood"):
        resume_simulation(graph, FixtureWalker, checkpoint, engine=engine)


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_restore_refuses_state_naming_a_deleted_class(monkeypatch, engine):
    """A saved blob whose state names a class the code no longer has
    fails as a checkpoint error, not as a raw unpickling exception."""
    graph = _graph()
    checkpoint = _capture_first(graph, FixtureFlood, FaultPlan(), engine)
    checkpoint = SimulationCheckpoint.from_dict(
        json.loads(json.dumps(checkpoint.to_dict()))
    )
    monkeypatch.delattr(checkpoint_fixture, "FixtureFlood")
    with pytest.raises(
        CheckpointError, match="cannot unpickle checkpoint state"
    ):
        resume_simulation(graph, FixtureWalker, checkpoint, engine=engine)


def test_resume_ignores_ambient_fault_plan():
    """The checkpoint's plan is authoritative; an ambient use_faults()
    region around the resume must not leak into the resumed run."""
    from repro.congest import use_faults

    graph = _graph()
    baseline = _run_uninterrupted(graph, FixtureFlood, FaultPlan(), "fast")
    checkpoint = _capture_first(graph, FixtureFlood, FaultPlan(), "fast")
    recorder = TraceRecorder("resumed")
    with use_faults(FaultPlan(seed=9, drop=0.9)):
        sim = resume_simulation(
            graph, FixtureFlood, checkpoint, trace=recorder
        )
        result = sim.run(300)
    assert _fingerprint(result, recorder) == baseline


# ----------------------------------------------------------------------
# Corrupted envelopes refuse loudly (never unpickle garbage)
# ----------------------------------------------------------------------


def _saved_checkpoint(tmp_path):
    graph = _graph()
    checkpoint = _capture_first(graph, FixtureFlood, FaultPlan(), "fast")
    path = str(tmp_path / "ck.json")
    checkpoint.save(path)
    return path


def test_truncated_checkpoint_refuses_loudly(tmp_path):
    path = _saved_checkpoint(tmp_path)
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])
    with pytest.raises(CheckpointError, match="not valid JSON"):
        SimulationCheckpoint.load(path)


def test_bit_flipped_state_blob_refuses_before_unpickling(tmp_path):
    """A single corrupted character inside the base64 state blob fails
    the envelope checksum — caught *before* base64 decode or pickle
    ever see the blob, which is the whole point of the checksum."""
    path = _saved_checkpoint(tmp_path)
    with open(path) as handle:
        data = json.loads(handle.read())
    state = data["state"]
    pos = len(state) // 2
    data["state"] = (
        state[:pos] + ("A" if state[pos] != "A" else "B") + state[pos + 1:]
    )
    with open(path, "w") as handle:
        handle.write(json.dumps(data, sort_keys=True))
    with pytest.raises(CheckpointError, match="refusing to unpickle"):
        SimulationCheckpoint.load(path)


def test_checksum_covers_metadata_then_state_text():
    """The checksum is the metadata's canonical JSON followed by the
    base64 state text as it stands, and an envelope without one is
    refused before anything is decoded."""
    checkpoint = _capture_first(_graph(), FixtureFlood, FaultPlan(), "fast")
    data = checkpoint.to_dict()
    assert data["checksum"] == _state_text_checksum(data)
    del data["checksum"]
    with pytest.raises(CheckpointError, match="carries no checksum"):
        SimulationCheckpoint.from_dict(data)


def test_envelope_without_capacity_fields_reads_older_files():
    """The envelope carries no ``strict`` or ``capacity`` field.  An
    envelope that still does, under a checksum covering them (as older
    code wrote it), loads as the same checkpoint."""
    checkpoint = _capture_first(_graph(), FixtureFlood, FaultPlan(), "fast")
    data = checkpoint.to_dict()
    assert "strict" not in data and "capacity" not in data
    older = {**data, "strict": False, "capacity": 1}
    older["checksum"] = _state_text_checksum(older)
    loaded = SimulationCheckpoint.from_dict(json.loads(json.dumps(older)))
    assert loaded == checkpoint


def test_tampered_metadata_refuses_loudly(tmp_path):
    path = _saved_checkpoint(tmp_path)
    with open(path) as handle:
        data = json.loads(handle.read())
    data["round"] += 1  # checksum now stale
    with open(path, "w") as handle:
        handle.write(json.dumps(data, sort_keys=True))
    with pytest.raises(CheckpointError, match="checksum"):
        SimulationCheckpoint.load(path)


def test_torn_checkpoint_save_is_caught_at_load(tmp_path, monkeypatch):
    """End to end through the storage layer: a save whose write tears
    mid-file leaves a checkpoint that refuses to load — never one that
    silently resumes from half a state blob."""
    graph = _graph()
    checkpoint = _capture_first(graph, FixtureFlood, FaultPlan(), "fast")
    path = str(tmp_path / "ck.json")
    real_replace = os.replace

    def tearing_replace(src, dst):
        size = os.path.getsize(src)
        with open(src, "r+b") as handle:
            handle.truncate(size // 2)
        real_replace(src, dst)

    monkeypatch.setattr(storage.os, "replace", tearing_replace)
    checkpoint.save(path)
    monkeypatch.undo()
    with pytest.raises(CheckpointError):
        SimulationCheckpoint.load(path)


# ----------------------------------------------------------------------
# The state serializer
# ----------------------------------------------------------------------


def _globals(blob):
    """``(module, name)`` of every global the pickle ``blob`` names."""
    named = set()

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            named.add((module, name))
            return super().find_class(module, name)

    Recorder(io.BytesIO(blob)).load()
    return named


#: What a generator pickled as seed and count, and one pickled the
#: default way, name.
SEEDED = ("repro.rng", "rebuild_seeded_random")
DEFAULT = ("random", "Random")


class _SubRandom(random.Random):
    """A ``random.Random`` subclass: must keep default pickling."""


def test_dumped_random_keeps_state_and_identity():
    rng = random.Random(7)
    rng.gauss(0.0, 1.0)  # leaves a cached gauss_next behind
    rng.random()
    back = pickle.loads(dump_state([rng, rng, rng.random, rng._randbelow]))
    assert back[0] is back[1]
    assert back[2].__self__ is back[0] and back[3].__self__ is back[0]
    assert back[0].getstate() == rng.getstate()
    assert [back[0].random() for _ in range(700)] == [
        rng.random() for _ in range(700)
    ]


def test_random_subclasses_keep_default_pickling():
    """A subclass may hold more than its MT19937 state, so even as a
    context's freshly seeded generator it pickles the default way."""
    ctx = VertexContext(0, (1,), {1: 1.0}, 2, _SubRandom(SEED), SEED)
    blob = dump_state(ctx, [ctx])
    assert SEEDED not in _globals(blob)
    back = pickle.loads(blob)._rng
    assert type(back) is _SubRandom and back.getstate() == ctx.rng.getstate()


SEED = 0x5EED_CAFE_F00D


def _seeded_context(drawn):
    """A context whose generator drew ``drawn`` words since seeding."""
    ctx = VertexContext(0, (1,), {1: 1.0}, 2, rng_seed=SEED)
    ctx.rng.getrandbits(32 * drawn)  # 0 bits draws nothing
    return ctx


def _assert_same_generator(back, rng):
    assert back.getstate() == rng.getstate()
    assert [back.random() for _ in range(700)] == [
        rng.random() for _ in range(700)
    ]


@pytest.mark.parametrize(
    "drawn,seeded",
    [(0, True), (1, True), (624, True), (625, False), (1300, False)],
)
def test_context_generators_pickle_as_seed_and_count(drawn, seeded):
    """Within its first 624 words a context's generator pickles as its
    seed and count; from the 625th word on its key has twisted again,
    so it pickles the default way.  Either way the state round-trips."""
    ctx = _seeded_context(drawn)
    blob = dump_state(ctx, [ctx])
    assert (SEEDED in _globals(blob)) is seeded
    assert (DEFAULT in _globals(blob)) is not seeded
    _assert_same_generator(pickle.loads(blob)._rng, ctx._rng)


def test_twisted_key_at_position_zero_keeps_default_pickling():
    """The seed's twisted key at position 0 draws the same words as the
    fresh seed, yet no draw count reproduces that state."""
    ctx = _seeded_context(1)
    version, internal, gauss = ctx.rng.getstate()
    ctx.rng.setstate((version, internal[:-1] + (0,), gauss))
    blob = dump_state(ctx, [ctx])
    assert SEEDED not in _globals(blob) and DEFAULT in _globals(blob)
    _assert_same_generator(pickle.loads(blob)._rng, ctx._rng)


def test_cached_gauss_falls_back_to_default_pickling():
    ctx = _seeded_context(0)
    ctx.rng.gauss(0.0, 1.0)  # four words drawn, gauss_next cached
    blob = dump_state(ctx, [ctx])
    assert SEEDED not in _globals(blob) and DEFAULT in _globals(blob)
    back = pickle.loads(blob)._rng
    assert back.getstate()[2] is not None
    _assert_same_generator(back, ctx._rng)


def test_generators_no_context_owns_keep_default_pickling():
    """The seed comes from the context holding the generator: a twin in
    the very same state that no given context holds, a generator whose
    context is not given, and a context without a seed all pickle the
    default way."""
    ctx = _seeded_context(5)
    twin = random.Random(SEED)
    twin.getrandbits(32 * 5)
    assert twin.getstate() == ctx.rng.getstate()
    unseeded = VertexContext(0, (1,), {1: 1.0}, 2, rng=random.Random(9))
    unseeded.rng.random()
    for obj, contexts, rng in (
        (twin, [ctx], twin),
        (ctx, [], ctx.rng),
        (unseeded, [unseeded], unseeded.rng),
    ):
        blob = dump_state(obj, contexts)
        assert SEEDED not in _globals(blob) and DEFAULT in _globals(blob)
        back = pickle.loads(blob)
        _assert_same_generator(getattr(back, "_rng", back), rng)


def test_rebuild_seeded_random_refuses_counts_past_one_key():
    for drawn in (-1, 625):
        with pytest.raises(ValueError):
            rebuild_seeded_random(SEED, drawn)


def test_faulted_luby_checkpoint_stores_seeds_and_counts():
    """Non-vacuity: every Luby vertex draws from its generator, and a
    faulted run's checkpoint writes each one as seed and count."""
    graph = gnp_random_graph(40, 0.12, seed=5)
    checkpoint = _capture_first(
        graph, lambda v: LubyMIS(20), FaultPlan(seed=17, drop=0.05),
        "fast", every=3,
    )
    state = pickle.loads(checkpoint.state)
    assert all(ctx._rng is not None for ctx in state["contexts"])
    assert SEEDED in _globals(checkpoint.state)
    assert DEFAULT not in _globals(checkpoint.state)


class _Drawer(VertexAlgorithm):
    """Draws 150 words a round and halts after 12 rounds with what it
    drew: a revived vertex answers right only if its snapshot kept its
    generator exactly."""

    def __init__(self, vertex):
        self.drawn = 0

    def step(self, ctx, inbox):
        self.drawn ^= ctx.rng.getrandbits(32 * 150)
        if ctx.round_number >= 12:
            ctx.halt(self.drawn)


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_snapshot_revival_restores_seeded_generators(engine, monkeypatch):
    """Vertex 2's last snapshot before its crash holds 450 drawn words
    (seed and count), vertex 7's 750 (default pickling).  Revived, both
    end exactly as when every snapshot pickles its generator the default
    way."""
    graph = _graph()
    plan = FaultPlan(
        seed=16,
        crashes=((2, 4), (7, 7)),
        rejoins=((2, 6), (7, 9)),
        checkpoint_interval=2,
    )
    real_dump = channel.dump_state

    def run():
        blobs = []

        def spy(*args):
            blobs.append(real_dump(*args))
            return blobs[-1]

        monkeypatch.setattr(channel, "dump_state", spy)
        sim = CongestSimulator(graph, _Drawer, seed=3, faults=plan,
                               engine=engine)
        result = sim.run(40)
        assert result.metrics.vertices_rejoined == 2
        return (
            result.outputs,
            result.metrics.to_dict(include_per_round=True),
            _rng_states(sim),
        ), blobs

    seeded, blobs = run()
    assert any(SEEDED in _globals(blob) for blob in blobs)
    assert any(DEFAULT in _globals(blob) for blob in blobs)
    monkeypatch.setattr(
        checkpoint_module, "reduce_seeded_random",
        lambda rng, seed, keys: None,
    )
    default, blobs = run()
    assert not any(SEEDED in _globals(blob) for blob in blobs)
    assert seeded == default


def test_capture_packs_materialized_vertex_rngs():
    checkpoint = _capture_first(
        _graph(), FixtureWalker, FaultPlan(), "fast", every=7, max_rounds=60
    )
    state = pickle.loads(checkpoint.state)
    assert any(ctx._rng is not None for ctx in state["contexts"])
    assert len(checkpoint.state) < len(pickle.dumps(state, protocol=4))


WALK_STEPS = 12


class _PrimedWalk(WalkExchange):
    """Odd vertices draw 700 words first, so a checkpoint holds walker
    generators in both pickled forms."""

    def initialize(self, ctx):
        if ctx.vertex % 2:
            ctx.rng.getrandbits(32 * 700)
        super().initialize(ctx)


def _walk_factory(v):
    return _PrimedWalk(0, WALK_STEPS, [((v, i), i) for i in range(2)], None)


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_walkers_resume_bound_to_their_generators(engine):
    """A walk exchange checkpointed mid-forward-phase resumes exactly,
    and its cached RNG methods point at the restored context's own
    generator, whether that was pickled as seed and count or the
    default way."""
    graph = _graph()
    max_rounds = 2 * WALK_STEPS + 4
    baseline = _run_uninterrupted(
        graph, _walk_factory, FaultPlan(), engine, max_rounds=max_rounds
    )
    checkpoint = _capture_first(
        graph, _walk_factory, FaultPlan(), engine, every=5,
        max_rounds=max_rounds,
    )
    assert checkpoint.round < WALK_STEPS
    assert {SEEDED, DEFAULT} <= _globals(checkpoint.state)
    checkpoint = SimulationCheckpoint.from_dict(
        json.loads(json.dumps(checkpoint.to_dict()))
    )
    recorder = TraceRecorder("resumed")
    sim = resume_simulation(
        graph, _walk_factory, checkpoint, engine=engine, trace=recorder
    )
    pairs = list(zip(sim._engine._algorithms, sim._engine._contexts))
    bound = [(w, ctx) for w, ctx in pairs if w._random is not None]
    assert bound
    assert {ctx.vertex % 2 for _, ctx in bound} == {0, 1}
    for walker, ctx in bound:
        assert walker._random.__self__ is ctx._rng
        assert walker._randbelow.__self__ is ctx._rng
    assert _fingerprint(sim.run(max_rounds), recorder) == baseline
