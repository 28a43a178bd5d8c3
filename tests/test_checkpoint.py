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
from repro.congest.checkpoint import dump_state
from repro.errors import CheckpointError
from repro.graph import Graph
from repro.routing.walk_exchange import WalkExchange
from repro.storage import DiskFaultPlan, canonical_json, use_disk_faults

from tests import _checkpoint_fixture as checkpoint_fixture
from tests._checkpoint_fixture import FixtureFlood, FixtureWalker

FIXTURES = os.path.join(os.path.dirname(__file__), "data")

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
    back = SimulationCheckpoint.from_dict(data)
    assert back == checkpoint
    assert back.schema == CHECKPOINT_SCHEMA_VERSION


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
    ],
)
def test_malformed_payloads_rejected(mangle):
    graph = _graph()
    checkpoint = _capture_first(graph, FixtureFlood, FaultPlan(), "fast")
    with pytest.raises(CheckpointError):
        SimulationCheckpoint.from_dict(mangle(checkpoint.to_dict()))


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
    # own configuration, so strict/budget/fault-plan mismatches can
    # only arise on a direct engine restore — the guard refuses them
    # there.
    for kwargs in (
        {"strict": True},
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


def test_schema2_checksum_covers_metadata_then_state_text():
    """Schema 2 hashes the metadata's canonical JSON followed by the
    base64 state text as it stands, and refuses an envelope without a
    checksum before decoding anything."""
    checkpoint = _capture_first(_graph(), FixtureFlood, FaultPlan(), "fast")
    data = checkpoint.to_dict()
    assert data["schema"] == 2
    meta = {k: v for k, v in data.items() if k not in ("checksum", "state")}
    digest = blake2b(canonical_json(meta).encode("utf-8"), digest_size=16)
    digest.update(data["state"].encode("ascii"))
    assert data["checksum"] == digest.hexdigest()

    del data["checksum"]
    with pytest.raises(CheckpointError, match="carries no checksum"):
        SimulationCheckpoint.from_dict(data)


def test_tampered_metadata_refuses_loudly(tmp_path):
    path = _saved_checkpoint(tmp_path)
    with open(path) as handle:
        data = json.loads(handle.read())
    data["round"] += 1  # checksum now stale
    with open(path, "w") as handle:
        handle.write(json.dumps(data, sort_keys=True))
    with pytest.raises(CheckpointError, match="checksum"):
        SimulationCheckpoint.load(path)


def test_torn_checkpoint_save_is_caught_at_load(tmp_path):
    """End to end through the storage layer: a save whose write tears
    mid-file leaves a checkpoint that refuses to load — never one that
    silently resumes from half a state blob."""
    graph = _graph()
    checkpoint = _capture_first(graph, FixtureFlood, FaultPlan(), "fast")
    path = str(tmp_path / "ck.json")
    with use_disk_faults(DiskFaultPlan(seed=0, torn_write=1.0)):
        checkpoint.save(path)
    with pytest.raises(CheckpointError):
        SimulationCheckpoint.load(path)


# ----------------------------------------------------------------------
# The pinned v1 fixture (forward compatibility)
# ----------------------------------------------------------------------


def test_v1_fixture_loads_and_resumes():
    """A checkpoint file produced at schema 1 must keep loading (and
    finishing) on every future version of this code."""
    path = os.path.join(FIXTURES, "checkpoint_v1.json")
    checkpoint = SimulationCheckpoint.load(path)
    assert checkpoint.schema == 1
    graph = _graph()  # the fixture was captured over this exact graph
    assert checkpoint.graph == graph_fingerprint(graph)

    baseline = _run_uninterrupted(graph, FixtureFlood, FaultPlan(), "fast")
    recorder = TraceRecorder("resumed")
    sim = resume_simulation(graph, FixtureFlood, checkpoint, trace=recorder)
    assert _fingerprint(sim.run(300), recorder) == baseline


def test_v1_checksummed_fixture_loads_and_resumes():
    """A checksummed schema-1 checkpoint whose vertex RNGs are pickled
    the default way (625 ints each) passes its whole-envelope checksum
    and resumes bit-identically to the uninterrupted run."""
    path = os.path.join(FIXTURES, "checkpoint_v1_checksummed.json")
    with open(path) as handle:
        data = json.load(handle)
    checkpoint = SimulationCheckpoint.load(path)
    assert checkpoint.schema == 1
    # Re-serializing keeps the schema-1 checksum rule.
    assert checkpoint.to_dict()["checksum"] == data["checksum"]
    state = pickle.loads(checkpoint.state)
    assert any(ctx._rng is not None for ctx in state["contexts"].values())
    assert b"rebuild_random" not in checkpoint.state
    graph = _graph()  # the fixture was captured over this exact graph
    assert checkpoint.graph == graph_fingerprint(graph)

    baseline = _run_uninterrupted(
        graph, FixtureWalker, FaultPlan(), "fast", max_rounds=60
    )
    recorder = TraceRecorder("resumed")
    sim = resume_simulation(graph, FixtureWalker, checkpoint, trace=recorder)
    assert _fingerprint(sim.run(60), recorder) == baseline


def test_v1_checksummed_fixture_refuses_an_edited_state():
    path = os.path.join(FIXTURES, "checkpoint_v1_checksummed.json")
    with open(path) as handle:
        data = json.load(handle)
    state = data["state"]
    pos = len(state) // 2
    data["state"] = (
        state[:pos] + ("A" if state[pos] != "A" else "B") + state[pos + 1:]
    )
    with pytest.raises(CheckpointError, match="refusing to unpickle"):
        SimulationCheckpoint.from_dict(data)


# ----------------------------------------------------------------------
# The packed state serializer
# ----------------------------------------------------------------------


class _SubRandom(random.Random):
    """A ``random.Random`` subclass: must keep default pickling."""


def test_packed_random_keeps_state_and_identity():
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
    rng = _SubRandom(5)
    blob = dump_state(rng)
    assert b"rebuild_random" not in blob
    back = pickle.loads(blob)
    assert type(back) is _SubRandom and back.getstate() == rng.getstate()


def test_capture_packs_materialized_vertex_rngs():
    checkpoint = _capture_first(
        _graph(), FixtureWalker, FaultPlan(), "fast", every=7, max_rounds=60
    )
    state = pickle.loads(checkpoint.state)
    assert any(ctx._rng is not None for ctx in state["contexts"].values())
    assert len(checkpoint.state) < len(pickle.dumps(state, protocol=4))


WALK_STEPS = 12


def _walk_factory(v):
    return WalkExchange(0, WALK_STEPS, [((v, i), i) for i in range(2)], None)


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_walkers_resume_bound_to_their_generators(engine):
    """A walk exchange checkpointed mid-forward-phase resumes exactly,
    and its cached RNG methods point at the restored context's own
    generator."""
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
    for walker, ctx in bound:
        assert walker._random.__self__ is ctx._rng
        assert walker._randbelow.__self__ is ctx._rng
    assert _fingerprint(sim.run(max_rounds), recorder) == baseline
