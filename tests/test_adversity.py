"""Adversarial network conditions: the differential matrix.

The faults layer grew three network-level adversities — topology
churn (edge arrivals/departures/up-windows), partition windows with
healing, and deterministic bounded message delay.  This module pins
them to the same contract every other fault class honors:

* fast and reference engines stay bit-identical under every adversity
  plan — outputs, metrics, per-round traces, *and* per-vertex RNG
  end-states;
* the columnar kernels silently fall back to the scalar path for any
  plan carrying an adversity (so kernels-on equals kernels-off under
  every plan);
* a checkpoint captured with delayed messages still in flight
  serializes them and resumes bit-identically on either engine;
* the semantics themselves are observable: a departed edge splits a
  flood, an arriving edge heals it, a partition isolates its block
  until the window closes, and a delayed message arrives late but
  intact.
"""

import json

import pytest

from repro.congest import (
    CongestSimulator,
    EdgeWindow,
    FaultPlan,
    PartitionWindow,
    SimulationCheckpoint,
    TraceRecorder,
    resume_simulation,
    use_engine,
)
from repro.congest import algorithm as algorithm_mod
from repro.congest.algorithm import set_kernels_enabled
from repro.generators import gnp_random_graph, path_graph
from repro.independent_set.greedy import LubyMIS
from repro.resilience import STALLED, Verdict

from tests._checkpoint_fixture import FixtureFlood
from tests.test_faults import Flood, PersistentFlood

SEEDS = (5, 19)


def _graph(seed):
    return gnp_random_graph(40, 0.12, seed=seed)


def _plan(kind, graph):
    """One plan per adversity class, scaled to ``graph``."""
    edges = sorted(tuple(sorted(e)) for e in graph.edges())
    verts = sorted(graph.vertices())
    if kind == "churn":
        return FaultPlan(
            seed=31,
            edge_arrivals=tuple((u, v, 3) for u, v in edges[::9]),
            edge_departures=tuple((u, v, 7) for u, v in edges[4::9]),
        )
    if kind == "upwindow":
        return FaultPlan(
            seed=32,
            edge_up_windows=tuple(
                EdgeWindow(u, v, 1, 6) for u, v in edges[::7]
            ),
        )
    if kind == "partition":
        half = tuple(verts[: len(verts) // 2])
        return FaultPlan(seed=33, partitions=(PartitionWindow((half,), 2, 5),))
    if kind == "delay":
        return FaultPlan(seed=34, delay=0.3, max_delay=3)
    if kind == "combined":
        return FaultPlan(
            seed=35,
            drop=0.05,
            delay=0.15,
            max_delay=2,
            edge_departures=tuple((u, v, 5) for u, v in edges[::11]),
            partitions=(PartitionWindow((tuple(verts[:6]),), 1, 4),),
            crashes=((verts[3], 6),),
        )
    raise AssertionError(kind)


#: Which fault counter each plan must move, or the test is vacuous.
_BITE = {
    "churn": "messages_lost_topology",
    "upwindow": "messages_lost_topology",
    "partition": "messages_partitioned",
    "delay": "messages_delayed",
    "combined": "messages_delayed",
}


def _rng_states(sim):
    """Per-vertex RNG end-states keyed by vertex (engine-neutral)."""
    engine = sim._engine
    return {
        v: (None if ctx._rng is None else ctx._rng.getstate())
        for v, ctx in zip(engine._verts, engine._contexts)
    }


def _run(graph, factory, seed, plan, engine, rounds=40):
    recorder = TraceRecorder(engine)
    sim = CongestSimulator(
        graph, factory, seed=seed, faults=plan, trace=recorder, engine=engine
    )
    result = sim.run(max_rounds=rounds)
    return result, recorder, sim


def _assert_identical(pair_a, pair_b):
    res_a, rec_a, sim_a = pair_a
    res_b, rec_b, sim_b = pair_b
    assert res_a.outputs == res_b.outputs
    assert res_a.halted == res_b.halted
    assert res_a.crashed == res_b.crashed
    assert res_a.metrics.summary() == res_b.metrics.summary()
    assert res_a.metrics.fault_summary() == res_b.metrics.fault_summary()
    assert len(rec_a.rounds) == len(rec_b.rounds)
    for a, b in zip(rec_a.rounds, rec_b.rounds):
        assert a == b
    assert _rng_states(sim_a) == _rng_states(sim_b)


# ----------------------------------------------------------------------
# Engine bit-identity under every adversity class
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", sorted(_BITE))
def test_adversity_bit_identical_across_engines(kind, seed):
    graph = _graph(seed)
    plan = _plan(kind, graph)

    def factory(v):
        return LubyMIS(20)

    with use_engine("reference"):
        ref = _run(graph, factory, seed, plan, "reference")
    with use_engine("fast"):
        fast = _run(graph, factory, seed, plan, "fast")
    _assert_identical(ref, fast)
    # The plan must actually have bitten, or this proves nothing.
    assert fast[0].metrics.fault_summary()[_BITE[kind]] > 0


# ----------------------------------------------------------------------
# Kernels fall back — and stay bit-identical — under adversity plans
# ----------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _kernels_restored(monkeypatch):
    monkeypatch.setattr(algorithm_mod, "KERNEL_THRESHOLD", 1)
    yield
    set_kernels_enabled(True)


@pytest.mark.parametrize("kind", sorted(_BITE))
def test_kernels_fall_back_under_adversity(kind):
    graph = _graph(3)
    plan = _plan(kind, graph)

    def run(enabled):
        set_kernels_enabled(enabled)
        try:
            return _run(graph, lambda v: LubyMIS(20), 3, plan, "fast")
        finally:
            set_kernels_enabled(True)

    pair_on = run(True)
    pair_off = run(False)
    # Adversity plans force the scalar path: no kernel on either side.
    assert pair_on[2]._engine._kernel is None
    assert pair_off[2]._engine._kernel is None
    _assert_identical(pair_on, pair_off)


def test_kernel_engages_without_adversity():
    """The fallback above is the *plan's* doing, not an accident."""
    graph = _graph(3)
    set_kernels_enabled(True)
    pair = _run(graph, lambda v: LubyMIS(20), 3, None, "fast")
    assert pair[2]._engine._kernel is not None


# ----------------------------------------------------------------------
# Halted vertices hold no mail, yet every message sent to one is charged
# ----------------------------------------------------------------------


def _halted_with_inbox(sim):
    engine = sim._engine
    halted = [i for i, ctx in enumerate(engine._contexts) if ctx._halted]
    assert halted
    return [i for i in halted if engine._pending[i] is not None]


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_halted_vertices_hold_no_inbox(engine):
    graph = _graph(5)
    sent = []

    class CountingLuby(LubyMIS):
        def initialize(self, ctx):
            super().initialize(ctx)
            sent.append(len(ctx._outbox))

        def step(self, ctx, inbox):
            super().step(ctx, inbox)
            sent.append(len(ctx._outbox))

    result, _, sim = _run(
        graph, lambda v: CountingLuby(20), 5, _plan("combined", graph),
        engine,
    )
    assert _halted_with_inbox(sim) == []
    # Charged on send: delivered into a round, or still in flight.
    assert result.metrics.total_messages + sim._engine._inflight[1] == sum(
        sent
    )


def test_capturing_runs_leave_halted_vertices_no_inbox():
    """A fault-free run that captures checkpoints takes the fast
    engine's inline delivery, not a kernel; like the channel above, it
    builds no inbox for a halted receiver, so none outlives the run."""
    set_kernels_enabled(True)
    sim = CongestSimulator(_graph(3), lambda v: LubyMIS(20), seed=3)
    captured = []
    sim.run(40, checkpoint_every=1, on_checkpoint=captured.append)
    assert sim._engine._kernel is None and len(captured) > 2
    assert _halted_with_inbox(sim) == []


# ----------------------------------------------------------------------
# Checkpoint resume with delayed messages in flight
# ----------------------------------------------------------------------

ENGINE_PAIRS = [
    ("fast", "fast"),
    ("reference", "reference"),
    ("fast", "reference"),
    ("reference", "fast"),
]


def _fingerprint(result, recorder):
    return (
        result.outputs,
        result.metrics.to_dict(),
        result.halted,
        set(result.crashed),
        [r.to_dict() for r in recorder.rounds],
    )


@pytest.mark.parametrize("capture_engine,resume_engine", ENGINE_PAIRS)
def test_resume_with_delayed_messages_in_flight(
    capture_engine, resume_engine
):
    graph = _graph(7)
    plan = FaultPlan(seed=41, delay=0.6, max_delay=5)

    recorder = TraceRecorder("baseline")
    sim = CongestSimulator(
        graph, FixtureFlood, seed=3, faults=plan,
        trace=recorder, engine=resume_engine,
    )
    baseline = _fingerprint(sim.run(120), recorder)

    captured = []
    sim = CongestSimulator(
        graph, FixtureFlood, seed=3, faults=plan,
        trace=TraceRecorder("capture"), engine=capture_engine,
    )
    sim.run(120, checkpoint_every=2, on_checkpoint=captured.append)
    # With delay=0.6 and max_delay=5 some boundary must be crossed
    # with messages still queued, or this test is vacuous.  The state
    # blob is an engine-neutral pickle; peek inside it.
    import pickle

    in_flight = [
        cp for cp in captured if pickle.loads(cp.state).get("delayed")
    ]
    assert in_flight, "no checkpoint caught a delayed message in flight"

    for checkpoint in in_flight:
        checkpoint = SimulationCheckpoint.from_dict(
            json.loads(json.dumps(checkpoint.to_dict()))
        )
        rec = TraceRecorder("resumed")
        resumed = resume_simulation(
            graph, FixtureFlood, checkpoint,
            engine=resume_engine, trace=rec,
        )
        assert _fingerprint(resumed.run(120), rec) == baseline


# ----------------------------------------------------------------------
# Observable semantics of each adversity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_edge_departure_splits_a_flood(engine):
    g = path_graph(6)
    plan = FaultPlan(edge_departures=((2, 3, 0),))
    sim = CongestSimulator(
        g, lambda v: Flood(10), seed=0, engine=engine, faults=plan
    )
    result = sim.run(max_rounds=30)
    assert [result.output_of(v) for v in range(6)] == [2, 2, 2, 5, 5, 5]
    assert result.metrics.messages_lost_topology > 0


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_edge_arrival_heals_a_flood(engine):
    """The middle edge only exists from round 4 on; a persistent
    flood still converges once it appears."""
    g = path_graph(6)
    plan = FaultPlan(edge_arrivals=((2, 3, 4),))
    sim = CongestSimulator(
        g, lambda v: PersistentFlood(15), seed=0, engine=engine, faults=plan
    )
    result = sim.run(max_rounds=40)
    assert [result.output_of(v) for v in range(6)] == [5] * 6
    assert result.metrics.messages_lost_topology > 0


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_partition_heals_when_window_closes(engine):
    g = path_graph(6)
    plan = FaultPlan(
        partitions=(PartitionWindow(((0, 1, 2),), 0, 5),)
    )
    sim = CongestSimulator(
        g, lambda v: PersistentFlood(15), seed=0, engine=engine, faults=plan
    )
    result = sim.run(max_rounds=40)
    # After the heal the flood completes despite the early isolation.
    assert [result.output_of(v) for v in range(6)] == [5] * 6
    assert result.metrics.messages_partitioned > 0


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_permanent_partition_isolates_its_block(engine):
    g = path_graph(6)
    plan = FaultPlan(
        partitions=(PartitionWindow(((0, 1, 2),), 0, 10_000),)
    )
    sim = CongestSimulator(
        g, lambda v: Flood(10), seed=0, engine=engine, faults=plan
    )
    result = sim.run(max_rounds=30)
    assert [result.output_of(v) for v in range(6)] == [2, 2, 2, 5, 5, 5]


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_delayed_messages_arrive_late_but_intact(engine):
    g = path_graph(5)
    plan = FaultPlan(seed=9, delay=1.0, max_delay=3)
    sim = CongestSimulator(
        g, lambda v: PersistentFlood(20), seed=0, engine=engine, faults=plan
    )
    result = sim.run(max_rounds=80)
    # Every message is delayed, yet the flood still converges: delay
    # reorders delivery, it never loses or corrupts payloads.
    assert result.halted
    assert [result.output_of(v) for v in range(5)] == [4] * 5
    assert result.metrics.messages_delayed > 0
    assert result.metrics.messages_dropped == 0


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_delay_is_bounded_by_max_delay(engine):
    """With max_delay=1 a delayed message lands exactly one round
    late, so a path flood finishes within twice its diameter."""
    g = path_graph(4)
    plan = FaultPlan(seed=9, delay=1.0, max_delay=1)
    sim = CongestSimulator(
        g, lambda v: PersistentFlood(12), seed=0, engine=engine, faults=plan
    )
    result = sim.run(max_rounds=30)
    assert result.halted
    assert [result.output_of(v) for v in range(4)] == [3] * 4


# ----------------------------------------------------------------------
# The stalled verdict
# ----------------------------------------------------------------------


def test_stalled_verdict_semantics():
    verdict = Verdict.stalled("not halted after 40 rounds")
    assert verdict.status == STALLED
    assert not verdict.ok
    assert verdict.ratio == 0.0
    assert verdict.label() == "stalled"
    assert Verdict.from_dict(verdict.to_dict()) == verdict
