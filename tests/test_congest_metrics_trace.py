"""Metrics aggregation, structured round tracing, and fast-forward laws.

Covers the accounting layer around the engines:

* ``CongestMetrics.merge`` composes phase metrics correctly;
* ``metrics.rounds`` equals the number of rounds the simulator
  executed (no off-by-one between the counter and the aggregate);
* ``RoundTrace`` / ``TraceRecorder`` export: per-round counts, histogram
  totals, and an exact JSONL round-trip;
* a seeded property-based check that fast-forwarding (idle hints) never
  changes ``rounds``, ``effective_rounds``, or outputs relative to the
  same algorithm stepped every round.
"""

import random

import pytest

from repro.congest import (
    CongestMetrics,
    CongestSimulator,
    RoundTrace,
    TraceRecorder,
    TraceSession,
    VertexAlgorithm,
)
from repro.generators import cycle_graph, path_graph, star_graph
from repro.obs import load_trace_jsonl

ENGINES = ("fast", "reference")


class TestMetricsMerge:
    def test_merge_sums_and_maxes(self):
        a = CongestMetrics(
            rounds=10,
            effective_rounds=14,
            total_messages=100,
            total_bits=900,
            max_message_bits=32,
            max_edge_congestion=3,
        )
        b = CongestMetrics(
            rounds=5,
            effective_rounds=5,
            total_messages=7,
            total_bits=70,
            max_message_bits=48,
            max_edge_congestion=1,
        )
        merged = a.merge(b)
        assert merged.rounds == 15
        assert merged.effective_rounds == 19
        assert merged.total_messages == 107
        assert merged.total_bits == 970
        assert merged.max_message_bits == 48
        assert merged.max_edge_congestion == 3

    def test_merge_leaves_operands_untouched(self):
        a = CongestMetrics(rounds=1, congestion_histogram={1: 2})
        b = CongestMetrics(rounds=2, congestion_histogram={1: 3, 2: 1})
        assert a.merge(b).congestion_histogram == {1: 5, 2: 1}
        assert a.rounds == 1 and a.congestion_histogram == {1: 2}
        assert b.rounds == 2 and b.congestion_histogram == {1: 3, 2: 1}

    def test_merge_matches_single_combined_run(self):
        # Running two phases back to back and merging their metrics must
        # equal folding both phases' rounds into one metrics object.
        combined = CongestMetrics()
        phase1 = CongestMetrics()
        phase2 = CongestMetrics()
        for target, rounds in ((phase1, [({0: 2}, 2, 20)]),
                               (phase2, [({}, 0, 0), ({1: 1}, 1, 8)])):
            for per_edge, msgs, bits in rounds:
                target.record_round(per_edge, msgs, bits)
                combined.record_round(per_edge, msgs, bits)
        assert phase1.merge(phase2).summary() == combined.summary()


class CountDown(VertexAlgorithm):
    """Halt after a fixed number of rounds, broadcasting each round."""

    def __init__(self, rounds):
        self.rounds = rounds

    def initialize(self, ctx):
        ctx.broadcast(0)

    def step(self, ctx, inbox):
        if ctx.round_number >= self.rounds:
            ctx.halt(ctx.round_number)
        else:
            ctx.broadcast(ctx.round_number)


@pytest.mark.parametrize("engine", ENGINES)
class TestRoundsCounterAgreement:
    def test_metrics_rounds_equals_rounds_executed(self, engine):
        sim = CongestSimulator(
            cycle_graph(6), lambda v: CountDown(7), seed=0, engine=engine
        )
        result = sim.run(50)
        assert result.halted
        assert result.metrics.rounds == sim.rounds_executed == 7

    def test_truncated_run_counts_executed_rounds(self, engine):
        sim = CongestSimulator(
            cycle_graph(6), lambda v: CountDown(100), seed=0, engine=engine
        )
        result = sim.run(max_rounds=9)
        assert not result.halted
        assert result.metrics.rounds == sim.rounds_executed == 9


@pytest.mark.parametrize("engine", ENGINES)
class TestTraceExport:
    def _traced_run(self, engine):
        trace = TraceRecorder(label="unit")
        sim = CongestSimulator(
            star_graph(4), lambda v: CountDown(4), seed=3,
            engine=engine, trace=trace,
        )
        result = sim.run(20)
        return result, trace

    def test_per_round_counts_sum_to_metrics(self, engine):
        result, trace = self._traced_run(engine)
        metrics = result.metrics
        assert sum(r.messages for r in trace.rounds) == metrics.total_messages
        assert sum(r.bits for r in trace.rounds) == metrics.total_bits
        assert trace.total_rounds() == metrics.rounds
        assert max(r.max_congestion for r in trace.rounds) == (
            metrics.max_edge_congestion
        )
        assert metrics.total_messages > 0

    def test_histogram_totals_match_message_counts(self, engine):
        _, trace = self._traced_run(engine)
        for r in trace.rounds:
            # Σ multiplicity * edge-count == messages delivered that round.
            assert sum(
                mult * edges for mult, edges in r.congestion_histogram.items()
            ) == r.messages
            assert r.max_congestion == max(r.congestion_histogram, default=0)

    def test_stepped_idle_halted_partition_vertices(self, engine):
        result, trace = self._traced_run(engine)
        n = 5
        # stepped + idle is the live population entering the round;
        # together with the vertices already halted it covers all n.
        prev_halted = 0
        for r in trace.rounds:
            assert r.stepped >= 0 and r.idle >= 0 and r.halted >= 0
            assert r.stepped + r.idle + prev_halted == n
            prev_halted = r.halted
        # Everyone halts by the final recorded round.
        assert result.halted
        assert trace.rounds[-1].halted == n

    def test_jsonl_round_trip_is_exact(self, engine, tmp_path):
        with TraceSession() as session:
            CongestSimulator(
                star_graph(4), lambda v: CountDown(4), seed=3, engine=engine
            ).run(20)
        (trace,) = session.recorders
        assert trace.rounds == self._traced_run(engine)[1].rounds
        path = str(tmp_path / "trace.jsonl")
        session.write_jsonl(path)
        records = load_trace_jsonl(path)
        assert {d["sim"] for d in records} == {trace.label}
        assert [RoundTrace.from_dict(d) for d in records] == trace.rounds
        # And dict-level round-trip, independent of the file layer.
        for r in trace.rounds:
            assert RoundTrace.from_dict(r.to_dict()) == r

    def test_session_attaches_recorders_automatically(self, engine):
        with TraceSession() as session:
            sim = CongestSimulator(
                path_graph(3), lambda v: CountDown(3), seed=0, engine=engine
            )
            result = sim.run(10)
        assert len(session.recorders) == 1
        assert session.total_rounds() == result.metrics.rounds
        # Outside the session, no recorder is attached.
        sim2 = CongestSimulator(
            path_graph(3), lambda v: CountDown(3), seed=0, engine=engine
        )
        assert sim2.trace is None


class RandomSleeper(VertexAlgorithm):
    """Randomized wake/sleep schedule driven by a private stdlib RNG.

    On each wake the vertex may message a random neighbor, then sleeps
    for a random stretch.  ``hinted=False`` runs the same schedule
    without idle hints (the simulator steps it every round), which is
    the semantic baseline fast-forwarding must reproduce.
    """

    def __init__(self, vertex, seed, hinted):
        self.hinted = hinted
        self.rng = random.Random(seed * 7919 + vertex)
        self.wake_round = self.rng.randint(1, 6)
        self.remaining = self.rng.randint(2, 5)

    def step(self, ctx, inbox):
        if inbox or ctx.round_number >= self.wake_round:
            if self.rng.random() < 0.6 and ctx.neighbors:
                target = self.rng.choice(ctx.neighbors)
                ctx.send(target, ("tick", ctx.round_number))
            self.remaining -= 1
            if self.remaining <= 0:
                ctx.halt(ctx.round_number)
                return
            self.wake_round = ctx.round_number + self.rng.randint(1, 40)

    def is_idle(self, ctx):
        return self.hinted and ctx.round_number < self.wake_round

    def next_wakeup(self, ctx):
        return self.wake_round


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", range(8))
def test_fast_forward_preserves_round_accounting(engine, seed):
    """Property: idle hints are pure scheduling, never semantics.

    The hinted and unhinted runs draw identical RNG streams (the
    algorithm's own RNG is keyed by (seed, vertex) and is only consulted
    on wake rounds), so every observable — outputs, rounds,
    effective_rounds, traffic — must coincide; the hinted run merely
    skips the quiescent stretches.
    """
    def run(hinted):
        sim = CongestSimulator(
            cycle_graph(5),
            lambda v: RandomSleeper(v, seed, hinted),
            seed=seed,
            engine=engine,
        )
        result = sim.run(max_rounds=400)
        return result

    plain = run(hinted=False)
    hinted = run(hinted=True)
    assert hinted.outputs == plain.outputs
    assert hinted.halted == plain.halted
    assert hinted.metrics.rounds == plain.metrics.rounds
    assert hinted.metrics.effective_rounds == plain.metrics.effective_rounds
    assert hinted.metrics.total_messages == plain.metrics.total_messages
    assert hinted.metrics.total_bits == plain.metrics.total_bits
    assert hinted.metrics.max_edge_congestion == (
        plain.metrics.max_edge_congestion
    )
