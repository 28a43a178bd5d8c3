"""Tests for the ``repro.obs`` telemetry package and its integration.

Three layers are covered here: the primitives (histograms, registry,
terminal report, baselines), the determinism contract (fast vs. reference engine
telemetry, serial vs. sharded runner telemetry), and the trace schema
bump that rides along (v1 files must keep loading).
"""

import json
import os

import pytest

from repro.congest import CongestSimulator, TraceRecorder, VertexAlgorithm, use_engine
from repro.congest.metrics import CongestMetrics
from repro.congest.trace import (
    BASE_SCHEMA_VERSION,
    TRACE_SCHEMA_VERSION,
    RoundTrace,
)
from repro.generators import gnp_random_graph
from repro.obs import (
    DEFAULT_BOUNDS,
    FixedHistogram,
    NO_SPAN,
    TelemetryRegistry,
    build_snapshot,
    diff_snapshots,
    load_snapshot,
    load_trace_jsonl,
    render_report,
    telemetry_scope,
    write_snapshot,
)
from repro.obs import registry as obs_registry
from repro.runner import run_suite

FIXTURES = os.path.join(os.path.dirname(__file__), "data")
SEED_BASELINE = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "results",
    "BENCH_seed_baseline.json",
)


# ----------------------------------------------------------------------
# FixedHistogram
# ----------------------------------------------------------------------

class TestFixedHistogram:
    def test_upper_inclusive_buckets(self):
        hist = FixedHistogram(bounds=(1, 2, 4))
        hist.observe(1)
        hist.observe(2)
        hist.observe(3)   # lands in the le=4 bucket
        hist.observe(9)   # overflow
        assert hist.buckets == [1, 1, 1, 1]
        assert hist.count == 4
        assert hist.total == 15
        assert hist.min == 1 and hist.max == 9

    def test_observe_times_and_nonpositive(self):
        hist = FixedHistogram(bounds=(8,))
        hist.observe(5, times=3)
        hist.observe(5, times=0)
        hist.observe(5, times=-2)
        assert hist.count == 3
        assert hist.total == 15

    def test_percentile_nearest_rank_clamped(self):
        hist = FixedHistogram()  # power-of-two bounds
        for value in (1, 1, 2, 3, 100):
            hist.observe(value)
        assert hist.percentile(0.0) == 1
        assert hist.percentile(0.50) == 2
        # The tail estimate is clamped to the observed max, not the
        # containing bucket's upper bound (128).
        assert hist.percentile(1.0) == 100
        assert FixedHistogram().percentile(0.5) == 0.0
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_merge_and_bounds_mismatch(self):
        a = FixedHistogram(bounds=(1, 2))
        b = FixedHistogram(bounds=(1, 2))
        a.observe(1)
        b.observe(2, times=4)
        a.merge(b)
        assert a.count == 5 and a.max == 2
        with pytest.raises(ValueError):
            a.merge(FixedHistogram(bounds=(1, 4)))

    def test_dict_round_trip(self):
        hist = FixedHistogram()
        hist.observe(3, times=7)
        hist.observe(2 ** 40)  # overflow bucket
        data = json.loads(json.dumps(hist.to_dict()))
        assert "+inf" in data["buckets"]
        assert FixedHistogram.from_dict(data) == hist

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            FixedHistogram(bounds=())
        with pytest.raises(ValueError):
            FixedHistogram(bounds=(4, 2))

    def test_default_bounds_are_powers_of_two(self):
        assert DEFAULT_BOUNDS[0] == 1
        assert all(b == 2 ** i for i, b in enumerate(DEFAULT_BOUNDS))


# ----------------------------------------------------------------------
# Registry and module helpers
# ----------------------------------------------------------------------

class TestRegistry:
    def test_disabled_helpers_are_noops(self):
        assert not obs_registry.enabled()
        obs_registry.count("x")
        obs_registry.observe("h", 5)
        assert obs_registry.span("s") is NO_SPAN
        with obs_registry.span("s"):
            pass
        assert not obs_registry.current_registry()

    def test_scope_records_and_restores(self):
        root = obs_registry.current_registry()
        with telemetry_scope() as registry:
            assert obs_registry.enabled()
            assert obs_registry.current_registry() is registry
            obs_registry.count("runs", 2)
            with obs_registry.span("outer"):
                with obs_registry.span("inner"):
                    obs_registry.observe("sizes", 4)
        assert not obs_registry.enabled()
        assert obs_registry.current_registry() is root
        assert not root  # nothing leaked to the root registry
        assert registry.counters == {"runs": 2}
        assert set(registry.spans) == {"outer", "outer/inner"}
        assert registry.spans["outer/inner"].count == 1
        assert registry.histograms["sizes"].count == 1

    def test_scopes_nest(self):
        with telemetry_scope() as outer:
            obs_registry.count("a")
            with telemetry_scope() as inner:
                obs_registry.count("b")
            obs_registry.count("a")
        assert outer.counters == {"a": 2}
        assert inner.counters == {"b": 1}

    def test_merge_dict_semantics(self):
        a = TelemetryRegistry()
        a.count("n", 1)
        a.observe("h", 2)
        with a.span("phase"):
            pass
        b = TelemetryRegistry()
        b.count("n", 3)
        b.observe("h", 5, times=2)
        with b.span("phase"):
            pass

        merged = TelemetryRegistry()
        merged.merge_dict(a.to_dict())
        merged.merge_dict(b.to_dict())
        assert merged.counters == {"n": 4}
        assert merged.histograms["h"].count == 3
        assert merged.spans["phase"].count == 2

    def test_comparable_dict_strips_timings(self):
        registry = TelemetryRegistry()
        with registry.span("p"):
            pass
        comparable = registry.comparable_dict()
        assert comparable["spans"] == {"p": 1}
        # Round-trips through the plain-data form.
        clone = TelemetryRegistry.from_dict(registry.to_dict())
        assert clone.comparable_dict() == comparable


# ----------------------------------------------------------------------
# Terminal report
# ----------------------------------------------------------------------

class TestSinks:
    def _payload(self):
        registry = TelemetryRegistry()
        registry.count("framework.runs", 2)
        registry.observe("congest.message_bits", 33, times=4)
        with registry.span("decompose"):
            with registry.span("split"):
                pass
        return registry.to_dict()

    def test_render_report_sections(self):
        report = render_report(self._payload())
        for needle in ("phase spans", "counters", "histograms",
                       "decompose/split", "framework.runs"):
            assert needle in report
        assert render_report({}) == "telemetry: empty registry\n"

    def test_render_report_with_suites(self):
        suites = {"E10": {"wall_seconds": 1.5,
                          "cells": {"E10[n=64]": {"elapsed": 0.7}}}}
        report = render_report(self._payload(), suites)
        assert "cell timings" in report and "E10 (suite wall)" in report


class TestSinksEdgeCases:
    """An empty registry renders one line, not empty tables."""

    def test_render_report_empty_registry(self):
        report = render_report(TelemetryRegistry().to_dict())
        assert report == "telemetry: empty registry\n"


# ----------------------------------------------------------------------
# CongestMetrics: per-edge congestion distribution (satellite)
# ----------------------------------------------------------------------

class TestCongestionDistribution:
    def _metrics(self, rounds):
        metrics = CongestMetrics()
        for per_edge in rounds:
            messages = sum(per_edge.values())
            metrics.record_round(per_edge, messages, messages * 8)
        return metrics

    def test_record_round_folds_histogram(self):
        metrics = self._metrics([
            {("a", "b"): 1, ("b", "c"): 3},
            {("a", "b"): 3},
        ])
        assert metrics.congestion_histogram == {1: 1, 3: 2}
        assert metrics.max_edge_congestion == 3

    def test_congestion_summary(self):
        metrics = self._metrics([
            {("e%d" % i, "x"): 1 for i in range(98)},
        ])
        metrics.record_round({("hot", "x"): 40, ("warm", "x"): 2}, 42, 42)
        summary = metrics.congestion_summary()
        assert summary["observations"] == 100
        assert summary["p50"] == 1
        assert summary["p95"] == 1
        assert summary["max"] == 40
        assert summary["max"] == metrics.max_edge_congestion
        assert summary["histogram"] == {1: 98, 2: 1, 40: 1}

    def test_merge_sums_histograms(self):
        a = self._metrics([{("a", "b"): 2}])
        b = self._metrics([{("a", "b"): 2, ("b", "c"): 5}])
        assert a.merge(b).congestion_histogram == {2: 2, 5: 1}
        parallel = CongestMetrics.merge_parallel([a, b])
        assert parallel.congestion_histogram == {2: 2, 5: 1}
        assert parallel.max_edge_congestion == 5

    def test_dict_round_trip_keeps_histogram(self):
        metrics = self._metrics([{("a", "b"): 7}])
        clone = CongestMetrics.from_dict(
            json.loads(json.dumps(metrics.to_dict()))
        )
        assert clone.congestion_histogram == {7: 1}


# ----------------------------------------------------------------------
# Trace schema bump (satellite): v2 emission, v1 files still load
# ----------------------------------------------------------------------

class TestTraceSchema:
    def test_schema_version_emitted(self):
        trace = RoundTrace(round=1, messages=2, bits=64, stepped=3, idle=0,
                           halted=0, skipped_before=0, max_congestion=1,
                           congestion_histogram={1: 2},
                           message_bits_histogram={32: 2})
        data = trace.to_dict()
        # Detail events are off, so the record stamps the base (v4)
        # schema; the reader itself understands up to v5.
        assert TRACE_SCHEMA_VERSION == 5
        assert data["schema"] == BASE_SCHEMA_VERSION == 4
        assert data["message_bits_histogram"] == {"32": 2}
        assert RoundTrace.from_dict(data) == trace

    def test_schema_v5_stamped_only_with_events(self):
        trace = RoundTrace(round=1, messages=1, bits=8, stepped=1, idle=0,
                           halted=0, skipped_before=0, max_congestion=1,
                           congestion_histogram={1: 1},
                           events=[{"s": "0", "r": "1", "q": 0, "b": 8,
                                    "o": "deliver"}])
        data = trace.to_dict()
        assert data["schema"] == TRACE_SCHEMA_VERSION == 5
        assert RoundTrace.from_dict(data) == trace

    def test_empty_histogram_omitted(self):
        trace = RoundTrace(round=1, messages=0, bits=0, stepped=3, idle=3,
                           halted=0, skipped_before=0, max_congestion=0)
        data = trace.to_dict()
        assert "message_bits_histogram" not in data
        assert RoundTrace.from_dict(data).message_bits_histogram == {}

    def test_v1_fixture_round_trips(self):
        """A pre-bump JSONL trace (no ``schema`` field) must still load."""
        path = os.path.join(FIXTURES, "trace_v1.jsonl")
        rounds = [RoundTrace.from_dict(d) for d in load_trace_jsonl(path)]
        assert rounds
        assert sum(r.messages for r in rounds) > 0
        assert all(r.message_bits_histogram == {} for r in rounds)
        # First fixture line predates the schema field entirely.
        with open(path) as handle:
            first = json.loads(handle.readline())
        assert "schema" not in first
        assert "message_bits_histogram" not in first
        # Re-serialising upgrades every record to the base schema (v5
        # is only stamped when detail events are present).
        upgraded = rounds[0].to_dict()
        assert upgraded["schema"] == BASE_SCHEMA_VERSION

    def test_recorder_records_message_bits(self, tmp_path):
        recorder = TraceRecorder("sim")
        recorder.record_round(
            1, {("a", "b"): 2}, messages=2, bits=64, stepped=2, idle=0,
            halted=0, skipped_before=0, message_bits_histogram={32: 2},
        )
        path = str(tmp_path / "trace.jsonl")
        recorder.write_jsonl(path)
        (back,) = [RoundTrace.from_dict(d) for d in load_trace_jsonl(path)]
        assert back.message_bits_histogram == {32: 2}
        assert sum(s * t for s, t in
                   back.message_bits_histogram.items()) == 64


# ----------------------------------------------------------------------
# Engine telemetry equivalence (satellite)
# ----------------------------------------------------------------------

class _Flood(VertexAlgorithm):
    """Max-ID flooding — the standard pure-simulator workload."""

    def __init__(self, budget):
        self.budget = budget
        self.best = None

    def initialize(self, ctx):
        self.best = ctx.vertex
        ctx.broadcast(self.best)

    def step(self, ctx, inbox):
        for payloads in inbox.values():
            for value in payloads:
                if value > self.best:
                    self.best = value
                    ctx.broadcast(self.best)
        if ctx.round_number >= self.budget:
            ctx.halt(self.best)


class TestEngineTelemetryEquivalence:
    def _run(self, engine, seed):
        g = gnp_random_graph(30, 0.15, seed=seed)
        with telemetry_scope() as registry:
            with use_engine(engine):
                sim = CongestSimulator(g, lambda v: _Flood(8), seed=seed)
                result = sim.run(max_rounds=20)
        return registry, result

    @pytest.mark.parametrize("seed", (5, 17))
    def test_fast_and_reference_agree(self, seed):
        ref_registry, ref = self._run("reference", seed)
        fast_registry, fast = self._run("fast", seed)
        assert ref.outputs == fast.outputs
        assert ref_registry.comparable_dict() == fast_registry.comparable_dict()

    def test_telemetry_matches_metrics(self):
        registry, result = self._run("fast", seed=5)
        counters = registry.counters
        assert counters["congest.simulations"] == 1
        assert counters["congest.rounds"] == result.metrics.rounds
        assert counters["congest.messages"] == result.metrics.total_messages
        assert counters["congest.bits"] == result.metrics.total_bits
        # The message-size histogram accounts for every bit charged.
        sizes = registry.histograms["congest.message_bits"]
        assert sizes.total == result.metrics.total_bits
        assert sizes.count == result.metrics.total_messages
        # Active-vertex observations cover every executed round.
        active = registry.histograms["congest.active_vertices"]
        assert active.count == result.metrics.rounds

    def test_disabled_run_records_nothing(self):
        g = gnp_random_graph(20, 0.2, seed=3)
        sim = CongestSimulator(g, lambda v: _Flood(5), seed=3)
        sim.run(max_rounds=10)
        assert not obs_registry.current_registry()


# ----------------------------------------------------------------------
# Runner telemetry determinism (satellite)
# ----------------------------------------------------------------------

def _comparable(payload):
    return TelemetryRegistry.from_dict(payload).comparable_dict()


class TestRunnerTelemetry:
    def test_serial_and_sharded_merge_equal(self):
        serial = run_suite("E10", jobs=1, limit=2, telemetry=True)
        sharded = run_suite("E10", jobs=4, limit=2, telemetry=True)
        assert all(r.telemetry for r in serial.results)
        assert all(r.telemetry for r in sharded.results)
        merged_serial = _comparable(serial.merged_telemetry())
        merged_sharded = _comparable(sharded.merged_telemetry())
        assert merged_serial == merged_sharded
        # The span tree carries the per-cell phases.
        paths = set(merged_serial["spans"])
        assert any(p.startswith("cell:") for p in paths)
        assert any("decompose" in p for p in paths)

    def test_telemetry_off_by_default(self):
        run = run_suite("E10", jobs=1, limit=1)
        assert all(r.telemetry is None for r in run.results)
        assert run.merged_telemetry() == TelemetryRegistry().to_dict()


# ----------------------------------------------------------------------
# Baseline snapshots and diffs
# ----------------------------------------------------------------------

def _snapshot(elapsed=0.5, wall=1.0):
    return build_snapshot(
        suites={"E10": {"wall_seconds": wall,
                        "cells": {"E10[n=64]": {"elapsed": elapsed}}}},
        telemetry=TelemetryRegistry().to_dict(),
    )


class TestBaseline:
    def test_write_load_round_trip(self, tmp_path):
        path = str(tmp_path / "snap.json")
        write_snapshot(path, _snapshot())
        snapshot = load_snapshot(path)
        assert snapshot["kind"] == "repro-telemetry-snapshot"
        assert snapshot["suites"]["E10"]["wall_seconds"] == 1.0

    def test_load_rejects_foreign_files(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({"hello": "world"}, handle)
        with pytest.raises(ValueError, match="not a repro telemetry"):
            load_snapshot(path)

    def test_load_rejects_future_schema(self, tmp_path):
        snapshot = _snapshot()
        snapshot["schema"] = 99
        path = str(tmp_path / "future.json")
        with open(path, "w") as handle:
            json.dump(snapshot, handle)
        with pytest.raises(ValueError, match="schema 99"):
            load_snapshot(path)

    def test_self_diff_is_clean(self):
        snapshot = _snapshot()
        diff = diff_snapshots(snapshot, snapshot)
        assert diff.ok
        assert diff.unchanged == 2  # suite wall + one cell
        assert "0 regression(s)" in diff.render()

    def test_double_time_regresses(self):
        diff = diff_snapshots(_snapshot(), _snapshot(elapsed=1.0, wall=2.0),
                              budget=1.25)
        assert not diff.ok
        assert len(diff.regressions) == 2
        assert "REGRESSION" in diff.render()

    def test_min_seconds_floor_absorbs_jitter(self):
        old = _snapshot(elapsed=0.001, wall=0.002)
        new = _snapshot(elapsed=0.002, wall=0.004)  # 2x but microscopic
        assert diff_snapshots(old, new, budget=1.25).ok

    def test_grid_changes_are_informational(self):
        old = _snapshot()
        new = _snapshot()
        new["suites"]["E11"] = {"wall_seconds": 0.1, "cells": {}}
        diff = diff_snapshots(old, new)
        assert diff.ok
        assert diff.added == ["suite:E11"]
        assert diff_snapshots(new, old).missing == ["suite:E11"]

    def test_snapshot_with_cell_attempts_still_diffs(self, capsys):
        """Snapshots written while cells also recorded ``attempts``,
        ``meta`` recorded the artifact-cache switch and the registry
        recorded ``gauges`` (the committed seed baseline among them)
        still load, report and diff, on ``elapsed`` alone."""
        from repro.cli import main

        seed = load_snapshot(SEED_BASELINE)
        (label, cell), = seed["suites"]["E10"]["cells"].items()
        assert "attempts" in cell
        assert set(seed["meta"]) > set(build_snapshot(suites={})["meta"])
        assert "gauges" in seed["telemetry"]
        slower = build_snapshot(suites={"E10": {
            "wall_seconds": seed["suites"]["E10"]["wall_seconds"],
            "cells": {label: {"elapsed": cell["elapsed"] * 10}},
        }})
        diff = diff_snapshots(seed, slower, budget=4.0)
        assert [e["metric"] for e in diff.regressions] == [f"cell:{label}"]
        assert main(["obs", "report", SEED_BASELINE]) == 0
        report = capsys.readouterr().out
        assert "phase spans" in report and "cell timings" in report
        assert main(["obs", "diff", SEED_BASELINE, SEED_BASELINE]) == 0
        assert "0 regression(s), 0 improvement(s)" in capsys.readouterr().out

    def test_budget_must_be_positive(self):
        for budget in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                diff_snapshots(_snapshot(), _snapshot(), budget=budget)

    def test_min_seconds_must_be_finite_and_not_negative(self):
        for floor in (-1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                diff_snapshots(_snapshot(), _snapshot(), min_seconds=floor)
        assert diff_snapshots(_snapshot(), _snapshot(), min_seconds=0).ok


# ----------------------------------------------------------------------
# CLI integration: bench --telemetry, obs report, obs diff
# ----------------------------------------------------------------------

class TestObsCli:
    def test_bench_telemetry_report_diff(self, capsys, tmp_path):
        from repro.cli import main

        snap = tmp_path / "snap.json"
        assert main([
            "bench", "--suite", "E10", "--limit", "1",
            "--telemetry", str(snap),
        ]) == 0
        capsys.readouterr()
        snapshot = load_snapshot(str(snap))
        assert snapshot["telemetry"]["counters"]["congest.simulations"] > 0

        assert main(["obs", "report", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "phase spans" in out and "cell timings" in out

        # Self-diff passes; a doubled snapshot fails the gate.
        assert main(["obs", "diff", str(snap), str(snap)]) == 0
        capsys.readouterr()
        slow = json.loads(snap.read_text())
        for suite in slow["suites"].values():
            suite["wall_seconds"] = suite["wall_seconds"] * 2 + 1
            for cell in suite["cells"].values():
                cell["elapsed"] = cell["elapsed"] * 2 + 1
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        assert main(["obs", "diff", str(snap), str(slow_path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_repeated_bench_records_equal_telemetry(self, capsys, tmp_path):
        """Every run computes every cell, so two runs in a row record
        the same work, decomposition spans included."""
        from repro.cli import main

        payloads = []
        for name in ("first.json", "second.json"):
            snap = str(tmp_path / name)
            assert main([
                "bench", "--suite", "E10", "--limit", "1",
                "--telemetry", snap,
            ]) == 0
            payloads.append(_comparable(load_snapshot(snap)["telemetry"]))
        capsys.readouterr()
        assert payloads[0] == payloads[1]
        assert any("decompose" in path for path in payloads[0]["spans"])
