"""Tests for the trace explorer: diff, explain, timelines.

Four layers are covered: the historical trace schemas (v1-v4 fixtures
must keep loading through the v5 reader, and detail-off recording must
stay byte-identical to v4), the divergence finder (exact first
divergent round/field/vertex on deliberately divergent runs, silence
on bit-identical execution-mode pairs), per-vertex provenance
(``explain``), and the operational surfaces (Chrome trace export and
the ``repro trace`` / ``repro obs export`` CLI with their exit-code
contracts).
"""

import json
import os

import pytest

from repro.cli import main
from repro.congest import CongestSimulator, FaultPlan, TraceRecorder, VertexAlgorithm
from repro.congest.algorithm import set_kernels_enabled
from repro.congest.trace import BASE_SCHEMA_VERSION, TRACE_SCHEMA_VERSION, RoundTrace
from repro.generators import gnp_random_graph
from repro.obs import (
    Divergence,
    chrome_trace,
    diff_traces,
    explain_vertex,
    load_trace_jsonl,
    split_streams,
    telemetry_scope,
    timeline_from_snapshot,
    validate_chrome_trace,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "data")


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


def _trace_run(seed, label="fast:n=24", detail=False, plan=None, n=24,
               graph_seed=7, rounds=6):
    recorder = TraceRecorder(label, detail=detail)
    g = gnp_random_graph(n, 0.18, seed=graph_seed)
    sim = CongestSimulator(
        g, lambda v: _Flood(4), seed=seed, trace=recorder, faults=plan
    )
    sim.run(max_rounds=rounds)
    return [json.loads(line) for line in recorder.dumps_jsonl().splitlines()]


def _write_jsonl(path, records):
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Historical schema fixtures
# ----------------------------------------------------------------------

class TestHistoricalSchemas:
    @pytest.mark.parametrize("version", (1, 2, 3, 4))
    def test_fixture_loads_through_current_reader(self, version):
        path = os.path.join(FIXTURES, f"trace_v{version}.jsonl")
        records = load_trace_jsonl(path)
        assert records, f"fixture v{version} is empty"
        for record in records:
            upgraded = RoundTrace.from_dict(record).to_dict()
            # No fixture carries detail events, so re-serialization
            # stamps the base schema.
            assert upgraded["schema"] == BASE_SCHEMA_VERSION
            assert upgraded["round"] == record["round"]
            assert upgraded["bits"] == record["bits"]

    def test_fixture_schemas_are_what_they_claim(self):
        for version in (2, 3, 4):
            path = os.path.join(FIXTURES, f"trace_v{version}.jsonl")
            schemas = {
                record.get("schema") for record in load_trace_jsonl(path)
            }
            assert schemas == {version}
        v1 = load_trace_jsonl(os.path.join(FIXTURES, "trace_v1.jsonl"))
        assert all("schema" not in record for record in v1)

    def test_detail_off_recording_is_byte_identical_to_v4(self):
        """The v5 schema is additive: with detail off, today's recorder
        reproduces the pinned v4 fixture byte for byte."""
        records = _trace_run(
            seed=2, plan=FaultPlan(seed=5, drop=0.04, delay=0.1, max_delay=2)
        )
        produced = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        )
        with open(os.path.join(FIXTURES, "trace_v4.jsonl")) as handle:
            assert produced == handle.read()

    def test_detail_on_stamps_v5(self):
        records = _trace_run(seed=2, detail=True)
        assert all(r["schema"] == TRACE_SCHEMA_VERSION for r in records)
        assert any(r.get("events") for r in records)


# ----------------------------------------------------------------------
# Divergence finder
# ----------------------------------------------------------------------

class TestDiffTraces:
    def test_identical_runs_no_divergence(self):
        assert diff_traces(_trace_run(seed=2), _trace_run(seed=2)) is None

    def test_engine_label_is_ignored(self):
        a = _trace_run(seed=2, label="fast:n=24")
        b = _trace_run(seed=2, label="reference:n=24")
        assert diff_traces(a, b) is None

    def test_divergent_seeds_report_first_round_and_field(self):
        a = _trace_run(seed=2, graph_seed=7)
        b = _trace_run(seed=2, graph_seed=8)
        divergence = diff_traces(a, b)
        assert divergence is not None
        assert divergence.kind == "field"
        assert divergence.round == 1
        assert divergence.field in ("messages", "bits")
        assert divergence.a_value != divergence.b_value

    def test_divergent_fault_seeds_report_fault_field(self):
        a = _trace_run(seed=2, detail=True, plan=FaultPlan(seed=1, drop=0.15))
        b = _trace_run(seed=2, detail=True, plan=FaultPlan(seed=9, drop=0.15))
        divergence = diff_traces(a, b)
        assert divergence is not None
        assert divergence.kind == "field"
        assert divergence.round is not None
        assert divergence.field is not None

    def test_event_divergence_attributes_a_vertex(self):
        a = _trace_run(seed=2, detail=True)
        b = json.loads(json.dumps(a))  # deep copy
        victim = b[1]["events"][4]
        victim["b"] += 1  # one message's bit count flips
        divergence = diff_traces(a, b)
        assert divergence is not None
        assert divergence.round == b[1]["round"]
        assert divergence.field == "events[4]"
        assert divergence.vertex == victim["s"]

    def test_length_mismatch_reported(self):
        a = _trace_run(seed=2)
        divergence = diff_traces(a, a[:-1])
        assert divergence is not None
        assert divergence.kind == "length"

    def test_stream_count_mismatch_reported(self):
        a = _trace_run(seed=2)
        doubled = a + [dict(r, sim="other:n=24") for r in a]
        divergence = diff_traces(a, doubled)
        assert divergence is not None
        assert divergence.kind == "streams"

    def test_divergence_round_trips_to_dict(self):
        divergence = diff_traces(
            _trace_run(seed=2, graph_seed=7),
            _trace_run(seed=2, graph_seed=8),
        )
        payload = divergence.to_dict()
        assert payload["kind"] == "field"
        assert payload["round"] == divergence.round
        assert "field" in payload and "a" in payload and "b" in payload
        assert divergence.render()  # human form is non-empty


class TestExecutionModePairsAreSilent:
    """The bit-identity contract, restated as trace-diff silence."""

    @pytest.fixture(autouse=True)
    def _restore_modes(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THRESHOLD", "1")
        yield
        set_kernels_enabled(True)

    def _run(self, kernels):
        set_kernels_enabled(kernels)
        return _trace_run(seed=4, n=30)

    def test_kernels_on_off_identical(self):
        a = self._run(kernels=True)
        b = self._run(kernels=False)
        assert diff_traces(a, b) is None

    def test_detail_mode_engines_agree(self):
        from repro.congest import use_engine

        plan = FaultPlan(seed=3, drop=0.1, duplicate=0.05, delay=0.1)

        def run(engine):
            with use_engine(engine):
                return _trace_run(
                    seed=4, label=engine, detail=True, plan=plan, n=30
                )

        assert diff_traces(run("fast"), run("reference")) is None


# ----------------------------------------------------------------------
# Per-vertex provenance (explain)
# ----------------------------------------------------------------------

class TestExplainVertex:
    def test_requires_detail_events(self):
        records = _trace_run(seed=2)
        with pytest.raises(ValueError, match="trace-detail"):
            explain_vertex(records, "3", 1)

    def test_inbound_and_outbound(self):
        records = _trace_run(seed=2, detail=True)
        report = explain_vertex(records, "3", 1)
        assert report.found
        assert report.vertex == "3"
        assert all(e["r"] == "3" for e in report.inbound)
        # Fault-free flooding: round-1 broadcasts reach every neighbor.
        assert report.inbound
        assert report.render()

    def test_upstream_depth(self):
        records = _trace_run(seed=2, detail=True)
        report = explain_vertex(records, "3", 2, depth=1)
        assert report.found
        for upstream in report.upstream:
            assert upstream.round == 1

    def test_missing_round_not_found(self):
        records = _trace_run(seed=2, detail=True)
        report = explain_vertex(records, "3", 99)
        assert not report.found

    def test_split_streams_orders_by_first_appearance(self):
        a = _trace_run(seed=2, label="zeta")
        b = _trace_run(seed=2, label="alpha")
        streams = split_streams(a + b)
        assert [label for label, _ in streams] == ["zeta", "alpha"]


# ----------------------------------------------------------------------
# Chrome/Perfetto timeline export
# ----------------------------------------------------------------------

class TestChromeExport:
    def _timeline(self):
        with telemetry_scope(timeline=True) as registry:
            with registry.span("suite"):
                with registry.span("cell"):
                    pass
                with registry.span("cell"):
                    pass
        return registry.timeline

    def test_valid_trace_event_object(self):
        data = chrome_trace(self._timeline())
        assert validate_chrome_trace(data) == []
        assert data["displayTimeUnit"] == "ms"
        events = [e for e in data["traceEvents"] if e["ph"] in "BE"]
        assert [e["ph"] for e in events[:2]] == ["B", "B"]
        assert sum(1 for e in events if e["ph"] == "B") == 3
        assert sum(1 for e in events if e["ph"] == "E") == 3
        # Timestamps are normalized to microseconds from the start.
        assert events[0]["ts"] == 0.0

    def test_nested_span_names_are_paths(self):
        data = chrome_trace(self._timeline())
        names = {e["name"] for e in data["traceEvents"] if e["ph"] == "B"}
        assert names == {"suite", "suite/cell"}

    def test_metadata_names_processes(self):
        data = chrome_trace(self._timeline(), process_label="bench")
        meta = [e for e in data["traceEvents"] if e["ph"] == "M"]
        assert any(
            e["name"] == "process_name" and e["args"]["name"] == "bench"
            for e in meta
        )

    def test_validator_rejects_unbalanced(self):
        timeline = self._timeline()
        unbalanced = [e for e in timeline if e["ph"] == "B"]
        problems = validate_chrome_trace(chrome_trace(unbalanced))
        assert any("unclosed" in p for p in problems)

    def test_timeline_absent_without_flag(self):
        with telemetry_scope() as registry:
            with registry.span("s"):
                pass
        assert registry.timeline is None
        assert "timeline" not in registry.to_dict()

    def test_timeline_from_snapshot_nesting(self):
        with telemetry_scope(timeline=True) as registry:
            with registry.span("s"):
                pass
        payload = registry.to_dict()
        assert timeline_from_snapshot(payload) == payload["timeline"]
        assert (
            timeline_from_snapshot({"telemetry": payload})
            == payload["timeline"]
        )
        assert timeline_from_snapshot({"telemetry": {}}) is None


# ----------------------------------------------------------------------
# CLI surfaces and exit codes
# ----------------------------------------------------------------------

class TestTraceCli:
    def _dump(self, tmp_path, name, graph_seed=7, detail=False):
        path = tmp_path / name
        _write_jsonl(
            str(path),
            _trace_run(seed=2, graph_seed=graph_seed, detail=detail),
        )
        return str(path)

    def test_diff_identical_exits_zero(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.jsonl")
        b = self._dump(tmp_path, "b.jsonl")
        assert main(["trace", "diff", a, b]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_divergent_exits_one_with_json(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.jsonl")
        b = self._dump(tmp_path, "b.jsonl", graph_seed=8)
        assert main(["trace", "diff", a, b, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "repro-trace-diff"
        assert report["identical"] is False
        assert report["divergence"]["round"] == 1
        assert report["divergence"]["field"]

    def test_diff_names_the_histogram_bucket(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.jsonl")
        records = load_trace_jsonl(a)
        # Same totals, one message moved to a new size bucket.
        hist = records[0]["message_bits_histogram"]
        size = max(int(k) for k in hist)
        hist[str(size)] -= 1
        hist[str(size + 1)] = 1
        b = str(tmp_path / "b.jsonl")
        _write_jsonl(b, records)
        assert main(["trace", "diff", a, b, "--json"]) == 1
        divergence = json.loads(capsys.readouterr().out)["divergence"]
        assert divergence["field"] == f"message_bits_histogram[{size}]"
        assert divergence["round"] == records[0]["round"]

    def test_diff_missing_file_exits_two(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.jsonl")
        assert main(["trace", "diff", a, str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot load trace" in capsys.readouterr().err

    def test_diff_corrupt_file_exits_two(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", "diff", a, str(bad)]) == 2
        assert "cannot load trace" in capsys.readouterr().err

    def test_explain_renders_provenance(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.jsonl", detail=True)
        assert main(
            ["trace", "explain", a, "--vertex", "3", "--round", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "vertex 3" in out
        assert "inbound" in out

    def test_explain_json(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.jsonl", detail=True)
        assert main(
            ["trace", "explain", a, "--vertex", "3", "--round", "1",
             "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["vertex"] == "3"
        assert report["found"] is True

    def test_explain_without_detail_exits_two(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.jsonl")
        assert main(
            ["trace", "explain", a, "--vertex", "3", "--round", "1"]
        ) == 2
        assert "trace-detail" in capsys.readouterr().err


class TestCliTracePathErrors:
    def test_bench_unwritable_trace_path_exits_two(self, tmp_path, capsys):
        code = main([
            "bench", "--suite", "E11", "--limit", "1",
            "--trace", str(tmp_path / "missing" / "t.jsonl"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid trace path" in err
        assert "Traceback" not in err

    def test_faults_unwritable_trace_path_exits_two(self, capsys, tmp_path):
        code = main([
            "faults", "--family", "cycle", "--n", "8",
            "--trace", str(tmp_path / "missing" / "t.jsonl"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid trace path" in err
        assert "Traceback" not in err

    def test_bench_trace_detail_requires_trace(self, tmp_path, capsys):
        code = main([
            "bench", "--suite", "E11", "--limit", "1", "--trace-detail",
        ])
        assert code == 2
        assert "--trace-detail requires" in capsys.readouterr().err

    def test_bench_timeline_requires_telemetry(self, tmp_path, capsys):
        code = main([
            "bench", "--suite", "E11", "--limit", "1", "--timeline",
        ])
        assert code == 2
        assert "--timeline requires" in capsys.readouterr().err


class TestBenchObservabilityPipeline:
    def test_detail_trace_and_chrome_export(self, tmp_path, capsys):
        trace = tmp_path / "bench.jsonl"
        snapshot = tmp_path / "snap.json"
        code = main([
            "bench", "--suite", "E11", "--limit", "1",
            "--trace", str(trace), "--trace-detail",
            "--telemetry", str(snapshot), "--timeline",
        ])
        assert code == 0
        capsys.readouterr()

        records = load_trace_jsonl(str(trace))
        assert any(r.get("events") for r in records)
        assert diff_traces(records, records) is None

        assert main(["obs", "export", str(snapshot)]) == 0
        out_path = capsys.readouterr().out.strip()
        assert out_path.endswith(".trace.json")
        with open(out_path) as handle:
            data = json.load(handle)
        assert validate_chrome_trace(data) == []
        assert any(
            e["ph"] == "B" and e["name"].startswith("cell:")
            for e in data["traceEvents"]
        )

    def test_export_without_timeline_exits_two(self, tmp_path, capsys):
        snapshot = tmp_path / "snap.json"
        code = main([
            "bench", "--suite", "E11", "--limit", "1",
            "--telemetry", str(snapshot),
        ])
        assert code == 0
        capsys.readouterr()
        assert main(["obs", "export", str(snapshot)]) == 2
        assert "no timeline events" in capsys.readouterr().err

    def test_obs_diff_json(self, tmp_path, capsys):
        snapshot = tmp_path / "snap.json"
        code = main([
            "bench", "--suite", "E11", "--limit", "1",
            "--telemetry", str(snapshot),
        ])
        assert code == 0
        capsys.readouterr()
        assert main([
            "obs", "diff", str(snapshot), str(snapshot), "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "repro-obs-diff"
        assert report["ok"] is True
        assert report["budget"] == 1.25
        assert report["regressions"] == []
