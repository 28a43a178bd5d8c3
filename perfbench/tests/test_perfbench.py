"""The benchmark's own tests, on tiny inputs.

Run from the root of the repository::

    python -m pytest perfbench/tests -q

They run ``perfbench/run.py`` the way a benchmark harness does (one
untraced and one traced run per workload), then check the result lines,
the traced run's layer table and Chrome trace, and the predicted zeros.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

WORKLOADS = ("framework", "protocols", "adversity")

#: Span names each workload must call, per the layer table of the
#: benchmark's README; a wrapper patched on the wrong module records
#: zero calls and fails here.
EXPECTED_LAYERS = {
    "framework": (
        "core.framework", "decomposition.expander",
        "spectral.eigensolve", "spectral.sweep_cut",
        "spectral.exact_conductance", "spectral.mixing_bound",
        "graph.subgraph", "core.failure", "routing.gather",
        "routing.leader", "routing.orientation", "routing.walk_exchange",
        "congest.init", "congest.run",
    ),
    "protocols": (
        "congest.init", "congest.run",
        "congest.kernels.step", "congest.kernels.plan_account",
    ),
    "adversity": (
        "congest.init", "congest.run", "congest.faults",
        "congest.checkpoint.capture", "congest.checkpoint.save",
        "congest.checkpoint.load", "congest.checkpoint.resume",
        "storage.write", "storage.read",
    ),
}

#: Per-layer metrics the README predicts to be exactly zero.
PREDICTED_ZEROS = {
    "framework": (
        "congest.kernels.engaged", "congest.faults.decisions",
        "congest.checkpoint.capture.s", "storage.writes",
    ),
    "protocols": (
        "congest.faults.decisions", "congest.checkpoint.capture.s",
        "storage.writes", "routing.walk_exchange.s",
        "decomposition.expander.s",
    ),
    "adversity": (
        "congest.kernels.engaged", "routing.walk_exchange.s",
        "decomposition.expander.s",
    ),
}


def run_bench(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [
            sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", "1",
            "--seconds", str(seconds), "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def results():
    """(workload, trace) -> (printed result, full report)."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            report_path = os.path.join(
                BENCH, "out", f"{workload}-tiny-seed1-trace{trace}.json"
            )
            with open(report_path) as handle:
                out[workload, trace] = (result, json.load(handle))
    return out


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(results, workload, trace):
    result, _report = results[workload, trace]
    section = spec()["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in section}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        for name in ("wall_s", "setup_s", "peak_rss_mb", "ops_ok_frac"):
            assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_expected_layers_record_calls(results, workload):
    _result, report = results[workload, 1]
    calls = {row["layer"]: row["calls"] for row in report["runs"][-1]["layers"]}
    missing = [name for name in EXPECTED_LAYERS[workload] if not calls.get(name)]
    assert not missing, f"no calls recorded for {missing}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_predicted_zeros_and_trace_quality(results, workload):
    result, _report = results[workload, 1]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in PREDICTED_ZEROS[workload]:
        assert metrics[name] == 0, name
    assert metrics["trace.digests_equal"] == 1
    assert metrics["ops_failed_frac"] == 0
    assert metrics["trace.unattributed_frac"] < 0.1
    assert metrics["generators.s"] > 0
    if workload == "protocols":
        assert metrics["congest.kernels.engaged"] > 0
    if workload == "adversity":
        assert metrics["congest.faults.decisions"] > 0
        assert metrics["congest.kernels.fallback"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_chrome_trace_is_valid(results, workload):
    from repro.obs.timeline import validate_chrome_trace

    path = os.path.join(BENCH, "out", f"{workload}-tiny-seed1.trace.json")
    with open(path) as handle:
        data = json.load(handle)
    assert validate_chrome_trace(data) == []
    names = {e["name"] for e in data["traceEvents"] if e["ph"] == "B"}
    assert "congest.run" in names


def test_perturbed_pinned_digest_counts_as_failed_op():
    import worker

    pinned = worker.load_pinned("tiny", "protocols", 1)
    assert pinned is not None
    clean = worker.run_workload(
        "protocols", 1, 0.0, size="tiny", pinned=pinned
    )
    assert clean["failed"] == 0
    perturbed = list(pinned)
    perturbed[1] = "0" * len(perturbed[1])
    result = worker.run_workload(
        "protocols", 1, 0.0, size="tiny", pinned=perturbed
    )
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = run_bench(str(tmp_path), "framework", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
