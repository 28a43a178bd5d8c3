"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload framework --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload framework --seed 1 --seconds 25 --trace 1

``--trace 0`` prints the ``end_to_end`` metrics of ``BENCHMARK.json``,
``--trace 1`` its ``per_layer`` metrics, each by name with its unit.
The last stdout line is the JSON result; the line before it stamps the
host.  A full report, and for the traced run a Chrome trace-event file,
land in ``perfbench/out/``.

The measured work runs in child processes (``worker.py``) that pin the
BLAS/OpenMP pools to one thread.  ``setup_s`` is the median over
``SETUP_SAMPLES`` fresh processes, each timed from its start to the end
of its warm-up op.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("framework", "protocols", "adversity")
#: Fresh processes timed for setup_s (the measuring process included).
SETUP_SAMPLES = 3
#: Every child must finish within this many seconds of our start.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = {
        k: v for k, v in os.environ.items()
        # The library reads REPRO_* switches (kernels, batching, disk
        # faults); the benchmark measures its defaults.
        if not k.startswith("REPRO_")
    }
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def spawn(args, deadline: float, extra) -> dict:
    """Run one worker to completion and parse its JSON line."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--t0-ns", str(time.time_ns()),
    ] + extra
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=worker_env(), text=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the time budget")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics this run must print."""
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny runs the same ops on small inputs (the benchmark's tests)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print(
            "perfbench: run from the root of a repro checkout "
            "(src/repro not found)",
            file=sys.stderr,
        )
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        units = metric_units(args.trace)
        if args.trace:
            runs = [spawn(args, deadline, [])]
        else:
            runs = [
                spawn(args, deadline, ["--probe"])
                for _ in range(SETUP_SAMPLES - 1)
            ]
            runs.append(spawn(args, deadline, []))
        main_run = runs[-1]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        if args.trace:
            metrics = dict(main_run["metrics"])
            metrics["ops_failed_frac"] = failed / attempted
        else:
            metrics = {
                "wall_s": main_run["wall_s"],
                "setup_s": statistics.median(r["setup_s"] for r in runs),
                "peak_rss_mb": main_run["peak_rss_mb"],
                "ops_ok_frac": 1.0 - failed / attempted,
            }
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w") as handle:
        json.dump(dict(result, runs=runs), handle, indent=1)
    print("stamp " + json.dumps(main_run["stamp"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
