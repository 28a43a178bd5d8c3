"""One measured process of the benchmark; started by ``run.py``.

Modes:

* ``--probe``: import, generate the inputs, run one warm-up op, report
  the set-up time and exit.  ``run.py`` starts a few of these so that
  ``setup_s`` is a median.
* default (``--trace 0``): set up, then run the op list back to back
  with tracing off until ``--seconds`` have passed; report the wall
  time of every pass of the op list.
* ``--trace 1``: set up with the layer wrappers installed (which times
  input generation), then alternate untraced and traced passes; report
  the per-layer metrics of the traced passes, and write the spans as
  Chrome trace-event JSON under ``perfbench/out/``.

The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before NumPy loads: with OpenBLAS's default
# pool, wall time swings by a third between runs and CPU time exceeds
# wall time, so a later parallelism change could not be judged.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

from repro.obs.registry import telemetry_scope  # noqa: E402
from tracer import Tracer, layer_metrics, layer_table  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
DIGESTS_PATH = os.path.join(HERE, "digests.json")


def load_pinned(size: str, workload: str, seed: int) -> Optional[List[str]]:
    """Digests pinned for this (size, workload, seed), if any."""
    with open(DIGESTS_PATH) as handle:
        table = json.load(handle)
    return table.get(size, {}).get(workload, {}).get(str(seed))


#: Seconds the calibration loop takes on the reference host (a 2-vCPU
#: VM with Python 3.11); wall times are rescaled to that host's speed.
CALIBRATION_REF_S = 0.0093


def calibration_s() -> float:
    """Time a fixed stdlib-only loop of dict, sort and heap work.

    It uses no code of the program under test, so a change to the
    program cannot move it; it moves only with the host's speed.
    """
    start = time.perf_counter()
    table = {i: (i * 7919) % 10007 for i in range(20000)}
    ranked = sorted(table.items(), key=lambda item: item[1])
    heap: List[Tuple[int, int]] = []
    for key, value in ranked[:8000]:
        heapq.heappush(heap, (value, key))
    return time.perf_counter() - start


def host_slowdown() -> float:
    """The host's current slowdown against the reference host."""
    return statistics.median(calibration_s() for _ in range(3)) / CALIBRATION_REF_S


class Runner:
    """Runs a workload's ops and checks each output as it completes.

    The host this runs on changes speed by up to a third within
    seconds, and two timings of the same op correlate at about 0.7 with
    a stdlib loop timed beside them.  So each op is bracketed by
    calibration loops, and its wall time is divided by the host's
    slowdown measured there (see ``README.md``).
    """

    def __init__(self, workload, pinned: Optional[List[str]]) -> None:
        self.workload = workload
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        #: First digest seen per op in this process: later passes must
        #: repeat it (determinism), traced passes included.
        self.seen: Dict[int, str] = {}
        #: Process CPU seconds spent inside ops (all threads).
        self.cpu_s = 0.0

    def run_op(self, index: int, around=nullcontext
               ) -> Tuple[Optional[Tuple[float, float]], Optional[str]]:
        """Run and check one op: (raw wall seconds, host slowdown) and
        the output digest, both None if the op raised.  A failed check
        is counted in ``failed``.  ``around()`` is entered for the
        library call only, not for the calibration or the check."""
        op = self.workload.ops[index]
        self.attempted += 1
        before = host_slowdown()
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            with around():
                out = op.run()
            elapsed = time.perf_counter() - start
            self.cpu_s += time.process_time() - cpu_start
            timing = (elapsed, (before + host_slowdown()) / 2)
            value, problems = op.check(out)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None, None
        op_digest = digest(value)
        if op_digest != self.seen.setdefault(index, op_digest):
            problems.append("digest differs from this op's earlier run")
        if self.pinned is not None and op_digest != self.pinned[index]:
            problems.append("digest differs from the pinned digest")
        if problems:
            print(f"op {op.name} failed: {problems}", file=sys.stderr)
            self.failed += 1
        return timing, op_digest

    def run_pass(self, around=nullcontext
                 ) -> Tuple[List[Optional[Tuple[float, float]]],
                            List[Optional[str]]]:
        """The whole op list: per-op timings and digests, as run_op."""
        timings, digests = zip(*(
            self.run_op(index, around)
            for index in range(len(self.workload.ops))
        ))
        return list(timings), list(digests)


def host_stamp(args) -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "process_threads": len(os.listdir("/proc/self/task")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
    }


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (VmHWM) from the current RSS."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the mark then covers the whole process; still a peak


def peak_rss_mb() -> float:
    """Peak resident MiB since the last reset_peak_rss()."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_list_wall_s(passes: List[List[Optional[Tuple[float, float]]]]) -> float:
    """Wall seconds of the op list on the reference host: the sum over
    ops of each op's median rescaled time across passes."""
    total = 0.0
    for column in zip(*passes):
        times = [raw / slowdown for raw, slowdown in filter(None, column)]
        if not times:
            raise ValueError("an op failed in every pass")
        total += statistics.median(times)
    return total


def measure(runner: Runner, seconds: float) -> Dict[str, Any]:
    """Untraced passes back to back until ``seconds`` have passed.

    The process's peak RSS is taken per pass (the mark is reset before
    each) and reported as the median: the peak over a whole process
    wandered by 6% between runs of one seed, with allocator state.
    """
    passes: List[List[Optional[Tuple[float, float]]]] = []
    peaks: List[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not passes:
        reset_peak_rss()
        timings, _ = runner.run_pass()
        peaks.append(peak_rss_mb())
        passes.append(timings)
    return {
        "wall_s": op_list_wall_s(passes),
        "peak_rss_mb": statistics.median(peaks),
        "pass_peak_rss_mb": peaks,
        "op_timings": passes,
    }


def traced(runner: Runner, tracer: Tracer, seconds: float) -> Dict[str, Any]:
    """Alternate untraced and traced passes; per-layer medians."""
    untraced: List[List[Optional[Tuple[float, float]]]] = []
    traced_passes: List[List[Optional[Tuple[float, float]]]] = []
    cpus: List[float] = []
    per_pass: List[Dict[str, float]] = []
    digests_equal = True
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not per_pass:
        cpu_before = runner.cpu_s
        timings, plain_digests = runner.run_pass()
        cpus.append(runner.cpu_s - cpu_before)
        untraced.append(timings)
        tracer.reset()
        with telemetry_scope() as registry:
            tracer.registry = registry
            timings, traced_digests = runner.run_pass(tracer.installed)
        traced_passes.append(timings)
        if traced_digests != plain_digests or None in traced_digests:
            digests_equal = False
        if None not in timings:
            raw_wall_s = sum(raw for raw, _slowdown in timings)
            per_pass.append(layer_metrics(tracer, registry, raw_wall_s))
        elif not per_pass and time.perf_counter() >= deadline:
            raise RuntimeError("no traced pass completed")
    metrics = {
        name: statistics.median(p[name] for p in per_pass)
        for name in per_pass[0]
    }
    metrics["trace.overhead_frac"] = (
        op_list_wall_s(traced_passes) / op_list_wall_s(untraced) - 1
    )
    metrics["process.cpu_s"] = statistics.median(cpus)
    metrics["trace.digests_equal"] = 1 if digests_equal else 0
    return {
        "metrics": metrics,
        "untraced_timings": untraced,
        "traced_timings": traced_passes,
        "layers": layer_table(tracer),
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    size: str = "full",
    probe: bool = False,
    t0_ns: Optional[int] = None,
    pinned: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Set up ``workload`` and measure it; the result dict for run.py.

    ``pinned`` is the list of expected per-op digests (see
    :func:`load_pinned`); with ``None`` only the paper's guarantees and
    run-to-run determinism are checked.
    """
    if t0_ns is None:
        t0_ns = time.time_ns()
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        tracer = Tracer() if trace else None
        if tracer is not None:
            # Installed while the inputs are generated, to time the
            # generators layer.
            with tracer.installed():
                inputs = WORKLOADS[workload](seed, size, workdir)
            generators_s = tracer.stats["generators"].ns / 1e9
        else:
            inputs = WORKLOADS[workload](seed, size, workdir)
        runner = Runner(inputs, pinned)
        timing, _ = runner.run_op(0)  # warm-up
        setup_raw_s = (time.time_ns() - t0_ns) / 1e9
        slowdown = timing[1] if timing is not None else host_slowdown()
        result: Dict[str, Any] = {
            "setup_s": setup_raw_s / slowdown,
            "setup_raw_s": setup_raw_s,
        }
        if tracer is not None:
            result.update(traced(runner, tracer, seconds))
            result["metrics"]["generators.s"] = generators_s
            path = os.path.join(
                OUT_DIR, f"{workload}-{size}-seed{seed}.trace.json"
            )
            with open(path, "w") as handle:
                json.dump(tracer.chrome(), handle)
            result["chrome_trace"] = path
        elif not probe:
            result.update(measure(runner, seconds))
        result.update({"attempted": runner.attempted, "failed": runner.failed})
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument(
        "--t0-ns", type=int, default=None,
        help="epoch ns at which run.py started this process",
    )
    args = parser.parse_args(argv)
    result = run_workload(
        args.workload, args.seed, args.seconds, trace=bool(args.trace),
        size=args.size, probe=args.probe, t0_ns=args.t0_ns,
        pinned=load_pinned(args.size, args.workload, args.seed),
    )
    result["stamp"] = host_stamp(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
