"""Serial and process-parallel execution of suite cell grids.

``run_suite`` fans the cells of one suite out across a
``ProcessPoolExecutor`` (``--jobs N``) or runs them inline
(``jobs <= 1``).  Both paths execute the *same* per-cell code
(:func:`repro.runner.suites.execute_cell`) on the *same* statically
seeded cell list and merge results in grid order, so the assembled
table is byte-identical no matter the job count — the differential
guarantee ``tests/test_runner.py`` locks in.

Spawn safety: every task argument is a primitive value and the task
function is a module-level name, so the pool works identically under
the ``spawn`` start method (workers import ``repro`` fresh, nothing
inherited) — the differential tests exercise spawn explicitly.  The
*default* start method prefers ``fork`` where the platform offers it,
because spawning a worker re-imports numpy/scipy (~0.5 s each) and
that fixed cost would swamp sub-second suite grids.

A cell that raises ends the run with that cell's exception, on both
paths.  Every cell is a statically seeded pure function of its grid,
so a retry could only repeat the failure.  A killed or failed run is
rerun, and the rerun computes every cell again.

The parallel path keeps at most ``jobs`` cells in flight on a plain
``ProcessPoolExecutor``, so every submitted cell is running: a failure
or ``Ctrl-C`` waits only for the cells already running before it
propagates.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs import TelemetryRegistry
from .cells import CellResult
from .suites import SUITES, execute_cell


def default_start_method() -> str:
    """``fork`` where available (cheap workers), else ``spawn``."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def _result_stalled(result: CellResult) -> bool:
    """Did this cell's graded verdict say the algorithm stalled?"""
    return (
        isinstance(result.extra, dict)
        and isinstance(result.extra.get("verdict"), dict)
        and result.extra["verdict"].get("status") == "stalled"
    )


@dataclass
class SuiteRun:
    """The merged outcome of one suite execution."""

    name: str
    jobs: int
    results: List[CellResult] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def spec(self):
        return SUITES[self.name]

    def table(self):
        return self.spec.assemble_table(self.results)

    def render_table(self) -> str:
        return self.table().render()

    def merged_telemetry(self) -> Dict[str, object]:
        """Fold every cell's telemetry payload, in grid order.

        The fold is associative and commutative (see
        :meth:`TelemetryRegistry.merge_dict`), and grid order also pins
        the order of the payload's keys, so serial and sharded runs
        merge to the same payload.
        """
        registry = TelemetryRegistry()
        for result in sorted(self.results, key=lambda r: r.index):
            if result.telemetry:
                registry.merge_dict(result.telemetry)
        return registry.to_dict()

    def trace_lines(self) -> List[str]:
        lines: List[str] = []
        for result in sorted(self.results, key=lambda r: r.index):
            lines.extend(result.trace_lines)
        return lines

    def compute_seconds(self) -> float:
        return sum(r.elapsed for r in self.results)

    def stalled_cells(self) -> int:
        """Cells whose graded verdict is ``stalled`` (see
        :mod:`repro.resilience.validators`); 0 for suites that attach
        no verdicts."""
        return sum(1 for r in self.results if _result_stalled(r))

    def footer(self) -> str:
        """One status line summarizing the cells that need attention.

        A pure function of the merged results, so serial and sharded
        runs of the same grid render the identical footer.
        """
        return (
            f"{self.name}: {len(self.results)} cell(s), "
            f"{self.stalled_cells()} stalled"
        )

    def summary(self) -> Dict[str, object]:
        return {
            "suite": self.name,
            "cells": len(self.results),
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 4),
            "compute_seconds": round(self.compute_seconds(), 4),
            "stalled": self.stalled_cells(),
        }


def run_suite(
    name: str,
    jobs: int = 1,
    mp_start: Optional[str] = None,
    limit: Optional[int] = None,
    trace: bool = False,
    telemetry: bool = False,
    trace_detail: bool = False,
    timeline: bool = False,
) -> SuiteRun:
    """Execute every cell of suite ``name`` and merge deterministically.

    ``jobs <= 1`` runs inline (no subprocesses); ``jobs > 1`` shards the
    cells across a process pool started with ``mp_start`` (default:
    :func:`default_start_method`).  ``limit`` truncates the grid to its
    first ``limit`` cells (suites order cells smallest-first precisely
    so this is a cheap smoke slice).  Results always come back sorted
    by cell index, never by completion order.  A cell that raises ends
    the run with its exception.

    ``telemetry`` runs every cell inside its own telemetry scope (see
    :mod:`repro.obs`); :meth:`SuiteRun.merged_telemetry` folds the
    per-cell payloads back together in grid order.

    ``trace_detail`` upgrades tracing to per-message event provenance
    (trace schema v5); ``timeline`` upgrades telemetry to capture span
    begin/end events for Chrome/Perfetto export.  Either implies its
    base flag.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r} (known: {sorted(SUITES)})")
    trace = trace or trace_detail
    telemetry = telemetry or timeline
    indices = [cell.index for cell in SUITES[name].cells()]
    if limit is not None:
        indices = indices[:max(0, limit)]

    start = time.perf_counter()
    if jobs <= 1 or len(indices) <= 1:
        effective_jobs = 1
        results = [
            execute_cell(
                name, i, trace=trace, telemetry=telemetry,
                trace_detail=trace_detail, timeline=timeline,
            )
            for i in indices
        ]
    else:
        effective_jobs = min(jobs, len(indices))
        results = _run_parallel(
            name, indices, (trace, telemetry, trace_detail, timeline),
            effective_jobs,
            multiprocessing.get_context(mp_start or default_start_method()),
        )
    results.sort(key=lambda r: r.index)
    return SuiteRun(
        name=name,
        jobs=effective_jobs,
        results=results,
        wall_seconds=time.perf_counter() - start,
    )


def _run_parallel(
    name: str,
    indices: List[int],
    flags: Tuple[bool, bool, bool, bool],
    jobs: int,
    context,
) -> List[CellResult]:
    """Run ``indices`` on ``jobs`` workers, at most ``jobs`` in flight.

    With ``max_workers=jobs``, a cell is submitted only when a worker
    is free to take it, so every submitted cell is running.  The first
    cell to raise propagates out of the ``with`` block, which waits
    only for the cells still running.
    """
    queue = list(reversed(indices))  # pop() takes grid order
    in_flight = set()
    results: List[CellResult] = []
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        while queue or in_flight:
            while queue and len(in_flight) < jobs:
                in_flight.add(
                    pool.submit(execute_cell, name, queue.pop(), *flags)
                )
            done, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
            results.extend(future.result() for future in done)
    return results
