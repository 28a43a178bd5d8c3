"""Serial and process-parallel execution of suite cell grids.

``run_suite`` fans the cells of one suite out across a
``ProcessPoolExecutor`` (``--jobs N``) or runs them inline
(``jobs <= 1``).  Both paths execute the *same* per-cell code
(:func:`repro.runner.suites.execute_cell`) on the *same* statically
seeded cell list and merge results in grid order, so the assembled
table is byte-identical no matter the job count — the differential
guarantee ``tests/test_runner.py`` locks in.

Spawn safety: every task argument is a primitive tuple and every task
function is a module-level name, so the pool works identically under
the ``spawn`` start method (workers import ``repro`` fresh, nothing
inherited) — the differential tests exercise spawn explicitly.  The
*default* start method prefers ``fork`` where the platform offers it,
because spawning a worker re-imports numpy/scipy (~0.5 s each) and
that fixed cost would swamp sub-second suite grids.

A cell that raises ends the run with that cell's exception, on both
paths.  Every cell is a statically seeded pure function of its grid,
so a retry could only repeat the failure.  Cells that landed before it
stay in the journal (``journal=``), and a resume computes the rest.

The parallel path keeps at most ``jobs`` cells in flight on a plain
``ProcessPoolExecutor``, so every submitted cell is running: a failure
or ``Ctrl-C`` waits only for the cells already running before it
propagates.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..cache import ArtifactCache, CacheStats, activate
from ..congest import CongestMetrics
from ..obs import TelemetryRegistry
from .cells import CellResult
from .journal import SuiteJournal, default_journal_path, run_fingerprint
from .progress import PROGRESS_SCHEMA_VERSION, ProgressLog
from .suites import SUITES, execute_cell

#: Worker-process-global cache, installed by the pool initializer so the
#: in-memory tier persists across the cells one worker executes.
_WORKER_CACHE: Optional[ArtifactCache] = None


def _worker_init(cache_root: Optional[str], use_cache: bool,
                 memory_items: int) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = (
        ArtifactCache(root=cache_root, memory_items=memory_items)
        if use_cache else None
    )


def _worker_run_cell(args) -> CellResult:
    suite_name, index, trace, telemetry, trace_detail, timeline = args
    with activate(_WORKER_CACHE):
        return execute_cell(
            suite_name, index, trace=trace, telemetry=telemetry,
            trace_detail=trace_detail, timeline=timeline,
        )


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
    use_cache: bool
    results: List[CellResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Path of the write-ahead journal used, if any.
    journal_path: Optional[str] = None
    #: Journal lines skipped as unparseable during a resumed run.
    journal_corrupt_lines: int = 0

    @property
    def spec(self):
        return SUITES[self.name]

    def table(self):
        return self.spec.assemble_table(self.results)

    def render_table(self) -> str:
        return self.table().render()

    def merged_metrics(self) -> CongestMetrics:
        """Parallel-compose the CONGEST metrics of all simulated cells."""
        return CongestMetrics.merge_parallel(
            CongestMetrics.from_dict(r.metrics)
            for r in self.results if r.metrics is not None
        )

    def cache_stats(self) -> Dict[str, int]:
        stats = CacheStats()
        for result in self.results:
            stats.add(result.cache)
        return stats.as_dict()

    def merged_telemetry(self) -> Dict[str, object]:
        """Fold every cell's telemetry payload, in grid order.

        The fold is associative and commutative in everything except
        gauges (see :meth:`TelemetryRegistry.merge_dict`), and grid
        order pins the gauge tiebreak, so serial and sharded runs
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

    def replayed_cells(self) -> int:
        """Cells satisfied from the journal rather than computed."""
        return sum(1 for r in self.results if r.replayed)

    def stalled_cells(self) -> int:
        """Cells whose graded verdict is ``stalled`` (see
        :mod:`repro.resilience.validators`); 0 for suites that attach
        no verdicts."""
        return sum(1 for r in self.results if _result_stalled(r))

    def footer(self) -> str:
        """One status line summarizing the cells that need attention.

        A pure function of the merged results (journal replays included
        carry their verdicts), so serial, sharded, and resumed runs of
        the same grid render the identical footer.  Journal corruption
        is appended only when present: a clean run's footer is
        byte-identical whether or not it was journaled, and every
        skipped line is loud in the output rather than buried in a
        counter.
        """
        line = (
            f"{self.name}: {len(self.results)} cell(s), "
            f"{self.stalled_cells()} stalled"
        )
        if self.journal_corrupt_lines:
            line += (
                f", {self.journal_corrupt_lines} corrupt journal "
                "line(s) skipped"
            )
        return line

    def summary(self) -> Dict[str, object]:
        stats = self.cache_stats()
        return {
            "suite": self.name,
            "cells": len(self.results),
            "jobs": self.jobs,
            "cache": stats,
            "wall_seconds": round(self.wall_seconds, 4),
            "compute_seconds": round(self.compute_seconds(), 4),
            "replayed": self.replayed_cells(),
            "stalled": self.stalled_cells(),
            "journal_corrupt_lines": self.journal_corrupt_lines,
        }


def run_suite(
    name: str,
    jobs: int = 1,
    use_cache: bool = True,
    cache_root: Optional[str] = None,
    memory_items: int = 256,
    mp_start: Optional[str] = None,
    limit: Optional[int] = None,
    trace: bool = False,
    telemetry: bool = False,
    journal: Optional[str] = None,
    resume: bool = False,
    trace_detail: bool = False,
    timeline: bool = False,
    progress: Optional[object] = None,
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

    ``journal`` names a write-ahead log (see :mod:`repro.runner
    .journal`): every completed cell is durably appended as it lands,
    so a killed or failed run can be finished later with
    ``resume=True``, which replays journaled cells instead of
    recomputing them.  ``resume`` with no explicit ``journal`` uses
    :func:`default_journal_path` under the cache root.  Replayed and
    recomputed cells merge into the same grid-ordered table,
    byte-identical to an uninterrupted run.

    ``trace_detail`` upgrades tracing to per-message event provenance
    (trace schema v5); ``timeline`` upgrades telemetry to capture span
    begin/end events for Chrome/Perfetto export.  Either implies its
    base flag.  ``progress`` names a heartbeat JSONL file (or passes an
    open :class:`~repro.runner.progress.ProgressLog`, so one file can
    span several suites): the executor emits flushed lifecycle events
    — suite and cell started/finished — that ``repro trace tail``
    follows live.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r} (known: {sorted(SUITES)})")
    trace = trace or trace_detail
    telemetry = telemetry or timeline
    own_progress = isinstance(progress, (str, os.PathLike))
    plog: Optional[ProgressLog] = (
        ProgressLog(progress) if own_progress else progress  # type: ignore[arg-type]
    )
    cells = SUITES[name].cells()
    if limit is not None:
        cells = cells[:max(0, limit)]
    labels = {cell.index: cell.label for cell in cells}
    indices = [cell.index for cell in cells]

    if journal is None and resume:
        journal = default_journal_path(name, cache_root)
    wal: Optional[SuiteJournal] = None
    replayed: Dict[int, CellResult] = {}
    if journal is not None:
        wal = SuiteJournal.open(
            journal,
            run_fingerprint(
                name, limit, trace, telemetry,
                trace_detail=trace_detail, timeline=timeline,
            ),
            resume=resume,
        )
        # Journaled cells outside the current grid (e.g. a larger
        # earlier --limit) stay in the journal but not in this table.
        replayed = {
            i: r for i, r in wal.completed.items() if i in labels
        }
    pending = [i for i in indices if i not in replayed]
    if plog is not None:
        plog.emit(
            "suite_started",
            schema=PROGRESS_SCHEMA_VERSION,
            suite=name,
            cells=len(indices),
            pending=len(pending),
            replayed=len(replayed),
            jobs=jobs,
        )

    results: List[CellResult] = []

    def started(index: int) -> None:
        if plog is not None:
            plog.emit(
                "cell_started", suite=name, index=index, label=labels[index],
            )

    def landed(result: CellResult) -> None:
        results.append(result)
        if wal is not None:
            wal.record(result)
        if plog is not None:
            plog.emit(
                "cell_finished", suite=name, index=result.index,
                label=result.label, elapsed=round(result.elapsed, 4),
                stalled=_result_stalled(result),
            )

    start = time.perf_counter()
    try:
        if jobs <= 1 or len(pending) <= 1:
            effective_jobs = 1
            cache = (
                ArtifactCache(root=cache_root, memory_items=memory_items)
                if use_cache else None
            )
            with activate(cache):
                for i in pending:
                    started(i)
                    landed(execute_cell(
                        name, i, trace=trace, telemetry=telemetry,
                        trace_detail=trace_detail, timeline=timeline,
                    ))
        else:
            effective_jobs = min(jobs, len(pending))
            _run_parallel(
                name, pending, (trace, telemetry, trace_detail, timeline),
                effective_jobs,
                multiprocessing.get_context(
                    mp_start or default_start_method()
                ),
                (cache_root, use_cache, memory_items),
                started, landed,
            )
        wall = time.perf_counter() - start
        results.extend(replayed.values())
        results.sort(key=lambda r: r.index)
        run = SuiteRun(
            name=name,
            jobs=effective_jobs,
            use_cache=use_cache,
            results=results,
            wall_seconds=wall,
            journal_path=journal,
            journal_corrupt_lines=wal.corrupt_lines if wal is not None else 0,
        )
        if plog is not None:
            plog.emit(
                "suite_finished",
                suite=name,
                cells=len(results),
                stalled=run.stalled_cells(),
                wall_seconds=round(wall, 3),
            )
    finally:
        if wal is not None:
            wal.close()
        if own_progress:
            plog.close()
    return run


def _run_parallel(
    name: str,
    indices: List[int],
    flags: Tuple[bool, bool, bool, bool],
    jobs: int,
    context,
    initargs: Tuple[Optional[str], bool, int],
    started: Callable[[int], None],
    landed: Callable[[CellResult], None],
) -> None:
    """Run ``indices`` on ``jobs`` workers, at most ``jobs`` in flight.

    ``started`` fires as a cell is submitted, which with
    ``max_workers=jobs`` is when a worker takes it; ``landed`` fires as
    its result arrives.  The first cell to raise propagates out of the
    ``with`` block, which waits only for the cells still running.
    """
    queue = list(reversed(indices))  # pop() takes grid order
    in_flight = set()
    with ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=context,
        initializer=_worker_init,
        initargs=initargs,
    ) as pool:
        while queue or in_flight:
            while queue and len(in_flight) < jobs:
                index = queue.pop()
                in_flight.add(
                    pool.submit(_worker_run_cell, (name, index) + flags)
                )
                started(index)
            done, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
            # Land the successes of this batch before raising a failure
            # from it, so every finished cell reaches the journal.
            for future in sorted(done, key=lambda f: f.exception() is not None):
                landed(future.result())
