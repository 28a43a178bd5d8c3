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

Self-healing: long sweeps die to one bad cell far more often than to
anything else, so the parallel path is built to *absorb* cell failure
instead of aborting the suite:

* a cell that raises is retried up to ``retries`` times with a
  deterministic jittered exponential backoff;
* a cell that exceeds ``cell_timeout`` wall-clock seconds is killed
  with its (hung) worker — the pool is torn down, innocent in-flight
  cells are resubmitted without being charged an attempt, and the
  pool is rebuilt;
* a worker that dies outright (``BrokenProcessPool``) likewise
  triggers a rebuild, charging an attempt to every cell that was in
  flight (the culprit cannot be identified from the parent);
* a cell that exhausts its attempts is **quarantined**: recorded in
  ``SuiteRun.quarantined`` (and ``--stats-json``), excluded from the
  merged table, and the rest of the suite completes normally.

``Ctrl-C`` (or any other exception escaping the scheduling loop)
cancels all queued work and abandons the pool without waiting on hung
workers, so an interrupted ``repro bench`` returns to the prompt
promptly instead of leaking a process pool.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

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

#: First-retry backoff in seconds; doubles per attempt up to the cap.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0

#: How long the scheduling loop sleeps waiting for completions before
#: re-checking deadlines, in seconds.
_POLL_SECONDS = 0.05


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


def _backoff_seconds(suite: str, index: int, attempt: int) -> float:
    """Deterministic jittered exponential backoff before a retry.

    Seeding the jitter from the (suite, cell, attempt) coordinates
    keeps reruns reproducible while still de-synchronizing cells that
    failed together (e.g. all victims of one pool rebuild).
    """
    base = min(_BACKOFF_BASE * 2 ** (attempt - 1), _BACKOFF_CAP)
    jitter = random.Random(f"{suite}:{index}:{attempt}").uniform(0.5, 1.0)
    return base * jitter


def _result_stalled(result: CellResult) -> bool:
    """Did this cell's graded verdict say the algorithm stalled?"""
    return (
        isinstance(result.extra, dict)
        and isinstance(result.extra.get("verdict"), dict)
        and result.extra["verdict"].get("status") == "stalled"
    )


@dataclass
class QuarantinedCell:
    """A cell excluded from the merge after exhausting its attempts."""

    suite: str
    index: int
    label: str
    attempts: int
    reason: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "index": self.index,
            "label": self.label,
            "attempts": self.attempts,
            "reason": self.reason,
        }


@dataclass
class RecoveryStats:
    """What the self-healing machinery had to do during one run."""

    retries: int = 0        # resubmissions after a failed attempt
    timeouts: int = 0       # cells killed for exceeding cell_timeout
    pool_rebuilds: int = 0  # pools torn down (hung worker / broken pool)

    @property
    def intervened(self) -> bool:
        return bool(self.retries or self.timeouts or self.pool_rebuilds)

    def as_dict(self) -> Dict[str, int]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
        }


@dataclass
class SuiteRun:
    """The merged outcome of one suite execution."""

    name: str
    jobs: int
    use_cache: bool
    results: List[CellResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    quarantined: List[QuarantinedCell] = field(default_factory=list)
    recovery: RecoveryStats = field(default_factory=RecoveryStats)
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
            f"{len(self.quarantined)} quarantined, "
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
            "quarantined": [q.as_dict() for q in self.quarantined],
            "recovery": self.recovery.as_dict(),
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
    cell_timeout: Optional[float] = None,
    retries: int = 0,
    journal: Optional[str] = None,
    resume: bool = False,
    trace_detail: bool = False,
    timeline: bool = False,
    progress: Optional[object] = None,
) -> SuiteRun:
    """Execute every cell of suite ``name`` and merge deterministically.

    ``jobs <= 1`` runs inline (no subprocesses); ``jobs > 1`` shards the
    cells across a process pool.  ``limit`` truncates the grid to its
    first ``limit`` cells (suites order cells smallest-first precisely
    so this is a cheap smoke slice).  Results always come back sorted
    by cell index, never by completion order.

    ``telemetry`` runs every cell inside its own telemetry scope (see
    :mod:`repro.obs`); :meth:`SuiteRun.merged_telemetry` folds the
    per-cell payloads back together in grid order.

    ``retries`` grants each cell that many extra attempts after a
    failure; ``cell_timeout`` bounds one attempt's wall-clock seconds
    (parallel runs only — an inline cell cannot be interrupted from
    within its own process).  Cells that exhaust their attempts are
    quarantined rather than aborting the suite; see the module
    docstring for the full recovery policy.

    ``journal`` names a write-ahead log (see :mod:`repro.runner
    .journal`): every completed cell is durably appended as it lands,
    so a killed run can be finished later with ``resume=True``, which
    replays journaled cells instead of recomputing them.  ``resume``
    with no explicit ``journal`` uses :func:`default_journal_path`
    under the cache root.  Replayed and recomputed cells merge into
    the same grid-ordered table, byte-identical to an uninterrupted
    run; quarantined cells are never journaled, so a resume retries
    them.

    ``trace_detail`` upgrades tracing to per-message event provenance
    (trace schema v5); ``timeline`` upgrades telemetry to capture span
    begin/end events for Chrome/Perfetto export.  Either implies its
    base flag.  ``progress`` names a heartbeat JSONL file (or passes an
    open :class:`~repro.runner.progress.ProgressLog`, so one file can
    span several suites): the executor emits flushed lifecycle events
    — cell started/finished/retried/stalled/quarantined — that
    ``repro trace tail`` follows live.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r} (known: {sorted(SUITES)})")
    if retries < 0:
        raise ValueError("retries must be >= 0")
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
    quarantined: List[QuarantinedCell] = []
    recovery = RecoveryStats()
    max_attempts = 1 + retries

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

    start = time.perf_counter()
    try:
        if jobs <= 1 or len(pending) <= 1:
            cache = (
                ArtifactCache(root=cache_root, memory_items=memory_items)
                if use_cache else None
            )
            results: List[CellResult] = []
            with activate(cache):
                for i in pending:
                    attempt = 1
                    while True:
                        if plog is not None:
                            plog.emit(
                                "cell_started", suite=name, index=i,
                                label=labels[i], attempt=attempt,
                            )
                        try:
                            result = execute_cell(
                                name, i, trace=trace, telemetry=telemetry,
                                trace_detail=trace_detail, timeline=timeline,
                            )
                            result.attempts = attempt
                            results.append(result)
                            if wal is not None:
                                wal.record(result)
                            if plog is not None:
                                plog.emit(
                                    "cell_finished", suite=name, index=i,
                                    label=labels[i], attempt=attempt,
                                    elapsed=round(result.elapsed, 4),
                                    stalled=_result_stalled(result),
                                )
                            break
                        except Exception as exc:
                            reason = f"{type(exc).__name__}: {exc}"
                            if attempt >= max_attempts:
                                quarantined.append(QuarantinedCell(
                                    suite=name,
                                    index=i,
                                    label=labels[i],
                                    attempts=attempt,
                                    reason=reason,
                                ))
                                if plog is not None:
                                    plog.emit(
                                        "cell_quarantined", suite=name,
                                        index=i, label=labels[i],
                                        attempts=attempt, reason=reason,
                                    )
                                break
                            recovery.retries += 1
                            backoff = _backoff_seconds(name, i, attempt)
                            if plog is not None:
                                plog.emit(
                                    "cell_retried", suite=name, index=i,
                                    label=labels[i], attempt=attempt,
                                    reason=reason,
                                    backoff=round(backoff, 3),
                                )
                            time.sleep(backoff)
                            attempt += 1
            effective_jobs = 1
        else:
            effective_jobs = min(jobs, len(pending))
            results = _run_parallel(
                name=name,
                indices=pending,
                labels=labels,
                trace=trace,
                telemetry=telemetry,
                jobs=effective_jobs,
                mp_start=mp_start,
                cache_root=cache_root,
                use_cache=use_cache,
                memory_items=memory_items,
                cell_timeout=cell_timeout,
                max_attempts=max_attempts,
                quarantined=quarantined,
                recovery=recovery,
                wal=wal,
                trace_detail=trace_detail,
                timeline=timeline,
                plog=plog,
            )
    finally:
        if wal is not None:
            wal.close()
    wall = time.perf_counter() - start

    results.extend(replayed.values())
    results.sort(key=lambda r: r.index)
    quarantined.sort(key=lambda q: q.index)
    run = SuiteRun(
        name=name,
        jobs=effective_jobs,
        use_cache=use_cache,
        results=results,
        wall_seconds=wall,
        quarantined=quarantined,
        recovery=recovery,
        journal_path=journal,
        journal_corrupt_lines=wal.corrupt_lines if wal is not None else 0,
    )
    if plog is not None:
        plog.emit(
            "suite_finished",
            suite=name,
            cells=len(results),
            quarantined=len(quarantined),
            stalled=run.stalled_cells(),
            wall_seconds=round(wall, 3),
        )
        if own_progress:
            plog.close()
    return run


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on hung or dead workers.

    ``shutdown(wait=False)`` alone leaves a hung worker running
    forever; the only way to reclaim it is to terminate the worker
    processes directly.  ``_processes`` is private but stable across
    the CPython versions we support, and the fallback is merely a
    leaked process, not an error.  The snapshot must be taken *before*
    ``shutdown``, which clears the attribute.
    """
    processes = dict(getattr(pool, "_processes", None) or {})
    for process in processes.values():
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _run_parallel(
    name: str,
    indices: List[int],
    labels: Dict[int, str],
    trace: bool,
    telemetry: bool,
    jobs: int,
    mp_start: Optional[str],
    cache_root: Optional[str],
    use_cache: bool,
    memory_items: int,
    cell_timeout: Optional[float],
    max_attempts: int,
    quarantined: List[QuarantinedCell],
    recovery: RecoveryStats,
    wal: Optional[SuiteJournal] = None,
    trace_detail: bool = False,
    timeline: bool = False,
    plog: Optional[ProgressLog] = None,
) -> List[CellResult]:
    """The submit-driven scheduling loop with recovery; see module doc.

    Invariant: at most ``jobs`` futures are ever in flight, which with
    ``max_workers=jobs`` means every submitted future is *running* —
    so a future older than ``cell_timeout`` really is a stuck attempt,
    not one starving in the pool's queue.
    """
    context = multiprocessing.get_context(mp_start or default_start_method())

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=context,
            initializer=_worker_init,
            initargs=(cache_root, use_cache, memory_items),
        )

    def charge_attempt(index: int, attempt: int, reason: str,
                       now: float) -> None:
        """A failed attempt: retry with backoff or quarantine."""
        if attempt >= max_attempts:
            quarantined.append(QuarantinedCell(
                suite=name,
                index=index,
                label=labels[index],
                attempts=attempt,
                reason=reason,
            ))
            if plog is not None:
                plog.emit(
                    "cell_quarantined", suite=name, index=index,
                    label=labels[index], attempts=attempt, reason=reason,
                )
        else:
            recovery.retries += 1
            backoff = _backoff_seconds(name, index, attempt)
            if plog is not None:
                plog.emit(
                    "cell_retried", suite=name, index=index,
                    label=labels[index], attempt=attempt, reason=reason,
                    backoff=round(backoff, 3),
                )
            heappush(delayed, (now + backoff, index, attempt + 1))

    results: List[CellResult] = []
    ready: List[Tuple[int, int]] = [(i, 1) for i in indices]  # (index, attempt)
    ready.reverse()  # pop() takes grid order
    delayed: List[Tuple[float, int, int]] = []  # (release time, index, attempt)
    in_flight: Dict = {}  # future -> (index, attempt, deadline or None)
    pool = make_pool()
    try:
        while ready or delayed or in_flight:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, index, attempt = heappop(delayed)
                ready.append((index, attempt))
            while ready and len(in_flight) < jobs:
                index, attempt = ready.pop()
                future = pool.submit(
                    _worker_run_cell,
                    (name, index, trace, telemetry, trace_detail, timeline),
                )
                deadline = (
                    now + cell_timeout if cell_timeout is not None else None
                )
                in_flight[future] = (index, attempt, deadline)
                if plog is not None:
                    plog.emit(
                        "cell_started", suite=name, index=index,
                        label=labels[index], attempt=attempt,
                    )
            if not in_flight:
                # Everything is backing off; sleep to the next release.
                time.sleep(max(0.0, min(delayed[0][0] - now, _BACKOFF_CAP)))
                continue

            done, _ = wait(
                list(in_flight),
                timeout=_POLL_SECONDS,
                return_when=FIRST_COMPLETED,
            )
            now = time.monotonic()

            pool_broken = False
            for future in done:
                index, attempt, _ = in_flight.pop(future)
                try:
                    result = future.result()
                    result.attempts = attempt
                    results.append(result)
                    if wal is not None:
                        wal.record(result)
                    if plog is not None:
                        plog.emit(
                            "cell_finished", suite=name, index=index,
                            label=labels[index], attempt=attempt,
                            elapsed=round(result.elapsed, 4),
                            stalled=_result_stalled(result),
                        )
                except BrokenProcessPool:
                    pool_broken = True
                    charge_attempt(
                        index, attempt, "worker process died", now
                    )
                except Exception as exc:
                    charge_attempt(
                        index, attempt,
                        f"{type(exc).__name__}: {exc}", now,
                    )

            overdue = [
                future
                for future, (_, _, deadline) in in_flight.items()
                if deadline is not None and deadline <= now
            ]
            if overdue:
                # A hung worker cannot be interrupted from the parent:
                # kill the whole pool, charge the overdue cells, and
                # resubmit the innocent bystanders at no attempt cost.
                recovery.timeouts += len(overdue)
                for future in overdue:
                    index, attempt, _ = in_flight.pop(future)
                    if plog is not None:
                        plog.emit(
                            "cell_stalled", suite=name, index=index,
                            label=labels[index], attempt=attempt,
                            timeout=cell_timeout,
                        )
                    charge_attempt(
                        index, attempt,
                        f"timed out after {cell_timeout:.1f}s", now,
                    )
                pool_broken = True

            if pool_broken:
                recovery.pool_rebuilds += 1
                for future, (index, attempt, _) in in_flight.items():
                    if future.done() and future.exception() is None:
                        result = future.result()
                        result.attempts = attempt
                        results.append(result)
                        if wal is not None:
                            wal.record(result)
                        if plog is not None:
                            plog.emit(
                                "cell_finished", suite=name, index=index,
                                label=labels[index], attempt=attempt,
                                elapsed=round(result.elapsed, 4),
                                stalled=_result_stalled(result),
                            )
                    else:
                        ready.append((index, attempt))
                in_flight.clear()
                _terminate_pool(pool)
                pool = make_pool()
                if plog is not None:
                    plog.emit("pool_rebuilt", suite=name)
    finally:
        # Normal exit leaves nothing queued, so this is a clean close.
        # On KeyboardInterrupt (or any escaping error) it cancels all
        # pending work and abandons hung workers instead of blocking.
        if in_flight:
            for future in in_flight:
                future.cancel()
            _terminate_pool(pool)
        else:
            pool.shutdown(wait=True, cancel_futures=True)
    return results
