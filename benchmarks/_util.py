"""Shared helpers for the benchmark harness.

Each experiment prints its series as a plain-text table (the paper,
being pure theory, has no tables of its own — see DESIGN.md section 2
for the experiment index) and also writes it under
``benchmarks/results/`` so EXPERIMENTS.md can quote the measured
numbers.

Experiments that have been converted to the cell model (E01, E03, E10)
run through :mod:`repro.runner`: the suite definition enumerates the
parameter grid, each cell executes independently, and the table here is
assembled from the per-cell result objects, so every number printed is
a recomputation.  Converted suites run in-process (``jobs=1``); the
table's bytes do not depend on the job count, which
``tests/test_runner.py`` checks.
"""

from __future__ import annotations

import os

from repro.analysis import Table
from repro.runner import SuiteRun, run_suite

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def results_path(filename: str) -> str:
    """Absolute path under ``benchmarks/results/``, parent dirs created.

    Centralizing directory creation means every experiment file — and
    any single test picked out of one — works on a fresh clone where
    ``benchmarks/results/`` does not exist yet (it is gitignored).
    """
    path = os.path.join(RESULTS_DIR, filename)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def record_table(filename: str, table: Table) -> None:
    """Print the table and persist it under benchmarks/results/."""
    rendered = table.render()
    print("\n" + rendered)
    with open(results_path(filename), "a") as handle:
        handle.write(rendered + "\n\n")


def reset_result(filename: str) -> None:
    """Truncate a result file at the start of its experiment."""
    with open(results_path(filename), "w"):
        pass


def run_recorded_suite(name: str, filename: str, reset: bool = True) -> SuiteRun:
    """Execute a converted suite and record its assembled table.

    The table is built from the per-cell :class:`repro.runner.CellResult`
    objects in grid order, so its bytes do not depend on the job count.
    """
    run = run_suite(name, jobs=1)
    if reset:
        reset_result(filename)
    record_table(filename, run.table())
    return run
