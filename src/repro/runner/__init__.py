"""Batch experiment runner: cells, suites, and the parallel executor.

The experiment grid of the benchmark harness (family x n x seed x
epsilon/phi) decomposes into independent *cells*, each a pure function
of its parameters.  This package turns the E-suite sweeps into explicit
cell lists (:mod:`repro.runner.suites`), executes them serially or
across a spawn-safe ``ProcessPoolExecutor`` (:mod:`repro.runner
.executor`), and reassembles the per-cell results into the exact tables
the serial harness produces — byte-identical, by construction, because
every cell is deterministically seeded by the grid and merged in grid
order rather than completion order.
"""

from .cells import CellResult, ExperimentCell
from .executor import SuiteRun, run_suite
from .suites import SUITES, execute_cell, suite_names

__all__ = [
    "CellResult",
    "ExperimentCell",
    "SuiteRun",
    "SUITES",
    "execute_cell",
    "run_suite",
    "suite_names",
]
