"""The cell model: one grid point of an experiment suite.

A cell is the unit of scheduling and merging:

* **identity** — ``(suite, index)`` addresses the cell; ``params`` are
  the grid coordinates (family, n, seed, epsilon, phi, ...), fixed
  statically by the suite definition so that serial and parallel runs
  see exactly the same cells in exactly the same order;
* **determinism** — every random choice inside a cell derives from
  seeds stored in ``params``; nothing is drawn from shared state, so a
  cell's result is a pure function of its parameters and the code;
* **result** — a :class:`CellResult` is plain data (tuples, dicts,
  strings) so it crosses the ``ProcessPoolExecutor`` boundary under the
  ``spawn`` start method without pickling any live graph or simulator
  state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class ExperimentCell:
    """One grid point: parameters only, no behavior."""

    suite: str
    index: int
    label: str
    params: Dict[str, Any]


@dataclass
class CellResult:
    """What one executed cell sends back to the merge step.

    ``rows`` hold *raw* values (not rendered strings); the suite's
    table assembly renders them, so serial and sharded runs format
    identically.  ``extra`` holds the raw values a benchmark asserts on
    (a graded cell's verdict, say).  ``trace_lines`` are JSONL round
    records when tracing was requested, labeled by cell so a merged
    sharded trace is unambiguous.  ``telemetry`` is a
    :meth:`TelemetryRegistry.to_dict` payload when the cell ran under
    ``--telemetry``; the executor merges the payloads in grid order, so
    serial and sharded runs agree on every deterministic metric.
    """

    suite: str
    index: int
    label: str
    rows: List[Tuple] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)
    trace_lines: List[str] = field(default_factory=list)
    elapsed: float = 0.0
    telemetry: Optional[Dict[str, Any]] = None
