"""Perf-regression baselines: schema-versioned snapshots and diffs.

``repro bench --telemetry out.json`` writes a snapshot of one benchmark
run — per-cell wall clocks, per-suite walls, and the merged telemetry
registry — and ``repro obs diff old.json new.json --budget 1.25``
compares two snapshots, exiting nonzero when any timing regressed past
the budget.  CI runs the diff as a soft gate against a committed seed
baseline (a generous budget keeps it informative rather than flaky
across runner hardware) and uploads every snapshot as a ``BENCH_*``
artifact, so the repo finally accumulates a perf trajectory.

Snapshots carry ``schema`` so future layout changes can migrate or
refuse old files explicitly instead of mis-reading them.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

SNAPSHOT_SCHEMA_VERSION = 1

#: Ignore regressions smaller than this many absolute seconds: tiny
#: cells jitter by scheduler noise far beyond any relative budget.
DEFAULT_MIN_SECONDS = 0.005


def build_snapshot(
    suites: Dict[str, Dict[str, Any]],
    telemetry: Optional[Dict[str, Any]] = None,
    jobs: int = 1,
) -> Dict[str, Any]:
    """Assemble a snapshot payload.

    ``suites`` maps suite name to ``{"wall_seconds": float, "cells":
    {label: {"elapsed": float}}}`` — exactly what ``repro bench``
    collects; ``telemetry`` is a merged registry payload
    (:meth:`TelemetryRegistry.to_dict`).  The diff reads only
    ``elapsed`` from a cell, so older snapshots whose cells also carry
    ``attempts``, or whose ``meta`` records the artifact-cache switch
    of older builds, still load and diff.
    """
    return {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "kind": "repro-telemetry-snapshot",
        "created_unix": round(time.time(), 3),
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "jobs": jobs,
        },
        "suites": suites,
        "telemetry": telemetry or {},
    }


def write_snapshot(path: str, snapshot: Dict[str, Any]) -> None:
    # Atomic replace via repro.storage: a crash mid-write must not
    # destroy the previous snapshot at the same path.
    from .. import storage

    text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    storage.atomic_write_text(path, text, verify=True)


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read and validate a snapshot file."""
    with open(path) as handle:
        snapshot = json.load(handle)
    if not isinstance(snapshot, dict) or snapshot.get("kind") != (
        "repro-telemetry-snapshot"
    ):
        raise ValueError(f"{path}: not a repro telemetry snapshot")
    schema = snapshot.get("schema")
    if schema != SNAPSHOT_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: snapshot schema {schema!r} is not supported "
            f"(this build reads schema {SNAPSHOT_SCHEMA_VERSION})"
        )
    return snapshot


@dataclass
class BaselineDiff:
    """Outcome of comparing two snapshots."""

    budget: float
    regressions: List[Dict[str, Any]] = field(default_factory=list)
    improvements: List[Dict[str, Any]] = field(default_factory=list)
    unchanged: int = 0
    missing: List[str] = field(default_factory=list)  # in old only
    added: List[str] = field(default_factory=list)    # in new only

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable form (``repro obs diff --json``): the full
        regression/improvement entries with ratios, plus the budget and
        verdict, so CI can annotate instead of grepping text."""
        return {
            "kind": "repro-obs-diff",
            "ok": self.ok,
            "budget": self.budget,
            "regressions": [dict(e) for e in self.regressions],
            "improvements": [dict(e) for e in self.improvements],
            "unchanged": self.unchanged,
            "missing": list(self.missing),
            "added": list(self.added),
        }

    def render(self) -> str:
        lines: List[str] = []
        for item in self.regressions:
            lines.append(
                f"REGRESSION {item['metric']}: "
                f"{item['old']:.4f}s -> {item['new']:.4f}s "
                f"({item['ratio']:.2f}x, budget {self.budget:.2f}x)"
            )
        for item in self.improvements:
            lines.append(
                f"improved   {item['metric']}: "
                f"{item['old']:.4f}s -> {item['new']:.4f}s "
                f"({item['ratio']:.2f}x)"
            )
        if self.missing:
            lines.append(f"missing in new snapshot: {', '.join(self.missing)}")
        if self.added:
            lines.append(f"new in new snapshot: {', '.join(self.added)}")
        lines.append(
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s), "
            f"{self.unchanged} within budget"
        )
        return "\n".join(lines)


def _timing_series(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Flatten a snapshot into comparable ``metric -> seconds`` pairs.

    Besides suite and cell wall clocks, telemetry phase spans flatten
    to ``span:<path>`` seconds, so the diff can budget engine-internal
    phases (e.g. ``congest.collect``, the delivery-accounting phase the
    batched send-plan path exists to shrink) and not just end-to-end
    cells.
    """
    series: Dict[str, float] = {}
    for suite_name, suite in snapshot.get("suites", {}).items():
        series[f"suite:{suite_name}"] = float(suite.get("wall_seconds", 0.0))
        for label, cell in suite.get("cells", {}).items():
            series[f"cell:{label}"] = float(cell.get("elapsed", 0.0))
    spans = snapshot.get("telemetry", {}).get("spans", {})
    for path, stats in spans.items():
        series[f"span:{path}"] = float(stats.get("wall_ns", 0)) / 1e9
    return series


def diff_snapshots(
    old: Dict[str, Any],
    new: Dict[str, Any],
    budget: float = 1.25,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> BaselineDiff:
    """Compare two snapshots' timing series against a relative budget.

    A metric regresses when ``new > old * budget`` **and** the absolute
    slowdown exceeds ``min_seconds`` (sub-millisecond cells jitter well
    past any ratio).  Metrics present in only one snapshot are reported
    but never fail the diff — a grid change is a review matter, not a
    perf regression.
    """
    if not (math.isfinite(budget) and budget > 0):
        # NaN or infinity would pass every regression.
        raise ValueError("budget must be a finite positive ratio")
    if not (math.isfinite(min_seconds) and min_seconds >= 0):
        # No slowdown exceeds NaN or infinity: every regression passes.
        raise ValueError("min_seconds must be finite and not negative")
    old_series = _timing_series(old)
    new_series = _timing_series(new)
    diff = BaselineDiff(budget=budget)
    diff.missing = sorted(set(old_series) - set(new_series))
    diff.added = sorted(set(new_series) - set(old_series))
    for metric in sorted(set(old_series) & set(new_series)):
        old_value = old_series[metric]
        new_value = new_series[metric]
        ratio = new_value / old_value if old_value > 0 else float("inf")
        entry = {
            "metric": metric, "old": old_value, "new": new_value,
            "ratio": ratio,
        }
        if (
            new_value > old_value * budget
            and new_value - old_value > min_seconds
        ):
            diff.regressions.append(entry)
        elif (
            old_value > new_value * budget
            and old_value - new_value > min_seconds
        ):
            diff.improvements.append(entry)
        else:
            diff.unchanged += 1
    return diff
