"""Unified telemetry: phase spans, counters, and histograms.

The paper's claims are resource claims — rounds, O(log n)-bit messages,
inter-cluster edge budgets, routing congestion — and checking them, or
chasing a regression in them, needs *attribution*: which phase of the
pipeline spent the time, how the per-edge congestion is distributed
(not just its max), how message sizes spread below the budget, and
whether a change regressed any of it.  ``repro.obs`` is that substrate:

* :func:`span` — hierarchical phase spans with monotonic wall/CPU
  timing (``span("partition")`` / nested ``span("gather")`` yields the
  path ``partition/gather``);
* :func:`count` / :func:`observe` — counters and fixed-bucket
  histograms;
* :class:`TelemetryRegistry` — the store behind those helpers,
  mergeable across process boundaries via the same
  ``to_dict``/``merge_dict`` pattern ``CongestMetrics`` uses;
* :func:`render_report` — the terminal report (``repro obs report``);
* baselines — schema-versioned perf snapshots (``repro bench
  --telemetry out.json``) diffed for regressions by
  ``repro obs diff old.json new.json --budget 1.25``;
* timelines — span begin/end events exported as a Chrome/Perfetto
  trace (``repro obs export``), and round-trace diagnosis
  (``repro trace diff`` / ``explain``).

Telemetry records only inside :func:`telemetry_scope` and costs
~nothing outside one: every helper starts with one module-flag check,
and :func:`span` returns a shared no-op context manager.  Nothing in
this package imports the rest of ``repro``, so any module may
instrument itself freely.
"""

from .histogram import DEFAULT_BOUNDS, FixedHistogram
from .registry import (
    NO_SPAN,
    TelemetryRegistry,
    count,
    current_registry,
    enabled,
    observe,
    span,
    telemetry_scope,
)
from .report import render_report
from .baseline import (
    SNAPSHOT_SCHEMA_VERSION,
    BaselineDiff,
    build_snapshot,
    diff_snapshots,
    load_snapshot,
    write_snapshot,
)
from .trace import (
    Divergence,
    VertexRoundReport,
    diff_traces,
    explain_vertex,
    load_trace_jsonl,
    split_streams,
)
from .timeline import (
    chrome_trace,
    timeline_from_snapshot,
    validate_chrome_trace,
)

__all__ = [
    "DEFAULT_BOUNDS",
    "FixedHistogram",
    "NO_SPAN",
    "TelemetryRegistry",
    "count",
    "current_registry",
    "enabled",
    "observe",
    "span",
    "telemetry_scope",
    "render_report",
    "SNAPSHOT_SCHEMA_VERSION",
    "BaselineDiff",
    "build_snapshot",
    "diff_snapshots",
    "load_snapshot",
    "write_snapshot",
    "Divergence",
    "VertexRoundReport",
    "diff_traces",
    "explain_vertex",
    "load_trace_jsonl",
    "split_streams",
    "chrome_trace",
    "timeline_from_snapshot",
    "validate_chrome_trace",
]
