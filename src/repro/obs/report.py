"""The terminal report behind ``repro obs report``.

:func:`render_report` consumes the plain-data registry payload
(:meth:`repro.obs.registry.TelemetryRegistry.to_dict`), so it works
identically on a live registry, a merged cross-process payload, and
the ``telemetry`` section of a saved benchmark snapshot.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .histogram import FixedHistogram


def _rows_to_text(title: str, header: List[str],
                  rows: List[List[str]]) -> List[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = [title]
    out.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return out


def render_report(
    data: Dict[str, Any],
    suites: Optional[Dict[str, Any]] = None,
) -> str:
    """Human-readable terminal report of a registry payload.

    ``suites`` is the optional per-suite/per-cell timing section of a
    benchmark snapshot (see :mod:`repro.obs.baseline`); when given, a
    cell-timing table is appended.
    """
    sections: List[str] = []

    spans = data.get("spans", {})
    if spans:
        rows = []
        for path in sorted(spans):
            stats = spans[path]
            rows.append([
                path,
                str(stats["count"]),
                f"{stats['wall_ns'] / 1e6:.2f}",
                f"{stats['cpu_ns'] / 1e6:.2f}",
            ])
        sections.extend(_rows_to_text(
            "phase spans", ["span", "count", "wall ms", "cpu ms"], rows
        ))
        sections.append("")

    counters = data.get("counters", {})
    if counters:
        rows = [[name, str(counters[name])] for name in sorted(counters)]
        sections.extend(_rows_to_text("counters", ["name", "value"], rows))
        sections.append("")

    histograms = data.get("histograms", {})
    if histograms:
        rows = []
        for name in sorted(histograms):
            hist = FixedHistogram.from_dict(histograms[name])
            summary = hist.summary()
            rows.append([
                name,
                str(summary["count"]),
                f"{summary['mean']:.2f}",
                str(summary["p50"]),
                str(summary["p95"]),
                str(summary["max"]),
            ])
        sections.extend(_rows_to_text(
            "histograms", ["name", "count", "mean", "p50", "p95", "max"], rows
        ))
        sections.append("")

    if suites:
        rows = []
        for suite_name in sorted(suites):
            suite = suites[suite_name]
            for label in sorted(suite.get("cells", {})):
                cell = suite["cells"][label]
                rows.append([label, f"{cell['elapsed']:.4f}"])
            rows.append([
                f"{suite_name} (suite wall)",
                f"{suite['wall_seconds']:.4f}",
            ])
        sections.extend(_rows_to_text(
            "cell timings", ["cell", "seconds"], rows
        ))
        sections.append("")

    if not sections:
        return "telemetry: empty registry\n"
    return "\n".join(sections)
