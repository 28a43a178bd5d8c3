"""The process-global telemetry registry and its module-level helpers.

Everything funnels through one flag check: outside a
:func:`telemetry_scope` (the default), :func:`count` and
:func:`observe` return after a single boolean test and :func:`span`
hands back a shared no-op context manager — the instrumented hot paths
pay one attribute load and one branch, nothing else.  Inside a scope,
observations land in that scope's :class:`TelemetryRegistry` (the
runner opens one per experiment cell so per-cell telemetry can be
shipped across the process boundary and merged in grid order).

Determinism contract: counters, histogram contents, and the *shape* of
the span tree (paths and counts) are pure functions of the work
performed — identical across the fast and reference CONGEST engines
and across serial and sharded runner executions.  Wall/CPU span times
are of course timing-dependent; :meth:`TelemetryRegistry
.comparable_dict` strips them for equality testing.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from .histogram import FixedHistogram


@dataclass
class SpanStats:
    """Accumulated executions of one span path."""

    count: int = 0
    wall_ns: int = 0
    cpu_ns: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "count": self.count,
            "wall_ns": self.wall_ns,
            "cpu_ns": self.cpu_ns,
        }


class _NoopSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


#: The singleton no-op span; safe to reuse because it carries no state.
NO_SPAN = _NoopSpan()


class _Span:
    """One live span: pushes its name on enter, accumulates on exit."""

    __slots__ = ("_registry", "_name", "_path", "_wall0", "_cpu0")

    def __init__(self, registry: "TelemetryRegistry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Span":
        stack = self._registry._span_stack
        stack.append(self._name)
        self._path = "/".join(stack)
        timeline = self._registry.timeline
        if timeline is not None:
            # Epoch nanoseconds (not perf_counter) so begin/end streams
            # from different worker processes share one clock and line
            # up on a single Perfetto timeline.
            timeline.append({
                "ph": "B",
                "name": self._path,
                "ts_ns": time.time_ns(),
                "pid": os.getpid(),
                "tid": threading.get_ident(),
            })
        self._wall0 = time.perf_counter_ns()
        self._cpu0 = time.process_time_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        wall_ns = time.perf_counter_ns() - self._wall0
        cpu_ns = time.process_time_ns() - self._cpu0
        registry = self._registry
        timeline = registry.timeline
        if timeline is not None:
            timeline.append({
                "ph": "E",
                "name": self._path,
                "ts_ns": time.time_ns(),
                "pid": os.getpid(),
                "tid": threading.get_ident(),
            })
        registry._span_stack.pop()
        stats = registry.spans.get(self._path)
        if stats is None:
            stats = registry.spans[self._path] = SpanStats()
        stats.count += 1
        stats.wall_ns += wall_ns
        stats.cpu_ns += cpu_ns


class TelemetryRegistry:
    """Counters, histograms, and span aggregates for one scope."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, FixedHistogram] = {}
        self.spans: Dict[str, SpanStats] = {}
        self._span_stack: List[str] = []
        # Optional timeline mode: when enabled, every span additionally
        # appends raw begin/end events here (epoch-ns timestamps with
        # pid/tid), which repro.obs.timeline converts into a
        # Chrome/Perfetto trace-event file.  None = off (default); the
        # span hot path then pays one attribute load per enter/exit.
        self.timeline: Optional[List[Dict[str, Any]]] = None

    def enable_timeline(self) -> None:
        """Start capturing span begin/end events for timeline export."""
        if self.timeline is None:
            self.timeline = []

    # -- recording -----------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def histogram(self, name: str) -> FixedHistogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = FixedHistogram()
        return hist

    def observe(self, name: str, value: float, times: int = 1) -> None:
        self.histogram(name).observe(value, times)

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    # -- cross-process merging -----------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form that survives a process boundary."""
        data = {
            "counters": dict(self.counters),
            "histograms": {
                name: hist.to_dict()
                for name, hist in self.histograms.items()
            },
            "spans": {
                path: stats.to_dict() for path, stats in self.spans.items()
            },
        }
        if self.timeline is not None:
            data["timeline"] = [dict(e) for e in self.timeline]
        return data

    def merge_dict(self, data: Dict[str, Any]) -> None:
        """Fold a :meth:`to_dict` payload into this registry.

        Counters and span aggregates sum; histograms merge bucket-wise.
        The fold is associative and commutative, so merging per-cell
        payloads in grid order is deterministic.  Other keys (older
        snapshots carry ``gauges``) are ignored.
        """
        for name, value in data.get("counters", {}).items():
            self.count(name, value)
        for name, payload in data.get("histograms", {}).items():
            incoming = FixedHistogram.from_dict(payload)
            existing = self.histograms.get(name)
            if existing is None:
                self.histograms[name] = incoming
            else:
                existing.merge(incoming)
        for path, stats in data.get("spans", {}).items():
            existing_stats = self.spans.get(path)
            if existing_stats is None:
                existing_stats = self.spans[path] = SpanStats()
            existing_stats.count += stats.get("count", 0)
            existing_stats.wall_ns += stats.get("wall_ns", 0)
            existing_stats.cpu_ns += stats.get("cpu_ns", 0)
        # Worker timelines concatenate; events carry their own pid/tid
        # and absolute timestamps, so order within the merged list is
        # irrelevant (the exporter sorts by timestamp).
        incoming_timeline = data.get("timeline")
        if incoming_timeline:
            if self.timeline is None:
                self.timeline = []
            self.timeline.extend(dict(e) for e in incoming_timeline)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TelemetryRegistry":
        registry = cls()
        registry.merge_dict(data)
        return registry

    def comparable_dict(self) -> Dict[str, Any]:
        """The deterministic projection: everything except timings.

        Span values reduce to their execution counts; wall/CPU fields
        are dropped.  ``congest.kernel.*`` and ``congest.delivery.*``
        counters are dropped too: they describe *how* the work was
        executed (kernel vs per-vertex loop, send-plan vs scalar
        delivery), not what was simulated, and those layers' contract
        is precisely that the executions are otherwise
        indistinguishable.  Two runs doing identical work — fast vs
        reference engine, kernels on vs off, serial vs sharded —
        produce equal comparable dicts.
        """
        data = self.to_dict()
        # Timeline events are raw timings — never comparable.
        data.pop("timeline", None)
        data["spans"] = {
            path: stats["count"] for path, stats in data["spans"].items()
        }
        data["counters"] = {
            name: value
            for name, value in data["counters"].items()
            if not name.startswith(("congest.kernel.", "congest.delivery."))
        }
        return data

    def __bool__(self) -> bool:
        return bool(self.counters or self.histograms or self.spans)


# ----------------------------------------------------------------------
# Module-level state: the enable flag and the scope stack
# ----------------------------------------------------------------------

_enabled = False
_stack: List[TelemetryRegistry] = [TelemetryRegistry()]


def enabled() -> bool:
    """Is telemetry currently recording (inside a :func:`telemetry_scope`)?"""
    return _enabled


def current_registry() -> TelemetryRegistry:
    """The registry observations currently land in."""
    return _stack[-1]


def count(name: str, value: float = 1) -> None:
    """Increment a counter in the active registry (no-op when disabled)."""
    if _enabled:
        _stack[-1].count(name, value)


def observe(name: str, value: float, times: int = 1) -> None:
    """Histogram observation in the active registry (no-op when disabled)."""
    if _enabled:
        _stack[-1].observe(name, value, times)


def span(name: str):
    """A phase span context manager; :data:`NO_SPAN` when disabled.

    The disabled path is one flag test and a shared constant — cheap
    enough to leave in pipeline loops.
    """
    if not _enabled:
        return NO_SPAN
    return _stack[-1].span(name)


@contextmanager
def telemetry_scope(timeline: bool = False) -> Iterator[TelemetryRegistry]:
    """Collect telemetry into a fresh registry for the enclosed block.

    Used by the runner to give each experiment cell its own registry
    (identical behavior inline and in a worker process), and by tests
    for isolation.  The previous enable state and registry are restored
    on exit, so scopes nest freely.  ``timeline=True`` additionally
    captures span begin/end events for Chrome/Perfetto export.
    """
    global _enabled
    registry = TelemetryRegistry()
    if timeline:
        registry.enable_timeline()
    _stack.append(registry)
    previous = _enabled
    _enabled = True
    try:
        yield registry
    finally:
        _enabled = previous
        _stack.pop()
