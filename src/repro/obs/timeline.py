"""Chrome/Perfetto trace-event export for span timelines.

:class:`~repro.obs.registry.TelemetryRegistry` in timeline mode
records raw span begin/end events — epoch-ns timestamps tagged with
pid/tid.  This module converts that stream into the Chrome trace-event
JSON format (the ``{"traceEvents": [...]}`` object form) that loads
directly in ``chrome://tracing`` and https://ui.perfetto.dev: duration
events (``ph`` ``B``/``E``) on per-process tracks, with metadata
events naming each process and thread.

Timestamps are normalized to microseconds since the earliest event, so
the viewer opens at t=0 instead of the Unix epoch.  Events from
different worker processes share the epoch clock (see
``_Span.__enter__``), so runner cells line up across process tracks.

Nothing here imports from the rest of ``repro`` — the input is the
plain event-dict list ``TelemetryRegistry.to_dict()`` ships across
process boundaries.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: ``displayTimeUnit`` accepted by the trace-event spec.
_DISPLAY_UNITS = ("ms", "ns")


def chrome_trace(
    timeline: List[Dict[str, Any]],
    process_label: str = "repro",
) -> Dict[str, Any]:
    """Convert raw begin/end events into a Chrome trace-event object.

    ``timeline`` is the list captured by a registry in timeline mode
    (or the ``"timeline"`` entry of its ``to_dict()`` payload).  The
    result is JSON-serializable; write it to a ``.trace.json`` file
    and load it in chrome://tracing or Perfetto.
    """
    events = sorted(
        (e for e in timeline if e.get("ph") in ("B", "E")),
        key=lambda e: (e.get("ts_ns", 0), e.get("ph") != "E"),
    )
    t0 = events[0]["ts_ns"] if events else 0
    out: List[Dict[str, Any]] = []
    seen_pids: List[int] = []
    seen_tids: List[Tuple[int, int]] = []
    for e in events:
        pid = e.get("pid", 0)
        tid = e.get("tid", 0)
        if pid not in seen_pids:
            seen_pids.append(pid)
        if (pid, tid) not in seen_tids:
            seen_tids.append((pid, tid))
        entry: Dict[str, Any] = {
            "name": e.get("name", ""),
            "cat": "span",
            "ph": e["ph"],
            # Trace-event timestamps are microseconds; keep sub-µs
            # precision as a fraction.
            "ts": (e.get("ts_ns", 0) - t0) / 1000.0,
            "pid": pid,
            "tid": tid,
        }
        out.append(entry)
    # Metadata events name the tracks.  The first pid seen is the
    # coordinating process (the runner); the rest are workers.
    meta: List[Dict[str, Any]] = []
    for i, pid in enumerate(seen_pids):
        name = process_label if i == 0 else f"{process_label} worker {i}"
        meta.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": name},
        })
    for pid, tid in seen_tids:
        meta.append({
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": f"thread {tid}"},
        })
    return {
        "displayTimeUnit": "ms",
        "traceEvents": meta + out,
    }


def validate_chrome_trace(data: Dict[str, Any]) -> List[str]:
    """Structural checks against the trace-event JSON shape.

    Returns a list of problems (empty = valid): object form with a
    ``traceEvents`` list, a legal ``displayTimeUnit``, every event
    carrying ``ph``/``pid``/``tid`` (and ``ts`` for non-metadata
    phases), and ``B``/``E`` pairs balanced per (pid, tid) track with
    matching names — exactly what chrome://tracing enforces loosely
    and Perfetto strictly.
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["top level is not an object"]
    unit = data.get("displayTimeUnit", "ms")
    if unit not in _DISPLAY_UNITS:
        problems.append(
            f"displayTimeUnit {unit!r} not in {_DISPLAY_UNITS}"
        )
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return problems + ["traceEvents is missing or not a list"]
    stacks: Dict[Tuple[Any, Any], List[str]] = {}
    last_ts: Dict[Tuple[Any, Any], float] = {}
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            problems.append(f"event {i} is not an object")
            continue
        ph = e.get("ph")
        if ph is None:
            problems.append(f"event {i} has no ph")
            continue
        if "pid" not in e or "tid" not in e:
            problems.append(f"event {i} ({ph}) lacks pid/tid")
            continue
        if ph == "M":
            continue
        if not isinstance(e.get("ts"), (int, float)):
            problems.append(f"event {i} ({ph}) lacks a numeric ts")
            continue
        track = (e["pid"], e["tid"])
        if e["ts"] < last_ts.get(track, float("-inf")):
            problems.append(
                f"event {i} ({ph} {e.get('name')!r}) goes backwards in "
                f"time on track {track}"
            )
        last_ts[track] = e["ts"]
        if ph == "B":
            stacks.setdefault(track, []).append(e.get("name", ""))
        elif ph == "E":
            stack = stacks.setdefault(track, [])
            if not stack:
                problems.append(
                    f"event {i}: E with empty stack on track {track}"
                )
            else:
                opened = stack.pop()
                name = e.get("name", "")
                if name and name != opened:
                    problems.append(
                        f"event {i}: E {name!r} closes B {opened!r} on "
                        f"track {track}"
                    )
    for track, stack in stacks.items():
        if stack:
            problems.append(
                f"track {track}: {len(stack)} unclosed B event(s) "
                f"({stack[-1]!r} innermost)"
            )
    return problems


def timeline_from_snapshot(data: Dict[str, Any]) -> Optional[List[Dict]]:
    """Extract the raw timeline from a registry/snapshot payload.

    Accepts either a bare ``TelemetryRegistry.to_dict()`` payload or a
    perf snapshot that nests one under ``"telemetry"``.  Returns None
    when no timeline was recorded.
    """
    if "timeline" in data:
        return data["timeline"] or None
    telemetry = data.get("telemetry")
    if isinstance(telemetry, dict):
        return telemetry.get("timeline") or None
    return None
