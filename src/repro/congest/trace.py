"""Structured round tracing for CONGEST simulations.

The engines in :mod:`repro.congest` can optionally emit one
:class:`RoundTrace` record per *executed* round: how many messages (and
bits) were delivered into the round, the per-edge congestion histogram
of that traffic, and how many vertices stepped / sat idle / had already
halted.  Fast-forwarded quiescent stretches produce no per-round
records (that is the point of fast-forwarding); instead the next
executed round notes how many rounds were skipped to reach it, so the
full round timeline can always be reconstructed.

Tracing is opt-in and zero-cost when off.  Two ways to turn it on:

* pass ``trace=TraceRecorder(...)`` to :class:`CongestSimulator`;
* open a :class:`TraceSession` (the CLI's ``--trace`` flag does this),
  which attaches a fresh recorder to every simulator constructed while
  the session is active.

Records export to JSON dicts and JSONL files, so experiments can report
congestion-over-time series instead of only end-of-run aggregates;
:func:`repro.obs.load_trace_jsonl` reads a file back into those dicts,
and :meth:`RoundTrace.from_dict` rebuilds a record from one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Version stamped on every emitted record.  History:
#:
#: * (unstamped) — the original layout; read back as version 1.
#: * 2 — adds ``message_bits_histogram`` (sizes of the messages
#:   delivered into the round).  Version-1 files load with the
#:   histogram empty.
#: * 3 — adds ``rejoined`` (crash-recovery events in this round) to
#:   the fault-counter block.  Older files load with it zero.
#: * 4 — adds ``delayed`` / ``topo_lost`` / ``partitioned`` (the
#:   network-adversity layer: withheld, churned-away, and
#:   partition-crossing transmissions) to the fault-counter block.
#:   Older files load with them zero.
#: * 5 — adds ``events`` (opt-in per-message provenance: sender,
#:   receiver, per-pair sequence number, payload bits, and channel
#:   outcome).  Recording is off by default; records without events
#:   keep stamping version 4 so detail-off trace files stay
#:   byte-identical to the v4 layout.  Older files load with the
#:   event list empty.
TRACE_SCHEMA_VERSION = 5

#: Stamp used for records that carry no detail events — the highest
#: schema whose field set they actually use.  Keeping the stamp at the
#: legacy value preserves byte-identity of detail-off trace files with
#: pre-v5 writers (pinned by tests).
BASE_SCHEMA_VERSION = 4

#: Channel outcomes a detail event may carry, in the order the channel
#: decides them.  ``deliver`` is a normal same-round delivery;
#: ``release`` is a previously delayed transmission finally delivered
#: (its ``sr`` key holds the original send round); the rest mirror the
#: aggregate fault counters on :class:`RoundTrace`.
EVENT_OUTCOMES = (
    "deliver",
    "release",
    "drop",
    "duplicate",
    "corrupt",
    "delay",
    "topo_lost",
    "partitioned",
)


def detail_event_sort_key(event: Dict[str, Any]):
    """Canonical ordering for a round's detail events.

    Both engines buffer events in their own internal iteration order
    (the fast engine drains only the active set, the reference engine
    scans every vertex); sorting by this key before recording makes the
    emitted stream a pure function of the simulated execution, so
    detail traces stay bit-identical across engines.  Releases sort
    after same-pair fresh sends because they were transmitted in an
    earlier round.
    """
    seq = event.get("q")
    return (
        1 if event.get("o") == "release" else 0,
        event.get("s", ""),
        event.get("r", ""),
        seq if isinstance(seq, int) else -1,
        event.get("sr", -1),
    )


@dataclass
class RoundTrace:
    """One executed round, as observed by the engine.

    ``messages`` / ``bits`` count the traffic *delivered into* this
    round (sent the round before), matching the metric attribution of
    :class:`~repro.congest.metrics.CongestMetrics`.  The congestion
    histogram maps per-directed-edge message multiplicity to the number
    of edges that carried that many messages this round.

    ``dropped`` / ``duplicated`` / ``corrupted`` count what the
    injected-fault channel (:mod:`repro.congest.faults`) did to the
    traffic delivered into this round; ``crashed`` counts vertices that
    fail-stopped *in* this round, and ``rejoined`` (schema 3) counts
    crashed vertices that came back in this round per the plan's
    crash-recovery schedule.  ``delayed`` / ``topo_lost`` /
    ``partitioned`` (schema 4) count transmissions the channel
    withheld past this round, lost to the churned adjacency view, or
    lost crossing partition blocks.  All of these are zero in
    fault-free runs and absent from historical JSONL files (read back
    as zero).

    ``message_bits_histogram`` (schema 2) maps message size in bits to
    the number of messages of that size delivered into this round —
    the per-round view of the E12 message-size claim.  Version-1 files
    load with it empty.

    ``events`` (schema 5, opt-in) lists per-message provenance for the
    traffic attributed to this round: dicts with keys ``s`` (sender
    label), ``r`` (receiver label), ``q`` (per-(sender, receiver)
    sequence number within the send round), ``b`` (payload bits), and
    ``o`` (channel outcome, one of :data:`EVENT_OUTCOMES`); ``release``
    events additionally carry ``sr``, the round the payload was
    originally sent from before the delay queue withheld it.  Events
    are sorted by (sender, receiver, sequence) so both engines emit the
    same stream.  When empty the field is omitted and the record stamps
    :data:`BASE_SCHEMA_VERSION`.
    """

    round: int
    messages: int
    bits: int
    stepped: int
    idle: int
    halted: int
    skipped_before: int
    max_congestion: int
    congestion_histogram: Dict[int, int] = field(default_factory=dict)
    message_bits_histogram: Dict[int, int] = field(default_factory=dict)
    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    crashed: int = 0
    rejoined: int = 0
    delayed: int = 0
    topo_lost: int = 0
    partitioned: int = 0
    events: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "schema": (
                TRACE_SCHEMA_VERSION if self.events else BASE_SCHEMA_VERSION
            ),
            "round": self.round,
            "messages": self.messages,
            "bits": self.bits,
            "stepped": self.stepped,
            "idle": self.idle,
            "halted": self.halted,
            "skipped_before": self.skipped_before,
            "max_congestion": self.max_congestion,
            # JSON object keys are strings; normalize here so the
            # round-trip through JSONL is exact.
            "congestion_histogram": {
                str(k): v for k, v in sorted(self.congestion_histogram.items())
            },
        }
        # Quiescent rounds carry no messages; omit the empty histogram
        # the same way the fault counters are omitted below.
        if self.message_bits_histogram:
            data["message_bits_histogram"] = {
                str(k): v
                for k, v in sorted(self.message_bits_histogram.items())
            }
        # Fault counters appear only when a fault fired, keeping
        # fault-free trace files free of always-zero noise fields.
        if (self.dropped or self.duplicated or self.corrupted
                or self.crashed or self.rejoined or self.delayed
                or self.topo_lost or self.partitioned):
            data["dropped"] = self.dropped
            data["duplicated"] = self.duplicated
            data["corrupted"] = self.corrupted
            data["crashed"] = self.crashed
            data["rejoined"] = self.rejoined
            data["delayed"] = self.delayed
            data["topo_lost"] = self.topo_lost
            data["partitioned"] = self.partitioned
        if self.events:
            data["events"] = [dict(e) for e in self.events]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RoundTrace":
        return cls(
            round=data["round"],
            messages=data["messages"],
            bits=data["bits"],
            stepped=data["stepped"],
            idle=data["idle"],
            halted=data["halted"],
            skipped_before=data["skipped_before"],
            max_congestion=data["max_congestion"],
            congestion_histogram={
                int(k): v for k, v in data["congestion_histogram"].items()
            },
            # Absent from schema-1 files; those round-trip with the
            # histogram empty rather than failing to load.
            message_bits_histogram={
                int(k): v
                for k, v in data.get("message_bits_histogram", {}).items()
            },
            dropped=data.get("dropped", 0),
            duplicated=data.get("duplicated", 0),
            corrupted=data.get("corrupted", 0),
            crashed=data.get("crashed", 0),
            rejoined=data.get("rejoined", 0),
            delayed=data.get("delayed", 0),
            topo_lost=data.get("topo_lost", 0),
            partitioned=data.get("partitioned", 0),
            events=[dict(e) for e in data.get("events", [])],
        )


class TraceRecorder:
    """Collects the :class:`RoundTrace` series of one simulation.

    ``detail=True`` asks the engine to also record per-message
    provenance events (schema 5).  The flag is advisory: the recorder
    stores whatever events the engine hands it either way, but engines
    only pay the per-message bookkeeping cost when it is set.
    """

    def __init__(self, label: str = "", detail: bool = False) -> None:
        self.label = label
        self.detail = detail
        self.rounds: List[RoundTrace] = []

    # -- recording (called by the engines) ------------------------------
    def record_round(
        self,
        round_number: int,
        per_edge_counts: Dict,
        messages: int,
        bits: int,
        stepped: int,
        idle: int,
        halted: int,
        skipped_before: int,
        dropped: int = 0,
        duplicated: int = 0,
        corrupted: int = 0,
        crashed: int = 0,
        rejoined: int = 0,
        delayed: int = 0,
        topo_lost: int = 0,
        partitioned: int = 0,
        message_bits_histogram: Optional[Dict[int, int]] = None,
        events: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        histogram: Dict[int, int] = {}
        for count in per_edge_counts.values():
            histogram[count] = histogram.get(count, 0) + 1
        self.rounds.append(
            RoundTrace(
                round=round_number,
                messages=messages,
                bits=bits,
                stepped=stepped,
                idle=idle,
                halted=halted,
                skipped_before=skipped_before,
                max_congestion=max(histogram, default=0),
                congestion_histogram=histogram,
                message_bits_histogram=dict(message_bits_histogram or {}),
                dropped=dropped,
                duplicated=duplicated,
                corrupted=corrupted,
                crashed=crashed,
                rejoined=rejoined,
                delayed=delayed,
                topo_lost=topo_lost,
                partitioned=partitioned,
                events=list(events or []),
            )
        )

    # -- aggregation ----------------------------------------------------
    def total_messages(self) -> int:
        return sum(r.messages for r in self.rounds)

    def total_bits(self) -> int:
        return sum(r.bits for r in self.rounds)

    def total_rounds(self) -> int:
        """Executed plus fast-forwarded rounds covered by this trace."""
        return sum(1 + r.skipped_before for r in self.rounds)

    def max_congestion(self) -> int:
        return max((r.max_congestion for r in self.rounds), default=0)

    def total_faults(self) -> Dict[str, int]:
        """Summed per-round fault counters (all zero when fault-free)."""
        return {
            "dropped": sum(r.dropped for r in self.rounds),
            "duplicated": sum(r.duplicated for r in self.rounds),
            "corrupted": sum(r.corrupted for r in self.rounds),
            "crashed": sum(r.crashed for r in self.rounds),
            "rejoined": sum(r.rejoined for r in self.rounds),
            "delayed": sum(r.delayed for r in self.rounds),
            "topo_lost": sum(r.topo_lost for r in self.rounds),
            "partitioned": sum(r.partitioned for r in self.rounds),
        }

    def summary(self) -> Dict[str, int]:
        data = {
            "recorded_rounds": len(self.rounds),
            "total_rounds": self.total_rounds(),
            "total_messages": self.total_messages(),
            "total_bits": self.total_bits(),
            "max_congestion": self.max_congestion(),
        }
        faults = self.total_faults()
        if any(faults.values()):
            data.update(faults)
        return data

    # -- export / import ------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        out = []
        for r in self.rounds:
            d = r.to_dict()
            if self.label:
                d["sim"] = self.label
            out.append(d)
        return out

    def dumps_jsonl(self) -> str:
        return "\n".join(json.dumps(d, sort_keys=True) for d in self.to_dicts())

    def write_jsonl(self, path: str) -> None:
        # Atomic write through repro.storage; the record bytes
        # themselves are unchanged (trace byte-identity is pinned, so
        # no per-record checksums here).
        from .. import storage

        lines = "".join(
            json.dumps(d, sort_keys=True) + "\n" for d in self.to_dicts()
        )
        storage.atomic_write_text(path, lines, verify=True)


# ----------------------------------------------------------------------
# Session scoping: attach recorders to every simulator in a region.
# ----------------------------------------------------------------------

_SESSIONS: List["TraceSession"] = []


class TraceSession:
    """Context manager collecting traces from every simulator inside it.

    High-level entry points (``run_framework``, the CLI commands) spin
    up many simulators internally; a session captures all of them
    without threading a recorder through every call signature::

        with TraceSession() as session:
            run_framework(...)
        session.write_jsonl("trace.jsonl")

    ``detail=True`` propagates to every recorder the session creates,
    turning on per-message provenance events (trace schema 5).
    """

    def __init__(self, detail: bool = False) -> None:
        self.detail = detail
        self.recorders: List[TraceRecorder] = []

    def __enter__(self) -> "TraceSession":
        _SESSIONS.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _SESSIONS.remove(self)

    def new_recorder(self, label: str = "") -> TraceRecorder:
        rec = TraceRecorder(
            label or f"sim{len(self.recorders)}", detail=self.detail
        )
        self.recorders.append(rec)
        return rec

    def total_rounds(self) -> int:
        return sum(rec.total_rounds() for rec in self.recorders)

    def write_jsonl(self, path: str) -> None:
        """One line per (simulation, round) record, in creation order.

        Written atomically through :mod:`repro.storage`; record bytes
        are unchanged (trace byte-identity is pinned).
        """
        from .. import storage

        lines = "".join(
            json.dumps(d, sort_keys=True) + "\n"
            for rec in self.recorders
            for d in rec.to_dicts()
        )
        storage.atomic_write_text(path, lines, verify=True)


def active_session() -> Optional[TraceSession]:
    """The innermost active :class:`TraceSession`, if any."""
    return _SESSIONS[-1] if _SESSIONS else None
