"""Trace-file divergence diagnosis and per-vertex provenance.

The repo's bit-identity guarantee (outputs, metrics, traces equal
across engines, kernels on and off, checkpoints, and the adversity
layer) used to be enforced by byte-diffing trace JSONL files
— a check that can only say *different*, never *where*.  This module
turns two trace files into a structured answer: the first divergent
round, the first divergent field within it, and — when the traces
carry schema-5 detail events — the exact message (sender, receiver,
sequence number) that first disagrees.

Like the rest of :mod:`repro.obs`, this module imports nothing from
the rest of the package: it operates on the raw JSONL dictionaries, so
any producer of round-trace files (current engines, future sharded
backends) gets diagnosis for free.

Conventions:

* A trace file holds one line per (simulation, round); the ``sim``
  label distinguishes interleaved simulations.  Labels embed the
  engine name (``fast:n=24`` vs ``reference:n=24``), so streams are
  paired *positionally* (order of first appearance), never by label.
* ``sim`` and ``schema`` are ignored by default: two files that
  describe the same execution from different engines or writer
  versions should diff clean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Round-record fields compared in order of diagnostic value: a
#: divergent round counter means the executions took different paths;
#: divergent traffic volume narrows to the channel; histograms and
#: events narrow to edges and individual messages.  Fields absent from
#: a record compare as their schema default.
FIELD_ORDER: Tuple[Tuple[str, Any], ...] = (
    ("round", None),
    ("messages", 0),
    ("bits", 0),
    ("stepped", 0),
    ("idle", 0),
    ("halted", 0),
    ("skipped_before", 0),
    ("max_congestion", 0),
    ("congestion_histogram", {}),
    ("message_bits_histogram", {}),
    ("dropped", 0),
    ("duplicated", 0),
    ("corrupted", 0),
    ("crashed", 0),
    ("rejoined", 0),
    ("delayed", 0),
    ("topo_lost", 0),
    ("partitioned", 0),
    ("events", []),
)

#: Fields that never indicate a real divergence: the label embeds the
#: engine name and the schema stamp embeds the writer version.
DEFAULT_IGNORE: Tuple[str, ...] = ("sim", "schema")


def load_trace_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a round-trace JSONL file into a list of record dicts.

    Blank lines are skipped.  Malformed lines raise :class:`ValueError`
    naming the line number, so CLI callers can exit cleanly.
    """
    records: List[Dict[str, Any]] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})")
            if not isinstance(data, dict):
                raise ValueError(
                    f"{path}:{lineno}: expected an object, got "
                    f"{type(data).__name__}"
                )
            records.append(data)
    return records


def split_streams(
    records: List[Dict[str, Any]],
) -> List[Tuple[str, List[Dict[str, Any]]]]:
    """Group records into per-simulation streams, in order of first
    appearance of each ``sim`` label (unlabeled records form one
    stream)."""
    order: List[str] = []
    streams: Dict[str, List[Dict[str, Any]]] = {}
    for rec in records:
        label = rec.get("sim", "")
        if label not in streams:
            streams[label] = []
            order.append(label)
        streams[label].append(rec)
    return [(label, streams[label]) for label in order]


@dataclass
class Divergence:
    """The first point at which two trace files disagree.

    ``kind`` is ``"field"`` (a record field differs), ``"length"``
    (one stream has more records), or ``"streams"`` (the files hold a
    different number of simulations).  ``vertex`` is set when the
    divergence is attributable to a single message — the sender label
    of the first differing schema-5 detail event.
    """

    kind: str
    sim_a: str = ""
    sim_b: str = ""
    stream: int = 0
    index: int = 0
    round: Optional[int] = None
    field: str = ""
    a_value: Any = None
    b_value: Any = None
    vertex: Optional[str] = None
    message: Optional[Dict[str, Any]] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "kind": self.kind,
            "stream": self.stream,
            "sim_a": self.sim_a,
            "sim_b": self.sim_b,
            "index": self.index,
            "round": self.round,
            "field": self.field,
            "a": self.a_value,
            "b": self.b_value,
            "detail": self.detail,
        }
        if self.vertex is not None:
            data["vertex"] = self.vertex
        if self.message is not None:
            data["message"] = self.message
        return data

    def render(self) -> str:
        """One human-oriented paragraph pinpointing the divergence."""
        lines = [f"divergence: {self.detail}"]
        if self.round is not None:
            lines.append(f"  round:  {self.round}")
        if self.field:
            lines.append(f"  field:  {self.field}")
        if self.vertex is not None:
            lines.append(f"  vertex: {self.vertex}")
        if self.message is not None:
            lines.append(f"  message: {json.dumps(self.message, sort_keys=True)}")
        if self.field or self.kind != "field":
            lines.append(f"  a: {json.dumps(self.a_value, sort_keys=True)}")
            lines.append(f"  b: {json.dumps(self.b_value, sort_keys=True)}")
        return "\n".join(lines)


def _first_hist_diff(a: Dict, b: Dict) -> Tuple[str, Any, Any]:
    """First differing key of two {str(int): count} histograms, keys
    compared numerically where possible."""

    def keyfn(k):
        try:
            return (0, int(k))
        except (TypeError, ValueError):
            return (1, str(k))

    for k in sorted(set(a) | set(b), key=keyfn):
        if a.get(k) != b.get(k):
            return str(k), a.get(k), b.get(k)
    return "", None, None


def _first_event_diff(
    a: List[Dict], b: List[Dict]
) -> Tuple[int, Optional[Dict], Optional[Dict]]:
    """Index and pair of the first differing detail events."""
    for i in range(max(len(a), len(b))):
        ea = a[i] if i < len(a) else None
        eb = b[i] if i < len(b) else None
        if ea != eb:
            return i, ea, eb
    return -1, None, None


def _diff_records(
    rec_a: Dict[str, Any],
    rec_b: Dict[str, Any],
    ignore: Tuple[str, ...],
) -> Optional[Tuple[str, Any, Any, Optional[str], Optional[Dict]]]:
    """First divergent field of one record pair, or None.

    Returns (field, a value, b value, vertex, message) where vertex /
    message are filled in when the divergence pins down to one detail
    event.
    """
    for name, default in FIELD_ORDER:
        if name in ignore:
            continue
        va = rec_a.get(name, default)
        vb = rec_b.get(name, default)
        if va == vb:
            continue
        if name.endswith("_histogram"):
            key, ha, hb = _first_hist_diff(va or {}, vb or {})
            return (f"{name}[{key}]", ha, hb, None, None)
        if name == "events":
            idx, ea, eb = _first_event_diff(va or [], vb or [])
            sample = ea if ea is not None else eb
            vertex = sample.get("s") if sample else None
            return (f"events[{idx}]", ea, eb, vertex, sample)
        return (name, va, vb, None, None)
    # Unknown extra fields (forward compatibility): compare whatever
    # either side carries beyond the known schema.
    known = {name for name, _ in FIELD_ORDER}
    extras = sorted(
        (set(rec_a) | set(rec_b)) - known - set(ignore)
    )
    for name in extras:
        va = rec_a.get(name)
        vb = rec_b.get(name)
        if va != vb:
            return (name, va, vb, None, None)
    return None


def diff_traces(
    records_a: List[Dict[str, Any]],
    records_b: List[Dict[str, Any]],
    ignore: Tuple[str, ...] = DEFAULT_IGNORE,
) -> Optional[Divergence]:
    """First divergence between two trace files, or None when they
    describe the same execution.

    Streams are paired positionally; within a stream, records are
    compared index by index, fields in :data:`FIELD_ORDER`.
    """
    streams_a = split_streams(records_a)
    streams_b = split_streams(records_b)
    if len(streams_a) != len(streams_b):
        return Divergence(
            kind="streams",
            a_value=[label for label, _ in streams_a],
            b_value=[label for label, _ in streams_b],
            detail=(
                f"file A holds {len(streams_a)} simulation stream(s), "
                f"file B holds {len(streams_b)}"
            ),
        )
    for pos, ((label_a, recs_a), (label_b, recs_b)) in enumerate(
        zip(streams_a, streams_b)
    ):
        for i in range(min(len(recs_a), len(recs_b))):
            found = _diff_records(recs_a[i], recs_b[i], ignore)
            if found is None:
                continue
            fname, va, vb, vertex, message = found
            round_a = recs_a[i].get("round")
            div = Divergence(
                kind="field",
                sim_a=label_a,
                sim_b=label_b,
                stream=pos,
                index=i,
                round=round_a,
                field=fname,
                a_value=va,
                b_value=vb,
                vertex=vertex,
                message=message,
                detail=(
                    f"stream {pos} ({label_a!r} vs {label_b!r}) record "
                    f"{i} (round {round_a}): field {fname} differs"
                ),
            )
            return div
        if len(recs_a) != len(recs_b):
            longer = recs_a if len(recs_a) > len(recs_b) else recs_b
            i = min(len(recs_a), len(recs_b))
            return Divergence(
                kind="length",
                sim_a=label_a,
                sim_b=label_b,
                stream=pos,
                index=i,
                round=longer[i].get("round"),
                a_value=len(recs_a),
                b_value=len(recs_b),
                detail=(
                    f"stream {pos} ({label_a!r} vs {label_b!r}): record "
                    f"counts differ ({len(recs_a)} vs {len(recs_b)}); "
                    f"first unmatched round is {longer[i].get('round')}"
                ),
            )
    return None


# ----------------------------------------------------------------------
# Per-vertex causal provenance (schema-5 detail events)
# ----------------------------------------------------------------------

@dataclass
class VertexRoundReport:
    """What one vertex saw and did around one executed round.

    ``inbound`` lists the detail events attributed to ``round`` whose
    receiver is the vertex — deliveries (and duplicates/corruptions)
    it read this round, plus channel outcomes (drop / delay /
    topo_lost / partitioned) for transmissions that *would* have
    arrived this round.  ``outbound`` lists the events whose sender is
    the vertex from the *next* recorded round — messages sent during
    ``round``, attributed (like all traffic) to the round they deliver
    into.  ``upstream`` optionally chains one report per lineage level
    for the vertices that delivered into this one.
    """

    vertex: str
    round: int
    sim: str = ""
    found: bool = True
    inbound: List[Dict[str, Any]] = field(default_factory=list)
    outbound: List[Dict[str, Any]] = field(default_factory=list)
    upstream: List["VertexRoundReport"] = field(default_factory=list)

    def render(self, indent: str = "") -> str:
        lines = [
            f"{indent}vertex {self.vertex} @ round {self.round}"
            + (f" [{self.sim}]" if self.sim else "")
        ]
        if not self.found:
            lines.append(
                f"{indent}  (round {self.round} was not recorded for "
                "this simulation — it may have been fast-forwarded)"
            )
            return "\n".join(lines)
        if self.inbound:
            lines.append(f"{indent}  inbound ({len(self.inbound)}):")
            for e in self.inbound:
                lines.append(f"{indent}    {_render_event(e)}")
        else:
            lines.append(f"{indent}  inbound: none")
        if self.outbound:
            lines.append(f"{indent}  outbound ({len(self.outbound)}):")
            for e in self.outbound:
                lines.append(f"{indent}    {_render_event(e)}")
        else:
            lines.append(f"{indent}  outbound: none")
        for up in self.upstream:
            lines.append(up.render(indent + "  "))
        return "\n".join(lines)


def _render_event(event: Dict[str, Any]) -> str:
    core = (
        f"{event.get('s', '?')} -> {event.get('r', '?')}"
        f"  seq={event.get('q', '?')}"
    )
    if "b" in event:
        core += f"  bits={event['b']}"
    core += f"  [{event.get('o', '?')}]"
    if "sr" in event:
        core += f" (sent round {event['sr']})"
    return core


def _stream_for(
    records: List[Dict[str, Any]], sim: Optional[str]
) -> Tuple[str, List[Dict[str, Any]]]:
    streams = split_streams(records)
    if not streams:
        raise ValueError("trace file holds no records")
    if sim is None:
        if len(streams) > 1:
            labels = ", ".join(repr(label) for label, _ in streams)
            raise ValueError(
                f"trace file holds {len(streams)} simulations "
                f"({labels}); pick one with --sim"
            )
        return streams[0]
    for label, recs in streams:
        if label == sim:
            return label, recs
    # Substring convenience: `--sim fast` selects `fast:n=24`.
    matches = [(label, recs) for label, recs in streams if sim in label]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ValueError(f"no simulation stream matches {sim!r}")
    labels = ", ".join(repr(label) for label, _ in matches)
    raise ValueError(f"--sim {sim!r} is ambiguous: {labels}")


def explain_vertex(
    records: List[Dict[str, Any]],
    vertex: str,
    round_number: int,
    sim: Optional[str] = None,
    depth: int = 0,
) -> VertexRoundReport:
    """Message lineage of one vertex around one executed round.

    Requires schema-5 detail events (record with ``--trace-detail``);
    files without events raise :class:`ValueError` with a hint.
    ``depth`` levels of upstream provenance chase the senders that
    delivered into the vertex back through earlier rounds.
    """
    label, recs = _stream_for(records, sim)
    if not any(r.get("events") for r in recs):
        raise ValueError(
            "trace carries no detail events (schema 5); re-record with "
            "--trace-detail to use explain"
        )
    by_round = {r.get("round"): (i, r) for i, r in enumerate(recs)}
    if round_number not in by_round:
        return VertexRoundReport(
            vertex=vertex, round=round_number, sim=label, found=False
        )
    idx, rec = by_round[round_number]
    inbound = [
        e for e in rec.get("events", []) if e.get("r") == vertex
    ]
    outbound: List[Dict[str, Any]] = []
    if idx + 1 < len(recs):
        nxt = recs[idx + 1]
        # Only same-round sends: a release delivered later was sent
        # earlier than this round (its `sr` says when).
        outbound = [
            e
            for e in nxt.get("events", [])
            if e.get("s") == vertex
            and e.get("sr", round_number) == round_number
        ]
    report = VertexRoundReport(
        vertex=vertex,
        round=round_number,
        sim=label,
        inbound=inbound,
        outbound=outbound,
    )
    if depth > 0:
        senders = []
        for e in inbound:
            s = e.get("s")
            if s is not None and s not in senders:
                senders.append(s)
        prev_rounds = [r.get("round") for r in recs[:idx]]
        if prev_rounds:
            prev_round = prev_rounds[-1]
            for s in senders:
                report.upstream.append(
                    explain_vertex(
                        records, s, prev_round, sim=label, depth=depth - 1
                    )
                )
    return report
