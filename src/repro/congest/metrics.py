"""Round, message, and congestion accounting for CONGEST runs."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List


def _merge_histograms(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    """Sum two sparse ``multiplicity -> observations`` histograms."""
    merged = dict(a)
    for key, value in b.items():
        merged[key] = merged.get(key, 0) + value
    return merged


def _histogram_percentile(histogram: Dict[int, int], q: float) -> int:
    """Nearest-rank percentile of a sparse integer histogram."""
    total = sum(histogram.values())
    if total == 0:
        return 0
    rank = max(1, int(q * total + 0.5))
    acc = 0
    for key in sorted(histogram):
        acc += histogram[key]
        if acc >= rank:
            return key
    return max(histogram)


@dataclass
class CongestMetrics:
    """Aggregate statistics of one simulated execution.

    ``rounds``
        Synchronous rounds executed by the simulator (including
        fast-forwarded quiescent rounds).  Equals the simulator's final
        round counter: each executed round calls :meth:`record_round`
        exactly once with the traffic delivered *into* it, and each
        fast-forwarded stretch calls :meth:`record_skipped`.
    ``effective_rounds``
        Σ over rounds of the maximum number of messages any single
        directed edge carried in that round.  When an algorithm batches
        several unit messages onto one edge in one simulated round
        (which real CONGEST would serialize), this is the faithful
        CONGEST round count.  When no edge carries more than one
        message in any round it equals ``rounds``.
    ``total_messages`` / ``total_bits``
        Volume counters across the whole run.
    ``max_message_bits``
        The largest single message observed — the experiment E12 series
        showing the framework stays within O(log n) bits.
    ``max_edge_congestion``
        max over (round, edge) of messages carried — Lemma 2.4 claims
        this is O(log n) for the random-walk router.
    ``congestion_histogram``
        The full per-edge congestion *distribution*: maps message
        multiplicity to the number of (round, directed edge) pairs that
        carried exactly that many messages.  Idle edges are not
        observed.  ``max_edge_congestion`` is its largest key;
        :meth:`congestion_summary` reports p50/p95/max over it.
    ``messages_dropped`` / ``messages_duplicated`` / ``messages_corrupted``
        What the (injected-fault) channel did to transmissions that the
        volume counters above already charged to the sender: see
        :mod:`repro.congest.faults`.  All zero in a fault-free run.
    ``messages_delayed``
        Transmissions the channel withheld past their normal delivery
        round (each is still charged at its send slot; the counter
        records that its payload arrived late and possibly reordered).
    ``messages_lost_topology``
        Transmissions attempted over an edge absent from the round's
        churned adjacency view (not yet arrived, departed, or outside
        every up-window).
    ``messages_partitioned``
        Transmissions lost crossing two isolated blocks of an active
        partition window.
    ``vertices_crashed``
        Vertices fail-stopped by a fault plan during this execution.
    ``vertices_rejoined``
        Crash-recovery events: crashed vertices that came back (from a
        local snapshot or a fresh re-initialization) per the plan's
        rejoin schedule.  Each rejoin also counted once in
        ``vertices_crashed`` when the vertex went down.
    """

    rounds: int = 0
    effective_rounds: int = 0
    total_messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    max_edge_congestion: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_corrupted: int = 0
    messages_delayed: int = 0
    messages_lost_topology: int = 0
    messages_partitioned: int = 0
    vertices_crashed: int = 0
    vertices_rejoined: int = 0
    messages_per_round: List[int] = field(default_factory=list)
    congestion_histogram: Dict[int, int] = field(default_factory=dict)

    def record_round(
        self,
        per_edge_counts: Dict,
        messages: int,
        bits: int,
        faults: "tuple[int, ...] | None" = None,
    ) -> None:
        """Fold one round of traffic into the aggregates.

        ``faults`` is the optional (dropped, duplicated, corrupted,
        delayed, topology-lost, partitioned) counter tuple for the
        traffic delivered into this round.
        """
        self.rounds += 1
        if per_edge_counts:
            values = per_edge_counts.values()
            round_congestion = max(values)
            histogram = self.congestion_histogram
            if round_congestion == 1:
                # Capacity-1 round (the overwhelmingly common case):
                # every active edge carried exactly one message, so the
                # whole round collapses into one histogram cell.
                histogram[1] = histogram.get(1, 0) + len(per_edge_counts)
            else:
                # One pass over the active edges builds this round's
                # sparse congestion histogram.
                round_histogram = Counter(values)
                for multiplicity, edges in round_histogram.items():
                    histogram[multiplicity] = (
                        histogram.get(multiplicity, 0) + edges
                    )
        else:
            round_congestion = 0
        self.effective_rounds += max(1, round_congestion)
        self.total_messages += messages
        self.total_bits += bits
        self.max_edge_congestion = max(self.max_edge_congestion, round_congestion)
        self.messages_per_round.append(messages)
        if faults is not None:
            self.messages_dropped += faults[0]
            self.messages_duplicated += faults[1]
            self.messages_corrupted += faults[2]
            self.messages_delayed += faults[3]
            self.messages_lost_topology += faults[4]
            self.messages_partitioned += faults[5]

    def record_crashed(self, count: int) -> None:
        """Account ``count`` vertices fail-stopped by a fault plan."""
        if count > 0:
            self.vertices_crashed += count

    def record_rejoined(self, count: int) -> None:
        """Account ``count`` crashed vertices rejoining the network."""
        if count > 0:
            self.vertices_rejoined += count

    def record_skipped(self, rounds: int) -> None:
        """Account a fast-forwarded quiescent stretch (no messages)."""
        if rounds <= 0:
            return
        self.rounds += rounds
        self.effective_rounds += rounds

    def merge(self, other: "CongestMetrics") -> "CongestMetrics":
        """Combine two executions run back to back (phases of one algorithm)."""
        merged = CongestMetrics(
            rounds=self.rounds + other.rounds,
            effective_rounds=self.effective_rounds + other.effective_rounds,
            total_messages=self.total_messages + other.total_messages,
            total_bits=self.total_bits + other.total_bits,
            max_message_bits=max(self.max_message_bits, other.max_message_bits),
            max_edge_congestion=max(
                self.max_edge_congestion, other.max_edge_congestion
            ),
            messages_dropped=self.messages_dropped + other.messages_dropped,
            messages_duplicated=(
                self.messages_duplicated + other.messages_duplicated
            ),
            messages_corrupted=(
                self.messages_corrupted + other.messages_corrupted
            ),
            messages_delayed=self.messages_delayed + other.messages_delayed,
            messages_lost_topology=(
                self.messages_lost_topology + other.messages_lost_topology
            ),
            messages_partitioned=(
                self.messages_partitioned + other.messages_partitioned
            ),
            vertices_crashed=self.vertices_crashed + other.vertices_crashed,
            vertices_rejoined=(
                self.vertices_rejoined + other.vertices_rejoined
            ),
            messages_per_round=self.messages_per_round + other.messages_per_round,
            congestion_histogram=_merge_histograms(
                self.congestion_histogram, other.congestion_histogram
            ),
        )
        return merged

    @classmethod
    def merge_parallel(cls, items: Iterable["CongestMetrics"]) -> "CongestMetrics":
        """Compose executions that run *in parallel* on disjoint networks.

        Rounds compose as a maximum (all shards advance through the
        same global rounds), volumes as sums, congestion as a maximum.
        This is the merge rule both for edge-disjoint clusters inside
        one framework run and for experiment cells merged back from a
        sharded :mod:`repro.runner` execution.
        """
        merged = cls()
        for m in items:
            merged.rounds = max(merged.rounds, m.rounds)
            merged.effective_rounds = max(
                merged.effective_rounds, m.effective_rounds
            )
            merged.total_messages += m.total_messages
            merged.total_bits += m.total_bits
            merged.max_message_bits = max(
                merged.max_message_bits, m.max_message_bits
            )
            merged.max_edge_congestion = max(
                merged.max_edge_congestion, m.max_edge_congestion
            )
            merged.messages_dropped += m.messages_dropped
            merged.messages_duplicated += m.messages_duplicated
            merged.messages_corrupted += m.messages_corrupted
            merged.messages_delayed += m.messages_delayed
            merged.messages_lost_topology += m.messages_lost_topology
            merged.messages_partitioned += m.messages_partitioned
            merged.vertices_crashed += m.vertices_crashed
            merged.vertices_rejoined += m.vertices_rejoined
            # Congestion observations are per (round, edge) pairs;
            # shards are edge-disjoint, so the union is a plain sum
            # even though the round counters compose as a maximum.
            merged.congestion_histogram = _merge_histograms(
                merged.congestion_histogram, m.congestion_histogram
            )
        return merged

    def to_dict(self, include_per_round: bool = False) -> Dict:
        """Plain-data form that survives a process boundary.

        ``repro.runner`` workers ship metrics back to the parent as
        dicts; :meth:`from_dict` rebuilds an equivalent object so the
        merge rules above apply identically in sharded and serial runs.
        """
        data: Dict = {
            "rounds": self.rounds,
            "effective_rounds": self.effective_rounds,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "max_message_bits": self.max_message_bits,
            "max_edge_congestion": self.max_edge_congestion,
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "messages_corrupted": self.messages_corrupted,
            "messages_delayed": self.messages_delayed,
            "messages_lost_topology": self.messages_lost_topology,
            "messages_partitioned": self.messages_partitioned,
            "vertices_crashed": self.vertices_crashed,
            "vertices_rejoined": self.vertices_rejoined,
            # String keys so the payload survives a JSON round trip
            # unchanged (from_dict normalizes back to ints).
            "congestion_histogram": {
                str(k): v for k, v in sorted(self.congestion_histogram.items())
            },
        }
        if include_per_round:
            data["messages_per_round"] = list(self.messages_per_round)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "CongestMetrics":
        return cls(
            rounds=data.get("rounds", 0),
            effective_rounds=data.get("effective_rounds", 0),
            total_messages=data.get("total_messages", 0),
            total_bits=data.get("total_bits", 0),
            max_message_bits=data.get("max_message_bits", 0),
            max_edge_congestion=data.get("max_edge_congestion", 0),
            messages_dropped=data.get("messages_dropped", 0),
            messages_duplicated=data.get("messages_duplicated", 0),
            messages_corrupted=data.get("messages_corrupted", 0),
            messages_delayed=data.get("messages_delayed", 0),
            messages_lost_topology=data.get("messages_lost_topology", 0),
            messages_partitioned=data.get("messages_partitioned", 0),
            vertices_crashed=data.get("vertices_crashed", 0),
            vertices_rejoined=data.get("vertices_rejoined", 0),
            messages_per_round=list(data.get("messages_per_round", [])),
            congestion_histogram={
                int(k): v
                for k, v in data.get("congestion_histogram", {}).items()
            },
        )

    def congestion_summary(self) -> Dict[str, Any]:
        """The per-edge congestion distribution in reporting form.

        ``observations`` counts (round, active directed edge) pairs;
        the percentiles are nearest-rank over the exact histogram, so
        ``max`` always equals ``max_edge_congestion``.
        """
        histogram = self.congestion_histogram
        return {
            "observations": sum(histogram.values()),
            "p50": _histogram_percentile(histogram, 0.50),
            "p95": _histogram_percentile(histogram, 0.95),
            "max": max(histogram, default=0),
            "histogram": {k: histogram[k] for k in sorted(histogram)},
        }

    def publish_telemetry(self, registry) -> None:
        """Fold this execution into a telemetry registry.

        Called by both engines at the end of :meth:`run` when telemetry
        is enabled; everything recorded here is a pure function of the
        simulated execution, so the fast and reference engines publish
        identical values.
        """
        registry.count("congest.simulations", 1)
        registry.count("congest.rounds", self.rounds)
        registry.count("congest.effective_rounds", self.effective_rounds)
        registry.count("congest.messages", self.total_messages)
        registry.count("congest.bits", self.total_bits)
        histogram = registry.histogram("congest.edge_congestion")
        for multiplicity, edges in self.congestion_histogram.items():
            histogram.observe(multiplicity, edges)

    def fault_summary(self) -> Dict[str, int]:
        """The fault counters as a dict (all zero when fault-free)."""
        return {
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "messages_corrupted": self.messages_corrupted,
            "messages_delayed": self.messages_delayed,
            "messages_lost_topology": self.messages_lost_topology,
            "messages_partitioned": self.messages_partitioned,
            "vertices_crashed": self.vertices_crashed,
            "vertices_rejoined": self.vertices_rejoined,
        }

    @property
    def faulted(self) -> bool:
        """Did any injected fault actually fire during this execution?"""
        return any(self.fault_summary().values())

    def summary(self) -> Dict[str, int]:
        """Compact dict for reporting tables.

        Fault counters appear only when at least one fault fired, so
        fault-free summaries keep their historical shape.
        """
        data = {
            "rounds": self.rounds,
            "effective_rounds": self.effective_rounds,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "max_message_bits": self.max_message_bits,
            "max_edge_congestion": self.max_edge_congestion,
        }
        if self.faulted:
            data.update(self.fault_summary())
        return data
