"""Deterministic fault injection for the CONGEST engines.

The paper's round-complexity theorems assume a perfectly synchronous,
lossless network.  This module lets experiments *remove* that
assumption in a controlled way: a :class:`FaultPlan` declares message
drop / duplicate / corrupt probabilities, vertex crash rounds (at most
one crash and one rejoin per vertex), and — the network-level adversity
layer — topology churn (edge arrivals / departures / up-windows, the
one way to take an edge down), partition windows that split the vertex
set into isolated blocks for a stretch of rounds, and a bounded
deterministic per-message delay.  The plan
compiles into a :class:`FaultInjector` that the channel both engines
share (:meth:`repro.congest.channel.EngineCore._transmit`) consults
once per message at delivery time.

Determinism contract
--------------------
Every fault decision is a pure function of
``(plan seed, send round, sender, receiver, per-edge sequence number)``
via a keyed hash — *not* a sequentially drawn RNG stream.  Iteration
order therefore cannot influence any decision, which is what makes
faulted runs bit-identical across the two engines and across repeated
executions (``tests/test_faults.py`` pins both, and pins the channel's
per-class semantics directly).  Schedules (churn, partitions,
crashes) are pure functions of the round number alone; the
per-message delay draws from the same keyed hash
under a disjoint sequence-number domain, so delay decisions never
correlate with drop/duplicate/corrupt decisions.

Accounting semantics
--------------------
Fault decisions happen on the wire, *after* the sender has paid for the
transmission: a dropped, duplicated, corrupted, delayed, or
topology-lost message still counts once in ``total_messages`` /
``total_bits`` / per-edge congestion, and so once in
``effective_rounds`` — a duplicate is the network's fault, not a
second send.  A *delayed* message is charged at its normal
delivery slot; the channel merely withholds the payload for the extra
rounds.  What the channel then did is tracked separately in the
``messages_dropped`` / ``messages_duplicated`` / ``messages_corrupted``
/ ``messages_delayed`` / ``messages_lost_topology`` /
``messages_partitioned`` / ``vertices_crashed`` counters of
:class:`~repro.congest.metrics.CongestMetrics` and per round in
:class:`~repro.congest.trace.RoundTrace`.

Scoping
-------
Like tracing, fault injection is opt-in and zero-overhead when off:
pass ``faults=FaultPlan(...)`` to ``CongestSimulator``, or open a
:func:`use_faults` region to subject every simulator constructed inside
(framework runs, whole experiment cells) to the same plan.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..errors import FaultError
from ..graph import edge_key

#: Fault classification outcomes, in decision order.
DELIVER = 0
DROP = 1
DUPLICATE = 2
CORRUPT = 3

#: Zero per-round fault counters: (dropped, duplicated, corrupted,
#: delayed, topology-lost, partitioned).
NO_FAULTS: Tuple[int, int, int, int, int, int] = (0, 0, 0, 0, 0, 0)


class CorruptedPayload:
    """Deterministic stand-in delivered in place of a corrupted message.

    Algorithms that inspect payload shapes can detect it (the walk
    exchange drops it as a lost token, which its origin then detects);
    algorithms that don't will typically raise on it, which the
    post-run validators report as a ``failed`` verdict rather than a
    silently wrong number.  The nonce is derived from the same
    keyed hash as the fault decision, so both engines deliver *equal*
    corrupted payloads.
    """

    __slots__ = ("nonce",)

    #: Wire size charged if an algorithm forwards a corrupted payload
    #: (a tag plus a 32-bit garbage word); consumed by ``message_bits``.
    congest_bits = 34

    def __init__(self, nonce: int) -> None:
        self.nonce = nonce

    def __repr__(self) -> str:
        return f"CorruptedPayload(0x{self.nonce:08x})"

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, CorruptedPayload) and other.nonce == self.nonce

    def __hash__(self) -> int:
        return hash(("CorruptedPayload", self.nonce))


@dataclass(frozen=True)
class EdgeWindow:
    """Undirected edge ``{u, v}`` is *up* only for send rounds
    [start, end]; outside every declared up-window of an edge, the
    edge is absent from that round's adjacency view."""

    u: Any
    v: Any
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise FaultError(
                f"edge up-window [{self.start}, {self.end}] is empty"
            )


@dataclass(frozen=True)
class PartitionWindow:
    """Vertex blocks isolated from each other for send rounds
    [start, end].

    During the window a message crossing two different blocks is lost;
    vertices listed in no block form one implicit "rest" block that
    still communicates internally.  After ``end`` the network heals.
    """

    blocks: Tuple[Tuple[Any, ...], ...]
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise FaultError(
                f"partition window [{self.start}, {self.end}] is empty"
            )
        object.__setattr__(
            self, "blocks", tuple(tuple(block) for block in self.blocks)
        )
        seen: Dict[Any, int] = {}
        for block_id, block in enumerate(self.blocks):
            for vertex in block:
                previous = seen.get(vertex)
                if previous is not None and previous != block_id:
                    raise FaultError(
                        f"vertex {vertex!r} appears in two blocks of one "
                        "partition window"
                    )
                seen[vertex] = block_id


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, fully deterministic description of what goes wrong.

    ``drop`` / ``duplicate`` / ``corrupt`` are independent per-message
    probabilities (their sum must stay <= 1; a single uniform draw per
    message is partitioned between them).  ``crashes`` maps a vertex to
    the round at which it fail-stops: it never steps at or after that
    round and its output is permanently ``None``.  A vertex crashes at
    most once and rejoins at most once: a second ``crashes`` or
    ``rejoins`` entry for one vertex is a conflicting crash schedule
    and raises :class:`~repro.errors.FaultError`.

    ``rejoins`` upgrades fail-stop to crash-*recovery*: it maps a
    crashed vertex to the deterministic round at which it comes back.
    A rejoining vertex restores from the most recent local snapshot the
    engine took of it (see ``checkpoint_interval``), or re-initializes
    from scratch if none was taken; mail queued while it was dead is
    lost either way.  Every rejoin round must be strictly greater than
    the vertex's scheduled crash round.  ``checkpoint_interval`` is the
    number of rounds between local snapshots of rejoin-scheduled
    vertices; ``None`` means no snapshots are ever taken, so every
    rejoin is a fresh re-initialization.

    The network-level adversity fields:

    ``edge_arrivals`` / ``edge_departures``
        Topology churn as ``(u, v, round)`` schedules: an edge with an
        arrival is absent from the adjacency view before that send
        round; an edge with a departure is absent at and after its
        departure round.  Scheduling an edge to depart at or before it
        arrives is a conflicting churn schedule and raises
        :class:`~repro.errors.FaultError`, as does scheduling two
        arrivals (or two departures) for the same edge.
    ``edge_up_windows``
        :class:`EdgeWindow` entries; an edge with at least one
        up-window exists only during its up-windows, so an outage
        ``[s, e]`` is the two up-windows around it.
    ``partitions``
        :class:`PartitionWindow` entries splitting the vertex set into
        isolated blocks for a round window; messages crossing blocks
        during the window are lost, and the network heals after it.
    ``delay`` / ``max_delay``
        Deterministic message delay: each transmission is withheld
        with probability ``delay`` for between 1 and ``max_delay``
        extra rounds (both decisions keyed-hash functions of the
        message coordinates).  A delayed message is charged at its
        normal delivery slot but reaches the receiver's inbox only
        when its release round executes, which reorders it past later
        traffic on the same edge.
    """

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    crashes: Tuple[Tuple[Any, int], ...] = ()
    rejoins: Tuple[Tuple[Any, int], ...] = ()
    checkpoint_interval: Optional[int] = None
    edge_arrivals: Tuple[Tuple[Any, Any, int], ...] = ()
    edge_departures: Tuple[Tuple[Any, Any, int], ...] = ()
    edge_up_windows: Tuple[EdgeWindow, ...] = ()
    partitions: Tuple[PartitionWindow, ...] = ()
    delay: float = 0.0
    max_delay: int = 1

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "corrupt"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultError(f"{name} rate {rate!r} outside [0, 1]")
        if self.drop + self.duplicate + self.corrupt > 1.0 + 1e-12:
            raise FaultError(
                "drop + duplicate + corrupt rates sum past 1 "
                f"({self.drop} + {self.duplicate} + {self.corrupt})"
            )
        # Normalize mutable inputs so plans hash and compare by value.
        object.__setattr__(
            self, "crashes", tuple((v, int(r)) for v, r in self.crashes)
        )
        object.__setattr__(
            self, "rejoins", tuple((v, int(r)) for v, r in self.rejoins)
        )
        if self.checkpoint_interval is not None:
            if int(self.checkpoint_interval) < 1:
                raise FaultError(
                    f"checkpoint_interval {self.checkpoint_interval!r} "
                    "must be a positive round count"
                )
            object.__setattr__(
                self, "checkpoint_interval", int(self.checkpoint_interval)
            )
        if not 0.0 <= self.delay <= 1.0:
            raise FaultError(f"delay rate {self.delay!r} outside [0, 1]")
        if int(self.max_delay) < 1:
            raise FaultError(
                f"max_delay {self.max_delay!r} must be a positive "
                "round count"
            )
        object.__setattr__(self, "max_delay", int(self.max_delay))
        object.__setattr__(
            self,
            "edge_arrivals",
            tuple((u, v, int(r)) for u, v, r in self.edge_arrivals),
        )
        object.__setattr__(
            self,
            "edge_departures",
            tuple((u, v, int(r)) for u, v, r in self.edge_departures),
        )
        object.__setattr__(
            self,
            "edge_up_windows",
            tuple(
                w if isinstance(w, EdgeWindow) else EdgeWindow(*w)
                for w in self.edge_up_windows
            ),
        )
        object.__setattr__(
            self,
            "partitions",
            tuple(
                w if isinstance(w, PartitionWindow) else PartitionWindow(*w)
                for w in self.partitions
            ),
        )
        # Churn schedules must be unambiguous: one arrival and one
        # departure per edge at most, and an edge cannot depart before
        # (or the instant) it arrives — that edge would never exist.
        arrivals: Dict[Tuple, int] = {}
        for u, v, round_number in self.edge_arrivals:
            key = edge_key(u, v)
            if key in arrivals:
                raise FaultError(
                    f"conflicting churn schedule: edge {key!r} has two "
                    "arrival rounds"
                )
            arrivals[key] = round_number
        departures: Dict[Tuple, int] = {}
        for u, v, round_number in self.edge_departures:
            key = edge_key(u, v)
            if key in departures:
                raise FaultError(
                    f"conflicting churn schedule: edge {key!r} has two "
                    "departure rounds"
                )
            departures[key] = round_number
        for key, departure in departures.items():
            arrival = arrivals.get(key)
            if arrival is not None and departure <= arrival:
                raise FaultError(
                    f"conflicting churn schedule: edge {key!r} departs "
                    f"at round {departure} but only arrives at round "
                    f"{arrival}"
                )
        # Crash schedules must be unambiguous too: one crash and at
        # most one rejoin per vertex, and a rejoin only for a vertex
        # that crashes strictly before it.
        for name, schedule in (("crash", self.crashes),
                               ("rejoin", self.rejoins)):
            scheduled: Set[Any] = set()
            for vertex, _ in schedule:
                if vertex in scheduled:
                    raise FaultError(
                        f"conflicting crash schedule: vertex {vertex!r} "
                        f"has two {name} rounds"
                    )
                scheduled.add(vertex)
        crash_rounds = dict(self.crashes)
        for vertex, round_number in self.rejoins:
            crash = crash_rounds.get(vertex)
            if crash is None:
                raise FaultError(
                    f"rejoin scheduled for {vertex!r} at round "
                    f"{round_number}, but the plan never crashes it"
                )
            if round_number <= crash:
                raise FaultError(
                    f"rejoin round {round_number} for {vertex!r} must be "
                    f"strictly after its crash round {crash}"
                )

    def is_empty(self) -> bool:
        """True iff this plan can never inject anything."""
        return (
            self.drop == 0.0
            and self.duplicate == 0.0
            and self.corrupt == 0.0
            and not self.crashes
            and not self.edge_arrivals
            and not self.edge_departures
            and not self.edge_up_windows
            and not self.partitions
            and self.delay == 0.0
        )

    def compile(self) -> Optional["FaultInjector"]:
        """The engine-facing hook, or ``None`` for an empty plan."""
        if self.is_empty():
            return None
        return FaultInjector(self)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "seed": self.seed,
            "drop": self.drop,
            "duplicate": self.duplicate,
            "corrupt": self.corrupt,
            "crashes": [[v, r] for v, r in self.crashes],
            "rejoins": [[v, r] for v, r in self.rejoins],
            "edge_arrivals": [[u, v, r] for u, v, r in self.edge_arrivals],
            "edge_departures": [
                [u, v, r] for u, v, r in self.edge_departures
            ],
            "edge_up_windows": [
                [w.u, w.v, w.start, w.end] for w in self.edge_up_windows
            ],
            "partitions": [
                [[list(block) for block in w.blocks], w.start, w.end]
                for w in self.partitions
            ],
            "delay": self.delay,
            "max_delay": self.max_delay,
        }
        if self.checkpoint_interval is not None:
            data["checkpoint_interval"] = self.checkpoint_interval
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Rebuild :meth:`to_dict` output.  Older code also wrote
        ``link_failures``: an empty list reads as absent, others raise."""
        if data.get("link_failures"):
            raise FaultError(
                "plan schedules link failures, which this code no longer "
                "reads; express each outage as edge up-windows"
            )
        return cls(
            seed=data.get("seed", 0),
            drop=data.get("drop", 0.0),
            duplicate=data.get("duplicate", 0.0),
            corrupt=data.get("corrupt", 0.0),
            crashes=tuple(
                (v, r) for v, r in data.get("crashes", ())
            ),
            rejoins=tuple(
                (v, r) for v, r in data.get("rejoins", ())
            ),
            checkpoint_interval=data.get("checkpoint_interval"),
            edge_arrivals=tuple(
                (u, v, r) for u, v, r in data.get("edge_arrivals", ())
            ),
            edge_departures=tuple(
                (u, v, r) for u, v, r in data.get("edge_departures", ())
            ),
            edge_up_windows=tuple(
                EdgeWindow(u, v, start, end)
                for u, v, start, end in data.get("edge_up_windows", ())
            ),
            partitions=tuple(
                PartitionWindow(
                    tuple(tuple(block) for block in blocks), start, end
                )
                for blocks, start, end in data.get("partitions", ())
            ),
            delay=data.get("delay", 0.0),
            max_delay=data.get("max_delay", 1),
        )


class FaultInjector:
    """Compiled :class:`FaultPlan`, consulted by the engines per message.

    One injector is built per simulator; it is stateless across calls
    (every answer is recomputed from the keyed hash), so sharing or
    rebuilding it cannot change any outcome.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._key = blake2b(
            str(plan.seed).encode("utf-8"), digest_size=16
        ).digest()
        # Cumulative thresholds partitioning the unit interval.
        self._drop_at = plan.drop
        self._duplicate_at = plan.drop + plan.duplicate
        self._corrupt_at = plan.drop + plan.duplicate + plan.corrupt
        self._has_message_faults = self._corrupt_at > 0.0
        self._crashes: Dict[Any, int] = dict(plan.crashes)
        self._rejoins: Dict[Any, int] = dict(plan.rejoins)
        # Topology churn: per-edge arrival/departure rounds plus
        # up-window lists (plan validation already rejected ambiguous
        # schedules, so plain assignment is safe here).
        self._arrivals: Dict[Tuple, int] = {
            edge_key(u, v): r for u, v, r in plan.edge_arrivals
        }
        self._departures: Dict[Tuple, int] = {
            edge_key(u, v): r for u, v, r in plan.edge_departures
        }
        self._up_windows: Dict[Tuple, List[Tuple[int, int]]] = {}
        for window in plan.edge_up_windows:
            key = edge_key(window.u, window.v)
            self._up_windows.setdefault(key, []).append(
                (window.start, window.end)
            )
        self.has_topology = bool(
            self._arrivals or self._departures or self._up_windows
        )
        # Partition windows: (start, end, vertex -> block id); vertices
        # in no declared block share the implicit rest block -1.
        self._partition_windows: List[Tuple[int, int, Dict[Any, int]]] = []
        for window in plan.partitions:
            assignment: Dict[Any, int] = {}
            for block_id, block in enumerate(window.blocks):
                for vertex in block:
                    assignment[vertex] = block_id
            self._partition_windows.append(
                (window.start, window.end, assignment)
            )
        self.has_partitions = bool(self._partition_windows)
        self.has_delay = plan.delay > 0.0

    # -- crash schedule -------------------------------------------------
    def crash_round(self, vertex: Any) -> Optional[int]:
        """Round at which ``vertex`` fail-stops, or None."""
        return self._crashes.get(vertex)

    def rejoin_round(self, vertex: Any) -> Optional[int]:
        """Round at which a crashed ``vertex`` rejoins, or None."""
        return self._rejoins.get(vertex)

    @property
    def checkpoint_interval(self) -> Optional[int]:
        """Rounds between local snapshots of rejoin-scheduled vertices."""
        return self.plan.checkpoint_interval

    def link_down(self, u: Any, v: Any, send_round: int) -> bool:
        """Always False: an edge goes down only through the churn
        schedule (:meth:`topology_live`).  Nothing in the library calls
        this; it stays defined for the benchmark's layer tracer, which
        wraps it by name."""
        return False

    # -- topology churn -------------------------------------------------
    def topology_live(self, u: Any, v: Any, send_round: int) -> bool:
        """Does the undirected edge {u, v} exist in this round's
        adjacency view?  (True for edges the churn schedule never
        mentions.)"""
        if not self.has_topology:
            return True
        key = edge_key(u, v)
        arrival = self._arrivals.get(key)
        if arrival is not None and send_round < arrival:
            return False
        departure = self._departures.get(key)
        if departure is not None and send_round >= departure:
            return False
        windows = self._up_windows.get(key)
        if windows is not None and not any(
            start <= send_round <= end for start, end in windows
        ):
            return False
        return True

    # -- partition schedule ---------------------------------------------
    def partitioned(self, u: Any, v: Any, send_round: int) -> bool:
        """Are ``u`` and ``v`` in different isolated blocks this round?"""
        if not self.has_partitions:
            return False
        for start, end, assignment in self._partition_windows:
            if start <= send_round <= end:
                if assignment.get(u, -1) != assignment.get(v, -1):
                    return True
        return False

    # -- per-message classification -------------------------------------
    def _hash64(self, send_round: int, sender: Any, receiver: Any,
                seq: int) -> int:
        token = f"{send_round}|{sender!r}|{receiver!r}|{seq}"
        digest = blake2b(
            token.encode("utf-8"), digest_size=8, key=self._key
        ).digest()
        return int.from_bytes(digest, "big")

    def classify(self, send_round: int, sender: Any, receiver: Any,
                 seq: int) -> int:
        """DELIVER / DROP / DUPLICATE / CORRUPT for one transmission.

        ``seq`` is the zero-based index of the message among those sent
        over the same directed edge in the same round, which both
        engines derive from the identical per-edge congestion count.
        """
        if not self._has_message_faults:
            return DELIVER
        unit = self._hash64(send_round, sender, receiver, seq) / 2.0 ** 64
        if unit < self._drop_at:
            return DROP
        if unit < self._duplicate_at:
            return DUPLICATE
        if unit < self._corrupt_at:
            return CORRUPT
        return DELIVER

    def corrupted_payload(self, send_round: int, sender: Any, receiver: Any,
                          seq: int) -> CorruptedPayload:
        """The deterministic garbage delivered for a corrupted message."""
        nonce = self._hash64(send_round, sender, receiver, seq + 1_000_003)
        return CorruptedPayload(nonce & 0xFFFFFFFF)

    # -- per-message delay ----------------------------------------------
    def delay_rounds(self, send_round: int, sender: Any, receiver: Any,
                     seq: int) -> int:
        """Extra rounds the channel withholds this transmission (0 =
        deliver on time).

        Both draws live in sequence-number domains disjoint from the
        classify/corrupt domains, so enabling delay never perturbs
        which messages drop, duplicate, or corrupt.
        """
        if not self.has_delay:
            return 0
        gate = self._hash64(send_round, sender, receiver, seq + 2_000_003)
        if gate / 2.0 ** 64 >= self.plan.delay:
            return 0
        if self.plan.max_delay == 1:
            return 1
        magnitude = self._hash64(
            send_round, sender, receiver, seq + 3_000_017
        )
        return 1 + magnitude % self.plan.max_delay


# ----------------------------------------------------------------------
# Session scoping: subject every simulator in a region to one plan.
# ----------------------------------------------------------------------

_ACTIVE_PLANS: List[FaultPlan] = []


def active_fault_plan() -> Optional[FaultPlan]:
    """The innermost :func:`use_faults` plan, if any."""
    return _ACTIVE_PLANS[-1] if _ACTIVE_PLANS else None


@contextlib.contextmanager
def use_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Apply ``plan`` to every simulator constructed in this region.

    High-level entry points (``run_framework``, ``distributed_maxis``,
    experiment cells) build many simulators internally; this is how a
    whole pipeline is run under one fault model without threading a
    plan through every call signature::

        with use_faults(FaultPlan(seed=1, drop=0.05)):
            result = run_framework(g, eps, solver=solver, seed=0)
    """
    if not isinstance(plan, FaultPlan):
        raise FaultError(f"use_faults expects a FaultPlan, got {plan!r}")
    _ACTIVE_PLANS.append(plan)
    try:
        yield plan
    finally:
        _ACTIVE_PLANS.remove(plan)
