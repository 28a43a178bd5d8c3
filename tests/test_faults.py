"""Deterministic fault injection: plan semantics + engine equivalence.

Three things are pinned here.  First, the :class:`FaultPlan` /
:class:`FaultInjector` contract itself: validation, serialization,
and the keyed-hash determinism that makes every fault decision a pure
function of (seed, send round, edge, sequence number).  Second,
*faulted* runs stay bit-identical between the fast and reference
engines for the same algorithm families the fault-free differential
harness covers, and an *empty* plan changes nothing at all.  Third —
because both engines share one channel, so the second point cannot
catch a channel bug — two-vertex probes pin the channel itself to
``docs/faults.md``: the exact delivery log and counters for every
fault class and for messages that meet several faults at once.
"""

import pytest

from repro.congest import (
    CongestSimulator,
    CorruptedPayload,
    EdgeWindow,
    FaultPlan,
    PartitionWindow,
    TraceRecorder,
    TraceSession,
    VertexAlgorithm,
    active_fault_plan,
    message_bits,
    use_engine,
    use_faults,
)
from repro.congest.faults import DELIVER, FaultInjector
from repro.decomposition.mpx import mpx_ldd
from repro.errors import CrashedVertexError, FaultError
from repro.generators import (
    delaunay_planar_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
)
from repro.independent_set.greedy import luby_mis
from repro.routing.leader import elect_leader
from repro.routing.walk_exchange import walk_exchange

SEEDS = (11, 29, 47)

#: A plan exercising all three message-fault kinds at once.
MESSAGE_PLAN = FaultPlan(seed=7, drop=0.08, duplicate=0.05, corrupt=0.04)


def _metrics_fingerprint(metrics):
    return (metrics.to_dict(), metrics.fault_summary())


class Flood(VertexAlgorithm):
    """Max-ID flooding with a round budget (pure simulator workload)."""

    def __init__(self, budget):
        self.budget = budget
        self.best = None

    def initialize(self, ctx):
        self.best = ctx.vertex
        ctx.broadcast(self.best)

    def step(self, ctx, inbox):
        for payloads in inbox.values():
            for value in payloads:
                # A corrupted payload is not an ID; a real algorithm
                # must survive seeing one on the wire.
                if isinstance(value, CorruptedPayload):
                    continue
                if value > self.best:
                    self.best = value
                    ctx.broadcast(self.best)
        if ctx.round_number >= self.budget:
            ctx.halt(self.best)


# ----------------------------------------------------------------------
# FaultPlan semantics
# ----------------------------------------------------------------------


def test_empty_plan_compiles_to_nothing():
    assert FaultPlan().is_empty()
    assert FaultPlan().compile() is None
    assert FaultPlan(seed=99).is_empty()  # a seed alone injects nothing
    assert not MESSAGE_PLAN.is_empty()
    assert MESSAGE_PLAN.compile() is not None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"drop": -0.1},
        {"duplicate": 1.5},
        {"corrupt": 2.0},
        {"drop": 0.6, "duplicate": 0.5},
    ],
)
def test_invalid_rates_rejected(kwargs):
    with pytest.raises(FaultError):
        FaultPlan(**kwargs)


@pytest.mark.parametrize(
    "kwargs, schedule",
    [
        ({"crashes": ((3, 1), (3, 5))}, "two crash rounds"),
        ({"crashes": ((3, 1), (3, 1))}, "two crash rounds"),
        (
            {"crashes": ((3, 1),), "rejoins": ((3, 3), (3, 7))},
            "two rejoin rounds",
        ),
    ],
)
def test_second_crash_or_rejoin_of_a_vertex_rejected(kwargs, schedule):
    """A vertex crashes at most once and rejoins at most once: a second
    entry would be ambiguous, so the plan refuses it."""
    with pytest.raises(
        FaultError, match=f"conflicting crash schedule: vertex 3 has {schedule}"
    ):
        FaultPlan(**kwargs)


def test_plan_roundtrips_through_dict():
    plan = FaultPlan(
        seed=3,
        drop=0.1,
        edge_up_windows=((0, 1, 2, 5),),
        crashes=((4, 7),),
    )
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_plan_reads_an_empty_link_failure_list_and_refuses_others():
    """Older code wrote ``link_failures`` into every plan's dict.  An
    empty list reads as the same plan; an outage scheduled that way is
    refused, not silently dropped."""
    data = FaultPlan(seed=3, drop=0.1).to_dict()
    assert "link_failures" not in data
    assert FaultPlan.from_dict({**data, "link_failures": []}) == (
        FaultPlan(seed=3, drop=0.1)
    )
    with pytest.raises(FaultError, match="link failures"):
        FaultPlan.from_dict({**data, "link_failures": [[0, 1, 2, 5]]})


def _random_plan(rng):
    """One structurally valid plan drawn from the full parameter space."""
    rates = {}
    for rate in ("drop", "duplicate", "corrupt"):
        if rng.random() < 0.6:
            rates[rate] = round(rng.uniform(0.0, 0.4), 3)
    # Distinct crash vertices: a vertex crashes at most once.
    crashes = tuple(
        (v, rng.randrange(1, 20))
        for v in rng.sample(range(30), k=rng.randrange(4))
    )
    # Each rejoin targets a crashed vertex, strictly after its crash.
    rejoins = tuple(
        (v, r + 1 + rng.randrange(10))
        for v, r in rng.sample(crashes, k=rng.randrange(len(crashes) + 1))
    )
    interval = rng.randrange(1, 6) if rejoins or rng.random() < 0.3 else None
    # Churn: distinct edges so no edge draws two arrivals (or two
    # departures), and any departure lands strictly after the arrival.
    churn_edges = rng.sample(
        [(u, v) for u in range(8) for v in range(u + 1, 9)],
        k=rng.randrange(5),
    )
    arrivals, departures = [], []
    for u, v in churn_edges:
        arrive = rng.randrange(10) if rng.random() < 0.7 else None
        if arrive is not None:
            arrivals.append((u, v, arrive))
        if rng.random() < 0.5:
            departures.append(
                (u, v, (0 if arrive is None else arrive) + 1 + rng.randrange(10))
            )
    up_windows = tuple(
        EdgeWindow(
            rng.randrange(30), rng.randrange(30), start, start + rng.randrange(8)
        )
        for start in (rng.randrange(15) for _ in range(rng.randrange(3)))
    )
    partitions = tuple(
        PartitionWindow(
            (tuple(rng.sample(range(30), k=rng.randrange(1, 6))),),
            start,
            start + rng.randrange(10),
        )
        for start in (rng.randrange(15) for _ in range(rng.randrange(3)))
    )
    delay = round(rng.uniform(0.0, 0.5), 3) if rng.random() < 0.6 else 0.0
    return FaultPlan(
        seed=rng.randrange(10_000),
        crashes=crashes,
        rejoins=rejoins,
        checkpoint_interval=interval,
        edge_arrivals=tuple(arrivals),
        edge_departures=tuple(departures),
        edge_up_windows=up_windows,
        partitions=partitions,
        delay=delay,
        max_delay=rng.randrange(1, 5),
        **rates,
    )


def test_random_plans_roundtrip_through_json():
    """Property check: serialization is lossless over the whole space.

    Equality of the plans is necessary but not sufficient — what the
    engines consume is the compiled injector, so for plans that
    compile, every classification and corruption nonce must replay
    identically from the round-tripped copy.
    """
    import json
    import random

    rng = random.Random(0xFA17)
    probes = [
        (r, u, v, s)
        for r in (0, 1, 7, 19)
        for (u, v) in ((0, 1), (1, 0), (5, 23))
        for s in (0, 1, 2)
    ]
    checked_injectors = 0
    for _ in range(50):
        plan = _random_plan(rng)
        wire = json.loads(json.dumps(plan.to_dict()))
        restored = FaultPlan.from_dict(wire)
        assert restored == plan
        assert restored.to_dict() == plan.to_dict()
        assert restored.is_empty() == plan.is_empty()
        original = plan.compile()
        copy = restored.compile()
        if original is None:
            assert copy is None
            continue
        checked_injectors += 1
        for r, u, v, s in probes:
            assert copy.classify(r, u, v, s) == original.classify(r, u, v, s)
            assert copy.corrupted_payload(r, u, v, s) == (
                original.corrupted_payload(r, u, v, s)
            )
            # Network-adversity decisions must replay identically too:
            # topology view, partition membership, and delay draws are
            # all part of the compiled-injector contract.
            assert copy.topology_live(u, v, r) == original.topology_live(u, v, r)
            assert copy.partitioned(u, v, r) == original.partitioned(u, v, r)
            assert copy.delay_rounds(r, u, v, s) == (
                original.delay_rounds(r, u, v, s)
            )
        for v in {v for v, _ in plan.crashes}:
            assert copy.crash_round(v) == original.crash_round(v)
            assert copy.rejoin_round(v) == original.rejoin_round(v)
    assert checked_injectors > 10  # the sweep wasn't vacuously empty


def test_use_faults_scoping():
    plan = FaultPlan(seed=1, drop=0.5)
    assert active_fault_plan() is None
    with use_faults(plan):
        assert active_fault_plan() is plan
        inner = FaultPlan(seed=2, drop=0.1)
        with use_faults(inner):
            assert active_fault_plan() is inner
        assert active_fault_plan() is plan
    assert active_fault_plan() is None
    with pytest.raises(FaultError):
        with use_faults("not a plan"):
            pass


# ----------------------------------------------------------------------
# Injector determinism
# ----------------------------------------------------------------------


def test_classification_is_a_pure_function():
    """Rebuilding the injector cannot change any decision."""
    a = FaultInjector(MESSAGE_PLAN)
    b = FaultInjector(MESSAGE_PLAN)
    decisions = [
        a.classify(r, u, v, s)
        for r in range(20)
        for (u, v) in ((0, 1), (1, 0), (3, 7))
        for s in range(3)
    ]
    assert decisions == [
        b.classify(r, u, v, s)
        for r in range(20)
        for (u, v) in ((0, 1), (1, 0), (3, 7))
        for s in range(3)
    ]
    assert any(d != DELIVER for d in decisions)


def test_classification_rates_are_roughly_honored():
    injector = FaultInjector(FaultPlan(seed=5, drop=0.5))
    samples = [injector.classify(r, 0, 1, s) for r in range(500) for s in range(4)]
    dropped = sum(1 for d in samples if d != DELIVER)
    assert 0.4 < dropped / len(samples) < 0.6


def test_different_seeds_give_different_streams():
    a = FaultInjector(FaultPlan(seed=1, drop=0.3))
    b = FaultInjector(FaultPlan(seed=2, drop=0.3))
    grid = [(r, s) for r in range(50) for s in range(2)]
    assert [a.classify(r, 0, 1, s) for r, s in grid] != [
        b.classify(r, 0, 1, s) for r, s in grid
    ]


def test_corrupted_payload_is_deterministic_and_sized():
    injector = FaultInjector(FaultPlan(seed=9, corrupt=1.0))
    p1 = injector.corrupted_payload(3, 0, 1, 0)
    p2 = injector.corrupted_payload(3, 0, 1, 0)
    assert p1 == p2 and hash(p1) == hash(p2)
    assert p1 != injector.corrupted_payload(4, 0, 1, 0)
    assert message_bits(p1) == CorruptedPayload.congest_bits


# ----------------------------------------------------------------------
# Differential: faulted runs are bit-identical across engines
# ----------------------------------------------------------------------


def _run_both(runner, seed):
    """Run ``runner(seed)`` under each engine; return both results.
    Their round traces must agree record for record."""
    with use_engine("reference"), TraceSession() as ref_session:
        ref = runner(seed)
    with use_engine("fast"), TraceSession() as fast_session:
        fast = runner(seed)
    assert ref_session.recorders
    assert _session_records(ref_session) == _session_records(fast_session)
    return ref, fast


def _session_records(session):
    """Every recorded round, without the engine-named labels."""
    return [rec.rounds for rec in session.recorders]


@pytest.mark.parametrize("seed", SEEDS)
def test_faulted_flood_equivalent(seed):
    g = gnp_random_graph(30, 0.15, seed=seed)

    def runner(s):
        sim = CongestSimulator(
            g, lambda v: Flood(10), seed=s, faults=MESSAGE_PLAN
        )
        return sim.run(max_rounds=25)

    ref, fast = _run_both(runner, seed)
    assert ref.outputs == fast.outputs
    assert ref.halted == fast.halted
    assert ref.crashed == fast.crashed
    assert _metrics_fingerprint(ref.metrics) == _metrics_fingerprint(
        fast.metrics
    )
    # The plan must actually have bitten, or this test proves nothing.
    assert ref.metrics.faulted


@pytest.mark.parametrize("seed", SEEDS)
def test_faulted_leader_election_equivalent(seed):
    g = delaunay_planar_graph(40, seed=seed)
    plan = FaultPlan(seed=13, drop=0.03, duplicate=0.02)

    def runner(s):
        with use_faults(plan):
            return elect_leader(g, seed=s)

    (ref_leader, ref), (fast_leader, fast) = _run_both(runner, seed)
    assert ref_leader == fast_leader
    assert ref.outputs == fast.outputs
    assert _metrics_fingerprint(ref.metrics) == _metrics_fingerprint(
        fast.metrics
    )
    assert ref.metrics.faulted


@pytest.mark.parametrize("seed", SEEDS)
def test_faulted_mpx_equivalent(seed):
    g = delaunay_planar_graph(48, seed=seed)
    plan = FaultPlan(seed=21, drop=0.05)

    def runner(s):
        with use_faults(plan):
            return mpx_ldd(g, 0.3, seed=s)

    (ref_ldd, ref), (fast_ldd, fast) = _run_both(runner, seed)
    assert ref.outputs == fast.outputs
    assert sorted(map(sorted, ref_ldd.clusters)) == sorted(
        map(sorted, fast_ldd.clusters)
    )
    assert _metrics_fingerprint(ref.metrics) == _metrics_fingerprint(
        fast.metrics
    )
    assert ref.metrics.faulted


#: Every message arrives as a ``CorruptedPayload``.
CORRUPT_ALL = FaultPlan(seed=5, corrupt=1.0)


def test_corrupted_walk_tokens_are_lost():
    """A corrupted token is lost, not fatal: the exchange returns on
    both engines and every request but the leader's own (absorbed
    locally) ends undelivered — the Section 2.3 failure detection."""
    g = grid_graph(4, 4)
    leader = 5
    requests = {v: [("H", v)] for v in g.vertices()}

    def runner(s):
        with use_faults(CORRUPT_ALL):
            return walk_exchange(g, leader, requests, phi=0.3, seed=s)

    ref, fast = _run_both(runner, 3)
    assert ref.undelivered == fast.undelivered
    assert ref.responses == fast.responses
    assert _metrics_fingerprint(ref.metrics) == _metrics_fingerprint(
        fast.metrics
    )
    assert sorted(fast.undelivered) == sorted(
        (v, 0) for v in g.vertices() if v != leader
    )
    assert not fast.success
    assert fast.metrics.faulted


def test_corrupted_luby_messages_are_lost():
    g = gnp_random_graph(60, 0.08, seed=4)

    def runner(s):
        with use_faults(CORRUPT_ALL):
            return luby_mis(g, seed=s)

    (ref_mis, ref), (fast_mis, fast) = _run_both(runner, 3)
    assert ref_mis == fast_mis
    assert ref.outputs == fast.outputs
    assert _metrics_fingerprint(ref.metrics) == _metrics_fingerprint(
        fast.metrics
    )
    assert fast.metrics.faulted


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_faulted_traces_equivalent(seed):
    """Per-round fault counters agree record-for-record."""
    g = gnp_random_graph(24, 0.2, seed=seed)
    plan = FaultPlan(seed=17, drop=0.1, duplicate=0.05, crashes=((3, 4),))
    traces = {}
    for engine in ("reference", "fast"):
        rec = TraceRecorder(engine)
        sim = CongestSimulator(
            g,
            lambda v: Flood(8),
            seed=seed,
            engine=engine,
            trace=rec,
            faults=plan,
        )
        sim.run(max_rounds=20)
        traces[engine] = rec
    ref, fast = traces["reference"], traces["fast"]
    assert len(ref.rounds) == len(fast.rounds)
    for a, b in zip(ref.rounds, fast.rounds):
        assert a == b
    assert any(r.dropped or r.duplicated for r in fast.rounds)
    assert sum(r.crashed for r in fast.rounds) == 1


# ----------------------------------------------------------------------
# Loss, crashes and link failures (edges absent from the churned view)
# ----------------------------------------------------------------------


def test_heavy_loss_breaks_plain_flooding():
    """Nothing retransmits: 50% loss on a path leaves some vertex
    short of the max id when the flood's round budget runs out."""
    g = path_graph(8)
    plan = FaultPlan(seed=8, drop=0.5)
    sim = CongestSimulator(g, lambda v: Flood(12), seed=1, faults=plan)
    result = sim.run(max_rounds=400)
    best = max(g.vertices())
    assert any(result.outputs[v] != best for v in g.vertices())
    assert result.metrics.messages_dropped > 0


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_crashed_vertices_fail_stop(engine):
    g = gnp_random_graph(20, 0.25, seed=1)
    plan = FaultPlan(crashes=((0, 0), (5, 3)))
    sim = CongestSimulator(
        g, lambda v: Flood(8), seed=1, engine=engine, faults=plan
    )
    result = sim.run(max_rounds=20)
    assert result.crashed == frozenset({0, 5})
    assert result.metrics.vertices_crashed == 2
    assert result.outputs[0] is None and result.outputs[5] is None
    with pytest.raises(CrashedVertexError):
        result.output_of(5)
    # Survivors still produce valid outputs through the accessor.
    survivor = next(v for v in g.vertices() if v not in result.crashed)
    assert result.output_of(survivor) is not None


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_crash_of_max_id_changes_flood_answer(engine):
    """Crashing the max-ID vertex at round 0 removes it from the flood."""
    g = path_graph(6)
    plan = FaultPlan(crashes=((5, 0),))
    sim = CongestSimulator(
        g, lambda v: Flood(10), seed=0, engine=engine, faults=plan
    )
    result = sim.run(max_rounds=30)
    for v in range(5):
        assert result.output_of(v) == 4


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_link_failure_partitions_a_path(engine):
    """Severing the middle edge of a path (it arrives only after the
    run) splits the flood in two."""
    g = path_graph(6)
    plan = FaultPlan(edge_arrivals=((2, 3, 10_000),))
    sim = CongestSimulator(
        g, lambda v: Flood(10), seed=0, engine=engine, faults=plan
    )
    result = sim.run(max_rounds=30)
    assert [result.output_of(v) for v in range(6)] == [2, 2, 2, 5, 5, 5]
    assert result.metrics.messages_lost_topology > 0


class PersistentFlood(Flood):
    """Flood that rebroadcasts every round, so late links still help."""

    def step(self, ctx, inbox):
        super().step(ctx, inbox)
        if not ctx.halted:
            ctx.broadcast(self.best)


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_link_failure_window_expires(engine):
    """Once the outage ends (the link is down for send rounds 0..3,
    so it arrives at round 4) the link carries traffic again."""
    g = path_graph(4)
    plan = FaultPlan(edge_arrivals=((1, 2, 4),))
    sim = CongestSimulator(
        g, lambda v: PersistentFlood(12), seed=0, engine=engine, faults=plan
    )
    result = sim.run(max_rounds=30)
    assert [result.output_of(v) for v in range(4)] == [3, 3, 3, 3]
    assert result.metrics.messages_lost_topology > 0


# ----------------------------------------------------------------------
# Empty plans are invisible
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_empty_plan_changes_nothing(engine):
    g = gnp_random_graph(25, 0.2, seed=3)

    def run(faults):
        sim = CongestSimulator(
            g, lambda v: Flood(9), seed=3, engine=engine, faults=faults
        )
        return sim.run(max_rounds=25)

    clean = run(None)
    empty = run(FaultPlan(seed=123))
    assert clean.outputs == empty.outputs
    assert clean.crashed == empty.crashed == frozenset()
    assert _metrics_fingerprint(clean.metrics) == _metrics_fingerprint(
        empty.metrics
    )
    assert not empty.metrics.faulted


# ----------------------------------------------------------------------
# Channel semantics, pinned without the differential harness
# ----------------------------------------------------------------------
#
# Both engines carry messages through one shared channel, so comparing
# them cannot catch a channel bug.  These probes pin the channel to what
# docs/faults.md promises instead: every expectation below comes from
# the documented semantics and the injector's public API
# (``corrupted_payload``, ``delay_rounds``), never from engine code.

#: Vertex 0 sends one payload per round in rounds 0..PROBE_SENDS-1.
PROBE_SENDS = 4
#: Both probe vertices halt at this round.
PROBE_HORIZON = 10

PROBE_COUNTERS = (
    "messages_dropped",
    "messages_duplicated",
    "messages_corrupted",
    "messages_delayed",
    "messages_lost_topology",
    "messages_partitioned",
)


def _probe_payload(send_round):
    return 100 + send_round


class ChannelProbe(VertexAlgorithm):
    """Two-vertex probe: 0 sends a distinct payload each round, 1 logs."""

    def __init__(self, vertex):
        self.vertex = vertex
        self.log = []

    def initialize(self, ctx):
        if self.vertex == 0:
            ctx.send(1, _probe_payload(0))

    def step(self, ctx, inbox):
        r = ctx.round_number
        for sender, payloads in inbox.items():
            self.log.append((r, sender, tuple(payloads)))
        if r >= PROBE_HORIZON:
            ctx.halt(self.log)
        elif self.vertex == 0 and r < PROBE_SENDS:
            ctx.send(1, _probe_payload(r))


def _probe(engine, plan, detail=False):
    recorder = TraceRecorder(detail=detail)
    sim = CongestSimulator(
        path_graph(2), ChannelProbe, seed=0, engine=engine, faults=plan,
        trace=recorder,
    )
    result = sim.run(max_rounds=PROBE_HORIZON + 5)
    counters = {
        name: getattr(result.metrics, name)
        for name in PROBE_COUNTERS
        if getattr(result.metrics, name)
    }
    # The sender pays once per send whatever the channel does.
    assert result.metrics.total_messages == PROBE_SENDS
    return result.outputs[1], counters, recorder


def _expected_log(plan, sends, copies=1, corrupt=False, delayed=False):
    """Vertex 1's log when the sends in ``sends`` get through.

    A send from round ``s`` arrives at ``s + 1``, or at
    ``s + 1 + delay_rounds(s, 0, 1, 0)`` when delayed; payloads landing
    in the same round appear in send order.
    """
    injector = plan.compile()
    arrivals = {}
    for s in sends:
        payload = (
            injector.corrupted_payload(s, 0, 1, 0)
            if corrupt
            else _probe_payload(s)
        )
        late = injector.delay_rounds(s, 0, 1, 0) if delayed else 0
        arrivals.setdefault(s + 1 + late, []).extend([payload] * copies)
    return [(r, 0, tuple(p)) for r, p in sorted(arrivals.items())]


ALL_SENDS = range(PROBE_SENDS)
#: The window rounds 1..2 that the link / partition cases silence.
WINDOW = (1, 2)
OUTSIDE_WINDOW = (0, 3)
#: The link {0, 1} down for send rounds WINDOW: the two up-windows
#: around the outage.
OUTAGE = (EdgeWindow(0, 1, 0, 0), EdgeWindow(0, 1, 3, 10_000))

CHANNEL_CASES = {
    "clean": (FaultPlan(seed=3), {}, {}),
    "drop": (
        FaultPlan(seed=3, drop=1.0),
        None,
        {"messages_dropped": 4},
    ),
    "duplicate": (
        FaultPlan(seed=3, duplicate=1.0),
        {"copies": 2},
        {"messages_duplicated": 4},
    ),
    "corrupt": (
        FaultPlan(seed=3, corrupt=1.0),
        {"corrupt": True},
        {"messages_corrupted": 4},
    ),
    "delay1": (
        FaultPlan(seed=3, delay=1.0, max_delay=1),
        {"delayed": True},
        {"messages_delayed": 4},
    ),
    "delay3": (
        FaultPlan(seed=3, delay=1.0, max_delay=3),
        {"delayed": True},
        {"messages_delayed": 4},
    ),
    "link": (
        FaultPlan(seed=3, edge_up_windows=OUTAGE),
        {"sends": OUTSIDE_WINDOW},
        {"messages_lost_topology": 2},
    ),
    "partition": (
        FaultPlan(seed=3, partitions=(PartitionWindow(((0,),), *WINDOW),)),
        {"sends": OUTSIDE_WINDOW},
        {"messages_partitioned": 2},
    ),
    "departure": (
        FaultPlan(seed=3, edge_departures=((0, 1, 2),)),
        {"sends": (0, 1)},
        {"messages_lost_topology": 2},
    ),
    # Precedence (docs/faults.md, "The channel pipeline"): the first
    # loss wins, so a transmission lands in exactly one loss counter.
    "partition_on_down_link": (
        FaultPlan(
            seed=3,
            partitions=(PartitionWindow(((0,),), *WINDOW),),
            edge_up_windows=OUTAGE,
        ),
        {"sends": OUTSIDE_WINDOW},
        {"messages_lost_topology": 2},
    ),
    # Send 0 meets only the drop-everything link, send 1 the partition
    # first, sends 2 and 3 the departure first.
    "departed_partitioned_down_link": (
        FaultPlan(
            seed=3,
            drop=1.0,
            edge_departures=((0, 1, 2),),
            partitions=(PartitionWindow(((0,),), 1, 3),),
        ),
        None,
        {
            "messages_dropped": 1,
            "messages_partitioned": 1,
            "messages_lost_topology": 2,
        },
    ),
    "down_link_never_duplicates": (
        FaultPlan(seed=3, duplicate=1.0, edge_up_windows=OUTAGE),
        {"sends": OUTSIDE_WINDOW, "copies": 2},
        {"messages_lost_topology": 2, "messages_duplicated": 2},
    ),
    "dropped_never_delayed": (
        FaultPlan(seed=3, drop=1.0, delay=1.0),
        None,
        {"messages_dropped": 4},
    ),
    "partitioned_never_delayed": (
        FaultPlan(
            seed=3, delay=1.0, partitions=(PartitionWindow(((0,),), *WINDOW),)
        ),
        {"sends": OUTSIDE_WINDOW, "delayed": True},
        {"messages_partitioned": 2, "messages_delayed": 2},
    ),
    "duplicate_delayed_together": (
        FaultPlan(seed=3, duplicate=1.0, delay=1.0, max_delay=3),
        {"copies": 2, "delayed": True},
        {"messages_duplicated": 4, "messages_delayed": 4},
    ),
    "corrupt_delayed": (
        FaultPlan(seed=3, corrupt=1.0, delay=1.0, max_delay=2),
        {"corrupt": True, "delayed": True},
        {"messages_corrupted": 4, "messages_delayed": 4},
    ),
}


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("name", sorted(CHANNEL_CASES))
def test_channel_probe_exact_log_and_counters(engine, name):
    plan, shape, counters = CHANNEL_CASES[name]
    expected = (
        []
        if shape is None
        else _expected_log(plan, **{"sends": ALL_SENDS, **shape})
    )
    log, got_counters, _ = _probe(engine, plan)
    assert log == expected
    assert got_counters == counters


def test_channel_probe_delay_draws_reorder():
    """The max_delay=3 probe is not vacuous: its sends draw different
    delays, so some land out of step with the clean schedule."""
    injector = CHANNEL_CASES["delay3"][0].compile()
    draws = [injector.delay_rounds(s, 0, 1, 0) for s in ALL_SENDS]
    assert all(1 <= d <= 3 for d in draws)
    assert len(set(draws)) > 1


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("name", sorted(CHANNEL_CASES))
def test_channel_probe_detail_events(engine, name):
    """One outcome event per transmission, attributed to the round after
    its send; every delayed send gets a ``release`` event carrying its
    sequence number in the round it reaches the receiver."""
    plan, shape, counters = CHANNEL_CASES[name]
    _, _, recorder = _probe(engine, plan, detail=True)
    outcomes = {}
    releases = {}
    for record in recorder.rounds:
        for event in record.events:
            assert (event["s"], event["r"], event["q"]) == ("0", "1", 0)
            if event["o"] == "release":
                releases[event["sr"]] = record.round
            else:
                assert record.round - 1 not in outcomes
                outcomes[record.round - 1] = event["o"]
    assert sorted(outcomes) == list(ALL_SENDS)
    injector = plan.compile()
    delayed = sorted(s for s, o in outcomes.items() if o == "delay")
    assert len(delayed) == counters.get("messages_delayed", 0)
    assert releases == {
        s: s + 1 + injector.delay_rounds(s, 0, 1, 0) for s in delayed
    }
