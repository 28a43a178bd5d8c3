"""Differential harness: fast engine vs. reference engine.

Every algorithm family that runs on the CONGEST simulator is executed
twice — once on the fast engine, once on the naive reference engine —
over seeded random graphs, and the two executions must agree
*exactly*: same per-vertex outputs, same ``CongestMetrics``, and same
structured round traces.  This is
the contract that lets the fast engine evolve aggressively without
re-verifying every algorithm on top of it.  Both engines share one
message channel (``repro.congest.channel``), so this harness pins
what they schedule and charge separately; the channel's own semantics
are pinned in ``tests/test_faults.py``.
"""

import pytest

from repro.congest import (
    CongestSimulator,
    TraceRecorder,
    TraceSession,
    VertexAlgorithm,
    use_engine,
)
from repro.core.framework import run_framework
from repro.decomposition.mpx import mpx_ldd
from repro.generators import delaunay_planar_graph, gnp_random_graph, k_tree
from repro.obs.registry import telemetry_scope
from repro.routing.gather import gather_topology
from repro.routing.leader import elect_leader
from repro.routing.walk_exchange import walk_exchange

SEEDS = (11, 29, 47)


def _metrics_fingerprint(metrics):
    return metrics.to_dict()


def _run_both(runner, seed, walk_kernel=False):
    """Run ``runner(seed)`` under each engine; return both results.

    Each run records a trace session, and the two must agree round by
    round for every simulation.  With ``walk_kernel``, the fast run
    must engage the walk-exchange kernel: a silent fallback would turn
    the comparison into scalar against scalar."""
    with use_engine("reference"), TraceSession() as ref_session:
        ref = runner(seed)
    with use_engine("fast"), TraceSession() as fast_session, \
            telemetry_scope() as registry:
        fast = runner(seed)
    if walk_kernel:
        counters = registry.to_dict()["counters"]
        assert counters.get("congest.kernel.engaged", 0) >= 1, counters
    # Recorder labels name the engine; the records themselves must not
    # differ.
    assert ref_session.recorders
    assert [rec.rounds for rec in ref_session.recorders] == [
        rec.rounds for rec in fast_session.recorders
    ]
    return ref, fast


def _graph_for(seed, n=40):
    return delaunay_planar_graph(n, seed=seed)


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
                if value > self.best:
                    self.best = value
                    ctx.broadcast(self.best)
        if ctx.round_number >= self.budget:
            ctx.halt(self.best)


@pytest.mark.parametrize("seed", SEEDS)
def test_flood_equivalent(seed):
    g = gnp_random_graph(30, 0.15, seed=seed)

    def runner(s):
        sim = CongestSimulator(g, lambda v: Flood(10), seed=s)
        return sim.run(max_rounds=25)

    ref, fast = _run_both(runner, seed)
    assert ref.outputs == fast.outputs
    assert ref.halted == fast.halted
    assert _metrics_fingerprint(ref.metrics) == _metrics_fingerprint(
        fast.metrics
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_leader_election_equivalent(seed):
    g = _graph_for(seed)

    def runner(s):
        return elect_leader(g, seed=s)

    (ref_leader, ref), (fast_leader, fast) = _run_both(runner, seed)
    assert ref_leader == fast_leader
    assert ref.outputs == fast.outputs
    assert _metrics_fingerprint(ref.metrics) == _metrics_fingerprint(
        fast.metrics
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_walk_exchange_equivalent(seed):
    g = _graph_for(seed, n=32)
    leader = max(g.vertices(), key=g.degree)
    requests = {v: [("Q", v)] for v in g.vertices()}

    def runner(s):
        return walk_exchange(g, leader, requests, phi=0.2, seed=s)

    ref, fast = _run_both(runner, seed, walk_kernel=True)
    assert ref.responses == fast.responses
    assert ref.requests_delivered == fast.requests_delivered
    assert ref.undelivered == fast.undelivered
    assert ref.unanswered == fast.unanswered
    assert _metrics_fingerprint(ref.metrics) == _metrics_fingerprint(
        fast.metrics
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_gather_equivalent(seed):
    g = k_tree(28, 3, seed=seed)

    def solver(sub, leader, notes):
        return {v: sub.degree(v) for v in sub.vertices()}

    def runner(s):
        return gather_topology(g, phi=0.2, solver=solver, seed=s)

    ref, fast = _run_both(runner, seed, walk_kernel=True)
    assert ref.leader == fast.leader
    assert ref.answers == fast.answers
    assert ref.success == fast.success
    assert ref.gathered == fast.gathered
    assert _metrics_fingerprint(ref.metrics) == _metrics_fingerprint(
        fast.metrics
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_mpx_equivalent(seed):
    g = _graph_for(seed, n=48)

    def runner(s):
        return mpx_ldd(g, 0.3, seed=s)

    (ref_ldd, ref), (fast_ldd, fast) = _run_both(runner, seed)
    assert ref.outputs == fast.outputs
    assert sorted(map(sorted, ref_ldd.clusters)) == sorted(
        map(sorted, fast_ldd.clusters)
    )
    assert _metrics_fingerprint(ref.metrics) == _metrics_fingerprint(
        fast.metrics
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_expander_framework_equivalent(seed):
    """Full Theorem 2.6 pipeline: decomposition, election, orientation,
    walk routing, and solver answers, end to end on both engines."""
    g = _graph_for(seed, n=56)

    def solver(sub, leader, notes):
        return {v: sub.degree(v) for v in sub.vertices()}

    def runner(s):
        return run_framework(g, 0.9, solver=solver, phi=0.1, seed=s)

    ref, fast = _run_both(runner, seed, walk_kernel=True)
    assert ref.answers == fast.answers
    assert ref.leaders == fast.leaders
    assert [sorted(c.vertices) for c in ref.clusters] == [
        sorted(c.vertices) for c in fast.clusters
    ]
    assert _metrics_fingerprint(ref.metrics) == _metrics_fingerprint(
        fast.metrics
    )


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_traces_equivalent(seed):
    """The structured round traces agree record-for-record."""
    g = gnp_random_graph(24, 0.2, seed=seed)
    traces = {}
    for engine in ("reference", "fast"):
        rec = TraceRecorder(engine)
        sim = CongestSimulator(
            g, lambda v: Flood(8), seed=seed, engine=engine, trace=rec
        )
        sim.run(max_rounds=20)
        traces[engine] = rec
    ref, fast = traces["reference"], traces["fast"]
    assert len(ref.rounds) == len(fast.rounds)
    for a, b in zip(ref.rounds, fast.rounds):
        assert a == b


@pytest.mark.parametrize("seed", SEEDS)
def test_rounds_counter_matches_metrics(seed):
    """Satellite: metrics.rounds equals the rounds actually executed."""
    g = gnp_random_graph(26, 0.18, seed=seed)
    for engine in ("reference", "fast"):
        sim = CongestSimulator(g, lambda v: Flood(9), seed=seed, engine=engine)
        result = sim.run(max_rounds=30)
        assert result.metrics.rounds == sim.rounds_executed
