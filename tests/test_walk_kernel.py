"""Differential tests for the walk-exchange kernel.

:class:`~repro.routing.walk_exchange.WalkExchangeKernel` runs a
fault-free walk exchange token by token, on a schedule it keeps
itself.  Its contract is every kernel's: only the speed may change.
Each test runs the same exchange three ways — with the kernel, on the
fast engine's per-vertex scheduler (kernels off), and on the reference
engine — and pins outputs, per-round metrics, round traces, comparable
telemetry, per-vertex RNG end states, the walkers' own state (dict
order included), the scheduler's fields (pending inboxes in drain
order, runnable set, wakeups, round numbers) and error text to be
equal.  The kernel draws no NumPy columns, so this module also runs
in the no-NumPy CI leg (its delaunay cases skip there).
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.congest import CongestSimulator, TraceRecorder, use_engine
from repro.congest.algorithm import (
    kernel_class_for,
    register_kernel,
    set_kernels_enabled,
)
from repro.congest.checkpoint import resume_simulation
from repro.congest.engine import FastEngine
from repro.congest.faults import FaultPlan
from repro.congest.kernels import KernelBase
from repro.congest.message import MessageBudget
from repro.errors import MessageTooLargeError, RoutingError
from repro.generators import (
    delaunay_planar_graph,
    grid_graph,
    k_tree,
    path_graph,
)
from repro.graph import Graph
from repro.obs.registry import telemetry_scope
from repro.routing.walk_exchange import WalkExchange, WalkExchangeKernel

MODES = ("kernel", "scalar", "reference")


@pytest.fixture(autouse=True)
def _kernels_restored():
    yield
    set_kernels_enabled(True)


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------

def _isolated_holder():
    """Edges 0-1 and 1-3, and vertex 2 with no edge at all."""
    graph = Graph.from_edges([(0, 1), (1, 3)])
    graph.add_vertex(2)
    return graph


GRAPHS = {
    "delaunay": lambda seed: delaunay_planar_graph(24, seed=seed),
    "grid": lambda seed: grid_graph(4, 5),
    "ktree": lambda seed: k_tree(18, 3, seed=seed),
    "isolated": lambda seed: _isolated_holder(),
    # A path walks tokens back through their origins again and again.
    "path": lambda seed: path_graph(6),
}


def _requests(graph):
    """Every vertex (the leader too) issues a HELLO and one edge token
    per neighbor, up to two."""
    return {
        v: [("H", None)]
        + [("E", u, 1) for u in sorted(graph.neighbors(v))[:2]]
        for v in graph.vertices()
    }


def answer_all(absorbed):
    return {key: ("A", key[1]) for key in absorbed}


def answer_hellos(absorbed):
    """Leaves every edge token unanswered."""
    return {key: ("A", None) for key in absorbed if key[1] == 0}


# Module-level functions, so checkpoints can pickle the walkers.
RESPONDERS = {"none": None, "full": answer_all, "partial": answer_hellos}


def _leader(graph):
    return max(sorted(graph.vertices()), key=graph.degree)


def _factory(leader, steps, requests, responder):
    def factory(v):
        tokens = [((v, i), p) for i, p in enumerate(requests.get(v, []))]
        return WalkExchange(leader, steps, tokens, responder)

    return factory


def _case(family, seed, steps, responder="full"):
    graph = GRAPHS[family](seed)
    return graph, _factory(
        _leader(graph), steps, _requests(graph), RESPONDERS[responder]
    ), steps


def _simulator(graph, factory, seed, mode, trace=None, faults=None):
    set_kernels_enabled(mode == "kernel")
    return CongestSimulator(
        graph,
        factory,
        budget=MessageBudget(graph.n),
        seed=seed,
        engine="reference" if mode == "reference" else "fast",
        trace=trace,
        faults=faults,
    )


# ----------------------------------------------------------------------
# Observables
# ----------------------------------------------------------------------

def _ordered(value):
    """Dicts as item lists, so insertion order is compared too."""
    if isinstance(value, dict):
        return [(k, _ordered(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [_ordered(v) for v in value]
    return value


def walker_state(walker):
    state = {
        name: _ordered(value)
        for name, value in vars(walker).items()
        if name not in ("_random", "_randbelow", "responder")
    }
    state["drawn"] = (walker._random is None, walker._randbelow is None)
    return state


def engine_state(sim):
    """What a round boundary leaves behind, on any engine.  Only the
    fast engine indexes its inboxes (``pending_ids``); the reference
    engine reads them directly, so :func:`sans_index` drops the index
    wherever the reference engine is compared."""
    engine = sim._engine
    return {
        "round": engine._round,
        "walkers": [walker_state(a) for a in engine._algorithms],
        "rng": [
            None if ctx._rng is None else ctx._rng.getstate()
            for ctx in engine._contexts
        ],
        "round_numbers": [ctx.round_number for ctx in engine._contexts],
        "halted": [ctx._halted for ctx in engine._contexts],
        "outputs": [ctx._output for ctx in engine._contexts],
        "pending": [_ordered(box) for box in engine._pending],
        "pending_ids": sorted(engine._pending_ids),
        "runnable": sorted(engine._runnable),
        "wakeups": list(engine._wake_round),
        "metrics": engine.metrics.to_dict(include_per_round=True),
    }


def sans_index(state):
    return {key: value for key, value in state.items() if key != "pending_ids"}


def observe(case, seed, mode, max_rounds=None):
    """Run ``case`` under ``mode`` and return everything observable."""
    graph, factory, steps = case
    recorder = TraceRecorder("walk")
    with telemetry_scope() as registry:
        sim = _simulator(graph, factory, seed, mode, recorder)
        result = sim.run(
            max_rounds=2 * steps + 4 if max_rounds is None else max_rounds
        )
    assert (getattr(sim._engine, "_kernel", None) is not None) == (
        mode == "kernel"
    )
    return {
        "state": engine_state(sim),
        "result": (result.outputs, result.halted, result.crashed),
        "trace": [r.to_dict() for r in recorder.rounds],
        "telemetry": registry.comparable_dict(),
    }


def assert_modes_agree(case, seed, **kwargs):
    runs = {mode: observe(case, seed, mode, **kwargs) for mode in MODES}
    assert runs["kernel"] == runs["scalar"]
    reference = runs["reference"]
    assert sans_index(runs["kernel"]["state"]) == sans_index(
        reference.pop("state")
    )
    assert {k: v for k, v in runs["kernel"].items() if k != "state"} == (
        reference
    )
    return runs["kernel"]


# ----------------------------------------------------------------------
# The differential matrix
# ----------------------------------------------------------------------

@pytest.mark.parametrize("family", sorted(GRAPHS))
@pytest.mark.parametrize("steps", [0, 1, 7, 40])
@pytest.mark.parametrize("responder", sorted(RESPONDERS))
@pytest.mark.parametrize("seed", [1, 7, 23])
def test_kernel_matches_scheduler_and_reference(family, steps, responder,
                                                seed):
    run = assert_modes_agree(_case(family, seed, steps, responder), seed)
    assert run["state"]["halted"] == [True] * len(run["state"]["halted"])


#: sha256 of the outcome of the exchange in test_draw_order_is_pinned.
PINNED_OUTCOME = (
    "d6fa0fda5ceb466909952a4ba78ddc85998f5d31f24567de4a0339faf56a2c1e"
)


def test_draw_order_is_pinned():
    """Every path draws through the walker's own ``_forward_step``, so
    their agreement cannot catch a change to its coins-then-targets
    order; a digest of one exchange's outputs, per-round message
    counts and RNG end states pins it."""
    graph, factory, steps = _case("grid", 5, 12)
    for mode in MODES:
        sim = _simulator(graph, factory, 5, mode)
        result = sim.run(max_rounds=2 * steps + 4)
        engine = sim._engine
        outcome = (
            [(v, result.outputs[v]) for v in sorted(result.outputs)],
            engine.metrics.messages_per_round,
            [
                None if ctx._rng is None else ctx._rng.getstate()
                for ctx in engine._contexts
            ],
        )
        digest = hashlib.sha256(repr(outcome).encode()).hexdigest()
        assert digest == PINNED_OUTCOME, mode


@pytest.mark.parametrize("edges", [[], [(0, 1)]], ids=["single", "edge"])
@pytest.mark.parametrize("steps", [0, 1, 5])
def test_tiny_graphs_match(edges, steps):
    """A lone leader absorbs its own tokens at initialization; on one
    edge the other vertex's tokens can only step onto the leader."""
    graph = Graph.from_edges(edges)
    graph.add_vertex(0)
    case = graph, _factory(0, steps, _requests(graph), answer_all), steps
    assert_modes_agree(case, 2)


def test_calibrated_framework_walk_matches():
    """A walk sized as the framework sizes it, on a delaunay cluster
    whose walks deliver every token."""
    from repro.routing.gather import _calibrated_walk_steps

    graph = delaunay_planar_graph(30, seed=4)
    requests = _requests(graph)
    leader = _leader(graph)
    steps = _calibrated_walk_steps(
        graph, 0.1, leader=leader,
        tokens=sum(len(p) for p in requests.values()),
    )
    case = graph, _factory(leader, steps, requests, RESPONDERS["full"]), steps
    run = assert_modes_agree(case, 5)
    outputs = run["result"][0]
    assert not any(out["undelivered"] for out in outputs.values())


def test_tokens_revisit_their_origin():
    """On a path, walks pass back through their origin; the response
    stops there on its way back, on every path alike."""
    graph = path_graph(5)
    requests = {v: [(v,)] for v in graph.vertices()}
    case = graph, _factory(4, 60, requests, None), 60
    run = assert_modes_agree(case, 1)
    origins = [
        key[0]
        for out in run["result"][0].values()
        for key in out["responses"]
    ]
    assert sorted(origins) == sorted(graph.vertices())


def test_isolated_holder_keeps_its_tokens():
    """A rank with no neighbor keeps its tokens and never draws."""
    run = assert_modes_agree(_case("isolated", 3, 20), 3)
    state = run["state"]
    isolated = 2  # rank 2 of the canonical order 0, 1, 2, 3
    assert state["rng"][isolated] is None
    assert [key for key, _ in state["walkers"][isolated]["holding"]] == [
        (2, 0)
    ]
    assert run["result"][0][2]["undelivered"] == [(2, 0)]


# ----------------------------------------------------------------------
# Cut-off runs and continuation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("family", ["grid", "ktree", "isolated"])
@pytest.mark.parametrize("cut", [0, 1, 3, 9, 10, 11, 14, 20, 23])
def test_cut_off_run_matches_and_continues(family, cut):
    """``max_rounds`` stops the kernel before round 1, in the forward
    phase, in the responder round (T+1 = 10), in the reverse phase,
    just before the halt round (21) or not at all; the state left
    behind is the scheduler's, and calling ``run()`` again finishes in
    the state of the run that never stopped."""
    steps = 9
    case = _case(family, 2, steps)
    graph, factory, _ = case
    cut_states = {}
    finals = {}
    for mode in MODES:
        recorder = TraceRecorder("cut")
        sim = _simulator(graph, factory, 2, mode, recorder)
        sim.run(max_rounds=cut)
        cut_states[mode] = engine_state(sim)
        result = sim.run(max_rounds=2 * steps + 4)
        finals[mode] = (
            engine_state(sim), result.outputs,
            [r.to_dict() for r in recorder.rounds],
        )
    assert cut_states["kernel"] == cut_states["scalar"]
    assert sans_index(cut_states["kernel"]) == sans_index(
        cut_states["reference"]
    )
    assert finals["kernel"] == finals["scalar"]
    assert finals["kernel"][1:] == finals["reference"][1:]
    assert sans_index(finals["kernel"][0]) == sans_index(
        finals["reference"][0]
    )
    # A cut inside a fast-forward splits its skipped rounds between the
    # two runs' traces, so only the final state matches the run that
    # never stopped.
    assert finals["kernel"][0] == observe(case, 2, "scalar")["state"]


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------

def _error(case, seed, mode, exc_type):
    """The error text, and the round and vertex state it left.  A run
    that raised never reached the end of its round, so the scheduler's
    own bookkeeping (inboxes, runnable set, wakeups) is not compared."""
    graph, factory, steps = case
    sim = _simulator(graph, factory, seed, mode)
    with pytest.raises(exc_type) as info:
        sim.run(max_rounds=2 * steps + 4)
    state = engine_state(sim)
    return str(info.value), [
        state[key] for key in ("round", "walkers", "rng", "round_numbers")
    ]


def _assert_same_error(case, seed, exc_type):
    outcomes = {mode: _error(case, seed, mode, exc_type) for mode in MODES}
    assert outcomes["kernel"] == outcomes["scalar"]
    assert outcomes["kernel"] == outcomes["reference"]
    return outcomes["kernel"][0]


def test_unknown_response_raises_on_every_path():
    graph = grid_graph(3, 4)
    factory = _factory(
        5, 6, _requests(graph), lambda absorbed: {("ghost", 9): "boo"}
    )
    text = _assert_same_error((graph, factory, 6), 4, RoutingError)
    assert "unknown token" in text


def test_oversized_forward_token_fails_alike():
    """An over-budget request fails at its first hop, with the same
    text, round and state, kernel or not."""
    graph = grid_graph(4, 5)
    requests = _requests(graph)
    requests[13] = [("S", "x" * 12)]
    factory = _factory(_leader(graph), 12, requests, None)
    text = _assert_same_error((graph, factory, 12), 6, MessageTooLargeError)
    assert "from 13 to" in text


def test_oversized_response_fails_alike():
    graph = grid_graph(4, 5)
    factory = _factory(
        _leader(graph), 12, _requests(graph),
        lambda absorbed: {key: "y" * 12 for key in absorbed},
    )
    _assert_same_error((graph, factory, 12), 6, MessageTooLargeError)


def test_tokens_sharing_an_edge_are_charged_alike():
    """Tokens crossing one edge in one round are charged to
    ``effective_rounds`` identically on every path."""
    graph = path_graph(3)
    requests = {2: [("H", i) for i in range(8)]}
    run = assert_modes_agree((graph, _factory(0, 10, requests, None), 10), 1)
    metrics = run["state"]["metrics"]
    assert metrics["max_edge_congestion"] > 1
    assert metrics["effective_rounds"] > metrics["rounds"]


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

def _capture(case, seed, mode, every):
    graph, factory, steps = case
    checkpoints = []
    recorder = TraceRecorder("capture")
    sim = _simulator(graph, factory, seed, mode, recorder)
    result = sim.run(
        max_rounds=2 * steps + 4, checkpoint_every=every,
        on_checkpoint=checkpoints.append,
    )
    return checkpoints, (
        engine_state(sim), result.outputs,
        [r.to_dict() for r in recorder.rounds],
    )


@pytest.mark.parametrize("family", ["delaunay", "grid", "isolated"])
@pytest.mark.parametrize("every", [1, 2, 3, 5])
def test_kernel_checkpoints_resume_on_both_engines(family, every):
    """Checkpoints captured inside kernel rounds hold what the
    scheduler's would (pending inboxes, runnable set, wakeups, round
    numbers, walker and RNG state), capturing leaves the run unchanged,
    and each resumes on the fast and the reference engine — without a
    kernel — to the run that never stopped."""
    steps = 8
    case = _case(family, 5, steps)
    graph, factory, _ = case
    expected = observe(case, 5, "scalar")
    checkpoints, captured = _capture(case, 5, "kernel", every)
    scalar_checkpoints, _ = _capture(case, 5, "scalar", every)
    assert captured[0] == expected["state"]
    assert captured[2] == expected["trace"]
    assert len(checkpoints) == len(scalar_checkpoints) >= 2
    for checkpoint, scalar in zip(checkpoints, scalar_checkpoints):
        assert checkpoint.round == scalar.round
        assert checkpoint.metrics == scalar.metrics
        assert checkpoint.trace_rounds == scalar.trace_rounds
        state = pickle.loads(checkpoint.state)
        scalar_state = pickle.loads(scalar.state)
        for key in ("runnable", "wakeups", "inflight"):
            assert state[key] == scalar_state[key], key
        assert _ordered(state["pending"]) == _ordered(scalar_state["pending"])
        assert len(state["contexts"]) == len(scalar_state["contexts"])
        for ctx, scalar_ctx, walker, scalar_walker in zip(
            state["contexts"], scalar_state["contexts"],
            state["algorithms"], scalar_state["algorithms"],
        ):
            assert ctx.round_number == scalar_ctx.round_number
            assert (ctx._rng is None) == (scalar_ctx._rng is None)
            if ctx._rng is not None:
                assert ctx._rng.getstate() == scalar_ctx._rng.getstate()
            assert walker_state(walker) == walker_state(scalar_walker)
        for engine in ("fast", "reference"):
            recorder = TraceRecorder("resumed")
            resumed = resume_simulation(
                graph, factory, checkpoint, engine=engine, trace=recorder
            )
            result = resumed.run(max_rounds=2 * steps + 4)
            assert getattr(resumed._engine, "_kernel", None) is None
            assert sans_index(engine_state(resumed)) == sans_index(
                expected["state"]
            )
            assert result.outputs == expected["result"][0]
            assert [r.to_dict() for r in recorder.rounds] == expected["trace"]


# ----------------------------------------------------------------------
# Scheduling and activation
# ----------------------------------------------------------------------

def _refuse(*args, **kwargs):
    raise AssertionError("a kernel run consulted the per-vertex scheduler")


def test_kernel_runs_bypass_the_per_vertex_scheduler(monkeypatch):
    """Kernel runs — a full one, a cut-off one and its continuation,
    and one that captures checkpoints — never compute a due set,
    reschedule, or ask a walker for its hints."""
    case = _case("grid", 8, 9)
    graph, factory, steps = case
    expected = observe(case, 8, "scalar")
    cut = observe(case, 8, "scalar", max_rounds=12)
    monkeypatch.setattr(FastEngine, "_due_vertices", _refuse)
    monkeypatch.setattr(FastEngine, "_reschedule", _refuse)
    monkeypatch.setattr(WalkExchange, "is_idle", _refuse)
    monkeypatch.setattr(WalkExchange, "next_wakeup", _refuse)
    full = observe(case, 8, "kernel")
    partial = observe(case, 8, "kernel", max_rounds=12)
    checkpoints, captured = _capture(case, 8, "kernel", 3)
    sim = _simulator(graph, factory, 8, "kernel")
    sim.run(max_rounds=12)
    sim.checkpoint()
    sim.run(max_rounds=2 * steps + 4)
    continued = engine_state(sim)
    monkeypatch.undo()
    assert full == expected
    assert partial == cut
    assert checkpoints and captured[0] == expected["state"]
    assert continued == expected["state"]


def test_engages_on_small_clusters_by_default(monkeypatch):
    """The columnar threshold does not gate the walk kernel: an
    8-vertex cluster engages it at the default threshold."""
    monkeypatch.delenv("REPRO_KERNEL_THRESHOLD", raising=False)
    graph = grid_graph(2, 4)
    factory = _factory(_leader(graph), 12, _requests(graph), None)
    with telemetry_scope() as registry:
        sim = _simulator(graph, factory, 1, "kernel")
        sim.run(max_rounds=28)
    counters = registry.to_dict()["counters"]
    assert isinstance(sim._engine._kernel, WalkExchangeKernel)
    assert counters.get("congest.kernel.engaged") == 1
    assert "congest.kernel.fallback" not in counters


def _falls_back(graph, factory, seed, rounds, detail=False, **kwargs):
    """Kernels on equal kernels off, and the kernels-on run holds no
    kernel and counts a fallback."""
    runs = []
    for mode in ("kernel", "scalar"):
        recorder = TraceRecorder("fallback", detail=detail)
        with telemetry_scope() as registry:
            sim = _simulator(graph, factory, seed, mode, recorder, **kwargs)
            result = sim.run(max_rounds=rounds)
        if mode == "kernel":
            assert sim._engine._kernel is None
            counters = registry.to_dict()["counters"]
            assert counters.get("congest.kernel.fallback") == 1
            assert "congest.kernel.engaged" not in counters
        runs.append((
            engine_state(sim), result.outputs,
            [r.to_dict() for r in recorder.rounds],
        ))
    assert runs[0] == runs[1]


def test_fault_plan_falls_back():
    graph, factory, steps = _case("grid", 3, 10)
    _falls_back(
        graph, factory, 3, 2 * steps + 4,
        faults=FaultPlan(seed=3, drop=0.05),
    )


def test_duplicated_tokens_fall_back():
    """A duplicating channel can deliver one response twice in an
    inbox, or again while it is held; it is sent on once."""
    graph, factory, steps = _case("grid", 3, 10)
    _falls_back(
        graph, factory, 3, 2 * steps + 4,
        faults=FaultPlan(seed=4, duplicate=0.3),
    )


def test_detail_tracing_falls_back():
    graph, factory, steps = _case("grid", 3, 10)
    _falls_back(graph, factory, 3, 2 * steps + 4, detail=True)


@pytest.mark.parametrize("differ", ["steps", "responder", "leader", "key"])
def test_non_uniform_walkers_fall_back(differ):
    """Walkers that do not share the walk length, responder or leader,
    or tokens that share a key, keep the per-vertex scheduler."""
    graph = grid_graph(3, 4)
    requests = _requests(graph)
    base = _factory(5, 10, requests, RESPONDERS["full"])

    def factory(v):
        walker = base(v)
        if v == 7:
            if differ == "steps":
                walker.forward_steps = 11
            elif differ == "responder":
                walker.responder = RESPONDERS["partial"]
            elif differ == "leader":
                walker.leader = 6
            else:
                walker.initial_requests = [((3, 0), ("H", None))]
        return walker

    _falls_back(graph, factory, 2, 24)


def test_reference_engine_never_kernelizes():
    graph, factory, _ = _case("grid", 1, 6)
    with use_engine("reference"):
        sim = CongestSimulator(graph, factory, seed=1)
        sim.run(max_rounds=16)
    assert getattr(sim._engine, "_kernel", None) is None


def test_register_kernel_keeps_refusing_idle_hints_for_columnar_kernels():
    """A columnar kernel steps every live vertex every round, so the
    walker's idle hints rule one out in either registration form; the
    self-scheduled walk kernel stays registered."""
    with pytest.raises(TypeError, match="WalkExchange overrides is_idle"):
        register_kernel(WalkExchange)

    class _ColumnarWalk(KernelBase):
        algorithm_cls = WalkExchange

    with pytest.raises(TypeError, match="_ColumnarWalk is a columnar"):
        register_kernel(_ColumnarWalk)
    assert kernel_class_for(WalkExchange) is WalkExchangeKernel
