"""Differential tests for the columnar round kernels.

The kernel layer's whole contract is *bit-identity*: a registered
kernel may only change how fast a round executes, never anything
observable.  Every test here runs the same simulation twice — kernels
forced on and forced off — and pins outputs, metrics, per-round
message counts, structured traces, telemetry, and the per-vertex RNG
streams to be exactly equal.  The kernelized side delivers through
columnar send plans, so the batched accounting is held to the same
bit-parity bar, including its error path (oversized messages) and its
per-edge charge when one edge carries two messages in a round.  A
second group covers the activation rules (thresholds, fault plans,
the ``REPRO_NO_KERNELS`` switch, idle-hint algorithms) and checkpoint
round-trips across kernel modes: a kernel run captures, and every
resume finishes scalar.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.congest import algorithm as algorithm_mod
from repro.congest.algorithm import (
    VertexAlgorithm,
    kernel_class_for,
    kernels_enabled,
    register_kernel,
    set_kernels_enabled,
)
from repro.congest.checkpoint import resume_simulation
from repro.congest.engine import FastEngine
from repro.congest.faults import FaultPlan
from repro.congest.kernels import KernelBase
from repro.congest.network import CongestSimulator
from repro.congest.trace import TraceRecorder
from repro.errors import MessageTooLargeError
from repro.decomposition.mpx import MPXClustering, MPXKernel
from repro.generators import (
    delaunay_planar_graph,
    gnp_random_graph,
    grid_graph,
    k_tree,
)
from repro.independent_set.greedy import LubyKernel, LubyMIS
from repro.matching.distributed import (
    ProposalMatching,
    ProposalMatchingKernel,
)
from repro.obs.registry import telemetry_scope


# ----------------------------------------------------------------------
# The differential matrix: algorithm x generator x seed x fault plan
# ----------------------------------------------------------------------

class _Countdown(VertexAlgorithm):
    """Isolated vertices halt in ``initialize``; the rest broadcast the
    rounds they have left and halt at round ``vertex % 4 + 1``, so
    halts land in initialization and in several different rounds."""

    def initialize(self, ctx):
        if not ctx.neighbors:
            ctx.halt("isolated")
            return
        ctx.broadcast(ctx.vertex % 4 + 1)

    def step(self, ctx, inbox):
        left = ctx.vertex % 4 + 1 - ctx.round_number
        if left <= 0:
            ctx.halt(ctx.round_number)
            return
        ctx.broadcast(left)


@register_kernel(_Countdown)
class _CountdownKernel(KernelBase):
    def _load_columns(self):
        self.deadline = np.array(self.verts, dtype=np.int64) % 4 + 1

    def _write_columns(self):
        pass

    def _initialize_rows(self, rows):
        degree = self.indptr[rows + 1] - self.indptr[rows]
        for i in rows[degree == 0].tolist():
            self._halt(i, "isolated")
        senders = rows[degree > 0]
        self._emit_broadcast(senders, self.deadline[senders].tolist())

    def _step_rows(self, rows, round_number):
        left = self.deadline[rows] - round_number
        for i in rows[left <= 0].tolist():
            self._halt(i, round_number)
        self._emit_broadcast(rows[left > 0], left[left > 0].tolist())


ALGORITHMS = {
    "luby": (lambda v: LubyMIS(20), 44),
    "mpx": (lambda v: MPXClustering(0.4, 12.0, 16), 18),
    "matching": (lambda v: ProposalMatching(16), 54),
    "countdown": (lambda v: _Countdown(), 8),
}


def _with_isolated(graph, extra=4):
    """``graph`` plus ``extra`` isolated vertices with the next labels."""
    graph = graph.copy()
    for v in range(graph.n, graph.n + extra):
        graph.add_vertex(v)
    return graph


GENERATORS = {
    "gnp": lambda seed: gnp_random_graph(40, 0.12, seed=seed),
    "grid": lambda seed: grid_graph(6, 7),
    "ktree": lambda seed: k_tree(40, 3, seed=seed),
    "isolated": lambda seed: _with_isolated(
        gnp_random_graph(40, 0.12, seed=seed)
    ),
}


def _plan(kind, graph):
    if kind == "none":
        return None
    verts = sorted(graph.vertices())
    if kind == "crash":
        return FaultPlan(
            seed=7,
            crashes=((verts[2], 3), (verts[11], 5), (verts[19], 2)),
        )
    if kind == "drop":
        return FaultPlan(seed=7, drop=0.15)
    raise AssertionError(kind)


@pytest.fixture(autouse=True)
def _kernels_restored(monkeypatch):
    """Force threshold 1 (the graphs here are small) and always leave
    the process with kernels re-enabled."""
    monkeypatch.setenv("REPRO_KERNEL_THRESHOLD", "1")
    yield
    set_kernels_enabled(True)


def run_once(graph, factory, seed, enabled, plan=None, rounds=60):
    set_kernels_enabled(enabled)
    recorder = TraceRecorder("kernel-diff")
    sim = CongestSimulator(
        graph, factory, seed=seed, faults=plan, trace=recorder
    )
    result = sim.run(max_rounds=rounds)
    set_kernels_enabled(True)
    return result, recorder, sim


def rng_states(sim):
    """Per-vertex RNG states, ``None`` where no draw ever happened."""
    return [
        None if ctx._rng is None else ctx._rng.getstate()
        for ctx in sim._engine._contexts
    ]


def assert_identical(pair_on, pair_off):
    res_on, rec_on, sim_on = pair_on
    res_off, rec_off, sim_off = pair_off
    assert res_on.outputs == res_off.outputs
    assert res_on.halted == res_off.halted
    assert res_on.crashed == res_off.crashed
    assert res_on.metrics.summary() == res_off.metrics.summary()
    assert (
        res_on.metrics.messages_per_round
        == res_off.metrics.messages_per_round
    )
    assert len(rec_on.rounds) == len(rec_off.rounds)
    for a, b in zip(rec_on.rounds, rec_off.rounds):
        assert a == b
    assert rng_states(sim_on) == rng_states(sim_off)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("family", sorted(GENERATORS))
@pytest.mark.parametrize("seed", [3, 17, 92])
@pytest.mark.parametrize("plan_kind", ["none", "crash", "drop"])
# Kernels deliver only through send plans; the leading ``True`` of each
# case id names that delivery mode.
@pytest.mark.parametrize("send_plans", [True])
def test_kernel_matches_scalar(algo, family, seed, plan_kind, send_plans):
    graph = GENERATORS[family](seed)
    factory, rounds = ALGORITHMS[algo]
    plan = _plan(plan_kind, graph)
    with telemetry_scope() as registry:
        pair_on = run_once(graph, factory, seed, True, plan, rounds)
        delivered = registry.to_dict()["counters"]
    pair_off = run_once(graph, factory, seed, False, plan, rounds)
    # Any fault plan forces a (silent) scalar fallback; fault-free runs
    # must actually engage the kernel, otherwise this test would be
    # vacuously comparing scalar against scalar.
    kernel = pair_on[2]._engine._kernel
    if plan_kind != "none":
        assert kernel is None
    else:
        assert kernel is not None
        assert ("congest.delivery.batched" in delivered) == send_plans
        assert "congest.delivery.scalar" not in delivered
    assert pair_off[2]._engine._kernel is None
    assert_identical(pair_on, pair_off)


def test_delaunay_family_matches_scalar():
    """The matrix's random-planar column."""
    graph = delaunay_planar_graph(60, seed=5)
    for algo in sorted(ALGORITHMS):
        factory, rounds = ALGORITHMS[algo]
        pair_on = run_once(graph, factory, 13, True, None, rounds)
        pair_off = run_once(graph, factory, 13, False, None, rounds)
        assert pair_on[2]._engine._kernel is not None
        assert_identical(pair_on, pair_off)


def test_telemetry_identical_and_kernel_counters_stripped():
    """Kernels on vs off produce equal *comparable* telemetry, and the
    ``congest.kernel.*`` diagnostics exist only in the raw payload."""
    graph = GENERATORS["gnp"](3)
    factory, rounds = ALGORITHMS["luby"]
    captures = {}
    for enabled in (True, False):
        with telemetry_scope() as registry:
            run_once(graph, factory, 3, enabled, rounds=rounds)
            captures[enabled] = (
                registry.comparable_dict(),
                registry.to_dict(),
            )
    assert captures[True][0] == captures[False][0]
    raw_on = captures[True][1]["counters"]
    assert raw_on.get("congest.kernel.engaged") == 1
    assert raw_on.get("congest.kernel.rounds", 0) > 0
    assert raw_on.get("congest.delivery.batched", 0) > 0
    raw_off = captures[False][1]["counters"]
    assert raw_off.get("congest.kernel.fallback") == 1
    assert raw_off.get("congest.delivery.scalar", 0) > 0
    assert not any(
        name.startswith(("congest.kernel.", "congest.delivery."))
        for name in captures[True][0]["counters"]
    )
    # Both engagement styles record collect-phase spans identically.
    assert captures[True][0]["spans"]["congest.collect"] > 0


# ----------------------------------------------------------------------
# Dense rounds: a kernel run whose due set is always its live set
# ----------------------------------------------------------------------

def _refuse(self, *args):
    raise AssertionError("the per-vertex scheduler ran in a dense run")


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_dense_rounds_bypass_the_per_vertex_scheduler(algo, monkeypatch):
    """Kernel runs never compute a due set or reschedule vertex by
    vertex."""
    graph = GENERATORS["gnp"](3)
    factory, rounds = ALGORITHMS[algo]
    monkeypatch.setattr(FastEngine, "_due_vertices", _refuse)
    monkeypatch.setattr(FastEngine, "_reschedule", _refuse)
    pair_on = run_once(graph, factory, 3, True, rounds=rounds)
    assert pair_on[2]._engine._kernel is not None
    monkeypatch.undo()
    pair_off = run_once(graph, factory, 3, False, rounds=rounds)
    assert_identical(pair_on, pair_off)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_crash_plan_falls_back_to_scalar(algo):
    """A crash schedule can take a live vertex out of a round, so a
    crash-only plan, like every fault plan, runs without a kernel."""
    graph = GENERATORS["gnp"](3)
    factory, rounds = ALGORITHMS[algo]
    plan = _plan("crash", graph)
    pair_on = run_once(graph, factory, 3, True, plan, rounds)
    assert pair_on[2]._engine._kernel is None
    pair_off = run_once(graph, factory, 3, False, plan, rounds)
    assert_identical(pair_on, pair_off)


def _full_run(graph, factory, seed, enabled, rounds):
    with telemetry_scope() as registry:
        pair = run_once(graph, factory, seed, enabled, rounds=rounds)
        return pair, registry.comparable_dict()


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("case", ["cut-off", "isolated"])
def test_kernel_edge_runs_match_scalar(algo, case):
    """Kernels on equal kernels off, down to per-round metrics and
    comparable telemetry, on a run that ``max_rounds`` cuts off before
    every vertex halts and on a graph whose isolated vertices halt in
    initialization or the first rounds."""
    factory, rounds = ALGORITHMS[algo]
    if case == "cut-off":
        graph, rounds = GENERATORS["gnp"](5), 3
    else:
        graph = GENERATORS["isolated"](5)
    pair_on, telemetry_on = _full_run(graph, factory, 5, True, rounds)
    pair_off, telemetry_off = _full_run(graph, factory, 5, False, rounds)
    assert pair_on[2]._engine._kernel is not None
    assert_identical(pair_on, pair_off)
    assert pair_on[0].metrics.to_dict(
        include_per_round=True
    ) == pair_off[0].metrics.to_dict(include_per_round=True)
    assert telemetry_on == telemetry_off
    if case == "cut-off":
        assert not pair_on[0].halted


# ----------------------------------------------------------------------
# Activation rules
# ----------------------------------------------------------------------

def test_registry_maps_algorithms_to_kernels():
    assert kernel_class_for(LubyMIS) is LubyKernel
    assert kernel_class_for(MPXClustering) is MPXKernel
    assert kernel_class_for(ProposalMatching) is ProposalMatchingKernel
    assert kernel_class_for(dict) is None


def _ran(graph, factory, rounds):
    """The simulator after its first run: a fast engine decides on a
    kernel there, not at construction."""
    sim = CongestSimulator(graph, factory, seed=1)
    sim.run(max_rounds=rounds)
    return sim


def test_threshold_gates_engagement(monkeypatch):
    graph = grid_graph(5, 5)
    # Matching, not Luby: Luby's priority payloads overrun the CONGEST
    # budget of a 25-vertex graph (see test_congest_budget.py).
    factory, rounds = ALGORITHMS["matching"]
    monkeypatch.setenv("REPRO_KERNEL_THRESHOLD", "26")
    assert _ran(graph, factory, rounds)._engine._kernel is None
    monkeypatch.setenv("REPRO_KERNEL_THRESHOLD", "25")
    assert _ran(graph, factory, rounds)._engine._kernel is not None


def test_default_threshold_engages_at_64(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_THRESHOLD")
    graph = grid_graph(8, 8)
    factory, rounds = ALGORITHMS["luby"]
    assert _ran(graph, factory, rounds)._engine._kernel is not None
    small = grid_graph(7, 9)  # 63 vertices
    assert _ran(small, factory, rounds)._engine._kernel is None


def test_env_variable_disables_kernels(monkeypatch):
    monkeypatch.setenv("REPRO_NO_KERNELS", "1")
    # The module-level flag is read at import; the setter is the
    # process-level control.
    set_kernels_enabled(False)
    assert not kernels_enabled()
    graph = grid_graph(8, 8)
    factory, rounds = ALGORITHMS["luby"]
    assert _ran(graph, factory, rounds)._engine._kernel is None
    set_kernels_enabled(True)
    assert _ran(graph, factory, rounds)._engine._kernel is not None


def test_register_kernel_refuses_idle_hints():
    """A kernel steps every live vertex every round, so an algorithm
    that may sit rounds out cannot register one."""

    class _Sleepy(VertexAlgorithm):
        def step(self, ctx, inbox):
            ctx.halt(True)

        def is_idle(self, ctx):
            return True

    with pytest.raises(TypeError, match="_Sleepy overrides is_idle"):
        register_kernel(_Sleepy)
    assert kernel_class_for(_Sleepy) is None


def test_reference_engine_never_kernelizes():
    graph = grid_graph(8, 8)
    sim = CongestSimulator(
        graph, ALGORITHMS["luby"][0], seed=1, engine="reference"
    )
    assert getattr(sim._engine, "_kernel", None) is None


def test_mixed_population_falls_back():
    graph = grid_graph(8, 8)

    def factory(v):
        if v == 0:
            return MPXClustering(0.4, 12.0, 16)
        return LubyMIS(20)

    # Vertex 0 cannot parse its neighbours' Luby messages, so run no
    # round: initialization alone decides on a kernel.
    assert _ran(graph, factory, 0)._engine._kernel is None


def test_non_uniform_parameters_fall_back():
    graph = grid_graph(8, 8)
    sim = _ran(graph, lambda v: LubyMIS(20 if v else 21), 44)
    assert sim._engine._kernel is None


# ----------------------------------------------------------------------
# Accounting parity: batched accounting raises and charges like scalar
# ----------------------------------------------------------------------

#: 8 * 12 + 2 = 98 bits — just over the 96-bit budget of a 42-vertex
#: grid (16 words of max(4, ceil(log2(44))) = 6 bits each).
_BIG = "x" * 12


class _Oversize(VertexAlgorithm):
    """Vertex 5 broadcasts an over-budget string in round 1."""

    def step(self, ctx, inbox):
        if ctx.round_number == 1:
            if ctx.vertex == 5:
                ctx.broadcast(_BIG)
            return
        ctx.halt(True)


@register_kernel(_Oversize)
class _OversizeKernel(KernelBase):
    def _load_columns(self):
        pass

    def _write_columns(self):
        pass

    def _initialize_rows(self, rows):
        pass

    def _step_rows(self, rows, round_number):
        if round_number == 1:
            i = self.engine._index[5]
            self._emit_broadcast(rows[rows == i], shared=_BIG)
            return
        for i in rows.tolist():
            self._halt(i, True)


class _DoubleSend(VertexAlgorithm):
    """Vertex 5 sends two messages along one edge in round 1."""

    def step(self, ctx, inbox):
        if ctx.round_number == 1:
            if ctx.vertex == 5:
                target = ctx.neighbors[0]
                ctx.send(target, 1)
                ctx.send(target, 2)
            return
        ctx.halt(True)


@register_kernel(_DoubleSend)
class _DoubleSendKernel(KernelBase):
    def _load_columns(self):
        pass

    def _write_columns(self):
        pass

    def _initialize_rows(self, rows):
        pass

    def _step_rows(self, rows, round_number):
        if round_number == 1:
            i = self.engine._index[5]
            if (rows == i).any():
                sender = np.array([i], dtype=np.intp)
                target = np.array(
                    [int(self.nbr[self.indptr[i]])], dtype=np.int64
                )
                # Two single-edge unicast segments: flattened
                # segment-major order equals the scalar drain order.
                self._emit_send(sender, target, 1)
                self._emit_send(sender, target, 2)
            return
        for i in rows.tolist():
            self._halt(i, True)


def _capture_error(graph, factory, exc_type, *, kernels):
    set_kernels_enabled(kernels)
    try:
        sim = CongestSimulator(graph, factory, seed=2)
        with pytest.raises(exc_type) as info:
            sim.run(max_rounds=6)
        assert (sim._engine._kernel is not None) == kernels
    finally:
        set_kernels_enabled(True)
    return info.value, sim._engine._round


@pytest.mark.parametrize(
    "factory,exc_type",
    [(lambda v: _Oversize(), MessageTooLargeError)],
    ids=["oversized"],
)
def test_error_parity_batched_vs_scalar(factory, exc_type):
    """A budget violation raises the same exception type, text, and
    round number whether accounting runs columnar (kernel send plan)
    or fully scalar."""
    graph = grid_graph(6, 7)
    outcomes = [
        _capture_error(graph, factory, exc_type, kernels=kernels)
        for kernels in (True, False)
    ]
    texts = {str(err) for err, _round in outcomes}
    rounds = {r for _err, r in outcomes}
    assert len(texts) == 1, texts
    assert len(rounds) == 1, rounds
    assert all(type(err) is exc_type for err, _round in outcomes)


def test_double_send_charged_alike_batched_vs_scalar():
    """Two messages on one edge in one round: the send plan charges
    them to ``effective_rounds`` exactly as the scalar drain does."""
    graph = grid_graph(6, 7)
    runs = []
    for kernels in (True, False):
        set_kernels_enabled(kernels)
        try:
            sim = CongestSimulator(graph, lambda v: _DoubleSend(), seed=2)
            result = sim.run(max_rounds=6)
        finally:
            set_kernels_enabled(True)
        assert (sim._engine._kernel is not None) == kernels
        runs.append(
            (result.outputs, sim.metrics.to_dict(include_per_round=True))
        )
    assert runs[0] == runs[1]
    m = sim.metrics
    assert m.max_edge_congestion == 2
    assert m.effective_rounds == m.rounds + 1


# ----------------------------------------------------------------------
# Checkpoint round-trips across kernel modes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize(
    "capture_on,resume_on,every",
    [
        (True, False, 2),
        (False, True, 2),
        (True, True, 2),
        # Resuming after round 3 makes the first resumed round an even
        # one: a Luby resolution round, read from the restored IN
        # messages.
        (True, True, 3),
        (False, True, 3),
    ],
)
def test_checkpoint_crosses_kernel_modes(algo, capture_on, resume_on, every):
    """A checkpoint captured in either mode resumes bit-identically on
    the per-vertex path — the envelope stays engine- and
    kernel-neutral.  Capturing with kernels on exercises the
    materialize-before-capture path (a lazy send plan may be parked at
    the checkpoint boundary).  ``resume_on`` enables kernels for the
    resume, and the restored engine still builds none."""
    graph = GENERATORS["gnp"](9)
    factory, rounds = ALGORITHMS[algo]
    base, base_rec, _ = run_once(graph, factory, 21, True, rounds=rounds)

    set_kernels_enabled(capture_on)
    checkpoints = []
    sim = CongestSimulator(graph, factory, seed=21)
    sim.run(
        max_rounds=rounds, checkpoint_every=every,
        on_checkpoint=checkpoints.append,
    )
    assert (sim._engine._kernel is not None) == capture_on
    assert checkpoints
    set_kernels_enabled(resume_on)
    resumed = resume_simulation(graph, factory, checkpoints[0])
    set_kernels_enabled(True)
    assert resumed._engine._kernel is None
    result = resumed.run(max_rounds=rounds)

    assert result.outputs == base.outputs
    assert result.halted == base.halted
    assert (
        result.metrics.messages_per_round
        == base.metrics.messages_per_round
    )
    assert result.metrics.summary() == base.metrics.summary()


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("at", ["before-run", "mid-run"])
def test_restored_engine_builds_no_kernel(algo, at):
    """A resumed fast engine finishes on the per-vertex path without
    ever building a kernel: it allocates none and counts no kernel
    activation, engaged or fallback.  This holds for a checkpoint taken
    inside kernel rounds and for one taken before the first run."""
    graph = GENERATORS["gnp"](9)
    factory, rounds = ALGORITHMS[algo]
    expected = CongestSimulator(graph, factory, seed=21).run(
        max_rounds=rounds
    )
    sim = CongestSimulator(graph, factory, seed=21)
    if at == "before-run":
        checkpoint = sim.checkpoint()
    else:
        checkpoints = []
        sim.run(
            max_rounds=rounds, checkpoint_every=2,
            on_checkpoint=checkpoints.append,
        )
        assert sim._engine._kernel is not None
        checkpoint = checkpoints[0]
    with telemetry_scope() as registry:
        resumed = resume_simulation(graph, factory, checkpoint)
        result = resumed.run(max_rounds=rounds)
    counters = registry.to_dict()["counters"]
    assert resumed._engine._kernel is None
    assert not [c for c in counters if c.startswith("congest.kernel.")]
    assert result.outputs == expected.outputs
    assert result.metrics.summary() == expected.metrics.summary()


def _fingerprint(result, recorder, sim):
    return (
        result.outputs,
        result.halted,
        result.metrics.to_dict(include_per_round=True),
        [r.to_dict() for r in recorder.rounds],
        rng_states(sim),
    )


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("every", [1, 2])
def test_dense_run_checkpoints_resume_on_both_engines(algo, every):
    """Every checkpoint a kernel run captures holds the scheduling
    state a scalar run's holds, and resumes on the fast and the
    reference engine to exactly the run that never stopped; capturing
    leaves that run itself unchanged."""
    graph = GENERATORS["isolated"](9)
    factory, rounds = ALGORITHMS[algo]
    expected = _fingerprint(*run_once(graph, factory, 21, True, rounds=rounds))

    def capture(enabled):
        set_kernels_enabled(enabled)
        checkpoints = []
        recorder = TraceRecorder("capture")
        sim = CongestSimulator(graph, factory, seed=21, trace=recorder)
        result = sim.run(
            max_rounds=rounds, checkpoint_every=every,
            on_checkpoint=checkpoints.append,
        )
        set_kernels_enabled(True)
        return _fingerprint(result, recorder, sim), checkpoints

    captured, checkpoints = capture(True)
    assert captured == expected
    _, scalar_checkpoints = capture(False)
    assert len(checkpoints) == len(scalar_checkpoints) >= 2
    for checkpoint, scalar in zip(checkpoints, scalar_checkpoints):
        state = pickle.loads(checkpoint.state)
        scalar_state = pickle.loads(scalar.state)
        for key in ("pending", "runnable", "wakeups"):
            assert state[key] == scalar_state[key], key
        for engine in ("fast", "reference"):
            recorder = TraceRecorder("resumed")
            resumed = resume_simulation(
                graph, factory, checkpoint, engine=engine, trace=recorder
            )
            result = resumed.run(max_rounds=rounds)
            assert _fingerprint(result, recorder, resumed) == expected


#: MPX whose wave settles long before its budget: with shifts capped at
#: 2.0 a root's candidacy wins at most about two hops out, so the last
#: broadcast comes within the first few of its 30 rounds and the kernel
#: skips the reduction in the rest.
SETTLING_MPX = (lambda v: MPXClustering(0.4, 2.0, 30), 32)


def test_settled_mpx_rounds_match_scalar():
    graph = GENERATORS["grid"](0)
    factory, rounds = SETTLING_MPX
    pair_on = run_once(graph, factory, 5, True, rounds=rounds)
    pair_off = run_once(graph, factory, 5, False, rounds=rounds)
    assert pair_on[2]._engine._kernel is not None
    per_round = pair_on[0].metrics.messages_per_round
    assert len(per_round) == 30 and per_round[0] > 0
    assert not any(per_round[10:]), per_round
    assert_identical(pair_on, pair_off)


def test_settled_mpx_checkpoint_resumes_on_both_engines():
    """A checkpoint captured deep in the settled stretch resumes to the
    uninterrupted run with kernels on or off, on either engine, and
    never with a kernel."""
    graph = GENERATORS["grid"](0)
    factory, rounds = SETTLING_MPX
    run = run_once(graph, factory, 5, True, rounds=rounds)
    expected = _fingerprint(*run)
    per_round = run[0].metrics.messages_per_round
    checkpoints = []
    CongestSimulator(
        graph, factory, seed=5, trace=TraceRecorder("capture")
    ).run(
        max_rounds=rounds, checkpoint_every=15,
        on_checkpoint=checkpoints.append,
    )
    checkpoint = checkpoints[0]
    assert checkpoint.round == 15 and not any(per_round[10:15])
    for engine, enabled in (
        ("fast", True), ("fast", False), ("reference", True)
    ):
        set_kernels_enabled(enabled)
        recorder = TraceRecorder("resumed")
        resumed = resume_simulation(
            graph, factory, checkpoint, engine=engine, trace=recorder
        )
        result = resumed.run(max_rounds=rounds)
        set_kernels_enabled(True)
        assert getattr(resumed._engine, "_kernel", None) is None
        assert _fingerprint(result, recorder, resumed) == expected


def test_checkpoint_fixture_workload_unaffected():
    """Unregistered algorithms (the checkpoint fixture's RNG walker)
    never see a kernel and round-trip exactly as before."""
    from tests._checkpoint_fixture import FixtureWalker

    graph = grid_graph(6, 6)
    factory = FixtureWalker
    base = CongestSimulator(graph, factory, seed=4).run(max_rounds=45)
    checkpoints = []
    sim = CongestSimulator(graph, factory, seed=4)
    sim.run(
        max_rounds=45, checkpoint_every=7,
        on_checkpoint=checkpoints.append,
    )
    assert sim._engine._kernel is None
    resumed = resume_simulation(graph, factory, checkpoints[0])
    result = resumed.run(max_rounds=45)
    assert result.outputs == base.outputs

