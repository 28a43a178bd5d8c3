"""Differential tests for the columnar round kernels.

The kernel layer's whole contract is *bit-identity*: a registered
kernel may only change how fast a round executes, never anything
observable.  Every test here runs the same simulation twice — kernels
forced on and forced off — and pins outputs, metrics, per-round
message counts, structured traces, telemetry, and the per-vertex RNG
streams to be exactly equal.  The kernelized side delivers through
columnar send plans, so the batched accounting is held to the same
bit-parity bar, including its error paths (oversized messages, strict
capacity violations).  A second group covers the activation rules
(thresholds, fault plans, missing NumPy, the ``REPRO_NO_KERNELS``
escape hatch) and checkpoint round-trips across kernel modes, and a
third unit-tests the :mod:`repro.rng` columnar MT19937 machinery the
kernels are built on.
"""

from __future__ import annotations

import random

import pytest

from repro import rng as rng_mod
from repro.congest import algorithm as algorithm_mod
from repro.congest.algorithm import (
    VertexAlgorithm,
    kernel_class_for,
    kernels_enabled,
    register_kernel,
    set_kernels_enabled,
)
from repro.congest.checkpoint import resume_simulation
from repro.congest.faults import FaultPlan
from repro.congest.kernels import KernelBase
from repro.congest.network import CongestSimulator
from repro.congest.trace import TraceRecorder
from repro.errors import MessageTooLargeError, ProtocolError
from repro.decomposition.mpx import MPXClustering, MPXKernel
from repro.generators import gnp_random_graph, grid_graph, k_tree
from repro.independent_set.greedy import LubyKernel, LubyMIS
from repro.matching.distributed import (
    ProposalMatching,
    ProposalMatchingKernel,
)
from repro.obs.registry import telemetry_scope
from repro.rng import (
    HAVE_NUMPY,
    MTColumn,
    fresh_random_from_state,
    mt_state_matrix,
)

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="kernel differential tests require numpy"
)


# ----------------------------------------------------------------------
# The differential matrix: algorithm x generator x seed x fault plan
# ----------------------------------------------------------------------

ALGORITHMS = {
    "luby": (lambda v: LubyMIS(20), 44),
    "mpx": (lambda v: MPXClustering(0.4, 12.0, 16), 18),
    "matching": (lambda v: ProposalMatching(16), 54),
}

GENERATORS = {
    "gnp": lambda seed: gnp_random_graph(40, 0.12, seed=seed),
    "grid": lambda seed: grid_graph(6, 7),
    "ktree": lambda seed: k_tree(40, 3, seed=seed),
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
    # Message-fault plans force a (silent) scalar fallback; lossless
    # and crash-only plans must actually engage the kernel, otherwise
    # this test would be vacuously comparing scalar against scalar.
    kernel = pair_on[2]._engine._kernel
    if plan_kind == "drop":
        assert kernel is None
    else:
        assert kernel is not None
        assert ("congest.delivery.batched" in delivered) == send_plans
        assert "congest.delivery.scalar" not in delivered
    assert pair_off[2]._engine._kernel is None
    assert_identical(pair_on, pair_off)


def test_delaunay_family_matches_scalar():
    """The matrix's random-planar column (skips without scipy)."""
    from tests.conftest import delaunay_or_skip

    graph = delaunay_or_skip(60, seed=5)
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
# Activation rules
# ----------------------------------------------------------------------

def test_registry_maps_algorithms_to_kernels():
    assert kernel_class_for(LubyMIS) is LubyKernel
    assert kernel_class_for(MPXClustering) is MPXKernel
    assert kernel_class_for(ProposalMatching) is ProposalMatchingKernel
    assert kernel_class_for(dict) is None


def test_threshold_gates_engagement(monkeypatch):
    graph = grid_graph(5, 5)
    factory, _ = ALGORITHMS["luby"]
    monkeypatch.setenv("REPRO_KERNEL_THRESHOLD", "26")
    sim = CongestSimulator(graph, factory, seed=1)
    assert sim._engine._kernel is None
    monkeypatch.setenv("REPRO_KERNEL_THRESHOLD", "25")
    sim = CongestSimulator(graph, factory, seed=1)
    assert sim._engine._kernel is not None


def test_default_threshold_engages_at_64(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_THRESHOLD")
    graph = grid_graph(8, 8)
    factory, rounds = ALGORITHMS["luby"]
    sim = CongestSimulator(graph, factory, seed=1)
    assert sim._engine._kernel is not None
    small = grid_graph(7, 9)  # 63 vertices
    sim = CongestSimulator(small, factory, seed=1)
    assert sim._engine._kernel is None


def test_env_variable_disables_kernels(monkeypatch):
    monkeypatch.setenv("REPRO_NO_KERNELS", "1")
    # The module-level flag is read at import; the setter is the
    # process-level control and mirrors back into the environment.
    set_kernels_enabled(False)
    assert not kernels_enabled()
    graph = grid_graph(8, 8)
    sim = CongestSimulator(graph, ALGORITHMS["luby"][0], seed=1)
    assert sim._engine._kernel is None
    set_kernels_enabled(True)
    assert "REPRO_NO_KERNELS" not in __import__("os").environ
    sim = CongestSimulator(graph, ALGORITHMS["luby"][0], seed=1)
    assert sim._engine._kernel is not None


def test_missing_numpy_degrades_silently(monkeypatch):
    """With NumPy stubbed out the engine runs scalar, bit-identically.

    Batched delivery rides on the kernel layer, so the same stub also
    silences it: no send plans are ever built, and the engine finishes
    with no parked lazy plan."""
    graph = GENERATORS["gnp"](3)
    factory, rounds = ALGORITHMS["mpx"]
    baseline = run_once(graph, factory, 3, False, rounds=rounds)
    monkeypatch.setattr(rng_mod, "HAVE_NUMPY", False)
    pair = run_once(graph, factory, 3, True, rounds=rounds)
    assert pair[2]._engine._kernel is None
    assert pair[2]._engine._send_plan is None
    assert pair[2]._engine._lazy_plan is None
    monkeypatch.undo()
    assert_identical(pair, baseline)


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

    sim = CongestSimulator(graph, factory, seed=1)
    assert sim._engine._kernel is None


def test_non_uniform_parameters_fall_back():
    graph = grid_graph(8, 8)
    sim = CongestSimulator(
        graph, lambda v: LubyMIS(20 if v else 21), seed=1
    )
    assert sim._engine._kernel is None


# ----------------------------------------------------------------------
# Error-path parity: batched accounting raises exactly like scalar
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

    def _step_rows(self, rows, round_number, boxes):
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

    def _step_rows(self, rows, round_number, boxes):
        np = self.np
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


def _capture_error(graph, factory, exc_type, *, kernels, strict=False):
    set_kernels_enabled(kernels)
    try:
        sim = CongestSimulator(graph, factory, seed=2, strict=strict)
        if kernels:
            assert sim._engine._kernel is not None
        with pytest.raises(exc_type) as info:
            sim.run(max_rounds=6)
    finally:
        set_kernels_enabled(True)
    return info.value, sim._engine._round


@pytest.mark.parametrize(
    "factory,exc_type,strict",
    [
        (lambda v: _Oversize(), MessageTooLargeError, False),
        (lambda v: _DoubleSend(), ProtocolError, True),
    ],
    ids=["oversized", "strict-capacity"],
)
def test_error_parity_batched_vs_scalar(factory, exc_type, strict):
    """Budget and strict-capacity violations raise the same exception
    type, text, and round number whether accounting runs columnar
    (kernel send plan) or fully scalar."""
    graph = grid_graph(6, 7)
    outcomes = [
        _capture_error(
            graph, factory, exc_type, kernels=kernels, strict=strict
        )
        for kernels in (True, False)
    ]
    texts = {str(err) for err, _round in outcomes}
    rounds = {r for _err, r in outcomes}
    assert len(texts) == 1, texts
    assert len(rounds) == 1, rounds
    assert all(type(err) is exc_type for err, _round in outcomes)


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
        # Resuming after round 3 makes the replayed round an even one:
        # a Luby resolution round, read from the restored IN messages.
        (True, True, 3),
    ],
)
def test_checkpoint_crosses_kernel_modes(algo, capture_on, resume_on, every):
    """A checkpoint captured in either mode resumes bit-identically in
    either — the envelope stays engine- and kernel-neutral.  Capturing
    with kernels on exercises the materialize-before-capture path (a
    lazy send plan may be parked at the checkpoint boundary)."""
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
    assert checkpoints
    set_kernels_enabled(resume_on)
    resumed = resume_simulation(graph, factory, checkpoints[0])
    result = resumed.run(max_rounds=rounds)
    set_kernels_enabled(True)

    assert result.outputs == base.outputs
    assert result.halted == base.halted
    assert (
        result.metrics.messages_per_round
        == base.metrics.messages_per_round
    )
    assert result.metrics.summary() == base.metrics.summary()


def test_checkpoint_fixture_workload_unaffected():
    """Unregistered algorithms (the checkpoint fixture's RNG walker)
    never see a kernel and round-trip exactly as before."""
    from tests._checkpoint_fixture import FixtureWalker

    graph = grid_graph(6, 6)
    factory = FixtureWalker
    base = CongestSimulator(graph, factory, seed=4).run(max_rounds=45)
    checkpoints = []
    sim = CongestSimulator(graph, factory, seed=4)
    assert sim._engine._kernel is None
    sim.run(
        max_rounds=45, checkpoint_every=7,
        on_checkpoint=checkpoints.append,
    )
    resumed = resume_simulation(graph, factory, checkpoints[0])
    result = resumed.run(max_rounds=45)
    assert result.outputs == base.outputs


# ----------------------------------------------------------------------
# Columnar MT19937 plumbing
# ----------------------------------------------------------------------

class TestMTColumn:
    def test_state_matrix_matches_cpython_seeding(self):
        seeds = [0, 1, 42, 2**31 - 1, 2**32, 2**64 - 1, 12345]
        matrix = mt_state_matrix(seeds)
        for row, seed in enumerate(seeds):
            expected = random.Random(seed).getstate()[1][:624]
            assert tuple(int(x) for x in matrix[row]) == expected

    def test_random_column_matches_scalar(self):
        import numpy as np

        col = MTColumn(5)
        col.adopt_seeds(np.arange(5), [11, 22, 33, 44, 55])
        scalars = [random.Random(s) for s in (11, 22, 33, 44, 55)]
        for _ in range(3):
            rows = np.array([0, 2, 4])
            drawn = col.random_column(rows)
            for row, value in zip(rows.tolist(), drawn.tolist()):
                assert value == scalars[row].random()

    def test_randbelow_column_matches_scalar(self):
        import numpy as np

        col = MTColumn(4)
        col.adopt_seeds(np.arange(4), [7, 8, 9, 10])
        scalars = [random.Random(s) for s in (7, 8, 9, 10)]
        bounds = np.array([3, 17, 255, 1_000_000])
        for _ in range(4):
            rows = np.arange(4)
            drawn = col.randbelow_column(rows, bounds)
            for row, value in zip(rows.tolist(), drawn.tolist()):
                assert value == scalars[row]._randbelow(int(bounds[row]))

    def test_adopt_state_resumes_mid_stream(self):
        import numpy as np

        scalar = random.Random(99)
        for _ in range(1000):
            scalar.random()
        col = MTColumn(2)
        col.adopt_state(1, scalar)
        clone = random.Random(99)
        for _ in range(1000):
            clone.random()
        drawn = col.random_column(np.array([1]))
        assert drawn[0] == clone.random()

    def test_state_of_round_trips_through_random(self):
        import numpy as np

        col = MTColumn(3)
        col.adopt_seeds(np.arange(3), [1, 2, 3])
        col.random_column(np.arange(3))
        for row in range(3):
            rebuilt = fresh_random_from_state(col.state_of(row))
            reference = random.Random(row + 1)
            reference.random()
            assert rebuilt.getstate() == reference.getstate()
            assert rebuilt.random() == reference.random()

    def test_dirty_tracking(self):
        import numpy as np

        col = MTColumn(4)
        col.adopt_seeds(np.arange(4), [5, 6, 7, 8])
        col.clear_dirty()
        col.random_column(np.array([1, 3]))
        assert sorted(col.dirty_rows().tolist()) == [1, 3]
        col.clear_dirty()
        assert col.dirty_rows().size == 0

    def test_fresh_randoms_replay_shortcut(self):
        """The bulk hand-back (reseed + skip for seed-adopted rows,
        state tuple for rows of unknown provenance) equals scalar."""
        import numpy as np

        col = MTColumn(4)
        seeds = [21, 22, 23]
        col.adopt_seeds(np.arange(3), seeds)
        scalars = [random.Random(s) for s in seeds]
        # Row 3 adopted mid-stream: replay is impossible, tuple path.
        donor = random.Random(99)
        donor.random(), donor.getrandbits(13)
        twin = random.Random(99)
        twin.random(), twin.getrandbits(13)
        col.adopt_state(3, donor)
        scalars.append(twin)
        # Ragged consumption, including >1 twist block on row 0.
        for _ in range(800):
            col.random_column(np.array([0]))
            scalars[0].random()
        col.random_column(np.arange(4))
        for rng in scalars:
            rng.random()
        col.randbelow_column(np.array([1, 3]), np.array([7, 7]))
        scalars[1]._randbelow(7), scalars[3]._randbelow(7)
        rebuilt = col.fresh_randoms(np.arange(4))
        for rng, reference in zip(rebuilt, scalars):
            assert rng.getstate() == reference.getstate()
            assert rng.random() == reference.random()
        assert col.fresh_randoms(np.empty(0, dtype=np.intp)) == []
