"""Tests for the distributed MPX exponential-shift LDD."""

import math
import statistics

import pytest

from repro.decomposition import mpx_ldd, verify_ldd
from repro.errors import DecompositionError
from repro.generators import (
    cycle_graph,
    delaunay_planar_graph,
    grid_graph,
    random_tree,
)
from repro.graph import Graph


class TestMPX:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: grid_graph(10, 10),
            lambda: delaunay_planar_graph(100, seed=1),
            lambda: cycle_graph(80),
            lambda: random_tree(80, seed=2),
        ],
        ids=["grid", "delaunay", "cycle", "tree"],
    )
    def test_clusters_are_connected_partition(self, make):
        g = make()
        ldd, _sim = mpx_ldd(g, 0.3, seed=3)
        seen = set()
        for cluster in ldd.clusters:
            assert g.subgraph(cluster).is_connected()
            assert not (seen & cluster)
            seen |= cluster
        assert seen == set(g.vertices())

    def test_expected_cut_fraction_near_epsilon(self):
        g = grid_graph(12, 12)
        epsilon = 0.3
        cuts = [
            mpx_ldd(g, epsilon, seed=seed)[0].cut_fraction()
            for seed in range(8)
        ]
        # Expected cut <= beta = eps/2; allow generous sampling noise.
        assert statistics.mean(cuts) <= epsilon

    def test_diameter_log_over_epsilon(self):
        g = delaunay_planar_graph(120, seed=4)
        epsilon = 0.25
        ldd, _ = mpx_ldd(g, epsilon, seed=5)
        bound = 8 * math.log(g.n + 2) / epsilon
        assert ldd.max_diameter() <= bound

    def test_runs_within_round_budget(self):
        g = grid_graph(8, 8)
        _, sim = mpx_ldd(g, 0.3, seed=6)
        assert sim.halted
        beta = 0.15
        cap = 4 * math.log(g.n + 2) / beta
        assert sim.metrics.rounds <= cap + 8

    def test_messages_fit_budget(self):
        from repro.congest.message import MessageBudget

        g = delaunay_planar_graph(80, seed=7)
        _, sim = mpx_ldd(g, 0.2, seed=8)
        assert sim.metrics.max_message_bits <= MessageBudget(g.n).bits

    def test_deterministic_by_seed(self):
        g = grid_graph(6, 6)
        a, _ = mpx_ldd(g, 0.3, seed=9)
        b, _ = mpx_ldd(g, 0.3, seed=9)
        assert {frozenset(c) for c in a.clusters} == {
            frozenset(c) for c in b.clusters
        }

    def test_invalid_epsilon(self):
        with pytest.raises(DecompositionError):
            mpx_ldd(grid_graph(3, 3), 0.0)

    def test_empty_graph_rejected(self):
        with pytest.raises(DecompositionError):
            mpx_ldd(Graph(), 0.3)

    def test_beta_controls_granularity(self):
        g = grid_graph(12, 12)
        coarse, _ = mpx_ldd(g, 0.3, seed=10, beta=0.05)
        fine, _ = mpx_ldd(g, 0.3, seed=10, beta=0.8)
        assert len(fine.clusters) >= len(coarse.clusters)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_corrupted_payloads_are_lost(self, engine):
        """A corrupted message is dropped, not unpacked: the run
        completes and its clusters still partition V."""
        from repro.congest import FaultPlan, use_engine, use_faults

        g = delaunay_planar_graph(60, seed=1)
        with use_engine(engine), use_faults(FaultPlan(seed=3, corrupt=0.2)):
            ldd, sim = mpx_ldd(g, 0.5, seed=2)
        assert sim.metrics.messages_corrupted > 0
        covered = [v for cluster in ldd.clusters for v in cluster]
        assert len(covered) == g.n and set(covered) == set(g.vertices())
