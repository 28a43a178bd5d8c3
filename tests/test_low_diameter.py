"""Tests for low-diameter decompositions (Theorem 1.5)."""

import math

import pytest

from repro.decomposition import (
    ball_carving_ldd,
    chop_ldd,
    theorem_1_5_ldd,
    verify_ldd,
)
from repro.errors import DecompositionError
from repro.generators import (
    cycle_graph,
    delaunay_planar_graph,
    grid_graph,
    k_tree,
    random_tree,
)


class TestBallCarving:
    @pytest.mark.parametrize("epsilon", [0.15, 0.3, 0.5])
    def test_budget_holds(self, epsilon):
        g = grid_graph(10, 10)
        ldd = ball_carving_ldd(g, epsilon, seed=0)
        report = verify_ldd(ldd)
        assert report["cut_fraction"] <= epsilon

    def test_diameter_bound_log_over_epsilon(self):
        g = delaunay_planar_graph(150, seed=1)
        epsilon = 0.3
        ldd = ball_carving_ldd(g, epsilon, seed=0)
        bound = 4 * math.log(g.m + 2) / epsilon
        assert ldd.max_diameter() <= bound

    def test_invalid_epsilon(self):
        with pytest.raises(DecompositionError):
            ball_carving_ldd(grid_graph(3, 3), 0.0)

    def test_covers_disconnected_graphs(self):
        from repro.graph import Graph

        g = Graph.from_edges([(0, 1), (2, 3)])
        g.add_vertex(9)
        ldd = ball_carving_ldd(g, 0.5, seed=0)
        covered = set().union(*ldd.clusters)
        assert covered == set(g.vertices())


class TestChop:
    @pytest.mark.parametrize("epsilon", [0.2, 0.4])
    def test_diameter_scales_inverse_epsilon(self, epsilon):
        g = grid_graph(14, 14)
        ldd = chop_ldd(g, epsilon, seed=1)
        width = max(2, math.ceil(2 * 3 / epsilon))
        assert ldd.max_diameter() <= 4 * width

    def test_cycle_budget_and_diameter(self):
        """Cycles witness the D = Theta(1/epsilon) optimality remark."""
        g = cycle_graph(120)
        epsilon = 0.2
        ldd = chop_ldd(g, epsilon, seed=2)
        assert ldd.cut_fraction() <= epsilon
        # Each piece is an arc of length >= ~2/epsilon on average:
        # fewer than epsilon * n pieces.
        assert len(ldd.clusters) <= epsilon * g.n + 1

    def test_budget_across_families(self):
        for make, eps in [
            (lambda: grid_graph(12, 12), 0.3),
            (lambda: delaunay_planar_graph(120, seed=3), 0.3),
            (lambda: k_tree(100, 3, seed=4), 0.35),
            (lambda: random_tree(120, seed=5), 0.3),
        ]:
            g = make()
            ldd = chop_ldd(g, eps, seed=6)
            assert ldd.cut_fraction() <= eps, type(g)


class TestTheorem15:
    def test_pipeline_budget(self):
        g = delaunay_planar_graph(90, seed=7)
        epsilon = 0.4
        ldd = theorem_1_5_ldd(g, epsilon, seed=0)
        report = verify_ldd(ldd)
        assert report["cut_fraction"] <= epsilon

    def test_pipeline_diameter_inverse_epsilon(self):
        g = grid_graph(12, 12)
        epsilon = 0.4
        ldd = theorem_1_5_ldd(g, epsilon, seed=0)
        # D = O(1/epsilon): constant 12 covers the chop constant stack.
        assert ldd.max_diameter() <= 24 / epsilon

    def test_verify_catches_bad_cut_fraction(self):
        g = cycle_graph(30)
        ldd = ball_carving_ldd(g, 0.3, seed=0)
        ldd.epsilon = 1e-9  # pretend the budget was tiny
        if ldd.cut_edges:
            with pytest.raises(DecompositionError):
                verify_ldd(ldd)

    def test_verify_catches_diameter_violation(self):
        g = grid_graph(8, 8)
        ldd = ball_carving_ldd(g, 0.5, seed=0)
        with pytest.raises(DecompositionError):
            verify_ldd(ldd, max_diameter=0)


class TestWeightedBallCarving:
    def test_weight_budget_holds(self):
        from repro.generators import random_integer_weights

        g = random_integer_weights(grid_graph(10, 10), 50, seed=20)
        epsilon = 0.3
        ldd = ball_carving_ldd(g, epsilon, seed=21, weighted=True)
        assert ldd.cut_weight_fraction() <= epsilon

    def test_weighted_protects_heavy_edges(self):
        from repro.graph import Graph

        # A path with one enormous edge in the middle: the weighted
        # variant must not cut it.
        g = Graph()
        for v in range(19):
            g.add_edge(v, v + 1, 1.0)
        g.add_edge(9, 10, 1000.0)  # reweight the middle edge
        ldd = ball_carving_ldd(g, 0.3, seed=22, weighted=True)
        assignment = ldd.cluster_of()
        assert assignment[9] == assignment[10]

    def test_unweighted_fraction_still_reported(self):
        g = grid_graph(8, 8)
        ldd = ball_carving_ldd(g, 0.4, seed=23, weighted=True)
        # On a unit-weight graph both fractions coincide.
        assert ldd.cut_weight_fraction() == pytest.approx(
            ldd.cut_fraction()
        )

    def test_cut_weight_fraction_empty(self):
        from repro.graph import Graph

        g = Graph()
        g.add_vertex(0)
        ldd = ball_carving_ldd(g, 0.3, seed=24)
        assert ldd.cut_weight_fraction() == 0.0
