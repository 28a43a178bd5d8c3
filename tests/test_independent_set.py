"""Tests for MAXIS solvers and the Theorem 1.2 distributed algorithm."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import density_bound
from repro.errors import SolverError
from repro.generators import (
    complete_graph,
    cycle_graph,
    delaunay_planar_graph,
    gnp_random_graph,
    grid_graph,
    k_tree,
    random_tree,
    star_graph,
)
from repro.graph import Graph
from repro.independent_set import (
    distributed_maxis,
    exact_maxis,
    greedy_min_degree_is,
    luby_mis,
    solve_maxis,
    two_improvement_is,
)


def nx_maxis_size(g: Graph) -> int:
    if g.n == 0:
        return 0
    comp = nx.complement(g.to_networkx())
    return max((len(c) for c in nx.find_cliques(comp)), default=0)


def is_independent(g: Graph, s) -> bool:
    return all(not (u in s and v in s) for u, v in g.edges())


class TestExactMaxis:
    @pytest.mark.parametrize(
        "graph, alpha",
        [
            (cycle_graph(9), 4),
            (cycle_graph(10), 5),
            (star_graph(7), 7),
            (complete_graph(6), 1),
            (grid_graph(4, 4), 8),
            (random_tree(15, seed=1), None),
        ],
        ids=["C9", "C10", "star", "K6", "grid", "tree"],
    )
    def test_known_values(self, graph, alpha):
        result = exact_maxis(graph)
        assert is_independent(graph, result)
        if alpha is not None:
            assert len(result) == alpha
        else:
            assert len(result) == nx_maxis_size(graph)

    @given(
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=28,
        ).map(Graph.from_edges)
    )
    @settings(max_examples=60, deadline=None)
    def test_against_networkx(self, g):
        result = exact_maxis(g)
        assert is_independent(g, result)
        assert len(result) == nx_maxis_size(g)

    def test_planar_instance(self):
        g = delaunay_planar_graph(100, seed=2)
        result = exact_maxis(g)
        assert is_independent(g, result)

    def test_node_budget_raises(self):
        g = gnp_random_graph(40, 0.5, seed=3)
        with pytest.raises(SolverError):
            exact_maxis(g, node_budget=5)


class TestHeuristics:
    def test_greedy_respects_density_bound(self):
        """Section 3.1: alpha(G) >= n / (2d + 1) via min-degree greedy."""
        for make in (
            lambda: delaunay_planar_graph(80, seed=4),
            lambda: k_tree(60, 3, seed=5),
            lambda: grid_graph(8, 8),
        ):
            g = make()
            s = greedy_min_degree_is(g)
            assert is_independent(g, s)
            d = density_bound(g)
            assert len(s) >= g.n / (2 * d + 1)

    def test_two_improvement_never_shrinks(self):
        g = delaunay_planar_graph(60, seed=6)
        start = greedy_min_degree_is(g)
        improved = two_improvement_is(g, start)
        assert is_independent(g, improved)
        assert len(improved) >= len(start)

    def test_solve_maxis_exact_when_small(self):
        g = delaunay_planar_graph(40, seed=7)
        assert len(solve_maxis(g)) == len(exact_maxis(g))

    def test_solve_maxis_fallback_on_hard_instance(self):
        g = gnp_random_graph(60, 0.4, seed=8)
        s = solve_maxis(g, node_budget=100)
        assert is_independent(g, s)
        assert len(s) >= 1


class TestLubyMIS:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mis_properties(self, seed):
        g = delaunay_planar_graph(60, seed=seed)
        mis, result = luby_mis(g, seed=seed)
        assert is_independent(g, mis)
        # Maximality.
        for v in g.vertices():
            assert v in mis or any(u in mis for u in g.neighbors(v))
        assert result.halted

    def test_rounds_logarithmic(self):
        g = delaunay_planar_graph(120, seed=3)
        _, result = luby_mis(g, seed=4)
        import math

        assert result.metrics.rounds <= 20 * math.log2(g.n)


class TestDistributedMaxis:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_theorem_1_2_ratio(self, seed):
        g = delaunay_planar_graph(60, seed=seed)
        epsilon = 0.3
        result = distributed_maxis(g, epsilon, seed=seed)
        opt = len(exact_maxis(g))
        assert result.size >= (1 - epsilon) * opt

    def test_ratio_on_ktree(self):
        g = k_tree(50, 3, seed=2)
        result = distributed_maxis(g, 0.3, seed=3)
        opt = len(exact_maxis(g))
        assert result.size >= 0.7 * opt

    def test_no_conflicts_on_single_cluster(self):
        g = grid_graph(5, 5)
        result = distributed_maxis(g, 0.3, seed=4)
        if len(result.framework.clusters) == 1:
            assert result.conflicts_resolved == 0

    def test_result_is_independent(self):
        g = delaunay_planar_graph(50, seed=5)
        result = distributed_maxis(g, 0.25, seed=6)
        assert is_independent(g, result.independent_set)

    def test_invalid_epsilon(self):
        with pytest.raises(SolverError):
            distributed_maxis(grid_graph(3, 3), -0.1)
