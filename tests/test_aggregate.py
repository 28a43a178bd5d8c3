"""Tests for BFS-tree aggregation primitives."""

import pytest

from repro.errors import GraphError
from repro.generators import (
    cycle_graph,
    delaunay_planar_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.graph import Graph
from repro.routing import cluster_statistics, tree_aggregate


class TestTreeAggregate:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: path_graph(9),
            lambda: cycle_graph(12),
            lambda: grid_graph(5, 5),
            lambda: star_graph(8),
            lambda: random_tree(30, seed=1),
            lambda: delaunay_planar_graph(50, seed=2),
        ],
        ids=["path", "cycle", "grid", "star", "tree", "delaunay"],
    )
    def test_sum_of_ids(self, make):
        g = make()
        root = g.vertices()[0]
        values = {v: v + 1 for v in g.vertices()}
        total, result = tree_aggregate(g, root, values, aggregate="sum")
        assert total == sum(values.values())
        # Every vertex learned the total (broadcast phase).
        assert set(result.outputs.values()) == {total}

    def test_count(self):
        g = grid_graph(4, 4)
        total, _ = tree_aggregate(
            g, 0, {v: 1 for v in g.vertices()}, aggregate="count"
        )
        assert total == g.n

    def test_max(self):
        g = cycle_graph(9)
        total, _ = tree_aggregate(
            g, 3, {v: v * 2 for v in g.vertices()}, aggregate="max"
        )
        assert total == 16

    def test_missing_values_default_zero(self):
        g = path_graph(4)
        total, _ = tree_aggregate(g, 0, {0: 5}, aggregate="sum")
        assert total == 5

    def test_single_vertex(self):
        g = Graph()
        g.add_vertex(7)
        total, _ = tree_aggregate(g, 7, {7: 3})
        assert total == 3

    def test_unknown_aggregate(self):
        with pytest.raises(GraphError):
            tree_aggregate(path_graph(3), 0, {}, aggregate="median")

    def test_disconnected_rejected(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            tree_aggregate(g, 0, {})

    def test_missing_root_rejected(self):
        with pytest.raises(GraphError):
            tree_aggregate(path_graph(3), 99, {})

    def test_rounds_linear_in_diameter(self):
        g = path_graph(20)
        _, result = tree_aggregate(g, 0, {v: 1 for v in g.vertices()})
        assert result.metrics.rounds <= 3 * (g.diameter() + 1) + 8
        # A joining vertex sends its parent a child notice and its
        # beacon in the same round, and nothing more.
        assert result.metrics.max_edge_congestion <= 2


class TestClusterStatistics:
    def test_learns_n_and_m(self):
        g = delaunay_planar_graph(40, seed=3)
        leader = max(g.vertices(), key=g.degree)
        n, m, _result = cluster_statistics(g, leader, seed=4)
        assert n == g.n
        assert m == g.m

    def test_degree_condition_checkable_in_network(self):
        """The §2.3 claim: Lemma 2.3's condition from in-network data."""
        from repro.core.failure import DEGREE_CONDITION_CONSTANT

        g = delaunay_planar_graph(50, seed=5)
        leader = max(g.vertices(), key=g.degree)
        phi = 0.05
        _n, m, _ = cluster_statistics(g, leader, seed=6)
        in_network_verdict = (
            g.degree(leader) >= DEGREE_CONDITION_CONSTANT * phi * phi * m
        )
        from repro.core.failure import degree_condition_holds

        assert in_network_verdict == degree_condition_holds(g, phi)
