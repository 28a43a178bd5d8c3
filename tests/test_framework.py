"""Tests for the Theorem 2.6 framework (partition + gather + solve)."""

import pytest

from repro.congest import CongestMetrics
from repro.core import (
    degree_condition_holds,
    diameter_within,
    partition_minor_free,
    run_framework,
    singletonize_failed_clusters,
)
from repro.core.failure import diameter_bound
from repro.errors import GraphError
from repro.generators import (
    complete_graph,
    delaunay_planar_graph,
    grid_graph,
    hypercube_graph,
    k_tree,
)
from repro.graph import Graph


def degree_solver(sub, leader, notes):
    return {v: sub.degree(v) for v in sub.vertices()}


class TestPartition:
    def test_inter_cluster_budget_theorem_2_6(self):
        g = delaunay_planar_graph(80, seed=1)
        result = partition_minor_free(g, 0.3, seed=0)
        assert result.inter_cluster_edges() <= 0.3 * min(g.n, g.m)

    def test_every_cluster_has_leader_with_topology(self):
        g = grid_graph(7, 7)
        result = partition_minor_free(g, 0.3, seed=0)
        assert result.all_succeeded
        for run in result.clusters:
            sub = g.subgraph(run.vertices)
            assert run.gather.topology_complete(sub)
            assert sub.degree(run.leader) == sub.max_degree()

    def test_clusters_partition_vertex_set(self):
        g = k_tree(60, 3, seed=2)
        result = partition_minor_free(g, 0.25, seed=0)
        seen = set()
        for run in result.clusters:
            assert not (seen & run.vertices)
            seen |= run.vertices
        assert seen == set(g.vertices())

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            partition_minor_free(Graph(), 0.3)

    def test_max_cluster_size_forwarded(self):
        g = delaunay_planar_graph(100, seed=3)
        result = partition_minor_free(
            g, 0.4, seed=0, max_cluster_size=30, phi=0.02,
            enforce_budget=False,
        )
        assert all(len(run.vertices) <= 30 for run in result.clusters)


class TestRunFramework:
    def test_answers_are_correct_and_complete(self):
        g = delaunay_planar_graph(60, seed=4)
        result = run_framework(g, 0.3, solver=degree_solver, seed=0)
        for run in result.clusters:
            sub = g.subgraph(run.vertices)
            for v in run.vertices:
                assert result.answers[v] == sub.degree(v)

    def test_requires_solver(self):
        with pytest.raises(GraphError):
            run_framework(grid_graph(3, 3), 0.3, solver=None)

    def test_message_budget_never_exceeded(self):
        from repro.congest.message import MessageBudget

        g = delaunay_planar_graph(70, seed=5)
        result = run_framework(g, 0.3, solver=degree_solver, seed=0)
        assert result.metrics.max_message_bits <= MessageBudget(g.n).bits

    def test_deterministic_given_seed(self):
        g = grid_graph(5, 5)
        a = run_framework(g, 0.3, solver=degree_solver, seed=11)
        b = run_framework(g, 0.3, solver=degree_solver, seed=11)
        assert a.answers == b.answers
        assert a.metrics.summary() == b.metrics.summary()

    def test_tree_transport_also_works(self):
        g = grid_graph(5, 5)
        result = run_framework(
            g, 0.3, solver=degree_solver, seed=0, transport="tree"
        )
        assert result.all_succeeded
        assert result.answers == {
            v: g.subgraph(
                next(r.vertices for r in result.clusters if v in r.vertices)
            ).degree(v)
            for v in g.vertices()
        }


class TestFailureSemantics:
    def test_degree_condition_holds_on_minor_free_clusters(self):
        g = delaunay_planar_graph(90, seed=6)
        result = partition_minor_free(g, 0.3, seed=0)
        assert all(run.degree_condition_ok for run in result.clusters)

    def test_degree_condition_fails_on_expanders(self):
        # A hypercube treated as if it were minor-free: its clusters
        # have no high-degree vertex relative to phi^2 * |E_i|.
        g = hypercube_graph(6)
        assert not degree_condition_holds(g, phi=0.5)

    def test_degree_condition_trivial_cases(self):
        g = Graph()
        g.add_vertex(0)
        assert degree_condition_holds(g, phi=0.9)

    def test_diameter_within(self):
        g = grid_graph(4, 4)
        assert diameter_within(g, 6)
        assert not diameter_within(g, 3)

    def test_diameter_bound_scales(self):
        assert diameter_bound(0.1, 100) > diameter_bound(0.5, 100)
        assert diameter_bound(0.0, 50) == 50

    def test_singletonize_failed_clusters(self):
        clusters = [{1, 2, 3}, {4, 5}, {6}]
        fixed = singletonize_failed_clusters(clusters, failed=[1])
        assert {frozenset(c) for c in fixed} == {
            frozenset({1, 2, 3}),
            frozenset({4}),
            frozenset({5}),
            frozenset({6}),
        }

    def test_parallel_merge_semantics(self):
        a = CongestMetrics(
            rounds=10,
            effective_rounds=12,
            total_messages=100,
            total_bits=1000,
            max_message_bits=30,
            max_edge_congestion=3,
        )
        b = CongestMetrics(
            rounds=7,
            effective_rounds=20,
            total_messages=50,
            total_bits=500,
            max_message_bits=40,
            max_edge_congestion=2,
        )
        merged = CongestMetrics.merge_parallel([a, b])
        assert merged.rounds == 10
        assert merged.effective_rounds == 20
        assert merged.total_messages == 150
        assert merged.max_message_bits == 40
