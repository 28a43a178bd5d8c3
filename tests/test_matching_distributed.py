"""Tests for the distributed matching algorithms (Theorems 3.2 and 1.1)."""

import pytest

from repro.congest import use_engine
from repro.errors import SolverError
from repro.generators import (
    delaunay_planar_graph,
    grid_graph,
    k_tree,
    random_integer_weights,
    random_planar_graph,
    star_graph,
)
from repro.matching import (
    distributed_maximal_matching,
    distributed_mcm_minor_free,
    distributed_mcm_planar,
    distributed_mwm,
    greedy_weight_matching,
    is_matching,
    matching_weight,
    max_cardinality_matching,
    max_weight_matching,
)


class TestProposalMatching:
    def test_maximal_halts_and_engines_agree(self):
        """The CONGEST entry point the fault and adversity suites call:
        a valid maximal matching that halts, equal on both engines (the
        fast side runs the columnar kernel at this n)."""
        g = delaunay_planar_graph(80, seed=2)
        runs = {}
        for engine in ("reference", "fast"):
            with use_engine(engine):
                runs[engine] = distributed_maximal_matching(g, seed=5)
        matching, result = runs["fast"]
        ref_matching, ref_result = runs["reference"]
        assert matching == ref_matching
        assert result.outputs == ref_result.outputs
        assert result.metrics.summary() == ref_result.metrics.summary()
        assert result.halted and ref_result.halted
        assert is_matching(g, matching)
        matched = {v for edge in matching for v in edge}
        assert all(u in matched or v in matched for u, v in g.edges())


class TestDistributedMCM:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_ratio_on_planar(self, seed):
        g = delaunay_planar_graph(70, seed=seed)
        epsilon = 0.3
        result, _fw = distributed_mcm_planar(g, epsilon, seed=seed)
        assert is_matching(g, result.matching)
        opt = len(max_cardinality_matching(g))
        assert result.size >= (1 - epsilon) * opt

    def test_ratio_on_sparse_planar(self):
        g = random_planar_graph(80, edge_fraction=0.55, seed=3)
        result, _ = distributed_mcm_planar(g, 0.3, seed=4)
        opt = len(max_cardinality_matching(g))
        assert result.size >= 0.7 * opt

    def test_star_heavy_graph(self):
        # Mostly stars: elimination does the heavy lifting.
        g = star_graph(20)
        result, _ = distributed_mcm_planar(g, 0.4, seed=0)
        assert result.size == 1

    def test_invalid_epsilon(self):
        with pytest.raises(SolverError):
            distributed_mcm_planar(grid_graph(3, 3), 1.2)

    def test_metrics_available(self):
        g = grid_graph(6, 6)
        result, fw = distributed_mcm_planar(g, 0.3, seed=1)
        assert result.metrics().total_messages > 0
        assert fw is not None


class TestDistributedMWM:
    @pytest.mark.parametrize("max_weight", [5, 50])
    def test_ratio_on_weighted_planar(self, max_weight):
        g = random_integer_weights(
            delaunay_planar_graph(50, seed=5), max_weight, seed=6
        )
        epsilon = 0.3
        result = distributed_mwm(g, epsilon, iterations=3, seed=7)
        assert is_matching(g, result.matching)
        opt = matching_weight(g, max_weight_matching(g))
        assert result.weight >= (1 - epsilon) * opt

    def test_ratio_on_ktree(self):
        g = random_integer_weights(k_tree(50, 3, seed=8), 30, seed=9)
        result = distributed_mwm(g, 0.3, iterations=3, seed=10)
        opt = matching_weight(g, max_weight_matching(g))
        assert result.weight >= 0.7 * opt

    def test_weight_monotone_across_iterations(self):
        g = random_integer_weights(grid_graph(6, 6), 20, seed=11)
        weights = []
        for iterations in (1, 2, 4):
            result = distributed_mwm(
                g, 0.3, iterations=iterations, seed=12
            )
            weights.append(result.weight)
        assert weights[0] <= weights[1] + 1e-9
        assert weights[1] <= weights[2] + 1e-9

    def test_beats_or_matches_greedy(self):
        g = random_integer_weights(delaunay_planar_graph(40, seed=13), 40, seed=14)
        result = distributed_mwm(g, 0.25, iterations=3, seed=15)
        greedy = matching_weight(g, greedy_weight_matching(g))
        assert result.weight >= greedy * 0.95

    def test_requires_integer_labels(self):
        from repro.graph import Graph

        g = Graph.from_edges([("a", "b")])
        with pytest.raises(SolverError):
            distributed_mwm(g, 0.3)

    def test_invalid_epsilon(self):
        with pytest.raises(SolverError):
            distributed_mwm(grid_graph(3, 3), 0.0)


class TestDistributedMCMMinorFree:
    def test_ratio_on_ktree(self):
        g = k_tree(40, 3, seed=20)
        result = distributed_mcm_minor_free(g, 0.3, iterations=2, seed=21)
        assert is_matching(g, result.matching)
        opt = len(max_cardinality_matching(g))
        assert result.size >= 0.7 * opt

    def test_unit_weights_used(self):
        g = k_tree(30, 2, seed=22)
        result = distributed_mcm_minor_free(g, 0.3, iterations=2, seed=23)
        assert result.weight == result.size
