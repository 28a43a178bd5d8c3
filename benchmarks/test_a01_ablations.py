"""A1 — Ablations of the library's design choices.

Three knobs DESIGN.md calls out, each isolated here:

1. *Transport*: Lemma 2.4 random-walk gathering vs the BFS-tree
   convergecast — walks trade rounds for O(log n) congestion.
2. *Boundary randomization* (``cut_slack``): the distributed MWM relies
   on randomized sweep prefixes so that edges stuck on cluster
   boundaries get re-optimized; slack 1.0 freezes the boundaries.
3. *Walk-length calibration*: the measured mixing-time formula vs the
   analytic Lemma 2.4 worst-case length — the analytic bound wastes
   orders of magnitude of rounds on real clusters.
"""

import pytest

from repro.analysis import Table
from repro.core.framework import partition_minor_free
from repro.generators import delaunay_planar_graph, random_integer_weights
from repro.matching import distributed_mwm, matching_weight, max_weight_matching
from repro.resilience import degree_solver
from repro.routing.gather import _calibrated_walk_steps, gather_topology
from repro.routing.walk_exchange import default_walk_steps

from _util import record_table, reset_result


def test_a01_transport_ablation(benchmark):
    reset_result("A01.txt")
    table = Table(
        "A1: transport ablation (framework on delaunay 150, phi=0.05)",
        ["transport", "rounds", "eff_rounds", "max_congestion", "max_bits"],
    )
    g = delaunay_planar_graph(150, seed=201)
    results = {}
    for transport in ("walk", "tree"):
        result = partition_minor_free(
            g, 0.9, phi=0.05, seed=202, solver=degree_solver,
            transport=transport, enforce_budget=False,
        )
        results[transport] = result.metrics
        table.add_row(
            transport, result.metrics.rounds, result.metrics.effective_rounds,
            result.metrics.max_edge_congestion, result.metrics.max_message_bits,
        )
        assert result.all_succeeded
    record_table("A01.txt", table)
    # The trade: walks use more rounds but stay low-congestion.
    assert results["walk"].rounds > results["tree"].rounds
    assert (
        results["walk"].max_edge_congestion
        <= results["tree"].max_edge_congestion
    )

    benchmark.pedantic(
        lambda: partition_minor_free(
            g, 0.9, phi=0.05, seed=202, solver=degree_solver,
            transport="tree", enforce_budget=False,
        ),
        rounds=2,
        iterations=1,
    )


def test_a01_cut_slack_ablation(benchmark):
    table = Table(
        "A1b: MWM boundary randomization (delaunay 90, W=200, phi=0.06, 4 iters)",
        ["cut_slack", "weight", "ratio"],
    )
    g = random_integer_weights(delaunay_planar_graph(90, seed=203), 200, seed=204)
    opt = matching_weight(g, max_weight_matching(g))
    ratios = {}
    for slack in (1.0, 1.5, 2.0):
        result = distributed_mwm(
            g, 0.9, iterations=4, phi=0.06, seed=205,
            cut_slack=slack, enforce_budget=False,
        )
        ratios[slack] = result.weight / opt
        table.add_row(slack, result.weight, result.weight / opt)
    record_table("A01.txt", table)
    # Randomized boundaries should never do worse than frozen ones
    # (frozen boundaries cannot re-optimize stuck edges at all).
    assert max(ratios[1.5], ratios[2.0]) >= ratios[1.0] - 1e-9

    benchmark.pedantic(
        lambda: distributed_mwm(
            g, 0.9, iterations=2, phi=0.06, seed=205, cut_slack=1.5,
            enforce_budget=False,
        ),
        rounds=2,
        iterations=1,
    )


def test_a01_walk_length_calibration(benchmark):
    table = Table(
        "A1c: calibrated vs analytic walk length",
        ["cluster_n", "phi", "calibrated_steps", "analytic_steps", "savings"],
    )
    for n, phi in ((40, 0.1), (80, 0.05), (150, 0.03)):
        g = delaunay_planar_graph(n, seed=206)
        leader = max(g.vertices(), key=g.degree)
        calibrated = _calibrated_walk_steps(
            g, phi, leader=leader, tokens=g.n + g.m
        )
        analytic = default_walk_steps(n, phi)
        table.add_row(n, phi, calibrated, analytic, analytic / calibrated)
        # Both deliver; the calibrated one is what the framework uses.
        result = gather_topology(g, phi=phi, seed=207, forward_steps=calibrated)
        assert result.success
    record_table("A01.txt", table)

    g = delaunay_planar_graph(80, seed=206)
    benchmark.pedantic(
        lambda: gather_topology(g, phi=0.05, seed=207), rounds=2, iterations=1
    )
