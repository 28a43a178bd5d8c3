"""E10 — Round/congestion scaling of the framework across n.

Claim under test: for fixed epsilon, the framework's measured CONGEST
cost (rounds, effective rounds, message bits) grows polylogarithmically
times poly(1/phi) rather than linearly with n for the message *sizes*,
and every message stays within the O(log n)-bit budget.  Rounds are
dominated by the random-walk phase, whose length tracks the measured
cluster mixing times — the phi^{-O(1)} polylog(n) shape of Theorem 2.6.
"""

import math
import os

import pytest

from repro.analysis import Table
from repro.congest import TraceSession
from repro.congest.message import MessageBudget
from repro.core.framework import partition_minor_free, run_framework
from repro.generators import delaunay_planar_graph
from repro.resilience import degree_solver

from _util import RESULTS_DIR, record_table, run_recorded_suite


def test_e10_scaling_sweep(benchmark):
    """The E10 grid (n x seed), executed as runner cells.

    The table is assembled from per-cell result objects in grid order;
    the budget invariant is asserted on every cell, the asymptotic
    shape claims on the seed = 102 series (the historical sweep).
    """
    run = run_recorded_suite("E10", "E10.txt")
    assert len(run.results) == 15
    series = []
    for cell in run.results:
        (n, seed, clusters, rounds, eff_rounds, messages,
         max_bits, budget_bits, congestion), = cell.rows
        # The model invariant: never exceed the O(log n) budget.
        assert max_bits <= budget_bits
        if seed == 102:
            series.append((n, rounds, max_bits))
    series.sort()

    # Shape: message size grows like log n, not n.
    first_n, first_rounds, first_bits = series[0]
    last_n, last_rounds, last_bits = series[-1]
    assert last_bits <= first_bits * (
        2 * math.log2(last_n) / math.log2(first_n)
    )
    # Rounds grow far slower than the n ratio squared (walks are
    # phi^{-O(1)} polylog, and phi is fixed across the sweep).
    assert last_rounds <= first_rounds * (last_n / first_n) ** 2

    g = delaunay_planar_graph(128, seed=101)
    benchmark.pedantic(
        lambda: run_framework(g, 0.9, solver=degree_solver, phi=0.05, seed=102),
        rounds=2,
        iterations=1,
    )


def test_e10_smallest_smoke(benchmark):
    """CI smoke slice: the E10 workload at its smallest n, traced.

    Runs the exact pipeline of the scaling sweep on the n = 64 instance
    only (selected in CI with ``-k smallest``) and writes the structured
    per-round trace to ``benchmarks/results/E10_trace_smallest.jsonl``
    for artifact upload, so every CI run leaves an inspectable
    congestion-over-time series.
    """
    g = delaunay_planar_graph(64, seed=101)
    with TraceSession() as session:
        result = run_framework(
            g, 0.9, solver=degree_solver, phi=0.05, seed=102
        )
    metrics = result.metrics
    assert metrics.max_message_bits <= MessageBudget(g.n).bits
    assert metrics.rounds > 0 and metrics.total_messages > 0
    # The trace covers every simulated round of every internal phase.
    assert session.total_rounds() >= metrics.rounds
    os.makedirs(RESULTS_DIR, exist_ok=True)
    session.write_jsonl(os.path.join(RESULTS_DIR, "E10_trace_smallest.jsonl"))

    benchmark.pedantic(
        lambda: run_framework(g, 0.9, solver=degree_solver, phi=0.05, seed=102),
        rounds=1,
        iterations=1,
    )


def test_e10_epsilon_cost_tradeoff(benchmark):
    """Smaller epsilon => smaller phi => longer walks: the poly(1/eps)
    factor of Theorem 2.6, made visible."""
    table = Table(
        "E10b: rounds vs phi (delaunay 128)",
        ["phi", "clusters", "rounds", "eff_rounds"],
    )
    g = delaunay_planar_graph(128, seed=103)
    rounds = []
    for phi in (0.1, 0.05, 0.02):
        result = partition_minor_free(
            g, 0.9, solver=degree_solver, phi=phi, seed=104,
            enforce_budget=False,
        )
        table.add_row(
            phi, len(result.clusters), result.metrics.rounds,
            result.metrics.effective_rounds,
        )
        rounds.append(result.metrics.rounds)
    record_table("E10.txt", table)
    # Coarser clusters (smaller phi) mix slower: rounds increase.
    assert rounds[-1] >= rounds[0]

    benchmark.pedantic(
        lambda: run_framework(g, 0.9, solver=degree_solver, phi=0.05, seed=104),
        rounds=2,
        iterations=1,
    )
