"""E11 — fault tolerance: graded verdicts under rising message loss.

Claim under test: with the deterministic fault layer active, every
experiment reports a *judged* outcome — correct / degraded(ratio) /
failed — instead of silently wrong numbers.  The sweep runs an
E01-style decomposition pipeline (the Theorem 2.6 framework) and one
independent-set algorithm (Luby's MIS, run genuinely on the CONGEST
simulator) under drop rates {0, 0.01, 0.05, 0.2} and validates each
output against the original graph.

The companion claim is monotone sanity: at drop rate 0 both algorithms
are verifiably correct, and verdicts never improve as the channel gets
worse.
"""

import pytest

from repro.congest import FaultPlan, use_faults
from repro.generators import delaunay_planar_graph
from repro.independent_set.greedy import luby_mis
from repro.resilience import validate_independent_set

from _util import run_recorded_suite

_RANK = {"correct": 0, "degraded": 1, "failed": 2}


def test_e11_fault_tolerance_sweep(benchmark):
    """The E11 grid (drop rate x algorithm), executed as runner cells."""
    run = run_recorded_suite("E11", "E11.txt")
    assert len(run.results) == 8

    verdicts = {}
    for cell in run.results:
        (algorithm, drop, n, rounds, messages, dropped, label), = cell.rows
        verdict = cell.extra["verdict"]
        assert label.startswith(verdict["status"])
        verdicts[(algorithm, drop)] = verdict
        if drop == 0.0:
            # A fault-free channel must validate as fully correct.
            assert verdict["status"] == "correct"
            assert dropped == 0
        elif rounds == 0:
            # The run broke before metrics existed (its row shows
            # zeros): graded as failed.
            assert verdict["status"] == "failed"

    # Verdicts never get better as the drop rate rises.
    for algorithm in ("maxis", "framework"):
        ranks = [
            _RANK[verdicts[(algorithm, drop)]["status"]]
            for drop in (0.0, 0.01, 0.05, 0.2)
        ]
        assert ranks == sorted(ranks)

    g = delaunay_planar_graph(48, seed=41)
    plan = FaultPlan(seed=1104, drop=0.05)

    def faulted_mis():
        with use_faults(plan):
            mis, result = luby_mis(g, seed=5)
        return validate_independent_set(g, mis)

    benchmark.pedantic(faulted_mis, rounds=3, iterations=1)


def test_e11_verdict_ratio_is_measured_not_asserted():
    """Degraded verdicts expose the measured approximation ratio."""
    g = delaunay_planar_graph(48, seed=41)
    with use_faults(FaultPlan(seed=2, drop=0.15)):
        mis, _result = luby_mis(g, seed=9)
    verdict = validate_independent_set(g, mis)
    if verdict.status == "degraded":
        assert 0.0 < verdict.ratio < 1.0
    else:
        # Independence broke or survived outright; both are graded.
        assert verdict.status in ("correct", "failed")
        assert verdict.ratio in (0.0, 1.0)
