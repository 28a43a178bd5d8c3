"""E12 — crash-recovery churn: graded verdicts under vertex rejoins.

Claim under test: the crash-recovery model (fail-stop crashes followed
by deterministic rejoins, restoring from local snapshots) produces
*judged* outcomes for unhardened algorithms — and recovery is visible
in the grades.  The sweep runs Luby's MIS and the Theorem 2.6 framework
under three churn modes: ``none`` (fault-free baseline), ``crash``
(two vertices fail-stop permanently), and ``churn`` (the same crashes,
both vertices rejoining later from snapshots).

The companion claim is that churn accounting is exact: crashed and
rejoined counts in the merged metrics match the fault plan's schedule
as far as it actually fired, deterministically.
"""

from repro.congest import CongestSimulator, FaultPlan
from repro.congest.algorithm import VertexAlgorithm
from repro.generators import delaunay_planar_graph
from repro.independent_set.greedy import luby_mis
from repro.resilience import validate_independent_set

from _util import run_recorded_suite

_RANK = {"correct": 0, "degraded": 1, "failed": 2}


class _Flood(VertexAlgorithm):
    """Min-ID flooding; module-level so local snapshots can pickle it."""

    def __init__(self, vertex):
        self.vertex = vertex
        self.best = vertex
        self.quiet = 0

    def initialize(self, ctx):
        ctx.broadcast(self.best)

    def step(self, ctx, inbox):
        improved = False
        for payloads in inbox.values():
            for payload in payloads:
                if isinstance(payload, int) and payload < self.best:
                    self.best = payload
                    improved = True
        if improved:
            self.quiet = 0
            ctx.broadcast(self.best)
        else:
            self.quiet += 1
            if self.quiet >= 3:
                ctx.halt(self.best)


def test_e12_churn_sweep(benchmark):
    """The E12 grid (churn mode x algorithm), executed as runner cells."""
    run = run_recorded_suite("E12", "E12.txt")
    assert len(run.results) == 6

    verdicts = {}
    for cell in run.results:
        (algorithm, churn, n, rounds, messages,
         crashed, rejoined, label), = cell.rows
        verdict = cell.extra["verdict"]
        assert label.startswith(verdict["status"])
        verdicts[(algorithm, churn)] = verdict
        if churn == "none":
            # The fault-free baseline must validate as fully correct.
            assert verdict["status"] == "correct"
            assert crashed == 0 and rejoined == 0
        else:
            # A vertex can only rejoin after its crash actually fired.
            assert rejoined <= crashed <= 2

    # Crashes never help: the crash verdict is no better than baseline.
    for algorithm in ("maxis", "framework"):
        assert (
            _RANK[verdicts[(algorithm, "crash")]["status"]]
            >= _RANK[verdicts[(algorithm, "none")]["status"]]
        )
        # And rejoining never makes things worse than staying crashed.
        assert (
            _RANK[verdicts[(algorithm, "churn")]["status"]]
            <= _RANK[verdicts[(algorithm, "crash")]["status"]]
        )

    g = delaunay_planar_graph(48, seed=41)
    plan = FaultPlan(
        seed=1204,
        crashes=((3, 4), (17, 6)),
        rejoins=((3, 9), (17, 12)),
        checkpoint_interval=3,
    )

    def churned_mis():
        from repro.congest import use_faults

        with use_faults(plan):
            mis, result = luby_mis(g, seed=5)
        return validate_independent_set(g, mis)

    benchmark.pedantic(churned_mis, rounds=3, iterations=1)


def test_e12_churn_accounting_is_deterministic():
    """Crash/rejoin counters replay identically across repeat runs."""
    g = delaunay_planar_graph(48, seed=41)
    plan = FaultPlan(
        seed=7,
        crashes=((3, 2), (17, 3)),
        rejoins=((3, 6), (17, 8)),
        checkpoint_interval=2,
    )

    def flood_run():
        sim = CongestSimulator(g, _Flood, seed=5, faults=plan)
        result = sim.run(200)
        return result.metrics.fault_summary()

    first = flood_run()
    second = flood_run()
    assert first == second
    assert first["vertices_crashed"] == 2
    assert first["vertices_rejoined"] == 2
