"""Suite definitions: the E-suite sweeps as explicit cell grids.

Each suite declares (a) its cell list — the full parameter grid in a
fixed order — and (b) a module-level cell function that turns one cell
into ``(rows, extra)``: table rows and the raw values the benchmarks
assert on.  Both benchmarks (``benchmarks/test_e*.py``) and
the ``repro bench`` CLI consume the same definitions, so the table a
benchmark asserts over is the same table the CLI prints, cell for cell.

Cell functions are ordinary top-level functions so the parallel
executor can address them by reference under the ``spawn`` start
method.  Every cell builds its graph and decomposition itself: a
table is the work of the code that printed it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from .. import generators
from ..analysis import Table
from ..congest import (
    CongestMetrics,
    EdgeWindow,
    FaultPlan,
    PartitionWindow,
    TraceSession,
)
from ..congest.message import MessageBudget
from ..obs.registry import telemetry_scope
from ..decomposition.expander import (
    expander_decomposition,
    phi_for_epsilon,
    verify_expander_decomposition,
)
from ..graph import Graph
from .cells import CellResult, ExperimentCell

#: The generators a cell names in its ``generator`` parameter.
_GENERATORS: Dict[str, Callable[..., Graph]] = {
    "delaunay": generators.delaunay_planar_graph,
    "grid": generators.grid_graph,
    "trigrid": generators.triangulated_grid_graph,
    "ktree": generators.k_tree,
    "torus": generators.toroidal_grid_graph,
    "cycle": generators.cycle_graph,
}


def _cell_graph(params: Dict[str, Any]) -> Graph:
    """The graph a cell's ``generator`` builds from its parameters."""
    return _GENERATORS[params["generator"]](**params["generator_params"])


@dataclass(frozen=True)
class SuiteSpec:
    """One experiment suite: a titled table over a cell grid."""

    name: str
    title: str
    columns: Tuple[str, ...]
    description: str
    build_cells: Callable[[], List[ExperimentCell]]
    cell_fn: Callable[[ExperimentCell], Tuple[List[Tuple], Dict]]

    def cells(self) -> List[ExperimentCell]:
        return self.build_cells()

    def assemble_table(self, results: List[CellResult]) -> Table:
        """Merge per-cell rows into the suite table, in grid order."""
        table = Table(self.title, list(self.columns))
        for result in sorted(results, key=lambda r: r.index):
            for row in result.rows:
                table.add_row(*row)
        return table


# ----------------------------------------------------------------------
# E01 — expander decomposition quality (family x epsilon grid)
# ----------------------------------------------------------------------

_E01_FAMILIES: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    ("grid", "grid", {"rows": 16, "cols": 16}),
    ("tri-grid", "trigrid", {"rows": 16, "cols": 16}),
    ("delaunay", "delaunay", {"n": 256, "seed": 11}),
    ("k-tree(3)", "ktree", {"n": 256, "k": 3, "seed": 12}),
    ("torus", "torus", {"rows": 16, "cols": 16}),
)

_E01_EPSILONS = (0.1, 0.2, 0.3, 0.4)


def _e01_cells() -> List[ExperimentCell]:
    cells = []
    for family_label, generator, gen_params in _E01_FAMILIES:
        for epsilon in _E01_EPSILONS:
            cells.append(ExperimentCell(
                suite="E01",
                index=len(cells),
                label=f"E01[{family_label},eps={epsilon}]",
                params={
                    "family": family_label,
                    "generator": generator,
                    "generator_params": dict(gen_params),
                    "epsilon": epsilon,
                    "seed": 0,
                },
            ))
    return cells


def _run_e01(cell: ExperimentCell):
    p = cell.params
    g = _cell_graph(p)
    epsilon = p["epsilon"]
    phi = phi_for_epsilon(epsilon, g.m)
    dec = expander_decomposition(g, epsilon, phi=phi, seed=p["seed"])
    report = verify_expander_decomposition(dec)
    row = (
        p["family"], g.n, g.m, epsilon, dec.phi, dec.k,
        report["cut_fraction"], report["min_certificate"],
        int(report["max_cluster_size"]),
    )
    extra = {"cut_fraction": report["cut_fraction"],
             "min_certificate": report["min_certificate"]}
    return [row], extra


# ----------------------------------------------------------------------
# E03 — walk vs tree gathering on the largest clusters
# ----------------------------------------------------------------------

_E03_GRAPH = {"n": 200, "seed": 31}
_E03_PHI = 0.04
_E03_TOP_CLUSTERS = 3


def _e03_cells() -> List[ExperimentCell]:
    cells = []
    for rank in range(_E03_TOP_CLUSTERS):
        for transport in ("walk", "tree"):
            cells.append(ExperimentCell(
                suite="E03",
                index=len(cells),
                label=f"E03[cluster{rank},{transport}]",
                params={
                    "generator": "delaunay",
                    "generator_params": dict(_E03_GRAPH),
                    "decomposition_epsilon": 0.9,
                    "phi": _E03_PHI,
                    "decomposition_seed": 0,
                    "rank": rank,
                    "transport": transport,
                    "gather_seed": 7,
                },
            ))
    return cells


def _run_e03(cell: ExperimentCell):
    from ..routing import gather_topology

    p = cell.params
    g = _cell_graph(p)
    dec = expander_decomposition(
        g, p["decomposition_epsilon"], phi=p["phi"],
        seed=p["decomposition_seed"], enforce_budget=False,
    )
    ranked = sorted(dec.clusters, key=len, reverse=True)
    cluster = ranked[p["rank"]]
    cluster_index = dec.clusters.index(cluster)
    sub = g.subgraph(cluster)
    result = gather_topology(
        sub,
        phi=max(dec.phi, dec.certificates[cluster_index]),
        seed=p["gather_seed"],
        network_n=g.n,
        transport=p["transport"],
    )
    m = result.metrics
    row = (
        p["rank"], sub.n, sub.m, p["transport"],
        m.rounds, m.effective_rounds, m.max_edge_congestion,
        m.max_message_bits, result.success,
    )
    extra = {
        "success": result.success,
        "topology_complete": result.topology_complete(sub),
        "network_n": g.n,
    }
    return [row], extra


# ----------------------------------------------------------------------
# E10 — framework cost scaling across n, replicated over seeds
# ----------------------------------------------------------------------

_E10_NS = (64, 128, 256, 384, 512)
_E10_SEEDS = (102, 202, 302)
_E10_GRAPH_SEED = 101
_E10_EPSILON = 0.9
_E10_PHI = 0.05


def _e10_cells() -> List[ExperimentCell]:
    cells = []
    # Smallest instances first so `--limit k` is a cheap smoke slice.
    for n in _E10_NS:
        for seed in _E10_SEEDS:
            cells.append(ExperimentCell(
                suite="E10",
                index=len(cells),
                label=f"E10[n={n},seed={seed}]",
                params={
                    "generator": "delaunay",
                    "generator_params": {"n": n, "seed": _E10_GRAPH_SEED},
                    "epsilon": _E10_EPSILON,
                    "phi": _E10_PHI,
                    "seed": seed,
                },
            ))
    return cells


def _run_e10(cell: ExperimentCell):
    from ..core.framework import run_framework
    from ..resilience import degree_solver

    p = cell.params
    g = _cell_graph(p)
    result = run_framework(
        g, p["epsilon"], solver=degree_solver, phi=p["phi"], seed=p["seed"]
    )
    budget = MessageBudget(g.n).bits
    m = result.metrics
    row = (
        g.n, p["seed"], len(result.clusters), m.rounds, m.effective_rounds,
        m.total_messages, m.max_message_bits, budget, m.max_edge_congestion,
    )
    extra = {"budget_bits": budget}
    return [row], extra


# ----------------------------------------------------------------------
# E11 — fault tolerance: graded verdicts under increasing drop rates
# ----------------------------------------------------------------------

_E11_GRAPH = {"n": 48, "seed": 41}
_E11_DROPS = (0.0, 0.01, 0.05, 0.2)
_E11_ALGORITHMS = ("maxis", "framework")
_E11_EPSILON = 0.9
_E11_PHI = 0.05


def _e11_cells() -> List[ExperimentCell]:
    cells = []
    # Drop-major with the cheap algorithm first, so cell 0 (the CI
    # fault-smoke slice) is the fault-free maxis run with a forced
    # `correct` verdict.
    for drop in _E11_DROPS:
        for algorithm in _E11_ALGORITHMS:
            cells.append(ExperimentCell(
                suite="E11",
                index=len(cells),
                label=f"E11[{algorithm},drop={drop}]",
                params={
                    "generator": "delaunay",
                    "generator_params": dict(_E11_GRAPH),
                    "algorithm": algorithm,
                    "drop": drop,
                    "fault_seed": 1100 + len(cells),
                    "epsilon": _E11_EPSILON,
                    "phi": _E11_PHI,
                    "seed": 5,
                },
            ))
    return cells


def _graded_cell(cell: ExperimentCell, g, plan, mode, counters):
    """Run one fault-suite cell through :func:`repro.resilience.graded_run`.

    The row is ``(algorithm, mode, n, rounds, messages, *counters(f),
    verdict)`` with ``f`` the run's fault summary; a run that raised
    before producing metrics shows zeros.
    """
    from ..resilience import graded_run

    p = cell.params
    metrics, verdict = graded_run(
        p["algorithm"], g, plan,
        seed=p["seed"], epsilon=p["epsilon"], phi=p["phi"],
    )
    m = metrics if metrics is not None else CongestMetrics()
    row = (
        p["algorithm"], mode, g.n, m.rounds, m.total_messages,
        *counters(m.fault_summary()), verdict.label(),
    )
    extra = {"verdict": verdict.to_dict()}
    return [row], extra


def _run_e11(cell: ExperimentCell):
    p = cell.params
    g = _cell_graph(p)
    plan = FaultPlan(seed=p["fault_seed"], drop=p["drop"])
    return _graded_cell(
        cell, g, plan, p["drop"], lambda f: (f["messages_dropped"],)
    )


# ----------------------------------------------------------------------
# E12 — churn: crashes and rejoining vertices, graded verdicts
# ----------------------------------------------------------------------

_E12_GRAPH = {"n": 48, "seed": 41}
_E12_ALGORITHMS = ("maxis", "framework")
#: Churn modes: fault-free baseline, permanent crashes, and full churn
#: (the same crashes, with both vertices rejoining later — restoring
#: from local snapshots taken every ``_E12_INTERVAL`` steps).
_E12_CHURN = ("none", "crash", "churn")
_E12_CRASHES = ((3, 4), (17, 6))
_E12_REJOINS = ((3, 9), (17, 12))
_E12_INTERVAL = 3
_E12_EPSILON = 0.9
_E12_PHI = 0.05


def _e12_cells() -> List[ExperimentCell]:
    cells = []
    # Churn-major with the cheap algorithm first, so cell 0 (the CI
    # smoke slice) is the churn-free maxis run with a forced `correct`
    # verdict.
    for churn in _E12_CHURN:
        for algorithm in _E12_ALGORITHMS:
            cells.append(ExperimentCell(
                suite="E12",
                index=len(cells),
                label=f"E12[{algorithm},churn={churn}]",
                params={
                    "generator": "delaunay",
                    "generator_params": dict(_E12_GRAPH),
                    "algorithm": algorithm,
                    "churn": churn,
                    "fault_seed": 1200 + len(cells),
                    "epsilon": _E12_EPSILON,
                    "phi": _E12_PHI,
                    "seed": 5,
                },
            ))
    return cells


def _e12_plan(params):
    churn = params["churn"]
    if churn == "none":
        return FaultPlan(seed=params["fault_seed"])
    if churn == "crash":
        return FaultPlan(seed=params["fault_seed"], crashes=_E12_CRASHES)
    return FaultPlan(
        seed=params["fault_seed"],
        crashes=_E12_CRASHES,
        rejoins=_E12_REJOINS,
        checkpoint_interval=_E12_INTERVAL,
    )


def _run_e12(cell: ExperimentCell):
    # Unhardened algorithms are *expected* to degrade or fail under
    # churn (a rejoined vertex lost its mail and possibly its state).
    p = cell.params
    g = _cell_graph(p)
    return _graded_cell(
        cell, g, _e12_plan(p), p["churn"],
        lambda f: (f["vertices_crashed"], f["vertices_rejoined"]),
    )


# ----------------------------------------------------------------------
# E15 — temporal adversity: churn, partitions, and message delay
# ----------------------------------------------------------------------

_E15_GRAPH = {"n": 48, "seed": 41}
_E15_ALGORITHMS = ("maxis", "matching", "framework")
#: Adversity modes: fault-free baseline, topology churn (scheduled
#: edge arrivals / departures / up-windows), a partition window that
#: splits the network in half and heals, and keyed-hash message delay.
_E15_ADVERSITY = ("static", "churn", "partition", "delay")
_E15_EPSILON = 0.9
_E15_PHI = 0.05
_E15_DELAY = 0.2
_E15_MAX_DELAY = 3
_E15_PARTITION_WINDOW = (2, 6)


def _e15_cells() -> List[ExperimentCell]:
    cells = []
    # Algorithm-major with the cheap algorithm first, so `--limit 4`
    # (the CI smoke slice) covers every adversity mode on maxis alone.
    for algorithm in _E15_ALGORITHMS:
        for adversity in _E15_ADVERSITY:
            cells.append(ExperimentCell(
                suite="E15",
                index=len(cells),
                label=f"E15[{algorithm},{adversity}]",
                params={
                    "generator": "delaunay",
                    "generator_params": dict(_E15_GRAPH),
                    "algorithm": algorithm,
                    "adversity": adversity,
                    "fault_seed": 1500 + len(cells),
                    "epsilon": _E15_EPSILON,
                    "phi": _E15_PHI,
                    "seed": 5,
                },
            ))
    return cells


def _e15_plan(params, g):
    from ..graph import edge_key

    adversity = params["adversity"]
    seed = params["fault_seed"]
    if adversity == "static":
        return FaultPlan(seed=seed)
    if adversity == "churn":
        # Deterministic strided slices over the canonical edge list:
        # every 7th edge arrives late, another stride departs early,
        # and a third stride exists only inside an up-window.  The
        # strides are disjoint residues, so no edge gets two schedules.
        edges = sorted(edge_key(u, v) for u, v in g.edges())
        return FaultPlan(
            seed=seed,
            edge_arrivals=tuple((u, v, 4) for u, v in edges[::7]),
            edge_departures=tuple((u, v, 9) for u, v in edges[3::7]),
            edge_up_windows=tuple(
                EdgeWindow(u, v, 0, 5) for u, v in edges[5::11]
            ),
        )
    if adversity == "partition":
        # Split the canonical vertex order in half for a round window,
        # then heal: the algorithm must survive total isolation of the
        # halves and still converge afterwards.
        order = sorted(g.vertices())
        half = len(order) // 2
        start, end = _E15_PARTITION_WINDOW
        return FaultPlan(
            seed=seed,
            partitions=(
                PartitionWindow(
                    (tuple(order[:half]), tuple(order[half:])), start, end
                ),
            ),
        )
    return FaultPlan(seed=seed, delay=_E15_DELAY, max_delay=_E15_MAX_DELAY)


def _run_e15(cell: ExperimentCell):
    # Network adversity is *expected* to degrade, stall, or break the
    # unhardened algorithms.
    p = cell.params
    g = _cell_graph(p)
    return _graded_cell(
        cell, g, _e15_plan(p, g), p["adversity"],
        lambda f: (
            f["messages_dropped"]
            + f["messages_lost_topology"]
            + f["messages_partitioned"],
            f["messages_delayed"],
        ),
    )


# ----------------------------------------------------------------------
# Registry + the worker-side entry point
# ----------------------------------------------------------------------

SUITES: Dict[str, SuiteSpec] = {
    "E01": SuiteSpec(
        name="E01",
        title="E1: expander decomposition (cut fraction <= eps, certified phi)",
        columns=("family", "n", "m", "eps", "phi", "clusters", "cut_frac",
                 "min_cert", "max|V_i|"),
        description="Decomposition quality across minor-free families.",
        build_cells=_e01_cells,
        cell_fn=_run_e01,
    ),
    "E03": SuiteSpec(
        name="E03",
        title="E3: gathering G[V_i] to the leader, walk (Lemma 2.4) vs tree",
        columns=("cluster", "n_i", "m_i", "transport", "rounds", "eff_rounds",
                 "max_congestion", "max_bits", "success"),
        description="Random-walk vs BFS-tree information gathering.",
        build_cells=_e03_cells,
        cell_fn=_run_e03,
    ),
    "E10": SuiteSpec(
        name="E10",
        title=("E10: framework cost vs n "
               "(delaunay, eps = 0.9, phi = 0.05, 3 seeds)"),
        columns=("n", "seed", "clusters", "rounds", "eff_rounds", "messages",
                 "max_bits", "budget_bits", "congestion"),
        description="Round/congestion scaling of the Theorem 2.6 framework.",
        build_cells=_e10_cells,
        cell_fn=_run_e10,
    ),
    "E11": SuiteSpec(
        name="E11",
        title=("E11: fault tolerance (delaunay n=48, drop rate sweep, "
               "graded verdicts)"),
        columns=("algorithm", "drop", "n", "rounds", "messages", "dropped",
                 "verdict"),
        description="Graded algorithm outcomes under message-drop faults.",
        build_cells=_e11_cells,
        cell_fn=_run_e11,
    ),
    "E12": SuiteSpec(
        name="E12",
        title=("E12: crash-recovery churn (delaunay n=48, "
               "crash / crash+rejoin schedules, graded verdicts)"),
        columns=("algorithm", "churn", "n", "rounds", "messages",
                 "crashed", "rejoined", "verdict"),
        description="Graded algorithm outcomes under vertex churn.",
        build_cells=_e12_cells,
        cell_fn=_run_e12,
    ),
    "E15": SuiteSpec(
        name="E15",
        title=("E15: temporal adversity (delaunay n=48, churn / "
               "partition / delay schedules, graded verdicts)"),
        columns=("algorithm", "adversity", "n", "rounds", "messages",
                 "lost", "delayed", "verdict"),
        description="Graded outcomes under dynamic-network adversity.",
        build_cells=_e15_cells,
        cell_fn=_run_e15,
    ),
}


def suite_names() -> List[str]:
    """Every suite name, sorted: the default ``repro bench`` sweep."""
    return sorted(SUITES)


def execute_cell(
    suite_name: str,
    index: int,
    trace: bool = False,
    telemetry: bool = False,
    trace_detail: bool = False,
    timeline: bool = False,
) -> CellResult:
    """Run one cell in the current process and package its result.

    With ``telemetry`` the cell runs inside its own telemetry scope —
    identically inline and in a worker process — and the registry
    payload rides back on :attr:`CellResult.telemetry`.

    ``trace_detail`` implies ``trace`` and records per-message event
    provenance (trace schema v5, see :mod:`repro.congest.trace`);
    ``timeline`` implies ``telemetry`` and additionally captures span
    begin/end events for Chrome/Perfetto export.
    """
    trace = trace or trace_detail
    telemetry = telemetry or timeline
    spec = SUITES[suite_name]
    cells = spec.cells()
    cell = cells[index]

    start = time.perf_counter()
    trace_lines: List[str] = []
    telemetry_data = None

    def run_traced():
        with TraceSession(detail=trace_detail) as session:
            out = spec.cell_fn(cell)
        for i, recorder in enumerate(session.recorders):
            recorder.label = f"{cell.label}/sim{i}"
            dumped = recorder.dumps_jsonl()
            if dumped:
                trace_lines.extend(dumped.splitlines())
        return out

    run = run_traced if trace else (lambda: spec.cell_fn(cell))
    if telemetry:
        # The per-cell span makes each cell a distinct path in the
        # merged span tree.
        with telemetry_scope(timeline=timeline) as registry:
            with registry.span(f"cell:{cell.label}"):
                rows, extra = run()
        telemetry_data = registry.to_dict()
    else:
        rows, extra = run()
    elapsed = time.perf_counter() - start

    return CellResult(
        suite=suite_name,
        index=index,
        label=cell.label,
        rows=rows,
        extra=extra,
        trace_lines=trace_lines,
        elapsed=elapsed,
        telemetry=telemetry_data,
    )
