"""Every shipped CONGEST protocol fits the message budget at every n.

``MessageBudget`` allows 16 words of max(4, ceil(log2(n+2))) bits: 64
bits up to n=14, 80 bits up to n=30 and 96 bits from n=31 on.  The
sweep runs each protocol entry point on cycles, 2 x k grids and
Delaunay triangulations at sizes on both sides of those steps and
asserts that no message overruns the budget (no
``MessageTooLargeError``).

Known overruns are strict xfails, so a fix turns them into failures
that ask for their mark to go:

* Luby MIS broadcasts ``("PRI", float)`` payloads of 94 bits, above
  the budget of every graph with at most 30 vertices;
* the tree transport of ``gather_topology`` replies with
  ``("DOWN", origin, seq, ("A", answer))`` payloads of up to 65 bits,
  above the 64-bit budget of a Delaunay graph with at most 14
  vertices.

The tier-1 profile is one seed on a fixed grid of sizes.
``REPRO_TORTURE_TRIALS=k`` runs every size from 4 to 40 with k seeds;
that deep profile hunts for new overruns, so its known-overrun marks
are not strict.
"""

import os

import pytest

from repro.core.framework import run_framework
from repro.correlation.distributed import distributed_correlation_clustering
from repro.decomposition.low_diameter import theorem_1_5_ldd
from repro.decomposition.mpx import mpx_ldd
from repro.dominating_set.distributed import distributed_mds
from repro.errors import MessageTooLargeError
from repro.generators import (
    cycle_graph,
    delaunay_planar_graph,
    grid_graph,
    random_signs,
)
from repro.independent_set.distributed import distributed_maxis
from repro.independent_set.greedy import luby_mis
from repro.matching.distributed import (
    distributed_maximal_matching,
    distributed_mcm_planar,
    distributed_mwm,
)
from repro.routing.aggregate import cluster_statistics
from repro.routing.diameter_check import distributed_diameter_check
from repro.routing.gather import gather_topology
from repro.routing.leader import elect_leader
from repro.routing.orientation import orient_low_out_degree
from repro.subgraphs.triangles import distributed_triangle_listing

TRIALS = int(os.environ.get("REPRO_TORTURE_TRIALS") or 0)
DEEP = TRIALS > 0


def _degree_solver(sub, leader, notes):
    return {v: sub.degree(v) for v in sub.vertices()}


#: One CONGEST protocol each; ``run_framework`` covers the walk
#: transport of ``gather_topology``, so the sweep runs the tree one.
PROTOCOLS = {
    "luby_mis": lambda g, s: luby_mis(g, seed=s),
    "distributed_maximal_matching": (
        lambda g, s: distributed_maximal_matching(g, seed=s)
    ),
    "mpx_ldd": lambda g, s: mpx_ldd(g, 0.3, seed=s),
    "elect_leader": lambda g, s: elect_leader(g, seed=s),
    "orient_low_out_degree": lambda g, s: orient_low_out_degree(g, 3.0, seed=s),
    "gather_topology": lambda g, s: gather_topology(
        g, phi=0.1, solver=_degree_solver, seed=s, transport="tree"
    ),
    "distributed_diameter_check": (
        lambda g, s: distributed_diameter_check(g, g.n, seed=s)
    ),
    "cluster_statistics": (
        lambda g, s: cluster_statistics(g, min(g.vertices()), seed=s)
    ),
}

#: Theorem 2.6's pipeline and the applications built on it: each call
#: decomposes, elects, orients and gathers, so each is ~10x dearer.
PIPELINES = {
    "run_framework": (
        lambda g, s: run_framework(g, 0.3, solver=_degree_solver, seed=s)
    ),
    "distributed_maxis": lambda g, s: distributed_maxis(g, 0.3, seed=s),
    "distributed_mds": lambda g, s: distributed_mds(g, 0.3, seed=s),
    "distributed_correlation_clustering": (
        lambda g, s: distributed_correlation_clustering(
            g, random_signs(g, 0.5, seed=s), 0.3, seed=s
        )
    ),
    "distributed_mcm_planar": (
        lambda g, s: distributed_mcm_planar(g, 0.3, seed=s)
    ),
    "distributed_mwm": (
        lambda g, s: distributed_mwm(g, 0.3, iterations=2, seed=s)
    ),
    "distributed_triangle_listing": (
        lambda g, s: distributed_triangle_listing(g, 0.3, seed=s)
    ),
    "theorem_1_5_ldd": lambda g, s: theorem_1_5_ldd(g, 0.4, seed=s),
}

ENTRY_POINTS = {**PROTOCOLS, **PIPELINES}

#: family -> (graph builder, its vertex count at size n).
FAMILIES = {
    "cycle": (lambda n, s: cycle_graph(n), lambda n: n),
    "grid2xk": (lambda n, s: grid_graph(2, n // 2), lambda n: 2 * (n // 2)),
    "delaunay": (lambda n, s: delaunay_planar_graph(n, seed=s), lambda n: n),
}

if DEEP:
    SEEDS = range(1, TRIALS + 1)
    PROTOCOL_SIZES = PIPELINE_SIZES = range(4, 41)
else:
    SEEDS = (1,)
    PROTOCOL_SIZES = (12, 30, 31, 40)
    # 31 is already past the last step below 40; the pipelines are
    # the sweep's cost, so tier-1 spares them n=40.
    PIPELINE_SIZES = (12, 30, 31)


def _known_overrun(entry, family, vertices):
    """Why ``entry`` overruns the budget on this graph, or ``None``."""
    if entry == "luby_mis" and vertices <= 30:
        return (
            "Luby MIS broadcasts 94-bit ('PRI', float) payloads, over "
            "the 64/80-bit budget of graphs with at most 30 vertices"
        )
    if entry == "gather_topology" and family == "delaunay" and vertices <= 14:
        return (
            "the tree transport's ('DOWN', origin, seq, ('A', answer)) "
            "replies reach 65 bits, over the 64-bit budget of graphs "
            "with at most 14 vertices"
        )
    return None


def _cases():
    for entry in ENTRY_POINTS:
        sizes = PROTOCOL_SIZES if entry in PROTOCOLS else PIPELINE_SIZES
        for family, (_build, count) in FAMILIES.items():
            for n in sizes:
                for seed in SEEDS:
                    reason = _known_overrun(entry, family, count(n))
                    marks = () if reason is None else pytest.mark.xfail(
                        strict=not DEEP,
                        raises=MessageTooLargeError,
                        reason=reason,
                    )
                    yield pytest.param(
                        entry, family, n, seed, marks=marks,
                        id=f"{entry}-{family}-{n}-s{seed}",
                    )


@pytest.mark.parametrize("entry,family,n,seed", list(_cases()))
def test_protocol_fits_the_congest_budget(entry, family, n, seed):
    build, count = FAMILIES[family]
    graph = build(n, seed)
    assert graph.n == count(n)
    # MessageTooLargeError propagates and fails the case, or satisfies
    # a known overrun's xfail.
    ENTRY_POINTS[entry](graph, seed)
