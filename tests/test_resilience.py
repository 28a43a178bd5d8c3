"""Post-run validators: graded verdicts for faulted results."""

import pytest

from repro.decomposition.expander import (
    ExpanderDecomposition,
    expander_decomposition,
)
from repro.generators import delaunay_planar_graph, path_graph
from repro.independent_set.greedy import greedy_min_degree_is
from repro.matching.greedy import maximal_matching
from repro.congest import FaultPlan
from repro.resilience import (
    Verdict,
    graded_run,
    validate_decomposition,
    validate_framework,
    validate_independent_set,
    validate_matching,
)
from repro.core.framework import run_framework


def test_verdict_labels_and_roundtrip():
    assert Verdict.correct().label() == "correct"
    assert Verdict.degraded(0.875).label() == "degraded(0.88)"
    assert Verdict.failed("x").label() == "failed"
    assert Verdict.correct().ok and Verdict.degraded(0.5).ok
    assert not Verdict.failed().ok
    v = Verdict.degraded(0.5, "half")
    assert Verdict.from_dict(v.to_dict()) == v


def test_validate_decomposition_grades():
    g = delaunay_planar_graph(40, seed=7)
    decomp = expander_decomposition(g, 0.9, seed=7)
    assert validate_decomposition(decomp).status == "correct"

    # Tighten epsilon after the fact: structurally sound, over budget.
    over_budget = ExpanderDecomposition(
        graph=decomp.graph,
        epsilon=decomp.cut_fraction() / 2 if decomp.cut_fraction() else 0.01,
        phi=decomp.phi,
        clusters=decomp.clusters,
        cut_edges=decomp.cut_edges,
        certificates=decomp.certificates,
    )
    if decomp.cut_fraction() > 0:
        graded = validate_decomposition(over_budget)
        assert graded.status == "degraded"
        assert 0.0 < graded.ratio < 1.0

    # Drop a cluster: the partition no longer covers V -> failed.
    broken = ExpanderDecomposition(
        graph=decomp.graph,
        epsilon=decomp.epsilon,
        phi=decomp.phi,
        clusters=decomp.clusters[:-1],
        cut_edges=decomp.cut_edges,
        certificates=decomp.certificates[:-1],
    )
    assert validate_decomposition(broken).status == "failed"


def test_validate_independent_set_grades():
    g = path_graph(6)
    full = greedy_min_degree_is(g)
    assert validate_independent_set(g, full).status == "correct"
    partial = validate_independent_set(g, {0})
    assert partial.status == "degraded"
    assert 0.0 < partial.ratio < 1.0
    assert validate_independent_set(g, {0, 1}).status == "failed"
    assert validate_independent_set(g, {99}).status == "failed"


def test_validate_matching_grades():
    g = path_graph(6)
    full = maximal_matching(g, seed=0)
    assert validate_matching(g, full).status == "correct"
    partial = validate_matching(g, {(0, 1)})
    assert partial.status == "degraded"
    assert validate_matching(g, {(0, 1), (1, 2)}).status == "failed"
    assert validate_matching(g, {(0, 5)}).status == "failed"


def test_validate_framework_correct_run():
    g = delaunay_planar_graph(48, seed=9)

    def solver(sub, leader, notes):
        return {v: sub.degree(v) for v in sub.vertices()}

    result = run_framework(g, 0.9, solver=solver, phi=0.1, seed=9)
    verdict = validate_framework(result)
    assert verdict.status in ("correct", "degraded")
    if result.all_succeeded and len(result.answers) == g.n:
        assert verdict.status == "correct"


def test_validate_framework_degraded_and_failed():
    class _Gather:
        success = False
        answers = {}

    class _Run:
        success = False

    class _Partial:
        def __init__(self, graph, answers, clusters):
            self.graph = graph
            self.answers = answers
            self.clusters = clusters

    g = path_graph(4)
    half = _Partial(g, {0: 1, 1: 1}, [_Run()])
    verdict = validate_framework(half)
    assert verdict.status == "degraded"
    assert verdict.ratio == pytest.approx(0.5)
    empty = _Partial(g, {}, [_Run()])
    assert validate_framework(empty).status == "failed"


def test_graded_run_grades_an_unhalted_run_stalled(monkeypatch):
    import repro.resilience.graded as graded

    g = delaunay_planar_graph(48, seed=41)
    factory, _budget = graded.luby_mis_protocol(g.n)
    monkeypatch.setattr(
        graded, "luby_mis_protocol", lambda n: (factory, 1)
    )
    metrics, verdict = graded_run("maxis", g, FaultPlan(seed=1), seed=2)
    assert verdict == Verdict.stalled("not halted after 1 rounds")
    assert metrics.rounds == 1


def test_graded_run_resumes_to_the_uninterrupted_grade():
    g = delaunay_planar_graph(40, seed=4)
    plan = FaultPlan(seed=2, drop=0.1)
    captured = []
    fresh = graded_run(
        "matching", g, plan, seed=1,
        checkpoint_every=3, on_checkpoint=captured.append,
    )
    assert captured[0].round == 3
    resumed = graded_run("matching", g, resume=captured[0])
    assert resumed[1] == fresh[1]
    assert resumed[0].to_dict() == fresh[0].to_dict()


def test_graded_run_rejects_what_it_cannot_run():
    g = path_graph(4)
    with pytest.raises(ValueError, match="unknown algorithm"):
        graded_run("coloring", g)
    with pytest.raises(ValueError, match="takes no checkpoints"):
        graded_run("framework", g, on_checkpoint=print, checkpoint_every=1)
