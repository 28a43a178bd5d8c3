"""Tests for rng helpers, reporting tables, and the error hierarchy."""

import random

import pytest

from repro.analysis import Table, format_ratio
from repro.errors import (
    DecompositionError,
    GraphError,
    MessageTooLargeError,
    ProtocolError,
    ReproError,
    RoutingError,
    SolverError,
)
from repro.rng import ensure_numpy_rng, ensure_rng


class TestRng:
    def test_ensure_rng_from_int_is_deterministic(self):
        assert ensure_rng(5).random() == ensure_rng(5).random()

    def test_ensure_rng_passthrough(self):
        rng = random.Random(1)
        assert ensure_rng(rng) is rng

    def test_ensure_numpy_rng(self):
        a = ensure_numpy_rng(3).random()
        b = ensure_numpy_rng(3).random()
        assert a == b

    def test_numpy_passthrough(self):
        import numpy as np

        gen = np.random.default_rng(0)
        assert ensure_numpy_rng(gen) is gen


class TestReporting:
    def test_table_renders_aligned(self):
        t = Table("demo", ["a", "bb"])
        t.add_row(1, 2.5)
        t.add_row(10, 0.333333)
        text = t.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert len({len(line) for line in lines[1:]}) == 1  # aligned

    def test_table_wrong_arity_rejected(self):
        t = Table("demo", ["a"])
        with pytest.raises(ValueError):
            t.add_row(1, 2)

    def test_float_formatting(self):
        t = Table("demo", ["x"])
        t.add_row(0.123456789)
        assert "0.1235" in t.render()

    def test_format_ratio(self):
        assert format_ratio(0.98765) == "0.988"
        assert format_ratio(1.0, digits=1) == "1.0"


class TestErrors:
    def test_hierarchy(self):
        for cls in (
            GraphError,
            MessageTooLargeError,
            ProtocolError,
            DecompositionError,
            RoutingError,
            SolverError,
        ):
            assert issubclass(cls, ReproError)

    def test_message_too_large_fields(self):
        err = MessageTooLargeError(100, 64, detail="x to y")
        assert err.bits == 100
        assert err.budget == 64
        assert "x to y" in str(err)
        assert "100" in str(err)

    def test_catch_all(self):
        with pytest.raises(ReproError):
            raise SolverError("boom")


class TestGeneratorDeterminism:
    def test_all_seeded_generators_are_deterministic(self):
        from repro import generators as G

        cases = [
            lambda s: G.gnp_random_graph(15, 0.3, seed=s),
            lambda s: G.random_tree(20, seed=s),
            lambda s: G.delaunay_planar_graph(30, seed=s),
            lambda s: G.random_planar_graph(30, seed=s),
            lambda s: G.maximal_outerplanar_graph(12, seed=s),
            lambda s: G.k_tree(20, 3, seed=s),
            lambda s: G.partial_k_tree(20, 3, seed=s),
            lambda s: G.series_parallel_graph(20, seed=s),
            lambda s: G.apex_graph(20, seed=s),
        ]
        for make in cases:
            assert make(42) == make(42)

    def test_sign_generators_deterministic(self):
        from repro import generators as G

        g = G.grid_graph(5, 5)
        assert G.random_signs(g, 0.5, seed=3) == G.random_signs(g, 0.5, seed=3)
        a, ca = G.planted_signs(g, 3, seed=4)
        b, cb = G.planted_signs(g, 3, seed=4)
        assert a == b and ca == cb


class TestGatherValidation:
    def test_unknown_transport_rejected(self):
        import pytest as _pytest

        from repro.errors import GraphError
        from repro.generators import cycle_graph
        from repro.routing import gather_topology

        with _pytest.raises(GraphError):
            gather_topology(cycle_graph(4), phi=0.3, transport="pigeon")
