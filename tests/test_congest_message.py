"""Tests for CONGEST message size accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import CongestSimulator, VertexAlgorithm
from repro.congest.message import FLOAT_BITS, MessageBudget, message_bits
from repro.errors import MessageTooLargeError
from repro.generators import path_graph


class TestMessageBits:
    def test_none_is_one_bit(self):
        assert message_bits(None) == 1

    def test_bool(self):
        assert message_bits(True) == 3

    def test_small_int(self):
        # magnitude bits (min 1) + sign bit + field overhead
        assert message_bits(0) == 4
        assert message_bits(1) == 4
        assert message_bits(3) == 5

    def test_int_grows_with_magnitude(self):
        assert message_bits(2**20) > message_bits(2**10) > message_bits(1)

    def test_negative_int_counted(self):
        assert message_bits(-5) == message_bits(5)

    def test_float(self):
        assert message_bits(1.5) == FLOAT_BITS + 2

    def test_string_by_length(self):
        assert message_bits("AB") == 18

    def test_tuple_sums_fields(self):
        t = ("F", 3, 7)
        assert message_bits(t) == 2 + message_bits("F") + message_bits(
            3
        ) + message_bits(7)

    def test_nested_tuple(self):
        assert message_bits((1, (2, 3))) > message_bits((1, 2))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            message_bits({"a": 1})

    def test_graph_object_rejected(self):
        from repro.graph import Graph

        with pytest.raises(TypeError):
            message_bits(Graph())

    @given(st.integers(-(2**40), 2**40))
    @settings(max_examples=50)
    def test_int_bits_positive(self, value):
        assert message_bits(value) >= 3


class TestMessageBudget:
    def test_bits_scale_logarithmically(self):
        small = MessageBudget(16)
        large = MessageBudget(1 << 20)
        assert small.bits_per_word == 5
        assert large.bits_per_word == 21
        assert large.bits == large.words * 21

    def test_error_carries_sizes(self):
        """An engine refusing an over-budget send reports the measured
        size and the budget it broke."""
        payload = "a very long message " * 10
        budget = MessageBudget(4, words=2)

        class Shout(VertexAlgorithm):
            def initialize(self, ctx):
                ctx.broadcast(payload)

        for engine in ("fast", "reference"):
            sim = CongestSimulator(
                path_graph(2), lambda v: Shout(), budget=budget, seed=0,
                engine=engine,
            )
            with pytest.raises(MessageTooLargeError) as excinfo:
                sim.run(max_rounds=1)
            assert excinfo.value.budget == budget.bits
            assert excinfo.value.bits == message_bits(payload) > budget.bits

    def test_budget_fits_vertex_id_tuples(self):
        # The invariant the routing layer relies on: a tag plus a few
        # IDs always fits, at every network size.
        for n in (2, 10, 100, 10_000, 1_000_000):
            budget = MessageBudget(n)
            payload = ("F", n - 1, 7, (n - 2, n // 2))
            assert message_bits(payload) <= budget.bits
