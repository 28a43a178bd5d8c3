"""Tests for the CONGEST simulator: delivery, accounting, scheduling."""

import pytest

from repro.congest import (
    CongestSimulator,
    MessageBudget,
    VertexAlgorithm,
    VertexContext,
)
from repro.errors import MessageTooLargeError, ProtocolError
from repro.generators import cycle_graph, path_graph, star_graph
from repro.graph import Graph


class Flood(VertexAlgorithm):
    """Learn the max ID by flooding; halt after ``budget`` rounds."""

    def __init__(self, budget):
        self.budget = budget
        self.best = None

    def initialize(self, ctx):
        self.best = ctx.vertex
        ctx.broadcast(self.best)

    def step(self, ctx, inbox):
        for payloads in inbox.values():
            for value in payloads:
                if value > self.best:
                    self.best = value
                    ctx.broadcast(self.best)
        if ctx.round_number >= self.budget:
            ctx.halt(self.best)


class SendOnce(VertexAlgorithm):
    def initialize(self, ctx):
        for u in ctx.neighbors:
            ctx.send(u, ("HI", ctx.vertex))

    def step(self, ctx, inbox):
        ctx.halt(sorted(u for u in inbox))


class TestBasicExecution:
    def test_flood_agrees_on_max(self):
        g = cycle_graph(10)
        sim = CongestSimulator(g, lambda v: Flood(budget=12), seed=0)
        result = sim.run(max_rounds=20)
        assert result.halted
        assert set(result.outputs.values()) == {9}

    def test_messages_delivered_next_round(self):
        g = path_graph(3)
        sim = CongestSimulator(g, lambda v: SendOnce(), seed=0)
        result = sim.run(max_rounds=5)
        assert result.outputs[1] == [0, 2]
        assert result.outputs[0] == [1]

    def test_unfinished_run_reports_not_halted(self):
        class Forever(VertexAlgorithm):
            def step(self, ctx, inbox):
                pass

        sim = CongestSimulator(path_graph(2), lambda v: Forever(), seed=0)
        result = sim.run(max_rounds=3)
        assert not result.halted

    def test_send_to_non_neighbor_rejected(self):
        class Bad(VertexAlgorithm):
            def initialize(self, ctx):
                ctx.send("nowhere", 1)

            def step(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(ProtocolError):
            CongestSimulator(path_graph(2), lambda v: Bad(), seed=0).run(2)

    def test_send_after_halt_rejected(self):
        class Zombie(VertexAlgorithm):
            def step(self, ctx, inbox):
                ctx.halt()
                ctx.broadcast(1)

        with pytest.raises(ProtocolError):
            CongestSimulator(path_graph(2), lambda v: Zombie(), seed=0).run(2)


class TestAccounting:
    def test_message_and_bit_counters(self):
        g = path_graph(3)
        sim = CongestSimulator(g, lambda v: SendOnce(), seed=0)
        result = sim.run(max_rounds=5)
        # 0 and 2 send one message each, 1 sends two.
        assert result.metrics.total_messages == 4
        assert result.metrics.total_bits > 0
        assert result.metrics.max_message_bits > 0

    def test_budget_enforced(self):
        class TooBig(VertexAlgorithm):
            def initialize(self, ctx):
                ctx.broadcast(tuple(range(100)))

            def step(self, ctx, inbox):
                ctx.halt()

        sim = CongestSimulator(
            path_graph(2), lambda v: TooBig(), budget=MessageBudget(2, words=2),
            seed=0,
        )
        with pytest.raises(MessageTooLargeError):
            sim.run(2)

    def test_effective_rounds_charge_congestion(self):
        class Burst(VertexAlgorithm):
            def initialize(self, ctx):
                for u in ctx.neighbors:
                    for i in range(5):
                        ctx.send(u, i)

            def step(self, ctx, inbox):
                ctx.halt()

        sim = CongestSimulator(path_graph(2), lambda v: Burst(), seed=0)
        result = sim.run(3)
        assert result.metrics.max_edge_congestion == 5
        assert result.metrics.effective_rounds >= 5


class TestIdleScheduling:
    def test_wakeup_fast_forwards_but_counts_rounds(self):
        class Sleeper(VertexAlgorithm):
            def __init__(self):
                self.woke = None

            def initialize(self, ctx):
                pass

            def step(self, ctx, inbox):
                if ctx.round_number >= 500:
                    ctx.halt(ctx.round_number)

            def is_idle(self, ctx):
                return ctx.round_number < 500

            def next_wakeup(self, ctx):
                return 500

        sim = CongestSimulator(path_graph(2), lambda v: Sleeper(), seed=0)
        result = sim.run(max_rounds=1000)
        assert result.halted
        # All outputs woke exactly at round 500.
        assert set(result.outputs.values()) == {500}
        assert result.metrics.rounds >= 500

    def test_message_wakes_idle_vertex(self):
        class Pinger(VertexAlgorithm):
            def initialize(self, ctx):
                if ctx.vertex == 0:
                    ctx.broadcast(1)

            def step(self, ctx, inbox):
                if ctx.vertex == 0:
                    ctx.halt("sent")
                elif inbox:
                    ctx.halt("got ping")

            def is_idle(self, ctx):
                return True

            def next_wakeup(self, ctx):
                return None

        sim = CongestSimulator(path_graph(2), lambda v: Pinger(), seed=0)
        result = sim.run(max_rounds=10)
        assert result.outputs[1] == "got ping"

    def test_deadlocked_idle_run_terminates(self):
        class Nothing(VertexAlgorithm):
            def step(self, ctx, inbox):
                pass

            def is_idle(self, ctx):
                return True

            def next_wakeup(self, ctx):
                return None

        sim = CongestSimulator(path_graph(3), lambda v: Nothing(), seed=0)
        result = sim.run(max_rounds=100)
        assert not result.halted  # but it returned instead of spinning


class TestDeterminism:
    def test_same_seed_same_metrics(self):
        def run(seed):
            g = star_graph(6)
            sim = CongestSimulator(g, lambda v: Flood(budget=4), seed=seed)
            r = sim.run(10)
            return r.outputs, r.metrics.total_messages

        assert run(42) == run(42)

    def test_contexts_have_independent_rngs(self):
        class Draw(VertexAlgorithm):
            def step(self, ctx, inbox):
                ctx.halt(ctx.rng.random())

        sim = CongestSimulator(path_graph(4), lambda v: Draw(), seed=7)
        result = sim.run(3)
        values = list(result.outputs.values())
        assert len(set(values)) == len(values)
