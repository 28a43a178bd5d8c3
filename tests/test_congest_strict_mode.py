"""Per-edge capacity accounting, parametrized over both engines.

The textbook CONGEST model allows one O(log n)-bit message per directed
edge per round.  The simulator has one rule for traffic beyond that: an
algorithm may put several messages on one edge in one round, and the
round is charged to ``effective_rounds`` as the number of CONGEST
rounds its busiest edge needs.  Nothing raises for it.  These tests pin
that charge, and that a duplicate injected by the fault channel is
never charged to the sender.
"""

import pytest

from repro.congest import CongestSimulator, FaultPlan, VertexAlgorithm
from repro.generators import path_graph, star_graph

ENGINES = ("fast", "reference")

#: Duplicates every message (drop/corrupt off) — used to pin down that
#: fault-injected copies are "on the wire" phenomena the *sender* is
#: never charged for.
DUPLICATE_ALL = FaultPlan(seed=0, duplicate=1.0)


class BurstOnce(VertexAlgorithm):
    """Vertex 0 sends ``count`` unit messages to each neighbor, once."""

    def __init__(self, vertex, count):
        self.count = count if vertex == 0 else 0

    def initialize(self, ctx):
        for u in ctx.neighbors:
            for i in range(self.count):
                ctx.send(u, i)

    def step(self, ctx, inbox):
        ctx.halt(sum(len(p) for p in inbox.values()))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("burst", [2, 4, 7])
class TestNonStrictCharging:
    def test_overflow_charged_to_effective_rounds(self, engine, burst):
        sim = CongestSimulator(
            path_graph(2),
            lambda v: BurstOnce(v, burst),
            seed=0,
            engine=engine,
        )
        result = sim.run(3)
        assert result.halted
        m = result.metrics
        assert m.max_edge_congestion == burst
        # Round 1 delivers the burst (charged `burst`); every other
        # executed round carries at most one message per edge.
        assert m.effective_rounds == m.rounds + (burst - 1)

    def test_non_strict_never_raises(self, engine, burst):
        # The charge binds per directed edge: a star center bursting
        # to every leaf delivers each leaf its whole burst.
        sim = CongestSimulator(
            star_graph(4),
            lambda v: BurstOnce(v, burst),
            seed=0,
            engine=engine,
        )
        result = sim.run(3)  # must not raise
        assert result.halted
        for leaf in range(1, 5):
            assert result.outputs[leaf] == burst
        assert result.metrics.max_edge_congestion == burst

    def test_duplicates_charged_once(self, engine, burst):
        """A duplicated message is a channel fault, not a second send:
        the receiver sees two copies, the books one charge each."""
        sim = CongestSimulator(
            path_graph(2),
            lambda v: BurstOnce(v, burst),
            seed=0,
            engine=engine,
            faults=DUPLICATE_ALL,
        )
        result = sim.run(3)
        assert result.halted
        assert result.outputs[1] == 2 * burst
        m = sim.metrics
        assert m.total_messages == burst
        assert m.max_edge_congestion == burst
        assert m.messages_duplicated == burst
        assert m.effective_rounds == m.rounds + (burst - 1)


@pytest.mark.parametrize("setting", [{"strict": True}, {"capacity": 2}])
def test_capacity_settings_are_gone(setting):
    """The overflow charge is the only capacity rule: there is no mode
    that raises at the first overflow, and no capacity to configure."""
    with pytest.raises(TypeError):
        CongestSimulator(path_graph(2), lambda v: BurstOnce(v, 2), **setting)
