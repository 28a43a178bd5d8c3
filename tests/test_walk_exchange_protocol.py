"""Deep unit tests of the walk-exchange protocol internals."""

import signal
from contextlib import contextmanager

import pytest

from repro.congest import use_engine
from repro.congest.algorithm import set_kernels_enabled
from repro.congest.message import MessageBudget
from repro.errors import RoutingError
from repro.generators import cycle_graph, grid_graph, path_graph, star_graph
from repro.graph import Graph
from repro.routing import walk_exchange
from repro.routing.walk_exchange import default_walk_steps


class TestReverseRouting:
    def test_every_response_reaches_its_origin(self):
        g = grid_graph(4, 4)
        leader = 5
        requests = {v: [(v, i) for i in range(2)] for v in g.vertices()}

        def responder(absorbed):
            return {key: key[0] * 100 + key[1] for key in absorbed}

        result = walk_exchange(g, leader, requests, responder=responder,
                               phi=0.2, seed=0)
        assert result.success
        for v in g.vertices():
            for i in range(2):
                assert result.responses[(v, i)] == v * 100 + i

    def test_token_revisiting_origin_still_answered(self):
        # On a path the walk revisits its origin often; the reverse
        # delivery must still terminate at the origin exactly once.
        g = path_graph(5)
        requests = {v: [(v,)] for v in g.vertices()}
        result = walk_exchange(g, 4, requests, phi=0.2,
                               forward_steps=400, seed=1)
        assert result.success
        assert set(k[0] for k in result.responses) == set(g.vertices())

    def test_leader_multiple_own_tokens(self):
        g = cycle_graph(5)
        requests = {0: [(0, i) for i in range(4)]}

        def responder(absorbed):
            return {key: ("mine", key[1]) for key in absorbed}

        result = walk_exchange(g, 0, requests, responder=responder,
                               phi=0.3, seed=2)
        assert result.success
        assert result.responses[(0, 3)] == ("mine", 3)

    def test_responder_for_unknown_token_rejected(self):
        g = cycle_graph(4)
        requests = {1: [(1,)]}

        def bad_responder(absorbed):
            return {("ghost", 99): "boo"}

        with pytest.raises(RoutingError):
            walk_exchange(g, 0, requests, responder=bad_responder,
                          phi=0.3, seed=3)

    def test_partial_responder_counts_unanswered(self):
        g = cycle_graph(6)
        requests = {v: [(v,)] for v in g.vertices()}

        def half_responder(absorbed):
            return {
                key: "ok" for key in absorbed if key[0] % 2 == 0
            }

        result = walk_exchange(g, 0, requests, responder=half_responder,
                               phi=0.3, seed=4)
        assert not result.success
        assert result.unanswered
        assert all(key[0] % 2 == 1 for key in result.unanswered)


class TestAccounting:
    def test_forward_steps_recorded(self):
        g = cycle_graph(6)
        result = walk_exchange(g, 0, {1: [(1,)]}, phi=0.3,
                               forward_steps=64, seed=5)
        assert result.forward_steps == 64
        # Rounds: forward + reverse + bookkeeping.
        assert result.metrics.rounds <= 2 * 64 + 6

    def test_budget_respects_network_size_override(self):
        g = cycle_graph(4)
        # budget_n raises the allowed message size for small clusters
        # embedded in large networks.
        result = walk_exchange(
            g, 0, {v: [(v,)] for v in g.vertices()}, phi=0.3, seed=6,
            budget_n=1 << 20,
        )
        assert result.success
        assert result.metrics.max_message_bits <= MessageBudget(1 << 20).bits

    def test_no_requests_trivially_succeeds(self):
        g = star_graph(4)
        result = walk_exchange(g, 0, {}, phi=0.3, seed=7)
        assert result.success
        assert result.requests_delivered == {}

    def test_default_walk_steps_monotone(self):
        assert default_walk_steps(100, 0.05) >= default_walk_steps(100, 0.2)
        assert default_walk_steps(1000, 0.1) >= default_walk_steps(10, 0.1)

    def test_default_walk_steps_invalid_phi(self):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            default_walk_steps(10, 0.0)


@contextmanager
def _deadline(seconds):
    """Fail, rather than hang, a call that never returns."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestIsolatedHolder:
    """A vertex without neighbors that holds a token cannot move it: the
    token stays, nothing is drawn, and its origin detects the failure
    (Section 2.3).  Drawing a target among zero neighbors used to spin
    forever inside ``random._randbelow``."""

    @pytest.mark.parametrize(
        "engine,kernels",
        [("fast", True), ("fast", False), ("reference", True)],
    )
    def test_token_stays_undelivered(self, engine, kernels):
        g = Graph.from_edges([(0, 1)])
        g.add_vertex(2)
        set_kernels_enabled(kernels)
        try:
            with _deadline(10), use_engine(engine):
                result = walk_exchange(
                    g, 0, {2: [("H", None)]}, seed=1, forward_steps=20
                )
        finally:
            set_kernels_enabled(True)
        assert result.undelivered == [(2, 0)]
        assert not result.success
        assert result.metrics.total_messages == 0
