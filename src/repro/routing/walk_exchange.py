"""Random-walk message exchange with a cluster leader (Lemma 2.4 + §2.3).

The primitive implemented here is exactly the "Routing Time" guarantee
of Theorem 2.6: the leader v* exchanges a distinct O(log n)-bit message
with each vertex of its cluster.

Forward phase (Lemma 2.4): every request token performs a lazy random
walk; the proof shows that on a phi-expander each walk of length
O(phi^-4 log^2 n) visits the high-degree leader with high probability,
and that per-round per-edge congestion stays O(log n).  Tokens are
absorbed on arrival at the leader.

Response phase (Section 2.3, "reverse the execution"): every vertex
logs, in local memory, the hop by which each token arrived in each
round.  After the leader computes its responses (the "any sequential
algorithm" step of the framework), tokens retrace their forward
trajectories backwards in lock step — reverse round r undoes forward
round T - r + 1.  A request whose token never reached the leader gets
no response, so its origin *detects* the failure, which is precisely
the failure-detection mechanism the paper's property tester relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..congest import (
    CongestMetrics,
    CongestSimulator,
    SimulationResult,
    VertexAlgorithm,
    VertexContext,
)
from ..errors import GraphError, RoutingError
from ..graph import Graph
from ..rng import SeedLike

#: Hard cap on forward walk length, protecting experiments from
#: pathologically low-conductance clusters (a failed execution is then
#: reported, per Section 2.3, rather than simulated forever).
MAX_WALK_STEPS = 50_000

TokenKey = Tuple[Any, int]  # (origin vertex, sequence number)
Responder = Callable[[Dict[TokenKey, Any]], Dict[TokenKey, Any]]


def default_walk_steps(n: int, phi: float, constant: float = 8.0) -> int:
    """Forward walk length T = O(phi^-2 log^2 n), capped.

    Lemma 2.4 uses O(phi^-2 log n) segments of length tau_mix =
    O(phi^-2 log n) in the worst case; in practice the spectral mixing
    bound of the actual cluster is far smaller, so the framework
    usually passes an explicit measured bound instead of this formula.
    """
    if phi <= 0:
        raise GraphError("phi must be positive")
    steps = math.ceil(constant * (math.log2(n + 2) ** 2) / (phi * phi))
    return min(MAX_WALK_STEPS, max(4, steps))


@dataclass
class ExchangeResult:
    """Outcome of one walk exchange on one cluster."""

    leader: Any
    requests_delivered: Dict[TokenKey, Any]
    responses: Dict[TokenKey, Any]
    undelivered: List[TokenKey]
    unanswered: List[TokenKey]
    metrics: CongestMetrics
    forward_steps: int

    @property
    def success(self) -> bool:
        """All requests reached the leader and all responses returned."""
        return not self.undelivered and not self.unanswered


class WalkExchange(VertexAlgorithm):
    """One vertex of the walk-exchange protocol.

    Global schedule (every vertex knows T = ``forward_steps``):

    * rounds 1..T — forward: each held token flips a lazy coin and
      either stays or moves to a uniformly random neighbor;
    * round T+1 — the leader runs the responder on the requests it
      absorbed and loads the response tokens;
    * rounds T+2..2T+2 — reverse round r = round - (T+1) undoes forward
      round t = T - r + 1: whoever received a token in forward round t
      sends its response token back along the same edge.
    """

    def __init__(
        self,
        leader: Any,
        forward_steps: int,
        requests: List[Tuple[TokenKey, Any]],
        responder: Optional[Responder],
    ) -> None:
        self.leader = leader
        self.forward_steps = forward_steps
        self.initial_requests = requests
        self.responder = responder
        # Forward state: tokens currently held, as {key: payload}.
        self.holding: Dict[TokenKey, Any] = {}
        # Arrival log: key -> {forward_round: from_vertex}.
        self.arrival_log: Dict[TokenKey, Dict[int, Any]] = {}
        # Leader state.
        self.absorbed: Dict[TokenKey, Any] = {}
        self.leader_arrivals: Dict[TokenKey, int] = {}
        # Reverse state: response tokens currently held.
        self.responding: Dict[TokenKey, Any] = {}
        # Origin state: responses received, requests issued.
        self.received_responses: Dict[TokenKey, Any] = {}
        self.issued: List[TokenKey] = []
        # Bound RNG primitives, captured on first forwarding step.
        self._random = None
        self._randbelow = None
        # Schedule landmarks, precomputed for the wakeup hot path.
        self._total_rounds = 2 * forward_steps + 2
        self._halt_round = self._total_rounds + 1

    # ------------------------------------------------------------------
    def initialize(self, ctx: VertexContext) -> None:
        for key, payload in self.initial_requests:
            self.issued.append(key)
            if ctx.vertex == self.leader:
                self.absorbed[key] = payload
                self.leader_arrivals[key] = 0
            else:
                self.holding[key] = payload

    def step(self, ctx: VertexContext, inbox: Dict[Any, List[Any]]) -> None:
        t = ctx.round_number
        if t <= self.forward_steps:
            self._forward_round(ctx, inbox, t)
        elif t == self.forward_steps + 1:
            self._forward_receive(ctx, inbox, t)
            if ctx.vertex == self.leader:
                self._prepare_responses()
        elif t <= 2 * self.forward_steps + 2:
            self._reverse_round(ctx, inbox, t)
        else:
            ctx.halt(
                {
                    "responses": dict(self.received_responses),
                    "undelivered": [
                        key
                        for key in self.issued
                        if key not in self.received_responses
                    ],
                    "absorbed": dict(self.absorbed)
                    if ctx.vertex == self.leader
                    else {},
                }
            )

    # ------------------------------------------------------------------
    def _forward_receive(
        self, ctx: VertexContext, inbox: Dict[Any, List[Any]], t: int
    ) -> None:
        """Take delivery of tokens that moved in forward round t-1."""
        arrival_round = t - 1
        for sender, payloads in inbox.items():
            for token in payloads:
                # A corrupted token (not a tuple) is lost; its origin
                # then detects the failure as an undelivered request.
                if type(token) is not tuple:
                    continue
                tag, origin, seq, payload = token
                if tag != "F":
                    continue
                key = (origin, seq)
                if ctx.vertex == self.leader:
                    self.absorbed[key] = payload
                    self.leader_arrivals[key] = arrival_round
                    self.arrival_log.setdefault(key, {})[arrival_round] = sender
                else:
                    self.holding[key] = payload
                    self.arrival_log.setdefault(key, {})[arrival_round] = sender

    def _forward_round(
        self, ctx: VertexContext, inbox: Dict[Any, List[Any]], t: int
    ) -> None:
        """One lazy-walk step for every held token.

        Randomness is drawn coins-first-then-targets from the vertex's
        own generator: one ``random()`` lazy coin per held token (in
        holding order), then one ``_randbelow(fanout)`` per mover (in
        the same order).  That schedule is part of the bit-identity
        contract: the pinned benchmark digests and every saved
        checkpoint's RNG state depend on it.
        """
        if inbox:
            self._forward_receive(ctx, inbox, t)
        holding = self.holding
        if ctx.vertex == self.leader or not holding:
            return
        neighbors = ctx.neighbors
        fanout = len(neighbors)
        send = ctx.send
        lazy_stay = self._random
        if lazy_stay is None:
            rng = ctx.rng
            lazy_stay = self._random = rng.random
            # choice(seq) is seq[rng._randbelow(len(seq))]; calling
            # the primitive directly keeps the RNG stream identical
            # while skipping a call layer on the hottest randomness
            # in the repo.
            self._randbelow = rng._randbelow
        randbelow = self._randbelow
        still_holding: Dict[TokenKey, Any] = {}
        movers: List[Tuple[TokenKey, Any]] = []
        for key, payload in holding.items():
            if lazy_stay() < 0.5:
                still_holding[key] = payload
            else:
                movers.append((key, payload))
        for key, payload in movers:
            send(
                neighbors[randbelow(fanout)],
                ("F", key[0], key[1], payload),
            )
        self.holding = still_holding

    # ------------------------------------------------------------------
    def _prepare_responses(self) -> None:
        if self.responder is None:
            responses = {key: None for key in self.absorbed}
        else:
            responses = self.responder(dict(self.absorbed))
        for key, payload in responses.items():
            if key not in self.absorbed:
                raise RoutingError(
                    f"responder produced a response for unknown token {key!r}"
                )
            if self.leader_arrivals.get(key) == 0 and key[0] == self.leader:
                # The leader's own request: answer locally.
                self.received_responses[key] = payload
            else:
                self.responding[key] = payload

    def _reverse_round(
        self, ctx: VertexContext, inbox: Dict[Any, List[Any]], t: int
    ) -> None:
        # Take delivery of response tokens.
        responding = self.responding
        vertex = ctx.vertex
        for sender, payloads in inbox.items():
            for token in payloads:
                # A corrupted response token is lost like a forward one.
                if type(token) is not tuple:
                    continue
                tag, origin, seq, payload = token
                if tag != "R":
                    continue
                key = (origin, seq)
                if vertex == origin:
                    self.received_responses[key] = payload
                else:
                    responding[key] = payload
        # Reverse round r undoes forward round T - r + 1.
        r = t - (self.forward_steps + 1)
        forward_round = self.forward_steps - r + 1
        if forward_round < 0 or not responding:
            return
        arrival_log = self.arrival_log
        to_send = []
        for key in responding:
            log = arrival_log.get(key)
            if log is not None and forward_round in log:
                to_send.append((key, log[forward_round]))
        for key, back in to_send:
            payload = responding.pop(key)
            ctx.send(back, ("R", key[0], key[1], payload))

    # ------------------------------------------------------------------
    # Scheduling hints: the walk phases are long but sparse, so idle
    # vertices tell the simulator exactly when they next matter.
    # ------------------------------------------------------------------
    def is_idle(self, ctx: VertexContext) -> bool:
        t = ctx.round_number
        if t <= self.forward_steps and ctx.vertex != self.leader and self.holding:
            # Forward tokens move (or lazily stay) every round.
            return False
        return True

    def next_wakeup(self, ctx: VertexContext) -> Optional[int]:
        t = ctx.round_number
        halt_round = self._halt_round
        if t <= self.forward_steps:
            if ctx.vertex == self.leader:
                # Wake to run the responder right after the forward phase.
                return self.forward_steps + 1
            return halt_round
        if t <= self._total_rounds and self.responding:
            # Wake at the earliest reverse round matching a logged hop.
            candidates = []
            for key in self.responding:
                for forward_round in self.arrival_log.get(key, ()):
                    wake = (self.forward_steps + 1) + (
                        self.forward_steps - forward_round + 1
                    )
                    if wake > t:
                        candidates.append(wake)
            if candidates:
                return min(min(candidates), halt_round)
        return halt_round


def walk_exchange(
    cluster: Graph,
    leader: Any,
    requests: Dict[Any, List[Any]],
    responder: Optional[Responder] = None,
    phi: float = 0.1,
    forward_steps: Optional[int] = None,
    seed: SeedLike = None,
    budget_n: Optional[int] = None,
) -> ExchangeResult:
    """Exchange one batch of request/response messages with ``leader``.

    ``requests`` maps each vertex to the list of payloads it wants
    delivered to the leader; each payload must fit the CONGEST budget.
    ``responder`` runs *at the leader* on everything that arrived and
    returns per-token response payloads (defaults to blank acks).
    Returns an :class:`ExchangeResult` whose ``success`` flag reflects
    the paper's failure semantics.
    """
    if leader not in cluster:
        raise GraphError(f"leader {leader!r} not in cluster")
    if forward_steps is None:
        forward_steps = default_walk_steps(cluster.n, phi)

    def factory(v):
        token_list = [
            ((v, i), payload) for i, payload in enumerate(requests.get(v, []))
        ]
        return WalkExchange(leader, forward_steps, token_list, responder)

    from ..congest.message import MessageBudget

    # The O(log n) budget is set by the size of the whole network, not
    # the cluster (vertex IDs are network-wide).
    budget = MessageBudget(max(cluster.n, budget_n or 0))
    simulator = CongestSimulator(cluster, factory, budget=budget, seed=seed)
    result = simulator.run(max_rounds=2 * forward_steps + 4)

    all_keys = [
        (v, i)
        for v, payloads in requests.items()
        for i in range(len(payloads))
    ]
    leader_output = result.outputs.get(leader) or {}
    delivered = leader_output.get("absorbed", {})
    responses: Dict[TokenKey, Any] = {}
    unanswered: List[TokenKey] = []
    for v in cluster.vertices():
        out = result.outputs.get(v) or {}
        responses.update(out.get("responses", {}))
    undelivered = [key for key in all_keys if key not in delivered]
    unanswered = [
        key
        for key in all_keys
        if key in delivered and key not in responses
    ]
    return ExchangeResult(
        leader=leader,
        requests_delivered=delivered,
        responses=responses,
        undelivered=undelivered,
        unanswered=unanswered,
        metrics=result.metrics,
        forward_steps=forward_steps,
    )
