"""BFS-tree exchange: the convergecast/broadcast baseline.

Experiment E3 compares the paper's random-walk routing (Lemma 2.4)
against this classic alternative: build a BFS tree rooted at the
leader, convergecast all requests up the tree, and route responses back
down along recorded pointers.  On a low-diameter cluster the tree
exchange uses fewer raw rounds but concentrates congestion on the
leader's tree edges (up to Theta(|V_i|) messages per edge), which is
exactly the overhead the ``effective_rounds`` metric exposes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..congest import (
    CongestSimulator,
    VertexAlgorithm,
    VertexContext,
)
from ..congest.message import MessageBudget
from ..errors import GraphError, RoutingError
from ..graph import Graph
from ..rng import SeedLike
from .walk_exchange import ExchangeResult, Responder, TokenKey


class TreeExchange(VertexAlgorithm):
    """One vertex of the BFS-tree exchange.

    Schedule with depth budget B (all vertices know B):

    * rounds 1..B — the leader's ``TREE`` beacon floods outward; on
      first receipt a vertex adopts the earliest (then smallest-ID)
      sender as parent, re-broadcasts the beacon, and starts sending
      its requests to its parent;
    * rounds 1..2B — every ``UP`` message is forwarded parent-ward the
      round after it arrives; the forwarding vertex records which
      neighbor each token came from;
    * round 2B+1 — the leader runs the responder;
    * rounds 2B+2..3B+2 — ``DOWN`` responses retrace the recorded
      pointers to their origins.
    """

    def __init__(
        self,
        leader: Any,
        depth_budget: int,
        requests: List[Tuple[TokenKey, Any]],
        responder: Optional[Responder],
    ) -> None:
        self.leader = leader
        self.depth_budget = depth_budget
        self.initial_requests = requests
        self.responder = responder
        self.parent: Optional[Any] = None
        self.pending_up: List[Tuple[TokenKey, Any]] = []
        self.came_from: Dict[TokenKey, Any] = {}
        self.absorbed: Dict[TokenKey, Any] = {}
        self.responding: Dict[TokenKey, Any] = {}
        self.received_responses: Dict[TokenKey, Any] = {}
        self.issued: List[TokenKey] = []

    def initialize(self, ctx: VertexContext) -> None:
        for key, payload in self.initial_requests:
            self.issued.append(key)
            if ctx.vertex == self.leader:
                self.absorbed[key] = payload
            else:
                self.pending_up.append((key, payload))
        if ctx.vertex == self.leader:
            self.parent = ctx.vertex
            ctx.broadcast(("TREE",))

    def step(self, ctx: VertexContext, inbox: Dict[Any, List[Any]]) -> None:
        t = ctx.round_number
        # -- receive ----------------------------------------------------
        beacon_senders = []
        for sender, payloads in sorted(inbox.items(), key=lambda kv: repr(kv[0])):
            for payload in payloads:
                tag = payload[0]
                if tag == "TREE":
                    beacon_senders.append(sender)
                elif tag == "UP":
                    _tag, origin, seq, data = payload
                    key = (origin, seq)
                    if ctx.vertex == self.leader:
                        self.absorbed[key] = data
                    else:
                        self.pending_up.append((key, data))
                    self.came_from[key] = sender
                elif tag == "DOWN":
                    _tag, origin, seq, data = payload
                    key = (origin, seq)
                    if ctx.vertex == origin:
                        self.received_responses[key] = data
                    else:
                        self.responding[key] = data
        if self.parent is None and beacon_senders:
            self.parent = beacon_senders[0]
            ctx.broadcast(("TREE",))

        # -- send -------------------------------------------------------
        if ctx.vertex != self.leader and self.parent is not None:
            for key, data in self.pending_up:
                ctx.send(self.parent, ("UP", key[0], key[1], data))
            self.pending_up = []

        if ctx.vertex == self.leader and t == 2 * self.depth_budget + 1:
            if self.responder is None:
                responses = {key: None for key in self.absorbed}
            else:
                responses = self.responder(dict(self.absorbed))
            for key, data in responses.items():
                if key not in self.absorbed:
                    raise RoutingError(
                        f"responder produced response for unknown token {key!r}"
                    )
                self.responding[key] = data

        if t >= 2 * self.depth_budget + 1:
            for key in list(self.responding):
                data = self.responding.pop(key)
                if key[0] == ctx.vertex:
                    self.received_responses[key] = data
                    continue
                back = self.came_from.get(key)
                if back is None:
                    # Token never passed through here forward: drop
                    # (can only happen on a failed tree build).
                    continue
                ctx.send(back, ("DOWN", key[0], key[1], data))

        if t > 3 * self.depth_budget + 2:
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


def tree_exchange(
    cluster: Graph,
    leader: Any,
    requests: Dict[Any, List[Any]],
    responder: Optional[Responder] = None,
    phi: float = 0.1,  # accepted for interface parity with walk_exchange
    forward_steps: Optional[int] = None,
    seed: SeedLike = None,
    budget_n: Optional[int] = None,
) -> ExchangeResult:
    """BFS-tree counterpart of :func:`repro.routing.walk_exchange.walk_exchange`."""
    if leader not in cluster:
        raise GraphError(f"leader {leader!r} not in cluster")
    depth_budget = (
        forward_steps if forward_steps is not None else cluster.diameter() + 1
    )

    def factory(v):
        token_list = [
            ((v, i), payload) for i, payload in enumerate(requests.get(v, []))
        ]
        return TreeExchange(leader, depth_budget, token_list, responder)

    budget = MessageBudget(max(cluster.n, budget_n or 0))
    simulator = CongestSimulator(cluster, factory, budget=budget, seed=seed)
    result = simulator.run(max_rounds=3 * depth_budget + 5)
    return ExchangeResult.collect(
        cluster, leader, requests, result, depth_budget
    )
