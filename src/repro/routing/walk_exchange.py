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

:class:`WalkExchange` is the protocol, one object per vertex.  On a
fresh, fault-free run the fast engine drives the walkers through
:class:`WalkExchangeKernel` instead of its per-vertex scheduler, with
bit-identical results; every other run steps them one by one.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..congest import (
    CongestMetrics,
    CongestSimulator,
    SimulationResult,
    VertexAlgorithm,
    VertexContext,
)
from ..congest.algorithm import register_kernel
from ..congest.message import message_bits
from ..errors import GraphError, MessageTooLargeError, RoutingError
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

    @classmethod
    def collect(
        cls,
        cluster: Graph,
        leader: Any,
        requests: Dict[Any, List[Any]],
        result: SimulationResult,
        forward_steps: int,
    ) -> "ExchangeResult":
        """Assemble the outcome from one exchange run's per-vertex
        outputs; the walk and the tree transport share it."""
        all_keys = [
            (v, i)
            for v, payloads in requests.items()
            for i in range(len(payloads))
        ]
        leader_output = result.outputs.get(leader) or {}
        delivered = leader_output.get("absorbed", {})
        responses: Dict[TokenKey, Any] = {}
        for v in cluster.vertices():
            out = result.outputs.get(v) or {}
            responses.update(out.get("responses", {}))
        return cls(
            leader=leader,
            requests_delivered=delivered,
            responses=responses,
            undelivered=[key for key in all_keys if key not in delivered],
            unanswered=[
                key
                for key in all_keys
                if key in delivered and key not in responses
            ],
            metrics=result.metrics,
            forward_steps=forward_steps,
        )


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
        if t <= self.forward_steps + 1:
            send = ctx.send
            for target, key, payload in self._forward_step(
                ctx, _tokens(inbox, "F") if inbox else None, t
            ):
                send(target, ("F", key[0], key[1], payload))
            if t > self.forward_steps and ctx.vertex == self.leader:
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
    # ``step`` and :class:`WalkExchangeKernel` both take the forward
    # step and run the responder through these methods, and both find
    # a response's next send round with ``_send_rounds``.
    # ------------------------------------------------------------------
    def _forward_step(self, ctx: VertexContext, arrivals, t: int):
        """Forward round ``t`` (1..T+1): take delivery of the tokens
        that moved in round t-1, logging each hop (the leader absorbs
        them, any other vertex holds them); then, up to round T, move
        every held token one lazy step.  ``arrivals`` are ``(sender,
        key, payload)`` triples, or None; returns the movers as
        ``(neighbor, key, payload)``.

        Randomness is drawn coins-first-then-targets from the vertex's
        own generator: one ``random()`` lazy coin per held token (in
        holding order), then one ``_randbelow(fanout)`` per mover (in
        the same order).  That schedule is part of the bit-identity
        contract: the pinned benchmark digests and every saved
        checkpoint's RNG state depend on it.  A vertex without
        neighbors keeps its tokens and draws nothing; their origins
        detect the failure as undelivered requests.
        """
        holding = self.holding
        if arrivals is not None:
            arrival_round = t - 1
            log = self.arrival_log
            if ctx.vertex == self.leader:
                absorbed = self.absorbed
                leader_arrivals = self.leader_arrivals
                for sender, key, payload in arrivals:
                    absorbed[key] = payload
                    leader_arrivals[key] = arrival_round
                    log.setdefault(key, {})[arrival_round] = sender
                return ()  # the leader never holds a token
            for sender, key, payload in arrivals:
                holding[key] = payload
                log.setdefault(key, {})[arrival_round] = sender
        neighbors = ctx.neighbors
        if not holding or not neighbors or t > self.forward_steps:
            return ()
        lazy_stay = self._random
        if lazy_stay is None:
            rng = ctx.rng
            lazy_stay = self._random = rng.random
            # choice(seq) is seq[rng._randbelow(len(seq))]; calling
            # the primitive directly keeps the RNG stream identical
            # while skipping a call layer on the hottest randomness
            # in the repo.
            self._randbelow = rng._randbelow
        still_holding: Dict[TokenKey, Any] = {}
        movers = []
        for item in holding.items():
            if lazy_stay() < 0.5:
                still_holding[item[0]] = item[1]
            else:
                movers.append(item)
        self.holding = still_holding
        if movers:
            randbelow = self._randbelow
            fanout = len(neighbors)
            for k, (key, payload) in enumerate(movers):
                movers[k] = (neighbors[randbelow(fanout)], key, payload)
        return movers

    def _prepare_responses(self) -> None:
        """Round T+1, at the leader: run the responder and load the
        response tokens."""
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
        """Reverse round ``t`` (T+2..2T+2): take delivery of the
        responses that moved in round t-1 (an origin keeps its own, any
        other vertex holds them to send on), then send each held one
        whose token arrived here in the forward round this round undoes
        back along that hop."""
        responding = self.responding
        if inbox:
            vertex = ctx.vertex
            received = self.received_responses
            for _sender, key, payload in _tokens(inbox, "R"):
                if vertex == key[0]:
                    received[key] = payload
                else:
                    responding[key] = payload
        if not responding:
            return
        # Reverse round r = t - (T+1) undoes forward round T - r + 1.
        forward_round = 2 * self.forward_steps + 2 - t
        log = self.arrival_log
        send = ctx.send
        for key in [
            key for key in responding if forward_round in log.get(key, ())
        ]:
            payload = responding.pop(key)
            send(log[key][forward_round], ("R", key[0], key[1], payload))

    def _send_rounds(self, keys, t: int) -> List[Tuple[TokenKey, int]]:
        """``(key, round)`` for each response in ``keys`` that this
        vertex sends on in a reverse round ``t`` or later: the round
        undoing the latest hop of its token logged here and not yet
        undone.  A response whose every hop is undone is left out."""
        # Round t undoes forward round 2T+2-t, so forward round g is
        # undone in round 2T+2-g.
        mirror = 2 * self.forward_steps + 2
        last = mirror - t
        log = self.arrival_log
        rounds = []
        for key in keys:
            hop = 0
            for g in log.get(key, ()):
                if hop < g <= last:
                    hop = g
            if hop:
                rounds.append((key, mirror - hop))
        return rounds

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
        if t <= self.forward_steps:
            if ctx.vertex == self.leader:
                # Wake to run the responder right after the forward phase.
                return self.forward_steps + 1
            return self._halt_round
        if t <= self._total_rounds and self.responding:
            # Wake at the earliest round that sends a response on.
            rounds = self._send_rounds(self.responding, t + 1)
            if rounds:
                return min(wake for _key, wake in rounds)
        return self._halt_round


def _tokens(inbox: Dict[Any, List[Any]], tag: str):
    """The ``tag`` tokens of a per-vertex inbox as ``(sender, key,
    payload)``, in drain order.  A corrupted token (not a tuple) is
    lost; its origin then detects the failure."""
    for sender, payloads in inbox.items():
        for token in payloads:
            if type(token) is not tuple:
                continue
            token_tag, origin, seq, payload = token
            if token_tag == tag:
                yield sender, (origin, seq), payload


@register_kernel
class WalkExchangeKernel:
    """A fault-free walk exchange, token by token, on its own schedule.

    Replaces the per-vertex scheduler for a population of
    :class:`WalkExchange` walkers (see ``docs/kernels.md``).  In the
    forward rounds each due walker takes the same step
    :meth:`WalkExchange.step` takes (``_forward_step``, and
    ``_prepare_responses`` at T+1), so the walker objects and their
    ``ctx.rng`` draws come out exactly as on the scalar path; the
    reverse rounds make ``_reverse_round``'s moves inline, and file
    each response under the round the walker's ``_send_rounds``
    names.  Each hop is charged at the ``message_bits`` of its
    ``(tag, origin, seq, payload)`` token, measured once per tag and
    key.  It steps exactly the ranks the per-vertex scheduler would,
    read off its own state instead of the walkers' hints:

    * round 1 and the halt round 2T+3: every rank;
    * forward rounds 2..T+1: the non-leader ranks that kept a token
      after their last step, the receivers of last round's tokens, and
      the leader at T+1;
    * reverse rounds: the receivers, and each rank holding a response
      whose logged hop that round undoes;

    and every other round is fast-forwarded.  Tokens in flight wait in
    the kernel as ``(sender vertex, key, payload)`` per receiving rank,
    in drain order; :meth:`sync` writes them, with the round numbers
    and the scheduler's runnable set and wakeups, back into the engine.
    """

    algorithm_cls = WalkExchange

    @classmethod
    def supports(cls, engine) -> bool:
        """Every walker shares the leader (a vertex of the graph), the
        integer walk length and the responder, and no two tokens share
        a key (token sizes are measured once per key)."""
        walkers = engine._algorithms
        first = walkers[0]
        if (
            type(first.forward_steps) is not int
            or first.leader not in engine._index
        ):
            return False
        keys = set()
        tokens = 0
        for walker in walkers:
            if (
                walker.leader != first.leader
                or walker.forward_steps != first.forward_steps
                or walker.responder is not first.responder
            ):
                return False
            tokens += len(walker.initial_requests)
            keys.update(key for key, _payload in walker.initial_requests)
        return len(keys) == tokens

    def __init__(self, engine) -> None:
        # A proxy, so the engine (which holds its kernel) is freed by
        # reference counting when the simulation is dropped.
        self.engine = weakref.proxy(engine)
        self.budget_bits = engine.budget.bits
        self.walkers = engine._algorithms
        self.contexts = engine._contexts
        self.verts = engine._verts
        self.index = engine._index
        self.n = engine._n
        # The engine's inboxes and their index, which sync() writes.
        self.pending = engine._pending
        self.pending_ids = engine._pending_ids
        first = self.walkers[0]
        self.steps = first.forward_steps
        self.halt_round = first._halt_round
        self.leader = engine._index[first.leader]
        # Tokens delivered into the next round: receiving rank ->
        # [(sender vertex, key, payload)], in drain order.
        self._mail: Dict[int, list] = {}
        # Non-leader ranks that kept a forward token after their step.
        self._holders: List[int] = []
        # Reverse round -> {rank: responses it sends on then, in the
        # order of its ``responding`` dict}.
        self._due: Dict[int, Dict[int, List[TokenKey]]] = {}
        # message_bits of each key's forward and response token.
        self._forward_bits: Dict[TokenKey, int] = {}
        self._response_bits: Dict[TokenKey, int] = {}
        # The round's charge for account(): (per-edge counts, bits
        # histogram, first over-budget send's error).
        self._charge = None

    # -- engine-facing entry points ------------------------------------
    def initialize(self, cohort) -> None:
        """The walkers' own ``initialize``: none sends anything."""
        for i in cohort:
            self.walkers[i].initialize(self.contexts[i])

    def next_round(self, round_number: int) -> int:
        """The next round after ``round_number`` with a rank due (at
        the latest the halt round, where every rank is)."""
        if self._mail or round_number == 0:
            return round_number + 1
        if round_number <= self.steps:
            # Holders move every round; otherwise the leader wakes at
            # T+1 to run the responder.
            return round_number + 1 if self._holders else self.steps + 1
        round_number += 1
        due = self._due
        while round_number < self.halt_round and round_number not in due:
            round_number += 1
        return round_number

    def step_round(self, round_number: int):
        """Step the ranks due in ``round_number``, in canonical order;
        returns ``(stepped, halted)``."""
        t = round_number
        mail = self._mail
        self._mail = {}
        pending_ids = self.pending_ids
        if pending_ids:
            # A sync wrote this mail into the inboxes of the ranks that
            # take it now; they consume them, as on the scalar path.
            pending = self.pending
            for j in pending_ids:
                pending[j] = None
            pending_ids.clear()
        steps = self.steps
        if t >= self.halt_round:
            stepped = list(range(self.n))
            for i in stepped:
                ctx = self.contexts[i]
                ctx.round_number = t
                self.walkers[i].step(ctx, {})
            return stepped, stepped
        if t > steps + 1:
            sending = self._due.pop(t, {})
            stepped = sorted(set(mail).union(sending))
            self._reverse(t, stepped, mail, sending)
            return stepped, ()
        if t == 1:
            stepped = list(range(self.n))
        else:
            due = set(self._holders).union(mail)
            if t == steps + 1:
                due.add(self.leader)
            stepped = sorted(due)
        if t <= steps:
            self._forward(t, stepped, mail)
        else:
            self._last_arrivals(t, stepped, mail)
        return stepped, ()

    def account(self, engine):
        """The round's charge, as ``SendPlan.account`` returns one; raises
        the first over-budget send, as ``_collect`` would."""
        per_edge, sizes, error = self._charge
        self._charge = None
        if error is not None:
            raise error
        messages = bits = 0
        for size, count in sizes.items():
            messages += count
            bits += size * count
        return (
            per_edge,
            messages,
            bits,
            sizes if engine._want_bits_hist else {},
            max(sizes),
        )

    def materialize(self, engine) -> None:
        """Nothing to write: a capture runs :meth:`sync` first, which
        wrote the tokens in flight into the pending inboxes."""

    def sync(self) -> None:
        """Write back what the per-vertex scheduler would hold now: the
        runnable set and wakeups ``_reschedule`` would have left, and
        the tokens in flight as the scalar drain leaves them,
        ``{sender: [token, ...]}`` per receiving rank in drain order.
        Round numbers are set as ranks step."""
        steps = self.steps
        halt_round = self.halt_round
        first_due: Dict[int, int] = {}
        for r in sorted(self._due):
            for i in self._due[r]:
                first_due.setdefault(i, r)
        runnable = set()
        wake: List[Optional[int]] = [None] * self.n
        for i, ctx in enumerate(self.contexts):
            last = ctx.round_number
            if ctx._halted:
                continue
            if last == 0:
                runnable.add(i)
            elif last > steps:
                wake[i] = first_due.get(i, halt_round)
            elif i == self.leader:
                wake[i] = steps + 1
            elif self.walkers[i].holding:
                runnable.add(i)
            else:
                wake[i] = halt_round
        self.engine._runnable = runnable
        self.engine._wake_round = wake
        tag = "F" if self.engine._round <= steps else "R"
        for j, box in self._mail.items():
            inbox: Dict[Any, List[Any]] = {}
            for sender, key, payload in box:
                inbox.setdefault(sender, []).append(
                    (tag, key[0], key[1], payload)
                )
            self.pending[j] = inbox
            self.pending_ids.add(j)

    # -- the schedule --------------------------------------------------
    def _forward(self, t: int, stepped: List[int], mail) -> None:
        """Forward round ``t``: each due rank takes last round's tokens,
        then moves."""
        contexts = self.contexts
        walkers = self.walkers
        holders = []
        sends = []
        for i in stepped:
            ctx = contexts[i]
            ctx.round_number = t
            walker = walkers[i]
            moves = walker._forward_step(ctx, mail.get(i), t)
            if moves:
                sends.append((i, moves))
            if walker.holding:
                holders.append(i)
        self._holders = holders
        self._send(sends, "F", self._forward_bits)

    def _last_arrivals(self, t: int, stepped: List[int], mail) -> None:
        """Round T+1: each due rank takes the tokens that moved in round
        T, and the leader, in its turn, runs the responder."""
        for i in stepped:
            ctx = self.contexts[i]
            ctx.round_number = t
            walker = self.walkers[i]
            walker._forward_step(ctx, mail.get(i), t)
            if i == self.leader:
                walker._prepare_responses()
                self._file(i, walker, walker.responding, t, {})

    def _reverse(self, t: int, stepped: List[int], mail, sending) -> None:
        """Reverse round ``t``: take last round's responses, then send
        each due one back along the hop it undoes, as
        ``WalkExchange._reverse_round`` does (``sending`` holds the
        ones filed for round ``t``).  Unlike the forward step, the
        take and the undo are kept inline here: they draw nothing, and
        a walker call per stepped rank made these rounds slower (see
        ``docs/kernels.md``)."""
        contexts = self.contexts
        walkers = self.walkers
        verts = self.verts
        forward_round = 2 * self.steps + 2 - t
        sends = []
        for i in stepped:
            contexts[i].round_number = t
            walker = walkers[i]
            responding = walker.responding
            box = mail.get(i)
            if box is not None:
                v = verts[i]
                received = walker.received_responses
                taken = []
                for _sender, key, payload in box:
                    if v == key[0]:
                        received[key] = payload
                    else:
                        responding[key] = payload
                        taken.append(key)
                if taken:
                    self._file(i, walker, taken, t, sending)
            keys = sending.get(i)
            if keys:
                log = walker.arrival_log
                moves = []
                for key in keys:
                    moves.append(
                        (log[key][forward_round], key, responding.pop(key))
                    )
                sends.append((i, moves))
        self._send(sends, "R", self._response_bits)

    def _file(self, i: int, walker, keys, t: int, sending) -> None:
        """File each response in ``keys``, just taken by rank ``i`` in
        round ``t``, under the round that sends it on, as the walker's
        ``next_wakeup`` would name it (``sending`` holds round ``t``'s
        own sends).  A response left out is never sent on: its origin
        detects the loss."""
        due = self._due
        for key, wake in walker._send_rounds(keys, t):
            if wake == t:
                sending.setdefault(i, []).append(key)
            else:
                due.setdefault(wake, {}).setdefault(i, []).append(key)

    # -- the charge ----------------------------------------------------
    def _send(self, sends, tag: str, token_bits: Dict[TokenKey, int]) -> None:
        """Charge the round's sends, ``[(rank, [(target, key, payload),
        ...])]`` in drain order, as ``_collect`` would, and hold them
        for their receivers.  A token's size never changes: it is
        measured at the token's first hop under ``tag``, which is where
        an oversized one fails."""
        verts = self.verts
        index = self.index
        n = self.n
        budget_bits = self.budget_bits
        token_bits_get = token_bits.get
        out: Dict[int, list] = {}
        out_get = out.get
        per_edge: Dict[int, int] = {}
        per_edge_get = per_edge.get
        sizes: Dict[int, int] = {}
        sizes_get = sizes.get
        error = None
        for i, moves in sends:
            v = verts[i]
            base = i * n
            for u, key, payload in moves:
                j = index[u]
                edge = base + j
                per_edge[edge] = per_edge_get(edge, 0) + 1
                size = token_bits_get(key)
                if size is None:
                    size = token_bits[key] = message_bits(
                        (tag, key[0], key[1], payload)
                    )
                    if size > budget_bits and error is None:
                        error = MessageTooLargeError(
                            size, budget_bits, detail=f"from {v!r} to {u!r}"
                        )
                sizes[size] = sizes_get(size, 0) + 1
                box = out_get(j)
                if box is None:
                    out[j] = [(v, key, payload)]
                else:
                    box.append((v, key, payload))
        self._mail = out
        if per_edge:
            self._charge = (per_edge, sizes, error)
            self.engine._send_plan = self


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
    return ExchangeResult.collect(
        cluster, leader, requests, result, forward_steps
    )
