"""Topology gathering: let the leader learn G[V_i] (Theorem 2.6).

Pipeline, exactly as in Section 2.2:

1. elect the maximum-degree vertex v* (:mod:`repro.routing.leader`);
2. orient the cluster's edges with O(1) out-degree
   (:mod:`repro.routing.orientation`), so each vertex only has to
   announce its outgoing edges;
3. route every vertex's announcements to v* with the random-walk
   exchange (:mod:`repro.routing.walk_exchange`), whose reverse phase
   simultaneously delivers v*'s per-vertex answers — the
   "exchange a distinct O(log n)-bit message with each vertex" claim.

The leader-side computation is a caller-supplied ``solver`` — "any
sequential algorithm", per the paper.  The result reports the gathered
topology, the per-vertex answers, and the Section 2.3 failure verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..congest import CongestMetrics
from ..errors import GraphError
from ..graph import Graph
from ..rng import SeedLike, ensure_rng
from .leader import elect_leader
from .orientation import orient_low_out_degree
from .walk_exchange import ExchangeResult, walk_exchange
from .tree import tree_exchange

#: A solver consumes (gathered subgraph, leader vertex, per-vertex
#: notes) and returns a small payload per vertex — each must fit in one
#: CONGEST message.  The notes dict carries whatever each vertex
#: attached to its HELLO token (its local input: weight class, current
#: matching state, edge signs, ...).
ClusterSolver = Callable[[Graph, Any, Dict[Any, Any]], Dict[Any, Any]]

#: Per-vertex annotation callback: a small payload (one message worth)
#: of the vertex's local input, shipped to the leader with its HELLO.
Annotator = Callable[[Any], Any]


@dataclass
class GatherResult:
    """Outcome of gathering one cluster and solving at its leader."""

    leader: Any
    gathered: Optional[Graph]
    answers: Dict[Any, Any]
    success: bool
    failure_reason: Optional[str]
    metrics: CongestMetrics
    exchange: Optional[ExchangeResult] = None

    def topology_complete(self, cluster: Graph) -> bool:
        """Did the leader learn G[V_i] exactly?"""
        if self.gathered is None:
            return False
        return (
            set(self.gathered.vertices()) == set(cluster.vertices())
            and {frozenset(e) for e in self.gathered.edges()}
            == {frozenset(e) for e in cluster.edges()}
        )


def _calibrated_walk_steps(
    cluster: Graph, phi: float, leader: Optional[Any] = None, tokens: int = 0
) -> int:
    """Forward walk length from the cluster's *measured* mixing bound.

    Lemma 2.4's analytic O(phi^-4 log^2 n) length is sized for the
    worst phi-expander; the framework knows the actual cluster, so it
    sizes the walk as (mixing time) + (hitting time of the leader) x
    log(number of tokens): after mixing, each token sits at the leader
    with probability deg(v*)/2|E| per step, so the log factor drives
    the survival probability of the *last* token to 1/poly.  The
    spectral mixing bound instantiates Section 2's
    tau_mix <= O(log|V| / Phi^2).  Experiment E3 validates the
    delivery rate of this calibration.
    """
    from ..spectral.random_walk import mixing_time_bound
    from .walk_exchange import MAX_WALK_STEPS, default_walk_steps

    if cluster.n <= 2:
        return 8
    bound = mixing_time_bound(cluster)
    if not math.isfinite(bound):
        return default_walk_steps(cluster.n, phi)
    leader_degree = (
        cluster.degree(leader) if leader is not None else cluster.max_degree()
    )
    # Lazy-walk hitting rate of the leader from stationarity.
    hitting = 4.0 * cluster.m / max(1, leader_degree)
    tail = math.log(max(2, tokens) + 2)
    steps = math.ceil(2.0 * bound + 4.0 * hitting * tail) + 32
    return max(16, min(MAX_WALK_STEPS, steps))


def _encode_weight(weight: float) -> Any:
    """Integer-encode integral weights (the paper's MWM assumption)."""
    if float(weight).is_integer():
        return int(weight)
    return float(weight)


def gather_topology(
    cluster: Graph,
    phi: float,
    density_bound: float = 4.0,
    solver: Optional[ClusterSolver] = None,
    leader: Optional[Any] = None,
    seed: SeedLike = None,
    network_n: Optional[int] = None,
    transport: str = "walk",
    forward_steps: Optional[int] = None,
    annotate: Optional[Annotator] = None,
) -> GatherResult:
    """Gather G[V_i] to its leader and run ``solver`` there.

    ``phi`` is the cluster's (certified) conductance, which sizes the
    walk length.  ``network_n`` is the size of the *whole* network and
    sets the O(log n) message budget (defaults to the cluster size).
    ``transport`` selects "walk" (Lemma 2.4, the paper's mechanism) or
    "tree" (BFS-tree convergecast baseline for experiment E3).
    """
    if cluster.n == 0:
        raise GraphError("cannot gather an empty cluster")
    if transport not in ("walk", "tree"):
        raise GraphError(f"unknown transport {transport!r}")
    rng = ensure_rng(seed)
    metrics = CongestMetrics()

    if cluster.n == 1:
        only = cluster.vertices()[0]
        notes = {only: annotate(only)} if annotate else {}
        answers = solver(cluster, only, notes) if solver else {only: None}
        return GatherResult(
            leader=only,
            gathered=cluster.copy(),
            answers=answers,
            success=True,
            failure_reason=None,
            metrics=metrics,
        )

    # Step 1: leader election over the cluster.
    if leader is None:
        leader, election = elect_leader(cluster, seed=rng.getrandbits(64))
        metrics = metrics.merge(election.metrics)

    # Step 2: low-out-degree orientation.
    orientation, orient_result = orient_low_out_degree(
        cluster, density_bound, seed=rng.getrandbits(64)
    )
    metrics = metrics.merge(orient_result.metrics)

    # Step 3: each vertex announces itself plus its outgoing edges.
    requests: Dict[Any, List[Any]] = {}
    for v in cluster.vertices():
        payloads: List[Any] = [("H", annotate(v) if annotate else None)]
        for u in orientation[v]:
            payloads.append(("E", u, _encode_weight(cluster.weight(v, u))))
        requests[v] = payloads

    if forward_steps is None and transport == "walk":
        total_tokens = sum(len(p) for p in requests.values())
        forward_steps = _calibrated_walk_steps(
            cluster, phi, leader=leader, tokens=total_tokens
        )

    gathered_box: List[Optional[Graph]] = [None]
    answers_box: Dict[Any, Any] = {}

    def responder(absorbed):
        g = Graph()
        notes: Dict[Any, Any] = {}
        for (origin, _seq), payload in absorbed.items():
            if payload[0] == "H":
                g.add_vertex(origin)
                notes[origin] = payload[1]
            elif payload[0] == "E":
                _tag, other, weight = payload
                g.add_vertex(origin)
                g.add_vertex(other)
                g.add_edge(origin, other, float(weight))
        gathered_box[0] = g
        if solver is not None:
            answers_box.update(solver(g, leader, notes))
        responses = {}
        for key, payload in absorbed.items():
            origin = key[0]
            if payload[0] == "H":
                responses[key] = ("A", answers_box.get(origin))
            else:
                responses[key] = ("A", None)
        return responses

    exchange_fn = walk_exchange if transport == "walk" else tree_exchange
    exchange = exchange_fn(
        cluster,
        leader,
        requests,
        responder=responder,
        phi=phi,
        forward_steps=forward_steps,
        seed=rng.getrandbits(64),
        budget_n=network_n,
    )
    metrics = metrics.merge(exchange.metrics)

    # Per-vertex answers travel back on the HELLO tokens (seq 0).
    answers: Dict[Any, Any] = {}
    for (origin, seq), payload in exchange.responses.items():
        if seq == 0 and payload is not None:
            answers[origin] = payload[1]

    success = exchange.success and len(answers) == cluster.n
    reason = None
    if not exchange.success:
        reason = (
            f"{len(exchange.undelivered)} requests undelivered, "
            f"{len(exchange.unanswered)} responses lost"
        )
    elif len(answers) < cluster.n:
        reason = "some vertices received no answer"
    return GatherResult(
        leader=leader,
        gathered=gathered_box[0],
        answers=answers,
        success=success,
        failure_reason=reason,
        metrics=metrics,
        exchange=exchange,
    )
