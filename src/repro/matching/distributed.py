"""Distributed matching via the framework (Theorems 3.2 and 1.1).

``distributed_mcm_planar`` is Section 3.2 verbatim: eliminate 2-stars
and 3-double-stars (so the optimum is Omega(n) by Lemma 3.1), run the
Theorem 2.6 framework with parameter c * epsilon, solve each cluster
exactly with the blossom algorithm at its leader, and take the union —
losing only the <= epsilon' * n inter-cluster optimum edges.

``distributed_mwm`` operationalizes Theorem 1.1.  The paper's full
algorithm embeds the framework into Duan-Pettie's scaling algorithm;
per the DESIGN.md substitution policy we implement the same
architecture — repeated framework rounds whose leaders re-optimize the
current matching exactly inside their clusters — with randomized
cluster boundaries standing in for the scaling machinery: every
iteration is weight-monotone (the old intra-cluster matching is a
feasible solution of each cluster's subproblem), and boundary
randomization lets edges stuck across clusters be re-optimized in later
rounds.  Experiment E6 measures the resulting approximation ratio
against the exact weighted blossom across weight scales W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..congest import (
    CongestMetrics,
    CongestSimulator,
    SimulationResult,
    VertexAlgorithm,
    VertexContext,
)
from ..congest.algorithm import register_kernel
from ..congest.kernels import KernelBase, seg_count, seg_max
from ..core.framework import FrameworkResult, run_framework
from ..errors import SolverError
from ..graph import Graph, edge_key
from ..rng import SeedLike, ensure_rng
from .blossom import max_cardinality_matching
from .preprocess import eliminate_stars
from .util import Matching, is_matching, matching_weight
from .weighted import max_weight_matching


@dataclass
class DistributedMatchingResult:
    """A matching plus the complete execution record that produced it."""

    matching: Matching
    weight: float
    epsilon: float
    rounds: List[FrameworkResult] = field(default_factory=list)
    removed_vertices: Set = field(default_factory=set)

    @property
    def size(self) -> int:
        return len(self.matching)

    def metrics(self) -> CongestMetrics:
        """Sequential composition of all framework rounds."""
        total = CongestMetrics()
        for result in self.rounds:
            total = total.merge(result.metrics)
        return total


def _matching_from_answers(graph: Graph, answers: Dict[Any, Any]) -> Matching:
    """Reconstruct a matching from per-vertex partner answers.

    Only mutual (reciprocated) claims become edges, so even a corrupted
    answer set can never produce an invalid matching.
    """
    matching: Matching = set()
    for v, partner in answers.items():
        if partner is None:
            continue
        if isinstance(partner, int) and partner < 0:
            continue
        if answers.get(partner) == v and graph.has_edge(v, partner):
            matching.add(edge_key(v, partner))
    return matching


class ProposalMatching(VertexAlgorithm):
    """One vertex of a randomized proposal-based maximal matching.

    Three-round phases.  Propose round (``r % 3 == 1``): retire
    neighbors that announced a match, halt if the budget is exhausted
    or no active neighbor remains, otherwise flip a coin and propose to
    a uniformly random active neighbor.  Accept round: an unmatched
    non-proposer accepts its highest-ID proposer.  Resolve round:
    proposers learn their fate; every newly matched vertex announces
    ``MATCHED`` to all neighbors and halts with its mate.

    Maximality: a vertex only halts unmatched when every neighbor has
    announced, so an edge with both endpoints unmatched can never
    survive.  Each phase matches a constant fraction of the remaining
    matchable vertices in expectation, so O(log n) phases suffice with
    high probability.
    """

    PROPOSE, ACCEPT, MATCHED = 1, 2, 3

    def __init__(self, max_phases: int) -> None:
        self.max_phases = max_phases
        self.matched = False
        self.mate: Optional[Any] = None
        self.announced = False
        self.proposed_to: Optional[Any] = None
        self.active: Optional[Set[Any]] = None

    def initialize(self, ctx: VertexContext) -> None:
        self.active = set(ctx.neighbors)

    def step(self, ctx: VertexContext, inbox: Dict[Any, List[Any]]) -> None:
        r = ctx.round_number
        phase = r % 3
        if phase == 1:
            # Propose round: inbox holds last resolve's announcements.
            for sender, payloads in inbox.items():
                if any(p == self.MATCHED for p in payloads):
                    self.active.discard(sender)
            if r > 3 * self.max_phases:
                ctx.halt(None)
                return
            if not self.active:
                ctx.halt(None)
                return
            if ctx.rng.random() < 0.5:
                target = ctx.rng.choice(sorted(self.active))
                self.proposed_to = target
                ctx.send(target, self.PROPOSE)
        elif phase == 2:
            # Accept round: proposers sit out; others take the best.
            if self.matched or self.proposed_to is not None:
                return
            proposers = [
                sender
                for sender, payloads in inbox.items()
                if any(p == self.PROPOSE for p in payloads)
            ]
            if proposers:
                self.matched = True
                self.mate = max(proposers)
                ctx.send(self.mate, self.ACCEPT)
        else:
            # Resolve round: proposers learn their fate; the newly
            # matched announce and halt.
            if self.proposed_to is not None:
                if any(
                    p == self.ACCEPT
                    for p in inbox.get(self.proposed_to, ())
                ):
                    self.matched = True
                    self.mate = self.proposed_to
                self.proposed_to = None
            if self.matched and not self.announced:
                self.announced = True
                ctx.broadcast(self.MATCHED)
                ctx.halt(self.mate)


@register_kernel(ProposalMatching)
class ProposalMatchingKernel(KernelBase):
    """Columnar twin of :class:`ProposalMatching` (``docs/kernels.md``).

    The active sets live as one boolean mask over the CSR edge array,
    so "propose to the k-th active neighbor" is a cumulative-sum lookup
    and retiring announced neighbors is a masked store.  Proposals and
    acceptances reconstruct from the senders' ``proposed`` and ``mate``
    columns: every live vertex steps every round of a kernel run, so a
    proposal is cleared in the resolve round right after it is made,
    and a proposer that finds ``mate[target]`` pointing at itself was
    accepted in the round before (an earlier acceptance would have
    matched it then).
    """

    @classmethod
    def _supports_population(cls, engine) -> bool:
        first = engine._algorithms[0].max_phases
        return all(a.max_phases == first for a in engine._algorithms)

    def _load_columns(self) -> None:
        np = self.np
        n = self.n
        self.max_phases = self.algorithms[0].max_phases
        self.matched = np.zeros(n, bool)
        self.announced = np.zeros(n, bool)
        self.mate = np.full(n, -1, np.int64)
        self.proposed = np.full(n, -1, np.int64)
        self.sent_ann = np.zeros(n, bool)  # announced in the last round
        self.act_e = np.zeros(self.nbr.shape[0], bool)

    def _write_columns(self) -> None:
        # Every vertex has an active set: a kernel run initializes them
        # all.
        verts = self.verts
        indptr = self.indptr
        nbr = self.nbr
        act_e = self.act_e
        matched = self.matched.tolist()
        announced = self.announced.tolist()
        mate = self.mate.tolist()
        proposed = self.proposed.tolist()
        for i, a in enumerate(self.algorithms):
            a.matched = matched[i]
            a.announced = announced[i]
            a.mate = verts[mate[i]] if mate[i] >= 0 else None
            a.proposed_to = (
                verts[proposed[i]] if proposed[i] >= 0 else None
            )
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            a.active = {
                verts[j]
                for j, flag in zip(
                    nbr[lo:hi].tolist(), act_e[lo:hi].tolist()
                )
                if flag
            }

    def _initialize_rows(self, rows) -> None:
        np = self.np
        sel = np.zeros(self.n, bool)
        sel[rows] = True
        self.act_e[sel[self.edge_dst]] = True

    def _step_rows(self, rows, round_number: int) -> None:
        phase = round_number % 3
        if phase == 1:
            self._propose(rows, round_number)
        elif phase == 2:
            self._accept(rows)
        else:
            self._resolve(rows)

    def _propose(self, rows, r: int) -> None:
        np = self.np
        indptr = self.indptr
        nbr = self.nbr
        # Retire neighbors that announced a match last resolve.
        due_mask = np.zeros(self.n, bool)
        due_mask[rows] = True
        self.act_e[due_mask[self.edge_dst] & self.sent_ann[nbr]] = False
        self.sent_ann[:] = False
        if r > 3 * self.max_phases:
            # Budget exhausted (failure path); stay unmatched.
            for i in rows.tolist():
                self._halt(i, None)
            return
        cnt = seg_count(self.act_e, indptr)
        for i in rows[cnt[rows] == 0].tolist():
            self._halt(i, None)
        alive = rows[cnt[rows] > 0]
        if alive.size == 0:
            return
        # Scalar draws (coin, then the proposers' pick) exactly as the
        # scalar twin orders them: ``rng.random() < 0.5`` then
        # ``rng.choice(sorted(active))``, whose index draw is
        # ``_randbelow(len(active))``.  See "RNG discipline" in
        # docs/kernels.md for why these stay on the scalar generators.
        contexts = self.contexts
        coins = np.array(
            [contexts[i].rng.random() for i in alive.tolist()]
        )
        proposers = alive[coins < 0.5]
        if proposers.size == 0:
            return
        picks = np.array(
            [
                contexts[i].rng._randbelow(c)
                for i, c in zip(
                    proposers.tolist(), cnt[proposers].tolist()
                )
            ],
            dtype=np.int64,
        )
        # The k-th active neighbor, via a cumulative count of act_e.
        pref = np.concatenate(
            (np.zeros(1, np.int64), np.cumsum(self.act_e, dtype=np.int64))
        )
        edge = (
            np.searchsorted(
                pref, pref[indptr[proposers]] + picks + 1, side="left"
            )
            - 1
        )
        targets = nbr[edge]
        self.proposed[proposers] = targets
        self._emit_send(proposers, targets, ProposalMatching.PROPOSE)

    def _accept(self, rows) -> None:
        np = self.np
        eligible = rows[~self.matched[rows] & (self.proposed[rows] < 0)]
        nbr = self.nbr
        prop_e = self.proposed[nbr] == self.edge_dst
        mx = seg_max(np.where(prop_e, nbr, -1), self.indptr, -1)
        acc_rows = eligible[mx[eligible] >= 0]
        if acc_rows.size == 0:
            return
        acc_mate = mx[acc_rows]
        self.matched[acc_rows] = True
        self.mate[acc_rows] = acc_mate
        self._emit_send(acc_rows, acc_mate, ProposalMatching.ACCEPT)

    def _resolve(self, rows) -> None:
        prop_rows = rows[self.proposed[rows] >= 0]
        if prop_rows.size:
            targets = self.proposed[prop_rows]
            won = prop_rows[self.mate[targets] == prop_rows]
            self.matched[won] = True
            self.mate[won] = self.proposed[won]
            self.proposed[prop_rows] = -1
        self.sent_ann[:] = False
        ann = rows[self.matched[rows] & ~self.announced[rows]]
        if ann.size == 0:
            return
        self.announced[ann] = True
        self.sent_ann[ann] = True
        self._emit_broadcast(ann, shared=ProposalMatching.MATCHED)
        verts = self.verts
        for i, m in zip(ann.tolist(), self.mate[ann].tolist()):
            self._halt(i, verts[m])


def matching_max_phases(n: int) -> int:
    """The pinned phase budget for an ``n``-vertex proposal matching run."""
    return 8 * max(1, math.ceil(math.log2(n + 2)))


def matching_protocol(n: int, max_phases: Optional[int] = None):
    """``(vertex factory, round budget)`` of an ``n``-vertex proposal
    matching run: the one definition :func:`distributed_maximal_matching`
    and :func:`repro.resilience.graded_run` build their simulator from."""
    if max_phases is None:
        max_phases = matching_max_phases(n)
    return (lambda v: ProposalMatching(max_phases)), 3 * max_phases + 6


def distributed_maximal_matching(
    graph: Graph,
    seed: SeedLike = None,
    max_phases: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    on_checkpoint=None,
) -> Tuple[Matching, SimulationResult]:
    """Run the proposal protocol on the CONGEST simulator.

    Returns the matching (mutual mate claims only, so even a faulted
    run can never yield an invalid matching) and the simulation record.
    ``checkpoint_every``/``on_checkpoint`` pass straight through to
    :meth:`~repro.congest.network.CongestSimulator.run` for durable
    mid-run snapshots (``repro faults --save-checkpoint``).
    """
    factory, max_rounds = matching_protocol(graph.n, max_phases)
    result = CongestSimulator(graph, factory, seed=seed).run(
        max_rounds=max_rounds,
        checkpoint_every=checkpoint_every,
        on_checkpoint=on_checkpoint,
    )
    return matching_from_outputs(result.outputs), result


def matching_from_outputs(outputs) -> Matching:
    """Mutual mate claims -> matching."""
    matching: Matching = set()
    for v, mate in outputs.items():
        if mate is not None and outputs.get(mate) == v:
            matching.add(edge_key(v, mate))
    return matching


def distributed_mcm_planar(
    graph: Graph,
    epsilon: float,
    linearity_constant: float = 0.25,
    phi: Optional[float] = None,
    seed: SeedLike = None,
) -> Tuple[DistributedMatchingResult, FrameworkResult]:
    """Theorem 3.2: (1 - epsilon)-approximate MCM on a planar network.

    ``linearity_constant`` is the Lemma 3.1 constant c with
    M* >= c * |V| after star elimination; the framework runs with
    epsilon' = c * epsilon so that the lost inter-cluster edges are at
    most epsilon * M*.
    """
    if not 0.0 < epsilon < 1.0:
        raise SolverError("epsilon must lie in (0, 1)")
    rng = ensure_rng(seed)
    reduced, removed = eliminate_stars(graph)
    if reduced.n == 0:
        return (
            DistributedMatchingResult(
                matching=set(), weight=0.0, epsilon=epsilon,
                removed_vertices=removed,
            ),
            None,
        )

    def solver(sub: Graph, leader: Any, notes: Dict) -> Dict[Any, Any]:
        local = max_cardinality_matching(sub)
        partner: Dict[Any, Any] = {v: None for v in sub.vertices()}
        for u, v in local:
            partner[u] = v
            partner[v] = u
        return partner

    framework = run_framework(
        reduced,
        linearity_constant * epsilon,
        solver=solver,
        phi=phi,
        seed=rng.getrandbits(64),
    )
    matching = _matching_from_answers(reduced, framework.answers)
    result = DistributedMatchingResult(
        matching=matching,
        weight=matching_weight(graph, matching),
        epsilon=epsilon,
        rounds=[framework],
        removed_vertices=removed,
    )
    return result, framework


def distributed_mwm(
    graph: Graph,
    epsilon: float,
    iterations: Optional[int] = None,
    phi: Optional[float] = None,
    seed: SeedLike = None,
    cut_slack: float = 1.5,
    enforce_budget: bool = True,
) -> DistributedMatchingResult:
    """Theorem 1.1: (1 - epsilon)-approximate MWM on H-minor-free networks.

    Iterated framework rounds: each round re-partitions the network
    with randomized cluster boundaries, ships the current matching
    state to cluster leaders (each vertex annotates its HELLO with its
    current mate), and each leader replaces its cluster's intra-cluster
    matching with an *exact* maximum weight matching of the cluster
    minus the vertices matched across the boundary.  The weight is
    non-decreasing in every round.
    """
    if not 0.0 < epsilon < 1.0:
        raise SolverError("epsilon must lie in (0, 1)")
    rng = ensure_rng(seed)
    if iterations is None:
        iterations = max(3, math.ceil(2.0 / epsilon))

    # Vertex IDs must be message-encodable; the annotation is the
    # current mate (or -1).  Integer vertex labels are required here.
    for v in graph.vertices():
        if not isinstance(v, int):
            raise SolverError(
                "distributed_mwm requires integer vertex labels"
            )

    mate: Dict[int, int] = {}
    rounds: List[FrameworkResult] = []
    for _iteration in range(iterations):
        cluster_epsilon = epsilon / 2.0

        def annotate(v: int) -> int:
            return mate.get(v, -1)

        def solver(sub: Graph, leader: Any, notes: Dict) -> Dict[Any, Any]:
            members = set(sub.vertices())
            blocked = {
                v
                for v in members
                if notes.get(v, -1) is not None
                and notes.get(v, -1) != -1
                and notes[v] not in members
            }
            free_sub = sub.subgraph(members - blocked)
            local = max_weight_matching(free_sub)
            partner: Dict[Any, Any] = {v: -1 for v in members}
            for v in blocked:
                partner[v] = -2  # keep the existing cross-cluster edge
            for u, v in local:
                partner[u] = v
                partner[v] = u
            return partner

        framework = run_framework(
            graph,
            cluster_epsilon,
            solver=solver,
            phi=phi,
            seed=rng.getrandbits(64),
            annotate=annotate,
            cut_slack=cut_slack,
            enforce_budget=enforce_budget,
        )
        rounds.append(framework)

        # Fold the answers into the global matching.
        new_mate: Dict[int, int] = {}
        for v, answer in framework.answers.items():
            if answer == -2:
                # Keep the cross-cluster edge (both endpoints say so).
                partner = mate.get(v)
                if partner is not None:
                    new_mate[v] = partner
            elif isinstance(answer, int) and answer >= 0:
                new_mate[v] = answer
        # Keep only mutual claims.
        mate = {
            v: u
            for v, u in new_mate.items()
            if new_mate.get(u) == v and graph.has_edge(v, u)
        }

    matching = {edge_key(v, u) for v, u in mate.items()}
    if not is_matching(graph, matching):
        raise SolverError("distributed MWM produced an invalid matching")
    return DistributedMatchingResult(
        matching=matching,
        weight=matching_weight(graph, matching),
        epsilon=epsilon,
        rounds=rounds,
    )


def distributed_mcm_minor_free(
    graph: Graph,
    epsilon: float,
    iterations: Optional[int] = None,
    phi: Optional[float] = None,
    seed: SeedLike = None,
) -> DistributedMatchingResult:
    """(1 - epsilon)-approximate MCM on arbitrary H-minor-free networks.

    Section 3.2 proves the planar case; the paper generalizes via the
    weighted machinery (the planar preprocessing of [27] does not apply
    beyond planar graphs).  We follow the same route: run the
    Theorem 1.1 algorithm with unit weights — cardinality is weight.
    """
    unit = Graph()
    for v in graph.vertices():
        unit.add_vertex(v)
    for u, v in graph.edges():
        unit.add_edge(u, v, 1.0)
    return distributed_mwm(
        unit, epsilon, iterations=iterations, phi=phi, seed=seed
    )
