"""Random-protocol differential fuzzer: fast engine vs reference engine.

The hand-written families in ``tests/test_engine_equivalence.py`` only
reach the corners their protocols happen to visit.  Here hypothesis
draws the protocol itself: a scripted :class:`VertexAlgorithm` whose
sends, broadcasts, payload shapes, idle / wakeup / halt schedule and
``ctx.rng`` draws all come from a generated :class:`Script`, crossed
with a random :class:`FaultPlan` (message faults, link failures,
churn, partitions, delay, crash + rejoin with local snapshots), a
random budget width, and an optional checkpoint/resume at a random
round on a random pair of engines.

Both engines must agree on outputs, the full per-round metrics, the
detail-mode trace, every vertex's RNG end-state and protocol log, and —
when the protocol breaks the model (oversized payloads) — the
exception type and text.  A mismatch names the first divergence found
by :func:`repro.obs.trace.diff_traces`.

The tier-1 profile is small and derandomized; ``REPRO_TORTURE_TRIALS=k``
multiplies its example count by ``k`` for a deep run.
"""

import json
import os
import pickle
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import (
    CongestSimulator,
    EdgeWindow,
    FaultPlan,
    LinkFailure,
    MessageBudget,
    PartitionWindow,
    SimulationCheckpoint,
    TraceRecorder,
    VertexAlgorithm,
    resume_simulation,
)
from repro.errors import MessageTooLargeError, ProtocolError
from repro.generators import gnp_random_graph
from repro.obs.trace import diff_traces

TIER1_EXAMPLES = 400
MAX_EXAMPLES = TIER1_EXAMPLES * max(
    1, int(os.environ.get("REPRO_TORTURE_TRIALS") or 1)
)

# Send patterns a script step can pick.
SILENT, BROADCAST, UNICAST, RANDOM, BURST, ECHO, FANOUT, COIN = range(8)
#: Weighted menu of send patterns (repeats raise a pattern's odds).
KINDS = (
    SILENT, BROADCAST, BROADCAST, UNICAST, UNICAST, RANDOM, BURST, BURST,
    ECHO, FANOUT, COIN,
)
#: Payload shapes; the last one never fits the budget of a small graph.
N_PAYLOADS = 14
OVERSIZED = N_PAYLOADS - 1


def _payload(which, v, r):
    """Payload shape ``which`` for vertex ``v`` in round ``r``.

    Covers every branch of the engines' message sizing: bare ints
    (zero, negative, large), flat tuples holding each item type,
    nested tuples, lists, str, float, bool and None.
    """
    if which == 0:
        return 0
    if which == 1:
        return -v - r - 1
    if which == 2:
        return (1 << 50) + r
    if which == 3:
        return (v, (r, None, "n"), ((v,),))
    if which == 4:
        return "ab"
    if which == 5:
        return 0.25 * r
    if which == 6:
        return r % 2 == 0
    if which == 7:
        return None
    if which == 8:
        return (v, -r, 1.5, True, None, "x")
    if which == 9:
        return [v, r]
    if which == 10:
        return (r,)
    if which == 11:
        return ()
    if which == 12:
        return ((v,),)
    return 1 << 200


@dataclass(frozen=True)
class Script:
    """One generated protocol, shared by every vertex of a run."""

    #: (pattern, payload shape, burst length) steps, cycled by round
    #: and vertex.
    actions: Tuple[Tuple[int, int, int], ...]
    #: A hinted vertex reports idle after rounds where
    #: ``(round + vertex) % idle_mod == 0``; 0 means never idle.
    idle_mod: int
    #: Wakeup offset an idle vertex asks for; 0 means no wakeup (a
    #: negative offset names a round already past).
    wake_gap: int
    #: Vertex ``v`` halts at round ``halt_round + v % 3``; 0 = never.
    halt_round: int
    #: Vertices with ``v % init_halt_mod == 1`` halt right after their
    #: initial sends; 0 disables.
    init_halt_mod: int
    #: Vertices with ``v % hinted_mod == 0`` override the scheduling
    #: hints; the rest keep the base-class defaults.
    hinted_mod: int
    #: Extra ``ctx.rng`` draw every ``rng_every`` rounds; 0 disables.
    rng_every: int


class ScriptedBusy(VertexAlgorithm):
    """Runs a :class:`Script`; keeps the default scheduling hints."""

    def __init__(self, vertex, script):
        self.vertex = vertex
        self.script = script
        self.steps = 0
        self.digest = 0
        self.seen = None

    def _mix(self, item):
        self.digest = zlib.crc32(repr(item).encode("utf-8"), self.digest)

    def initialize(self, ctx):
        self._act(ctx, 0)
        mod = self.script.init_halt_mod
        if mod and self.vertex % mod == 1:
            ctx.halt(("early", self.digest))

    def step(self, ctx, inbox):
        self.steps += 1
        r = ctx.round_number
        # Iteration order of the inbox is part of what is compared.
        for sender, payloads in inbox.items():
            for payload in payloads:
                self._mix((r, sender, payload))
                self.seen = payload
        script = self.script
        if script.rng_every and r % script.rng_every == 0:
            self._mix(ctx.rng.getrandbits(16))
        if script.halt_round and r >= script.halt_round + self.vertex % 3:
            ctx.halt((self.steps, self.digest))
            return
        self._act(ctx, r)

    def _act(self, ctx, r):
        actions = self.script.actions
        kind, which, burst = actions[(r + 3 * self.vertex) % len(actions)]
        neighbors = ctx.neighbors
        if not neighbors or kind == SILENT:
            return
        v = self.vertex
        payload = _payload(which, v, r)
        if kind == BROADCAST:
            ctx.broadcast(payload)
        elif kind == UNICAST:
            ctx.send(neighbors[r % len(neighbors)], payload)
        elif kind == RANDOM:
            ctx.send(ctx.rng.choice(neighbors), payload)
        elif kind == BURST:
            # Several messages on one edge in one round: congestion,
            # per-edge sequence numbers and the effective-rounds charge.
            for k in range(burst):
                ctx.send(neighbors[0], _payload((which + k) % OVERSIZED, v, r))
        elif kind == ECHO:
            # Forwards whatever arrived last, corrupted payloads included.
            ctx.send(neighbors[-1], self.seen)
        elif kind == FANOUT:
            # Equal values, distinct objects, one per neighbor.
            for u in neighbors:
                ctx.send(u, _payload(which, v, r))
        elif ctx.rng.random() < 0.5:  # COIN
            ctx.broadcast(payload)


class Scripted(ScriptedBusy):
    """Runs a :class:`Script` and overrides the scheduling hints."""

    def is_idle(self, ctx):
        mod = self.script.idle_mod
        return bool(mod) and (ctx.round_number + self.vertex) % mod == 0

    def next_wakeup(self, ctx):
        gap = self.script.wake_gap
        return ctx.round_number + gap if gap else None


def _make_vertex(script, v):
    if v % script.hinted_mod == 0:
        return Scripted(v, script)
    return ScriptedBusy(v, script)


@dataclass(frozen=True)
class Case:
    n: int
    p: float
    graph_seed: int
    script: Script
    plan: FaultPlan
    seed: int
    #: Budget words: floats (66 bits) only fit the wider budget.
    words: int
    max_rounds: int
    #: Capture a checkpoint at this round (0 = no resume check) ...
    resume_at: int
    #: ... on this engine, and resume it on that one.
    capture_engine: str
    resume_engine: str

    def graph(self):
        return gnp_random_graph(self.n, self.p, seed=self.graph_seed)

    def factory(self):
        return partial(_make_vertex, self.script)


_actions = st.tuples(
    st.sampled_from(KINDS),
    # Weighted so an oversized payload is a rare event, not the norm.
    st.integers(0, 4 * N_PAYLOADS).map(
        lambda x: x % OVERSIZED if x < 4 * N_PAYLOADS else OVERSIZED
    ),
    st.integers(1, 3),
)

_scripts = st.builds(
    Script,
    actions=st.lists(_actions, min_size=1, max_size=5).map(tuple),
    idle_mod=st.integers(0, 3),
    wake_gap=st.sampled_from([0, 0, -1, 1, 2, 5]),
    halt_round=st.integers(0, 14),
    init_halt_mod=st.sampled_from([0, 0, 3, 5]),
    hinted_mod=st.integers(1, 3),
    rng_every=st.integers(0, 3),
)


@st.composite
def _plans(draw, graph):
    """A random fault plan over ``graph`` (possibly empty)."""
    edges = sorted(tuple(sorted(e)) for e in graph.edges())
    verts = sorted(graph.vertices())
    kw = {"seed": draw(st.integers(0, 999))}
    if draw(st.booleans()):
        rates = draw(st.lists(
            st.sampled_from([0.0, 0.1, 0.3, 1.0]), min_size=3, max_size=3
        ))
        total = sum(rates)
        if total > 1.0:
            rates = [x / total for x in rates]
        kw["drop"], kw["duplicate"], kw["corrupt"] = rates
    if draw(st.booleans()):
        kw["delay"] = draw(st.sampled_from([0.3, 1.0]))
        kw["max_delay"] = draw(st.integers(1, 3))
    if edges and draw(st.booleans()):
        kw["link_failures"] = tuple(
            LinkFailure(u, v, start, start + length)
            for (u, v), start, length in draw(st.lists(
                st.tuples(
                    st.sampled_from(edges), st.integers(0, 8),
                    st.integers(0, 5),
                ),
                max_size=2,
            ))
        )
    if edges and draw(st.booleans()):
        churned = draw(st.lists(
            st.sampled_from(edges), unique=True, min_size=1, max_size=4
        ))
        arrivals, departures, windows = [], [], []
        for u, v in churned:
            mode = draw(st.integers(0, 3))
            at = draw(st.integers(0, 8))
            if mode in (0, 2):
                arrivals.append((u, v, at))
            if mode in (1, 2):
                departures.append((u, v, at + draw(st.integers(1, 6))))
            if mode == 3:
                end = at + draw(st.integers(0, 4))
                windows.append(EdgeWindow(u, v, at, end))
        kw["edge_arrivals"] = tuple(arrivals)
        kw["edge_departures"] = tuple(departures)
        kw["edge_up_windows"] = tuple(windows)
    if draw(st.booleans()):
        kw["partitions"] = tuple(
            PartitionWindow((tuple(block),), start, start + length)
            for block, start, length in draw(st.lists(
                st.tuples(
                    st.lists(st.sampled_from(verts), unique=True, max_size=4),
                    st.integers(0, 8),
                    st.integers(0, 5),
                ),
                max_size=2,
            ))
        )
    if draw(st.booleans()):
        crashes = draw(st.lists(
            st.tuples(st.sampled_from(verts), st.integers(0, 10)),
            unique_by=lambda c: c[0],
            min_size=1,
            max_size=3,
        ))
        kw["crashes"] = tuple(crashes)
        kw["rejoins"] = tuple(
            (v, at + draw(st.integers(1, 6)))
            for v, at in crashes
            if draw(st.booleans())
        )
        kw["checkpoint_interval"] = draw(st.sampled_from([None, 1, 2, 4]))
    return FaultPlan(**kw)


@st.composite
def _cases(draw):
    n = draw(st.integers(2, 11))
    p = draw(st.sampled_from([0.25, 0.45, 0.7]))
    graph_seed = draw(st.integers(0, 999))
    graph = gnp_random_graph(n, p, seed=graph_seed)
    engines = st.sampled_from(["fast", "reference"])
    return Case(
        n=n,
        p=p,
        graph_seed=graph_seed,
        script=draw(_scripts),
        plan=draw(_plans(graph)),
        seed=draw(st.integers(0, 999)),
        words=draw(st.sampled_from([16, 32, 32])),
        max_rounds=draw(st.integers(3, 24)),
        resume_at=draw(st.sampled_from([0, 0, 1, 2, 3, 5, 8])),
        capture_engine=draw(engines),
        resume_engine=draw(engines),
    )


@dataclass
class Observation:
    """Everything one run exposes that the engines must agree on."""

    outcome: tuple
    metrics: dict
    trace: list
    end_states: list


def _end_states(sim):
    """Per-vertex RNG end-state, halt/output, clock and protocol log.

    Read through a checkpoint: both engines index its state blob by the
    graph's one rank order, so the lists line up whichever engine
    captured it.
    """
    state = pickle.loads(sim.checkpoint().state)
    return [
        (
            ctx.vertex,
            None if ctx._rng is None else ctx._rng.getstate(),
            ctx._halted,
            ctx._output,
            ctx.round_number,
            algorithm.steps,
            algorithm.digest,
        )
        for ctx, algorithm in zip(state["contexts"], state["algorithms"])
    ]


def _observe(sim, recorder, max_rounds, **run_kwargs):
    try:
        result = sim.run(max_rounds=max_rounds, **run_kwargs)
        outcome = ("ok", result.outputs, result.halted, result.crashed)
    except (MessageTooLargeError, ProtocolError) as exc:
        outcome = ("error", type(exc).__name__, str(exc))
    return Observation(
        outcome=outcome,
        metrics=sim.metrics.to_dict(include_per_round=True),
        trace=recorder.to_dicts(),
        end_states=_end_states(sim),
    )


def _simulate(case, engine, **run_kwargs):
    recorder = TraceRecorder(detail=True)
    sim = CongestSimulator(
        case.graph(),
        case.factory(),
        budget=MessageBudget(case.n, case.words),
        seed=case.seed,
        engine=engine,
        trace=recorder,
        faults=case.plan,
    )
    return _observe(sim, recorder, case.max_rounds, **run_kwargs)


def _assert_same(a, b, what):
    divergence = diff_traces(a.trace, b.trace)
    assert divergence is None, (
        f"{what}: traces diverge\n"
        + json.dumps(divergence.to_dict(), sort_keys=True, default=repr)
    )
    assert a.outcome == b.outcome, what
    assert a.metrics == b.metrics, what
    assert a.end_states == b.end_states, what


@settings(
    max_examples=MAX_EXAMPLES,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_cases())
def test_fast_matches_reference_on_random_protocols(case):
    fast = _simulate(case, "fast")
    reference = _simulate(case, "reference")
    _assert_same(fast, reference, f"fast vs reference on {case!r}")
    if not case.resume_at:
        return
    captured = []
    interrupted = _simulate(
        case,
        case.capture_engine,
        checkpoint_every=case.resume_at,
        on_checkpoint=captured.append,
    )
    _assert_same(interrupted, fast, f"capturing run on {case!r}")
    if not captured:
        return  # the run ended before the capture round
    checkpoint = SimulationCheckpoint.from_dict(
        json.loads(json.dumps(captured[0].to_dict()))
    )
    recorder = TraceRecorder(detail=True)
    resumed = resume_simulation(
        case.graph(),
        case.factory(),
        checkpoint,
        engine=case.resume_engine,
        trace=recorder,
    )
    _assert_same(
        _observe(resumed, recorder, case.max_rounds),
        fast,
        f"resume at round {case.resume_at} on {case!r}",
    )
