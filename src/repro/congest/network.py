"""The synchronous CONGEST network simulator (engine facade).

The simulator is *event-driven but round-faithful*: vertices that
declare themselves idle (no messages to send, nothing to do until a
known future round) are skipped, and stretches of rounds in which no
vertex acts and no message is in flight are fast-forwarded — while the
round counters advance exactly as they would in a real synchronous
execution.  This keeps long random-walk phases (tens of thousands of
rounds with a handful of live tokens) affordable without distorting
any reported complexity metric.

Two engines implement these semantics over one shared core
(:class:`repro.congest.channel.EngineCore`: state layout, message
channel, crash recovery, checkpoints, round bookkeeping):

* ``"fast"`` (the default) — :class:`repro.congest.engine.FastEngine`,
  with a wakeup min-heap, active-set message delivery, and columnar
  kernels;
* ``"reference"`` — :class:`repro.congest.reference.ReferenceEngine`,
  a deliberately naive spec that scans every vertex every round.

The two are held equivalent (identical outputs, metrics, traces and
RNG end-states on seeded runs) by the differential harness in
``tests/test_engine_equivalence.py`` and the random-protocol fuzzer in
``tests/test_engine_fuzz.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Optional

from ..errors import CrashedVertexError
from ..graph import Graph
from .algorithm import VertexAlgorithm
from .faults import FaultPlan, active_fault_plan
from .message import MessageBudget
from .metrics import CongestMetrics
from .trace import TraceRecorder, active_session


@dataclass
class SimulationResult:
    """Everything a caller needs from one simulated execution."""

    outputs: Dict[Any, Any]
    metrics: CongestMetrics
    halted: bool
    #: Vertices fail-stopped by an injected fault plan during the run.
    crashed: FrozenSet[Any] = field(default_factory=frozenset)

    def output_of(self, vertex: Any) -> Any:
        """The vertex's output, refusing to read a crashed vertex.

        Crashed vertices report ``None`` in :attr:`outputs`; reading
        one through this accessor raises
        :class:`~repro.errors.CrashedVertexError` so that resilience
        experiments cannot silently treat a dead vertex's ``None`` as
        a legitimate answer.
        """
        if vertex in self.crashed:
            raise CrashedVertexError(
                f"vertex {vertex!r} crashed during the run; "
                "its output is not valid"
            )
        return self.outputs[vertex]


_ENGINES = ("fast", "reference")
_default_engine = "fast"


@contextmanager
def use_engine(name: str):
    """Run a block with a different default engine (``"fast"`` or
    ``"reference"``): the one a ``CongestSimulator`` built without
    ``engine=`` uses.

    The differential test harness uses this to push whole high-level
    pipelines (framework runs, routing phases) through the reference
    engine without threading an argument through every call signature.
    """
    global _default_engine
    if name not in _ENGINES:
        raise ValueError(f"unknown engine {name!r}; expected one of {_ENGINES}")
    previous = _default_engine
    _default_engine = name
    try:
        yield
    finally:
        _default_engine = previous


class CongestSimulator:
    """Drives one :class:`VertexAlgorithm` per vertex in lock step.

    Parameters
    ----------
    graph:
        The network topology.  Vertices are interned into a canonical
        order at construction (numeric for the integer IDs the
        generators produce); the simulator processes vertices in that
        order each round for determinism.
    algorithm_factory:
        Callable producing a fresh :class:`VertexAlgorithm` per vertex.
        It receives the vertex ID so that algorithms can special-case
        designated vertices (e.g. a cluster leader).
    budget:
        Per-message bit budget; defaults to ``MessageBudget(graph.n)``.
        An oversized message raises :class:`MessageTooLargeError`.
        Several messages on one directed edge in one round are allowed
        and charged to ``effective_rounds`` (the round costs as many
        CONGEST rounds as its busiest edge carried messages), so the
        reported complexity stays faithful.
    seed:
        Root seed; each vertex receives an independent derived RNG
        (assigned in canonical vertex order), so runs are reproducible
        regardless of scheduling details — and identical across the two
        engines.
    engine:
        ``"fast"`` or ``"reference"``; ``None`` uses the default,
        ``"fast"`` unless a :func:`use_engine` block says otherwise.
    trace:
        Optional :class:`TraceRecorder` receiving one structured record
        per executed round.  When ``None`` and a
        :class:`~repro.congest.trace.TraceSession` is active, a fresh
        recorder is attached automatically.
    faults:
        Optional :class:`~repro.congest.faults.FaultPlan` describing
        injected message/link/vertex faults.  When ``None`` and a
        :func:`~repro.congest.faults.use_faults` region is active, the
        region's plan applies.  Empty plans compile to nothing, so the
        fault-free hot path is untouched.

    Scheduling contract (see :class:`VertexAlgorithm`): a vertex is
    stepped in every round until it reports ``is_idle() == True`` after
    a step; an idle vertex is re-awakened by an incoming message or at
    the round it returned from ``next_wakeup()``.
    """

    def __init__(
        self,
        graph: Graph,
        algorithm_factory: Callable[[Any], VertexAlgorithm],
        budget: Optional[MessageBudget] = None,
        seed=None,
        engine: Optional[str] = None,
        trace: Optional[TraceRecorder] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        name = engine if engine is not None else _default_engine
        if name not in _ENGINES:
            raise ValueError(
                f"unknown engine {name!r}; expected one of {_ENGINES}"
            )
        if trace is None:
            session = active_session()
            if session is not None:
                trace = session.new_recorder(f"{name}:n={graph.n}")
        if faults is None:
            faults = active_fault_plan()
        injector = faults.compile() if faults is not None else None
        if name == "fast":
            from .engine import FastEngine as engine_cls
        else:
            from .reference import ReferenceEngine as engine_cls
        self._engine = engine_cls(
            graph,
            algorithm_factory,
            budget=budget,
            seed=seed,
            trace=trace,
            faults=injector,
        )

    # -- delegation ------------------------------------------------------
    @property
    def graph(self) -> Graph:
        return self._engine.graph

    @property
    def budget(self) -> MessageBudget:
        return self._engine.budget

    @property
    def metrics(self) -> CongestMetrics:
        return self._engine.metrics

    @property
    def trace(self) -> Optional[TraceRecorder]:
        return self._engine.trace

    @property
    def faults(self):
        """The compiled :class:`FaultInjector`, or ``None`` when fault-free."""
        return self._engine.faults

    @property
    def rounds_executed(self) -> int:
        """Rounds actually executed; always equals ``metrics.rounds``."""
        return self._engine.rounds_executed

    def run(
        self,
        max_rounds: int = 10_000,
        checkpoint_every: Optional[int] = None,
        on_checkpoint: Optional[Callable[..., None]] = None,
    ) -> SimulationResult:
        """Execute until all vertices halt or ``max_rounds`` elapse.

        When ``checkpoint_every`` and ``on_checkpoint`` are both given,
        a :class:`~repro.congest.checkpoint.SimulationCheckpoint` is
        captured after every ``checkpoint_every``-th executed round and
        passed to the callback (which may, e.g., ``save()`` it to disk).
        Resume one later with
        :func:`~repro.congest.checkpoint.resume_simulation`.
        ``checkpoint_every`` below 1 raises ``ValueError`` before any
        round runs.
        """
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be at least 1, got "
                f"{checkpoint_every!r}"
            )
        return self._engine.run(
            max_rounds,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )

    def checkpoint(self):
        """Capture the simulation state at the current round boundary.

        Valid before :meth:`run` (round 0), after it returns, and from
        inside an ``on_checkpoint`` callback.  Returns a
        :class:`~repro.congest.checkpoint.SimulationCheckpoint`.
        """
        return self._engine.capture_checkpoint()
