"""Vertex-algorithm API for the CONGEST simulator.

A distributed algorithm is written once per *vertex*: subclass
:class:`VertexAlgorithm`, read the inbox, call :meth:`VertexContext.send`
on the context, and eventually :meth:`VertexContext.halt` with an
output.  The simulator instantiates one algorithm object per vertex and
drives them in synchronized rounds.
"""

from __future__ import annotations

import os
import random
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ProtocolError


class VertexContext:
    """Per-vertex view of the network, handed to the algorithm each round.

    The context exposes exactly what a CONGEST processor knows: its own
    ID, its incident edges (neighbor IDs and weights), the global
    parameter ``n`` (standard in CONGEST), the current round number, and
    a private random generator.  It deliberately exposes nothing else —
    algorithms that need more must communicate for it.
    """

    def __init__(
        self,
        vertex: Any,
        neighbors: Sequence[Any],
        edge_weights: Dict[Any, float],
        n: int,
        rng: Optional[random.Random] = None,
        rng_seed: Optional[int] = None,
    ) -> None:
        self.vertex = vertex
        self.neighbors = tuple(neighbors)
        self.edge_weights = (
            edge_weights if type(edge_weights) is dict else dict(edge_weights)
        )
        self.n = n
        self._rng = rng
        self._rng_seed = rng_seed
        self.round_number = 0
        self._outbox: List = []
        self._halted = False
        self._output: Any = None

    @property
    def rng(self) -> random.Random:
        """This vertex's private generator, constructed on first use.

        Lazy construction matters: a simulation seeds one independent
        stream per vertex, but most algorithms never draw from most of
        them, and ``random.Random()`` instantiation is measurable at
        fleet scale.  The stream is fixed by the seed assigned at
        simulator construction, so laziness cannot change any outcome.
        """
        r = self._rng
        if r is None:
            r = self._rng = random.Random(self._rng_seed)
        return r

    # -- communication -------------------------------------------------
    def send(self, neighbor: Any, payload: Any) -> None:
        """Queue ``payload`` for delivery to ``neighbor`` next round."""
        if self._halted:
            raise ProtocolError(f"vertex {self.vertex!r} sent after halting")
        if neighbor not in self.edge_weights:
            raise ProtocolError(
                f"vertex {self.vertex!r} tried to send to non-neighbor "
                f"{neighbor!r}"
            )
        self._outbox.append((neighbor, payload))

    def broadcast(self, payload: Any) -> None:
        """Send the same payload to every neighbor."""
        for neighbor in self.neighbors:
            self.send(neighbor, payload)

    # -- termination ----------------------------------------------------
    def halt(self, output: Any = None) -> None:
        """Stop participating and record this vertex's final output."""
        self._halted = True
        self._output = output

    @property
    def halted(self) -> bool:
        return self._halted

    @property
    def output(self) -> Any:
        return self._output

    def degree(self) -> int:
        return len(self.neighbors)

    # -- simulator internals ---------------------------------------------
    def _drain_outbox(self) -> List:
        out, self._outbox = self._outbox, []
        return out


class VertexAlgorithm:
    """Base class for CONGEST vertex programs.

    Subclasses override :meth:`initialize` (run once, before round 1;
    may already send) and :meth:`step` (run every round with the
    messages received in the previous round).  Vertices halt
    individually; the simulation ends when every vertex has halted or
    the round limit is hit.
    """

    def initialize(self, ctx: VertexContext) -> None:
        """One-time setup; may send round-0 messages."""

    def step(self, ctx: VertexContext, inbox: Dict[Any, List[Any]]) -> None:
        """Process one synchronous round.

        ``inbox`` maps each neighbor to the list of payloads it sent
        last round (absent neighbors sent nothing).
        """
        raise NotImplementedError

    # -- scheduling hints (optional) -----------------------------------
    def is_idle(self, ctx: VertexContext) -> bool:
        """May the simulator skip this vertex until something happens?

        Consulted after each step.  Returning True promises that the
        vertex has nothing to send until either a message arrives or
        the round returned by :meth:`next_wakeup`.  The default (False)
        keeps the textbook behavior of stepping every round.  This is a
        pure simulation-efficiency hint: round counters advance exactly
        as if the vertex had been stepped and done nothing.
        """
        return False

    def next_wakeup(self, ctx: VertexContext) -> Optional[int]:
        """Earliest future round at which an idle vertex must step.

        Only consulted when :meth:`is_idle` returned True.  ``None``
        means the vertex only needs to wake on message arrival.
        """
        return None


# ---------------------------------------------------------------------------
# Columnar round-kernel registry
# ---------------------------------------------------------------------------
#
# An algorithm class *declares a vectorizable step* by registering a
# :class:`~repro.congest.kernels.KernelBase` subclass against itself.
# The fast engine then batches that algorithm's per-round work into
# NumPy columns (one entry per vertex) whenever the run qualifies — see
# :func:`repro.congest.kernels.maybe_build_kernel` for the activation
# rules — and falls back to the ordinary scalar ``step`` loop
# otherwise.  A kernel steps every live vertex every round, so only an
# algorithm that keeps the default scheduling hints may register one.
# Kernels are a pure performance feature: outputs, metrics, traces, and
# per-vertex RNG streams are bit-identical either way
# (``tests/test_kernels.py`` is the differential gate).

#: Minimum vertex count at which a registered kernel engages; below it
#: the columnar setup costs more than it saves.  A pure performance
#: knob (``tests/test_kernels.py`` monkeypatches it to 1 to vectorize
#: tiny graphs).  The ``REPRO_KERNEL_THRESHOLD`` environment variable
#: overrides it, e.g. for CI smoke runs through spawned workers.
KERNEL_THRESHOLD = 64

#: Algorithm class -> KernelBase subclass.
_KERNEL_REGISTRY: Dict[type, type] = {}

_kernels_enabled = os.environ.get("REPRO_NO_KERNELS", "").lower() not in (
    "1",
    "true",
    "yes",
)


def register_kernel(algorithm_cls: type):
    """Class decorator registering a kernel class for ``algorithm_cls``
    — the declaration that the algorithm's step is vectorizable.

    Raises ``TypeError`` if ``algorithm_cls`` overrides
    :meth:`VertexAlgorithm.is_idle`: kernel runs take dense rounds, in
    which no vertex may sit a round out.
    """
    if algorithm_cls.is_idle is not VertexAlgorithm.is_idle:
        raise TypeError(
            f"{algorithm_cls.__qualname__} overrides is_idle; a kernel "
            "steps every live vertex every round"
        )

    def decorate(kernel_cls: type) -> type:
        kernel_cls.algorithm_cls = algorithm_cls
        _KERNEL_REGISTRY[algorithm_cls] = kernel_cls
        return kernel_cls

    return decorate


def kernel_class_for(algorithm_cls: type) -> Optional[type]:
    """The registered kernel for ``algorithm_cls``, or ``None``."""
    return _KERNEL_REGISTRY.get(algorithm_cls)


def kernels_enabled() -> bool:
    """Whether columnar kernels may engage in this process."""
    return _kernels_enabled


def set_kernels_enabled(flag: bool) -> None:
    """Enable or disable kernels in this process.

    The operator's switch is the ``REPRO_NO_KERNELS`` environment
    variable, read at import, which spawned workers inherit like any
    other; this setter does not touch the environment.
    """
    global _kernels_enabled
    _kernels_enabled = bool(flag)


def kernel_threshold() -> int:
    """The active engagement threshold (env override, else the global)."""
    env = os.environ.get("REPRO_KERNEL_THRESHOLD")
    if env:
        try:
            return int(env)
        except ValueError:
            pass
    return KERNEL_THRESHOLD
