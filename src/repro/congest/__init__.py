"""CONGEST-model simulator.

This package simulates the synchronous message-passing model the paper
works in: vertices host processors, computation proceeds in rounds, and
every message is charged against an ``O(log n)``-bit budget.  The
simulator both *executes* the distributed algorithms of the library and
*accounts* for them (rounds, messages, bits, per-edge congestion), which
is what turns the paper's round-complexity theorems into measurable
experiments.
"""

from .message import MessageBudget, message_bits
from .metrics import CongestMetrics
from .algorithm import VertexAlgorithm, VertexContext
from .faults import (
    CorruptedPayload,
    EdgeWindow,
    FaultInjector,
    FaultPlan,
    PartitionWindow,
    active_fault_plan,
    use_faults,
)
from .trace import RoundTrace, TraceRecorder, TraceSession
from .checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    SimulationCheckpoint,
    graph_fingerprint,
    resume_simulation,
)
from .network import (
    CongestSimulator,
    SimulationResult,
    use_engine,
)

__all__ = [
    "MessageBudget",
    "message_bits",
    "CongestMetrics",
    "VertexAlgorithm",
    "VertexContext",
    "CongestSimulator",
    "SimulationResult",
    "RoundTrace",
    "TraceRecorder",
    "TraceSession",
    "CorruptedPayload",
    "EdgeWindow",
    "FaultInjector",
    "FaultPlan",
    "PartitionWindow",
    "active_fault_plan",
    "use_faults",
    "CHECKPOINT_SCHEMA_VERSION",
    "SimulationCheckpoint",
    "graph_fingerprint",
    "resume_simulation",
    "use_engine",
]
