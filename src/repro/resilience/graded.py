"""One graded run: execute a protocol under a fault plan and judge it.

The E11/E12/E15 suite cells and ``repro faults`` (fresh or resumed
from a checkpoint) all run and grade through :func:`graded_run`, so
the stalled check, the exception-to-``failed`` grade and the
framework's degree solver exist once.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional, Tuple

from ..congest import (
    CongestMetrics,
    CongestSimulator,
    FaultPlan,
    SimulationCheckpoint,
    resume_simulation,
    use_faults,
)
from ..core.framework import run_framework
from ..graph import Graph
from ..independent_set.greedy import luby_mis_protocol, mis_from_outputs
from ..matching.distributed import matching_from_outputs, matching_protocol
from ..rng import SeedLike
from .validators import (
    Verdict,
    validate_framework,
    validate_independent_set,
    validate_matching,
)


def degree_solver(sub, leader, notes):
    """Framework solver: every vertex learns its degree in its cluster."""
    return {v: sub.degree(v) for v in sub.vertices()}


def graded_run(
    algorithm: str,
    graph: Graph,
    plan: Optional[FaultPlan] = None,
    *,
    seed: SeedLike = None,
    epsilon: float = 0.3,
    phi: Optional[float] = None,
    checkpoint_every: Optional[int] = None,
    on_checkpoint=None,
    resume: Optional[SimulationCheckpoint] = None,
) -> Tuple[Optional[CongestMetrics], Verdict]:
    """Run ``algorithm`` on ``graph`` under ``plan``; return
    ``(metrics, verdict)``.

    ``epsilon`` and ``phi`` parameterize ``framework`` only.
    ``checkpoint_every``/``on_checkpoint`` capture checkpoints of a
    ``maxis`` or ``matching`` run; ``resume`` finishes one such run
    from a checkpoint instead, under the checkpoint's own fault plan
    (``plan`` does not apply).  A checkpoint that does not fit
    ``graph`` or ``algorithm`` raises
    :class:`~repro.errors.CheckpointError` before anything runs.

    A run that does not halt within its round budget grades
    ``stalled`` and its partial output is not judged.  A run that
    raises grades ``failed``; ``metrics`` is then None unless the run
    itself finished.
    """
    if algorithm == "maxis":
        factory, max_rounds = luby_mis_protocol(graph.n)
    elif algorithm == "matching":
        factory, max_rounds = matching_protocol(graph.n)
    elif algorithm != "framework":
        raise ValueError(f"unknown algorithm {algorithm!r}")
    elif resume is not None or on_checkpoint is not None:
        raise ValueError("a framework run takes no checkpoints")
    if resume is not None:
        simulator = resume_simulation(graph, factory, resume)
    metrics = None
    try:
        with use_faults(plan) if plan is not None else nullcontext():
            if algorithm == "framework":
                result = run_framework(
                    graph, epsilon, solver=degree_solver, phi=phi, seed=seed
                )
            else:
                if resume is None:
                    simulator = CongestSimulator(graph, factory, seed=seed)
                result = simulator.run(
                    max_rounds=max_rounds,
                    checkpoint_every=checkpoint_every,
                    on_checkpoint=on_checkpoint,
                )
        metrics = result.metrics
        if algorithm == "framework":
            verdict = validate_framework(result)
        elif not result.halted:
            # The adversity (a long partition, sustained churn, heavy
            # delay) kept the protocol from terminating: grade the run
            # stalled rather than judging its partial output.
            verdict = Verdict.stalled(
                f"not halted after {metrics.rounds} rounds"
            )
        elif algorithm == "maxis":
            verdict = validate_independent_set(
                graph, mis_from_outputs(result.outputs)
            )
        else:
            verdict = validate_matching(
                graph, matching_from_outputs(result.outputs)
            )
    except Exception as exc:  # noqa: BLE001 — graded, not propagated
        verdict = Verdict.failed(f"{type(exc).__name__}: {exc}")
    return metrics, verdict
