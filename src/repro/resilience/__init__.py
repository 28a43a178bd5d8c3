"""Resilience layer: post-run result validation.

Companion to :mod:`repro.congest.faults`.  The faults module breaks
the network; the ``validate_*`` functions and :class:`Verdict` here
independently re-check each faulted run's result and grade it
``correct`` / ``degraded(ratio)`` / ``failed`` / ``stalled`` for the
fault-tolerance tables.  Nothing retransmits: as in the paper's
Section 2.3, a lost message is detected, not repaired.
"""

from .validators import (
    CORRECT,
    DEGRADED,
    FAILED,
    STALLED,
    Verdict,
    validate_decomposition,
    validate_framework,
    validate_independent_set,
    validate_matching,
)

__all__ = [
    "Verdict",
    "CORRECT",
    "DEGRADED",
    "FAILED",
    "STALLED",
    "validate_decomposition",
    "validate_framework",
    "validate_independent_set",
    "validate_matching",
]
