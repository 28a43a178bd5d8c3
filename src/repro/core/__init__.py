"""The paper's core contribution: the Theorem 2.6 framework.

Decompose an H-minor-free network into certified expander clusters,
elect a high-degree leader in each (its existence is Lemma 2.3), gather
each cluster's full topology at its leader, run an arbitrary sequential
algorithm there, and deliver a distinct O(log n)-bit answer back to
every vertex — all within the CONGEST message budget.
"""

from .framework import (
    ClusterRun,
    FrameworkResult,
    PartitionResult,
    partition_minor_free,
    run_framework,
)
from .failure import (
    degree_condition_holds,
    diameter_within,
    singletonize_failed_clusters,
)

__all__ = [
    "ClusterRun",
    "FrameworkResult",
    "PartitionResult",
    "partition_minor_free",
    "run_framework",
    "degree_condition_holds",
    "diameter_within",
    "singletonize_failed_clusters",
]
