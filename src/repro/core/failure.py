"""Failure semantics of the framework (Section 2.3).

Theorem 2.6 may be run on graphs that are *not* H-minor-free (the
property tester does exactly that), and its randomized pieces may fail
with probability 1/poly(n).  The paper specifies how every failure mode
is *detected*:

* clusters whose diameter exceeds the O(phi^-1 log n) bound of a
  successful execution are detected by the marking protocol and reset
  to singletons (:func:`singletonize_failed_clusters`);
* the Lemma 2.3 degree condition deg(v*) = Omega(phi^2)|E_i| is
  checkable in O(phi^-1 log n) rounds — its failure certifies that the
  network is not H-minor-free (:func:`degree_condition_holds`);
* lost routing messages are detected by reversing the route, which the
  walk-exchange primitive performs natively.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Set

from ..graph import Graph

#: Explicit constant in the Lemma 2.3 condition deg(v*) >= c * phi^2 * |E_i|.
#: Lemma 2.3 only guarantees some constant depending on H; 1/4 is the
#: value that holds with margin across every minor-free family in the
#: benchmark suite while rejecting genuine expanders (hypercubes,
#: random regular graphs), as experiment E2 verifies.
DEGREE_CONDITION_CONSTANT = 0.25


def diameter_bound(phi: float, n: int, constant: float = 4.0) -> int:
    """The O(phi^-1 log n) diameter bound of a phi-expander cluster."""
    if phi <= 0:
        return n
    return max(1, math.ceil(constant * math.log2(n + 2) / phi))


def diameter_within(cluster: Graph, bound: int) -> bool:
    """Does every component of the cluster have diameter <= bound?

    Centralized fast path for the paper's distributed marking protocol,
    which is implemented faithfully (message-by-message) in
    :mod:`repro.routing.diameter_check`; the framework uses this exact
    predicate for speed, and the tests pin the two against each other.
    """
    for comp in cluster.connected_components():
        if cluster.subgraph(comp).diameter() > bound:
            return False
    return True


def degree_condition_holds(
    cluster: Graph,
    phi: float,
    constant: float = DEGREE_CONDITION_CONSTANT,
) -> bool:
    """Check Lemma 2.3's condition: max degree >= constant * phi^2 * |E_i|.

    On an H-minor-free graph this holds for every cluster of an
    (epsilon, phi) expander decomposition (the edge-separator argument
    of Theorem 1.6); its violation is a *certificate* that the network
    is not H-minor-free, which the property tester turns into a Reject.
    """
    if cluster.n <= 1:
        return True
    return cluster.max_degree() >= constant * phi * phi * cluster.m


def singletonize_failed_clusters(
    clusters: List[Set],
    failed: Iterable[int],
) -> List[Set]:
    """Reset every failed cluster to singletons (Section 2.3 recovery).

    A vertex that detects that its cluster's execution failed "resets
    its cluster to {v}"; the returned clustering replaces each failed
    cluster by one singleton per vertex, keeping the others untouched.
    """
    failed_set = set(failed)
    result: List[Set] = []
    for i, cluster in enumerate(clusters):
        if i in failed_set:
            result.extend({v} for v in sorted(cluster, key=repr))
        else:
            result.append(set(cluster))
    return result
