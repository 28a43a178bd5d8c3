"""The Pivot baseline and the disagreement-minimization objective.

Section 1.1 of the paper notes the two equivalent-for-exact-solutions
views of correlation clustering: agreement maximization (what the
framework approximates) and disagreement minimization (APX-hard on
complete graphs, with classic O(1)-approximations like Ailon-Charikar-
Newman's Pivot).  This module supplies the disagreement score and a
Pivot implementation so the experiments can report both objectives on
the same clusterings.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..graph import Graph, edge_key
from ..generators.weights import SignMap
from ..rng import SeedLike, ensure_rng
from .scoring import agreement_score


def disagreement_score(graph: Graph, signs: SignMap, labels: Dict) -> int:
    """Number of disagreements: |E| minus the agreement score."""
    return graph.m - agreement_score(graph, signs, labels)


def pivot_clustering(
    graph: Graph, signs: SignMap, seed: SeedLike = None
) -> Tuple[Dict, int]:
    """Ailon-Charikar-Newman Pivot, adapted to general (signed) graphs.

    Repeatedly pick a random unclustered pivot and cluster it with its
    unclustered *positive* neighbors.  A 3-approximation for
    disagreement minimization on complete graphs; on the sparse graphs
    of this repository it is a baseline only (returned score is the
    *agreement* objective, for comparability with Theorem 1.3).
    """
    rng = ensure_rng(seed)
    unclustered = set(graph.vertices())
    labels: Dict = {}
    next_label = 0
    order = graph.vertices()
    rng.shuffle(order)
    for pivot in order:
        if pivot not in unclustered:
            continue
        members = {pivot}
        for u in graph.neighbors(pivot):
            if u in unclustered and signs.get(edge_key(pivot, u), -1) > 0:
                members.add(u)
        for v in members:
            labels[v] = next_label
            unclustered.discard(v)
        next_label += 1
    return labels, agreement_score(graph, signs, labels)
