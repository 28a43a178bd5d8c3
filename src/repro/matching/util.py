"""Shared matching helpers and validators."""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from ..graph import Graph

Matching = Set[Tuple]


def is_matching(graph: Graph, edges: Iterable[Tuple]) -> bool:
    """Are ``edges`` a valid matching of ``graph``?

    Every edge must exist in the graph and no two edges may share an
    endpoint.
    """
    seen: Set = set()
    for u, v in edges:
        if not graph.has_edge(u, v):
            return False
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def matching_weight(graph: Graph, edges: Iterable[Tuple]) -> float:
    """Total weight of a matching; raises if an edge is missing."""
    total = 0.0
    for u, v in edges:
        total += graph.weight(u, v)
    return total
