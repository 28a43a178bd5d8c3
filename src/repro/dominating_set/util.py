"""Dominating-set validators."""

from __future__ import annotations

from typing import Iterable

from ..graph import Graph


def is_dominating_set(graph: Graph, candidate: Iterable) -> bool:
    """Is every vertex in the candidate set or adjacent to one?"""
    chosen = set(candidate)
    if not chosen <= set(graph.vertices()):
        return False
    for v in graph.vertices():
        if v in chosen:
            continue
        if not any(u in chosen for u in graph.neighbors(v)):
            return False
    return True
