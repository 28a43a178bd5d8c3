"""Sequential (1 - epsilon) MWM by bounded augmentations.

The folklore local-search theorem behind short-augmentation matching
algorithms (and behind the structure of Duan-Pettie's scaling
algorithm, which the paper embeds its framework into): if a matching M
admits no improving *augmentation of size at most k* — a connected
subgraph of M xor M* with at most k M*-edges — then
w(M) >= (1 - 1/(k+1)) w(M*), because the symmetric difference with an
optimum decomposes into alternating paths/cycles, and chopping each
into pieces with at most k OPT-edges loses at most a 1/(k+1) fraction.

The implementation searches alternating paths of bounded length by
depth-first enumeration from each vertex; with k = ceil(1/epsilon) it
yields a sequential (1 - epsilon)-approximation whose runtime is
exponential only in 1/epsilon, mirroring the round/locality structure
of the distributed algorithms it anchors.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from ..errors import SolverError
from ..graph import Graph, edge_key
from .util import Matching


def _best_alternating_gain(
    graph: Graph,
    mate: Dict,
    start,
    max_unmatched: int,
) -> Tuple[float, List[Tuple]]:
    """Best augmentation starting at ``start`` with <= max_unmatched new edges.

    Explores alternating walks start -(new)-> u -(matched)-> ... where
    the first and every odd edge is a candidate new edge and every even
    edge is the forced matched edge of its endpoint.  Returns the gain
    and the list of (add, remove) toggles of the best augmentation
    found (empty when none improves).
    """
    best_gain = 1e-12
    best_toggle: List[Tuple] = []

    def dfs(v, used: Set, gain: float, toggles: List[Tuple], budget: int):
        nonlocal best_gain, best_toggle
        for u in graph.neighbors(v):
            if u in used:
                continue
            e = edge_key(v, u)
            if mate.get(v) == u:
                continue
            add_gain = gain + graph.weight(v, u)
            new_toggles = toggles + [("add", e)]
            partner = mate.get(u)
            if partner is None:
                # Augmentation ends at a free vertex.
                if add_gain > best_gain:
                    best_gain = add_gain
                    best_toggle = list(new_toggles)
                continue
            # u is matched: the walk must continue through its mate.
            drop_gain = add_gain - graph.weight(u, partner)
            dropped = new_toggles + [("remove", edge_key(u, partner))]
            if drop_gain > best_gain:
                # Rotation/substitution improvement (path ends here,
                # leaving `partner` temporarily free).
                best_gain = drop_gain
                best_toggle = list(dropped)
            if budget > 1:
                dfs(
                    partner,
                    used | {u, partner},
                    drop_gain,
                    dropped,
                    budget - 1,
                )

    # The walk may also *start* by dropping start's matched edge.
    if start in mate:
        partner = mate[start]
        base_gain = -graph.weight(start, partner)
        dfs(
            partner,
            {start, partner},
            base_gain,
            [("remove", edge_key(start, partner))],
            max_unmatched,
        )
    else:
        dfs(start, {start}, 0.0, [], max_unmatched)
    return best_gain, best_toggle


def local_search_mwm(
    graph: Graph,
    epsilon: float = 0.2,
    max_passes: Optional[int] = None,
) -> Matching:
    """(1 - epsilon)-approximate MWM by bounded local search.

    ``k = ceil(1/epsilon)`` bounds the number of non-matching edges per
    augmentation.  Passes repeat until no vertex admits an improving
    augmentation (or ``max_passes`` is hit — the weight is monotone, so
    early stopping only costs quality, never validity).
    """
    if not 0.0 < epsilon < 1.0:
        raise SolverError("epsilon must lie in (0, 1)")
    k = max(1, math.ceil(1.0 / epsilon))
    mate: Dict = {}

    def apply(toggles: List[Tuple]) -> None:
        for action, (u, v) in toggles:
            if action == "remove":
                mate.pop(u, None)
                mate.pop(v, None)
        for action, (u, v) in toggles:
            if action == "add":
                mate[u] = v
                mate[v] = u

    passes = 0
    improved = True
    while improved:
        passes += 1
        if max_passes is not None and passes > max_passes:
            break
        improved = False
        for v in graph.vertices():
            gain, toggles = _best_alternating_gain(graph, mate, v, k)
            if toggles and gain > 1e-9:
                apply(toggles)
                improved = True
    return {edge_key(u, mate[u]) for u in mate}
