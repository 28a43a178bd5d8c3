"""Local-search correlation clustering for cluster-sized graphs.

The framework lets leaders run "any sequential algorithm"; since exact
agreement maximization is APX-hard, leaders use this solver: seed the
partition with the connected components of the positive subgraph, then
hill-climb by single-vertex moves (to any adjacent cluster or a fresh
singleton) until no move improves, with a few random restarts.  On the
planted-partition workloads of experiment E7 this recovers the optimum
of small instances (pinned against :func:`exact_correlation` in tests)
and dominates both trivial baselines.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..graph import Graph, edge_key
from ..generators.weights import SignMap
from ..rng import SeedLike, ensure_rng
from .exact import EXACT_CORRELATION_LIMIT, exact_correlation
from .scoring import agreement_score, best_trivial_clustering


def _positive_component_seed(graph: Graph, signs: SignMap) -> Dict:
    """Initial labels: components of the positive subgraph."""
    positive = Graph()
    for v in graph.vertices():
        positive.add_vertex(v)
    for u, v in graph.edges():
        if signs[edge_key(u, v)] > 0:
            positive.add_edge(u, v)
    labels: Dict = {}
    for i, comp in enumerate(positive.connected_components()):
        for v in comp:
            labels[v] = i
    return labels


def _move_gain(graph: Graph, signs: SignMap, labels: Dict, v, target) -> int:
    """Score change from relabeling ``v`` to ``target``."""
    current = labels[v]
    if current == target:
        return 0
    gain = 0
    for u in graph.neighbors(v):
        sign = signs[edge_key(u, v)]
        before_same = labels[u] == current
        after_same = labels[u] == target
        before = 1 if (sign > 0) == before_same else 0
        after = 1 if (sign > 0) == after_same else 0
        gain += after - before
    return gain


def local_search_correlation(
    graph: Graph,
    signs: SignMap,
    seed: SeedLike = None,
    restarts: int = 3,
    max_sweeps: int = 50,
) -> Tuple[Dict, int]:
    """Hill-climbing agreement maximization; returns (labels, score)."""
    rng = ensure_rng(seed)
    fresh_label = graph.n + 1  # labels 0..n used by seeds

    best_labels, best_score = best_trivial_clustering(graph, signs)

    for restart in range(restarts):
        if restart == 0:
            labels = _positive_component_seed(graph, signs)
        elif restart == 1:
            labels = dict(best_labels)
        else:
            labels = {
                v: rng.randrange(max(1, graph.n // 3))
                for v in graph.vertices()
            }
        next_label = fresh_label + restart * graph.n

        for _sweep in range(max_sweeps):
            improved = False
            order = graph.vertices()
            rng.shuffle(order)
            for v in order:
                candidates: Set = {labels[u] for u in graph.neighbors(v)}
                candidates.add(next_label)
                best_target = labels[v]
                best_gain = 0
                for target in candidates:
                    gain = _move_gain(graph, signs, labels, v, target)
                    if gain > best_gain:
                        best_gain = gain
                        best_target = target
                if best_gain > 0:
                    if best_target == next_label:
                        next_label += 1
                    labels[v] = best_target
                    improved = True
            if not improved:
                break

        score = agreement_score(graph, signs, labels)
        if score > best_score:
            best_score = score
            best_labels = dict(labels)

    return best_labels, best_score


def solve_correlation(
    graph: Graph, signs: SignMap, seed: SeedLike = None
) -> Tuple[Dict, int]:
    """The leaders' solver: exact when small, local search otherwise."""
    if graph.n <= EXACT_CORRELATION_LIMIT:
        return exact_correlation(graph, signs)
    return local_search_correlation(graph, signs, seed=seed)
