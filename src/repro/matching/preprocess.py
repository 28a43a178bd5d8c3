"""Star elimination preprocessing for planar MCM (Section 3.2).

Lemma 3.1 ([27, Lemma 6]): a planar graph without isolated vertices,
2-stars, or 3-double-stars has a maximum matching of size Omega(n).
The framework needs that linearity so that the epsilon' * n inter-
cluster edges it ignores are chargeable against the optimum.

This module implements the paper's token-bouncing elimination exactly:

* *2-stars*: every degree-1 vertex sends a token to its neighbor; a
  vertex keeps one token and bounces the rest; bounced senders are
  removed.  (At most one pendant vertex survives per center.)
* *3-double-stars*: every degree-2 vertex sends a token tagged with its
  neighbor pair; for each pair, two tokens survive and the rest bounce;
  bounced senders are removed.

Eliminations never change the maximum matching size: a matching never
uses two pendants of the same center, nor three common-pair degree-2
vertices.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..graph import Graph


def eliminate_stars(graph: Graph) -> Tuple[Graph, Set]:
    """Remove 2-star and 3-double-star satellites (and isolated vertices).

    Returns ``(reduced_graph, removed_vertices)``.  The reduced graph
    has the same maximum matching size as ``graph`` (restricted to
    non-isolated vertices) and, if planar, a maximum matching of size
    Omega(n) by Lemma 3.1.  The procedure is repeated to a fixed point
    because one elimination can expose new stars.
    """
    g = graph.copy()
    removed: Set = set()

    changed = True
    while changed:
        changed = False

        # Drop isolated vertices (they cannot be matched).
        for v in [v for v in g.vertices() if g.degree(v) == 0]:
            g.remove_vertex(v)
            removed.add(v)
            changed = True

        # 2-star elimination: keep one pendant per center.
        pendants_by_center: Dict = {}
        for v in g.vertices():
            if g.degree(v) == 1:
                center = g.neighbors(v)[0]
                pendants_by_center.setdefault(center, []).append(v)
        for center, pendants in pendants_by_center.items():
            if len(pendants) <= 1:
                continue
            for v in sorted(pendants, key=repr)[1:]:
                if g.has_vertex(v) and g.degree(v) == 1:
                    g.remove_vertex(v)
                    removed.add(v)
                    changed = True

        # 3-double-star elimination: keep two satellites per pair.
        satellites_by_pair: Dict = {}
        for v in g.vertices():
            if g.degree(v) == 2:
                a, b = sorted(g.neighbors(v), key=repr)
                satellites_by_pair.setdefault((a, b), []).append(v)
        for _pair, satellites in satellites_by_pair.items():
            if len(satellites) <= 2:
                continue
            for v in sorted(satellites, key=repr)[2:]:
                if g.has_vertex(v) and g.degree(v) == 2:
                    g.remove_vertex(v)
                    removed.add(v)
                    changed = True

    return g, removed
