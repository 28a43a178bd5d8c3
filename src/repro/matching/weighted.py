"""Maximum weight matching via the primal-dual blossom algorithm.

A from-scratch O(V^3) implementation of Galil's formulation of
Edmonds' weighted matching algorithm (the same formulation popularized
by Van Rantwijk's reference code).  The algorithm maintains dual
variables for vertices and (nested) blossoms and repeatedly grows
alternating trees from free vertices, contracting tight odd cycles and
adjusting duals until an augmenting path of tight edges appears.

The paper assumes positive integer weights (Section 1.1); with integer
weights all dual arithmetic here stays in exact rationals-of-halves, so
results are exact.  This is the solver cluster leaders run for
Theorem 1.1 and the oracle for every MWM experiment; the test suite
pins it against brute force and networkx on thousands of instances.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import SolverError
from ..graph import Graph, edge_key
from .util import Matching

#: Largest vertex count for which the exponential brute force will run.
BRUTE_FORCE_LIMIT = 16


def _mwm_indexed(
    edges: List[Tuple[int, int, float]], maxcardinality: bool = False
) -> List[int]:
    """Core algorithm on an integer-indexed edge list; returns mate[].

    ``mate[v]`` is the *endpoint index* (2k or 2k+1) of the matched
    edge at v, or -1.  Blossoms are numbered nvertex..2*nvertex-1.
    """
    if not edges:
        return []
    nedge = len(edges)
    nvertex = 1 + max(max(i, j) for i, j, _w in edges)
    maxweight = max(max(0, w) for _i, _j, w in edges)

    # endpoint[p] is the vertex at endpoint p; edge k has endpoints
    # 2k (= edges[k][0]) and 2k+1 (= edges[k][1]).
    endpoint = [edges[p // 2][p % 2] for p in range(2 * nedge)]
    # neighbend[v] lists the remote endpoints of v's incident edges.
    neighbend: List[List[int]] = [[] for _ in range(nvertex)]
    for k, (i, j, _w) in enumerate(edges):
        neighbend[i].append(2 * k + 1)
        neighbend[j].append(2 * k)

    mate = [-1] * nvertex
    # label: 0 = free, 1 = S, 2 = T (5 marks scanBlossom's breadcrumbs).
    label = [0] * (2 * nvertex)
    labelend = [-1] * (2 * nvertex)
    inblossom = list(range(nvertex))
    blossomparent = [-1] * (2 * nvertex)
    blossomchilds: List[Optional[List[int]]] = [None] * (2 * nvertex)
    blossombase = list(range(nvertex)) + [-1] * nvertex
    blossomendps: List[Optional[List[int]]] = [None] * (2 * nvertex)
    bestedge = [-1] * (2 * nvertex)
    blossombestedges: List[Optional[List[int]]] = [None] * (2 * nvertex)
    unusedblossoms = list(range(nvertex, 2 * nvertex))
    dualvar: List[float] = [maxweight] * nvertex + [0] * nvertex
    allowedge = [False] * nedge
    queue: List[int] = []

    def slack(k: int) -> float:
        i, j, wt = edges[k]
        return dualvar[i] + dualvar[j] - 2 * wt

    def blossom_leaves(b: int):
        if b < nvertex:
            yield b
        else:
            for t in blossomchilds[b]:
                if t < nvertex:
                    yield t
                else:
                    yield from blossom_leaves(t)

    def assign_label(w: int, t: int, p: int) -> None:
        b = inblossom[w]
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        if t == 1:
            queue.extend(blossom_leaves(b))
        elif t == 2:
            base = blossombase[b]
            assign_label(endpoint[mate[base]], 1, mate[base] ^ 1)

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from v and w to find a common S-ancestor or -1."""
        path = []
        base = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labelend[b] == -1:
                v = -1
            else:
                v = endpoint[labelend[b]]
                b = inblossom[v]
                v = endpoint[labelend[b]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, k: int) -> None:
        """Contract the odd cycle through edge k with given base."""
        v, w, _wt = edges[k]
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        blossomchilds[b] = path = []
        blossomendps[b] = endps = []
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            v = endpoint[labelend[bv]]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(labelend[bw] ^ 1)
            w = endpoint[labelend[bw]]
            bw = inblossom[w]
        label[b] = 1
        labelend[b] = labelend[bb]
        dualvar[b] = 0
        for leaf in blossom_leaves(b):
            if label[inblossom[leaf]] == 2:
                queue.append(leaf)
            inblossom[leaf] = b
        # Recompute the blossom's best-edge lists.
        bestedgeto = [-1] * (2 * nvertex)
        for bv in path:
            if blossombestedges[bv] is None:
                nblists = [
                    [p // 2 for p in neighbend[leaf]]
                    for leaf in blossom_leaves(bv)
                ]
            else:
                nblists = [blossombestedges[bv]]
            for nblist in nblists:
                for kk in nblist:
                    i, j, _ = edges[kk]
                    if inblossom[j] == b:
                        i, j = j, i
                    bj = inblossom[j]
                    if (
                        bj != b
                        and label[bj] == 1
                        and (
                            bestedgeto[bj] == -1
                            or slack(kk) < slack(bestedgeto[bj])
                        )
                    ):
                        bestedgeto[bj] = kk
            blossombestedges[bv] = None
            bestedge[bv] = -1
        blossombestedges[b] = [kk for kk in bestedgeto if kk != -1]
        bestedge[b] = -1
        for kk in blossombestedges[b]:
            if bestedge[b] == -1 or slack(kk) < slack(bestedge[b]):
                bestedge[b] = kk

    def expand_blossom(b: int, endstage: bool) -> None:
        for s in blossomchilds[b]:
            blossomparent[s] = -1
            if s < nvertex:
                inblossom[s] = s
            elif endstage and dualvar[s] == 0:
                expand_blossom(s, endstage)
            else:
                for leaf in blossom_leaves(s):
                    inblossom[leaf] = s
        if (not endstage) and label[b] == 2:
            # The expanding blossom was a T-blossom mid-stage: relabel
            # the even-path children T/S and leave the rest free.
            entrychild = inblossom[endpoint[labelend[b] ^ 1]]
            j = blossomchilds[b].index(entrychild)
            if j & 1:
                j -= len(blossomchilds[b])
                jstep = 1
                endptrick = 0
            else:
                jstep = -1
                endptrick = 1
            p = labelend[b]
            while j != 0:
                label[endpoint[p ^ 1]] = 0
                label[
                    endpoint[blossomendps[b][j - endptrick] ^ endptrick ^ 1]
                ] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                allowedge[blossomendps[b][j - endptrick] // 2] = True
                j += jstep
                p = blossomendps[b][j - endptrick] ^ endptrick
                allowedge[p // 2] = True
                j += jstep
            bv = blossomchilds[b][j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            bestedge[bv] = -1
            j += jstep
            while blossomchilds[b][j] != entrychild:
                bv = blossomchilds[b][j]
                if label[bv] == 1:
                    j += jstep
                    continue
                leaf = None
                for leaf in blossom_leaves(bv):
                    if label[leaf] != 0:
                        break
                if leaf is not None and label[leaf] != 0:
                    label[leaf] = 0
                    label[endpoint[mate[blossombase[bv]]]] = 0
                    assign_label(leaf, 2, labelend[leaf])
                j += jstep
        label[b] = labelend[b] = -1
        blossomchilds[b] = blossomendps[b] = None
        blossombase[b] = -1
        blossombestedges[b] = None
        bestedge[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b: int, v: int) -> None:
        """Swap matched/unmatched edges along the path from v to base."""
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= nvertex:
            augment_blossom(t, v)
        i = j = blossomchilds[b].index(t)
        if i & 1:
            j -= len(blossomchilds[b])
            jstep = 1
            endptrick = 0
        else:
            jstep = -1
            endptrick = 1
        while j != 0:
            j += jstep
            t = blossomchilds[b][j]
            p = blossomendps[b][j - endptrick] ^ endptrick
            if t >= nvertex:
                augment_blossom(t, endpoint[p])
            j += jstep
            t = blossomchilds[b][j]
            if t >= nvertex:
                augment_blossom(t, endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = blossomchilds[b][i:] + blossomchilds[b][:i]
        blossomendps[b] = blossomendps[b][i:] + blossomendps[b][:i]
        blossombase[b] = blossombase[blossomchilds[b][0]]

    def augment_matching(k: int) -> None:
        v, w, _wt = edges[k]
        for s, p in ((v, 2 * k + 1), (w, 2 * k)):
            while True:
                bs = inblossom[s]
                if bs >= nvertex:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break
                t = endpoint[labelend[bs]]
                bt = inblossom[t]
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                if bt >= nvertex:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    # ------------------------------------------------------------------
    # Main loop: one stage per augmentation.
    # ------------------------------------------------------------------
    for _stage in range(nvertex):
        label[:] = [0] * (2 * nvertex)
        bestedge[:] = [-1] * (2 * nvertex)
        blossombestedges[nvertex:] = [None] * nvertex
        allowedge[:] = [False] * nedge
        queue[:] = []
        for v in range(nvertex):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)
        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                for p in neighbend[v]:
                    k = p // 2
                    w = endpoint[p]
                    if inblossom[v] == inblossom[w]:
                        continue
                    kslack = 0.0
                    if not allowedge[k]:
                        kslack = slack(k)
                        if kslack <= 0:
                            allowedge[k] = True
                    if allowedge[k]:
                        if label[inblossom[w]] == 0:
                            assign_label(w, 2, p ^ 1)
                        elif label[inblossom[w]] == 1:
                            base = scan_blossom(v, w)
                            if base >= 0:
                                add_blossom(base, k)
                            else:
                                augment_matching(k)
                                augmented = True
                                break
                        elif label[w] == 0:
                            label[w] = 2
                            labelend[w] = p ^ 1
                    elif label[inblossom[w]] == 1:
                        b = inblossom[v]
                        if bestedge[b] == -1 or kslack < slack(bestedge[b]):
                            bestedge[b] = k
                    elif label[w] == 0:
                        if bestedge[w] == -1 or kslack < slack(bestedge[w]):
                            bestedge[w] = k
            if augmented:
                break

            # Compute the dual adjustment delta.
            deltatype = -1
            delta: float = 0.0
            deltaedge = -1
            deltablossom = -1
            if not maxcardinality:
                deltatype = 1
                delta = min(dualvar[:nvertex])
            for v in range(nvertex):
                if label[inblossom[v]] == 0 and bestedge[v] != -1:
                    d = slack(bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]
            for b in range(2 * nvertex):
                if (
                    blossomparent[b] == -1
                    and label[b] == 1
                    and bestedge[b] != -1
                ):
                    kslack = slack(bestedge[b])
                    d = kslack / 2
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]
            for b in range(nvertex, 2 * nvertex):
                if (
                    blossombase[b] >= 0
                    and blossomparent[b] == -1
                    and label[b] == 2
                    and (deltatype == -1 or dualvar[b] < delta)
                ):
                    delta = dualvar[b]
                    deltatype = 4
                    deltablossom = b
            if deltatype == -1:
                # Max-cardinality variant: no more improvement possible.
                deltatype = 1
                delta = max(0, min(dualvar[:nvertex]))

            # Apply delta to the duals.
            for v in range(nvertex):
                lbl = label[inblossom[v]]
                if lbl == 1:
                    dualvar[v] -= delta
                elif lbl == 2:
                    dualvar[v] += delta
            for b in range(nvertex, 2 * nvertex):
                if blossombase[b] >= 0 and blossomparent[b] == -1:
                    if label[b] == 1:
                        dualvar[b] += delta
                    elif label[b] == 2:
                        dualvar[b] -= delta

            if deltatype == 1:
                break
            if deltatype == 2:
                allowedge[deltaedge] = True
                i, j, _ = edges[deltaedge]
                if label[inblossom[i]] == 0:
                    i, j = j, i
                queue.append(i)
            elif deltatype == 3:
                allowedge[deltaedge] = True
                i, j, _ = edges[deltaedge]
                queue.append(i)
            else:
                expand_blossom(deltablossom, False)

        if not augmented:
            break
        # End of a successful stage: expand spent S-blossoms.
        for b in range(nvertex, 2 * nvertex):
            if (
                blossomparent[b] == -1
                and blossombase[b] >= 0
                and label[b] == 1
                and dualvar[b] == 0
            ):
                expand_blossom(b, True)

    return mate


def max_weight_matching(
    graph: Graph, maxcardinality: bool = False
) -> Matching:
    """Compute a maximum weight matching of ``graph``.

    With ``maxcardinality=True``, restrict to maximum-cardinality
    matchings and maximize weight among them.  Edges of non-positive
    weight are never forced into the matching (standard MWM
    convention); the paper's instances have positive integer weights.
    """
    indexed, mapping = graph.relabeled()
    inverse = {i: v for v, i in mapping.items()}
    edges = [(u, v, w) for u, v, w in indexed.weighted_edges()]
    mate = _mwm_indexed(edges, maxcardinality=maxcardinality)

    endpoint_vertex = {}
    for k, (i, j, _w) in enumerate(edges):
        endpoint_vertex[2 * k] = i
        endpoint_vertex[2 * k + 1] = j

    result: Matching = set()
    for v, p in enumerate(mate):
        if p == -1:
            continue
        partner = endpoint_vertex[p]
        if v < partner:
            result.add(edge_key(inverse[v], inverse[partner]))
    return result


def brute_force_mwm(graph: Graph) -> Tuple[float, Matching]:
    """Exponential exact MWM used as a test oracle (n <= 16 only)."""
    if graph.n > BRUTE_FORCE_LIMIT:
        raise SolverError(
            f"brute force MWM is limited to n <= {BRUTE_FORCE_LIMIT}"
        )
    edges = graph.weighted_edges()

    best_weight = 0.0
    best: Matching = set()

    def recurse(index: int, used: set, weight: float, chosen: Matching) -> None:
        nonlocal best_weight, best
        if weight > best_weight:
            best_weight = weight
            best = set(chosen)
        if index == len(edges):
            return
        # Prune: remaining positive weight cannot beat best.
        remaining = sum(
            max(0.0, w) for _u, _v, w in edges[index:]
        )
        if weight + remaining <= best_weight:
            return
        u, v, w = edges[index]
        if u not in used and v not in used:
            chosen.add(edge_key(u, v))
            recurse(index + 1, used | {u, v}, weight + w, chosen)
            chosen.discard(edge_key(u, v))
        recurse(index + 1, used, weight, chosen)

    recurse(0, set(), 0.0, set())
    return best_weight, best
