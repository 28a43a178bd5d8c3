"""Core undirected graph data structure.

The library uses its own small graph class rather than ``networkx`` for
three reasons: (1) the CONGEST simulator needs tight control over
adjacency iteration order for determinism, (2) the decomposition code
calls volume/cut/conductance primitives in hot loops, and (3) keeping
the substrate self-contained lets the test suite use ``networkx`` as an
*independent oracle* instead of a dependency of the code under test.

Vertices are arbitrary hashable objects, though the generators in
:mod:`repro.generators` always produce contiguous integers, which is
what the CONGEST simulator expects for its ID-based symmetry breaking.
Edges are undirected, simple (no self loops, no parallel edges), and
carry a float weight (default ``1.0``).
"""

from __future__ import annotations

from collections import deque
from hashlib import blake2b
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from .errors import GraphError

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


def edge_key(u: Vertex, v: Vertex) -> Edge:
    """Canonical (sorted) key for the undirected edge ``{u, v}``.

    Sorting is by ``repr`` when the endpoints are not mutually
    orderable, so mixed vertex types still get a stable canonical form.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


def canonical_vertex_order(vertices: Iterable[Vertex]) -> List[Vertex]:
    """Vertices in canonical order: natural sort, with a typed fallback.

    Integer vertices (what every generator produces) sort numerically —
    unlike the historical ``key=repr`` ordering, which put 10 before 2.
    Mixed or unorderable vertex sets fall back to sorting by
    ``(type name, repr)`` so the order stays total and deterministic.
    """
    vs = list(vertices)
    try:
        return sorted(vs)  # type: ignore[type-var]
    except TypeError:
        return sorted(vs, key=lambda v: (type(v).__name__, repr(v)))


class SimulationLayout:
    """What every CONGEST simulation reads from its graph, derived once.

    Built by :meth:`Graph.simulation_layout` and shared by every
    simulation on that graph until a mutator drops it:

    * ``order`` — the vertices in canonical order (rank ``i`` is
      ``order[i]``), and ``index``, mapping each vertex to its rank;
    * ``neighbors`` — per rank, the vertex's neighbors in canonical
      order, and ``weights``, the aligned edge weights;
    * :meth:`csr` — the neighbor rows as rank arrays, for the kernels;
    * :meth:`fingerprint` — the digest checkpoints bind the graph by.

    Consumers share these objects and never write to them.
    """

    __slots__ = (
        "order", "index", "neighbors", "weights", "_csr", "_fingerprint"
    )

    def __init__(self, adj: Dict[Vertex, Dict[Vertex, float]]) -> None:
        self.order: Tuple[Vertex, ...] = tuple(canonical_vertex_order(adj))
        self.index: Dict[Vertex, int] = {
            v: i for i, v in enumerate(self.order)
        }
        neighbors = []
        weights = []
        for v in self.order:
            row = adj[v]
            nbrs = tuple(canonical_vertex_order(row))
            neighbors.append(nbrs)
            weights.append(tuple([row[u] for u in nbrs]))
        self.neighbors: Tuple[Tuple[Vertex, ...], ...] = tuple(neighbors)
        self.weights: Tuple[Tuple[float, ...], ...] = tuple(weights)
        self._csr = None
        self._fingerprint: Optional[str] = None

    def csr(self):
        """``(indptr, nbr)``: row ``i``'s slice of ``nbr`` holds the
        ranks of ``neighbors[i]``, in order.  Read-only int64 arrays,
        built on the first call, which only a kernel makes."""
        if self._csr is None:
            index = self.index
            rows = self.neighbors
            indptr = np.zeros(len(rows) + 1, np.int64)
            np.cumsum([len(row) for row in rows], dtype=np.int64,
                      out=indptr[1:])
            nbr = np.fromiter(
                (index[u] for row in rows for u in row),
                np.int64,
                count=int(indptr[-1]),
            )
            indptr.flags.writeable = False
            nbr.flags.writeable = False
            self._csr = (indptr, nbr)
        return self._csr

    def fingerprint(self) -> str:
        """blake2b digest of the exact topology and edge weights, in
        rank order, computed on the first call (see
        :func:`repro.congest.checkpoint.graph_fingerprint`)."""
        if self._fingerprint is None:
            digest = blake2b(digest_size=16)
            for v, neighbors, weights in zip(
                self.order, self.neighbors, self.weights
            ):
                digest.update(repr(v).encode("utf-8"))
                digest.update(b"|")
                for u, w in zip(neighbors, weights):
                    digest.update(f"{u!r}:{w!r};".encode("utf-8"))
                digest.update(b"\n")
            self._fingerprint = digest.hexdigest()
        return self._fingerprint


class Graph:
    """A simple undirected graph with float edge weights.

    The class deliberately exposes the vocabulary of the paper:
    :meth:`volume`, :meth:`boundary`, :meth:`cut_size`, and
    :meth:`conductance_of_cut` implement the quantities vol(S),
    ∂(S), |∂(S)|, and Φ(S) from Section 2.
    """

    #: The :class:`SimulationLayout`, once built; every mutator resets
    #: it and pickles leave it out, so copies and loads start without.
    _layout: Optional[SimulationLayout] = None

    def __init__(self) -> None:
        self._adj: Dict[Vertex, Dict[Vertex, float]] = {}
        self._m: int = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Vertex, Vertex]],
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> "Graph":
        """Build a graph from an edge list (all weights 1)."""
        g = cls()
        if vertices is not None:
            for v in vertices:
                g.add_vertex(v)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    @classmethod
    def from_weighted_edges(
        cls,
        edges: Iterable[Tuple[Vertex, Vertex, float]],
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> "Graph":
        """Build a graph from ``(u, v, weight)`` triples."""
        g = cls()
        if vertices is not None:
            for v in vertices:
                g.add_vertex(v)
        for u, v, w in edges:
            g.add_edge(u, v, w)
        return g

    def copy(self) -> "Graph":
        """Return a deep copy of this graph."""
        g = Graph()
        g._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        g._m = self._m
        return g

    def add_vertex(self, v: Vertex) -> None:
        """Add an isolated vertex (no-op if already present)."""
        if v not in self._adj:
            self._adj[v] = {}
            self._layout = None

    def add_edge(self, u: Vertex, v: Vertex, weight: float = 1.0) -> None:
        """Add the undirected edge ``{u, v}``.

        Endpoints are created if missing.  Re-adding an existing edge
        overwrites its weight.  Self loops are rejected because none of
        the paper's objects (matchings, independent sets, cuts) are
        defined on them.
        """
        if u == v:
            raise GraphError(f"self loops are not supported (vertex {u!r})")
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adj[u]:
            self._m += 1
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._layout = None

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}``; raises if absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph")
        del self._adj[u][v]
        del self._adj[v][u]
        self._m -= 1
        self._layout = None

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and all incident edges; raises if absent."""
        if v not in self._adj:
            raise GraphError(f"vertex {v!r} not in graph")
        for u in list(self._adj[v]):
            self.remove_edge(u, v)
        del self._adj[v]
        self._layout = None

    def remove_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Remove every vertex in ``vertices``."""
        for v in vertices:
            self.remove_vertex(v)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._adj)

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def vertices(self) -> List[Vertex]:
        """All vertices, in insertion order."""
        return list(self._adj)

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> List[Edge]:
        """Each undirected edge exactly once, in canonical key form.

        An edge is listed from whichever endpoint comes first in
        insertion order, at the other endpoint's place in its row.
        """
        visited: Set[Vertex] = set()
        out: List[Edge] = []
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in visited:
                    out.append(edge_key(u, v))
            visited.add(u)
        return out

    def weighted_edges(self) -> List[Tuple[Vertex, Vertex, float]]:
        """Each undirected edge once, as ``(u, v, weight)``."""
        return [(u, v, self._adj[u][v]) for u, v in self.edges()]

    def weight(self, u: Vertex, v: Vertex) -> float:
        """Weight of edge ``{u, v}``; raises if absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph")
        return self._adj[u][v]

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.weighted_edges())

    def neighbors(self, v: Vertex) -> List[Vertex]:
        """Neighbors of ``v``, in insertion order."""
        if v not in self._adj:
            raise GraphError(f"vertex {v!r} not in graph")
        return list(self._adj[v])

    def degree(self, v: Vertex) -> int:
        if v not in self._adj:
            raise GraphError(f"vertex {v!r} not in graph")
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Δ(G); zero for the empty graph."""
        return max((len(nbrs) for nbrs in self._adj.values()), default=0)

    def min_degree(self) -> int:
        """Minimum degree; zero for the empty graph."""
        return min((len(nbrs) for nbrs in self._adj.values()), default=0)

    def edge_density(self) -> float:
        """|E| / |V| — the density quantity the paper uses (Section 2.2)."""
        if self.n == 0:
            return 0.0
        return self.m / self.n

    def simulation_layout(self) -> SimulationLayout:
        """The graph's :class:`SimulationLayout`, built on first use and
        kept until the next mutation."""
        layout = self._layout
        if layout is None:
            layout = self._layout = SimulationLayout(self._adj)
        return layout

    # ------------------------------------------------------------------
    # Cuts, volumes, conductance (Section 2 vocabulary)
    # ------------------------------------------------------------------
    def volume(self, s: Iterable[Vertex]) -> int:
        """vol(S): sum of degrees of the vertices in S."""
        return sum(self.degree(v) for v in s)

    def boundary(self, s: Iterable[Vertex]) -> List[Edge]:
        """∂(S): the edges with exactly one endpoint in S."""
        s_set = set(s)
        out: List[Edge] = []
        for u in s_set:
            for v in self._adj[u]:
                if v not in s_set:
                    out.append(edge_key(u, v))
        return out

    def cut_size(self, s: Iterable[Vertex]) -> int:
        """|∂(S)|: the number of edges crossing the cut ``{S, V\\S}``."""
        s_set = set(s)
        return sum(
            1 for u in s_set for v in self._adj[u] if v not in s_set
        )

    def cut_weight(self, s: Iterable[Vertex]) -> float:
        """Total weight of the edges crossing the cut ``{S, V\\S}``."""
        s_set = set(s)
        return sum(
            self._adj[u][v]
            for u in s_set
            for v in self._adj[u]
            if v not in s_set
        )

    def conductance_of_cut(self, s: Iterable[Vertex]) -> float:
        """Φ(S) = |∂(S)| / min(vol(S), vol(V\\S)); 0 for trivial cuts."""
        s_set = set(s)
        if not s_set or len(s_set) == self.n:
            return 0.0
        vol_s = self.volume(s_set)
        vol_rest = 2 * self.m - vol_s
        denom = min(vol_s, vol_rest)
        if denom == 0:
            # A side made entirely of isolated vertices: conventionally
            # conductance 0 (it is a "free" cut crossing no edges).
            return 0.0
        return self.cut_size(s_set) / denom

    def sparsity_of_cut(self, s: Iterable[Vertex]) -> float:
        """Ψ(S) = |∂(S)| / min(|S|, |V\\S|) (Lemma 2.5 vocabulary)."""
        s_set = set(s)
        if not s_set or len(s_set) == self.n:
            return 0.0
        denom = min(len(s_set), self.n - len(s_set))
        return self.cut_size(s_set) / denom

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Vertex-induced subgraph G[S] (weights preserved).

        Vertices are inserted in *canonical* order, so the subgraph's
        adjacency iteration order depends only on the vertex set, never
        on the order (or set-iteration history) of ``vertices``.  Every
        simulation on a cluster runs on this subgraph, so equal cluster
        sets drive bit-identical simulations however each set was built
        (a ``set``'s iteration order depends on its insertion history).
        """
        s_set = set(vertices)
        missing = s_set - set(self._adj)
        if missing:
            raise GraphError(f"vertices not in graph: {sorted(map(repr, missing))}")
        order = canonical_vertex_order(s_set)
        g = Graph()
        g_adj = g._adj
        for v in order:
            g_adj[v] = {}
        # Fill adjacency rows directly: each undirected edge is visited
        # once from each endpoint, so the half-edge count is even.
        half_edges = 0
        for u in order:
            row = g_adj[u]
            for v, w in self._adj[u].items():
                if v in s_set:
                    row[v] = w
                    half_edges += 1
        g._m = half_edges // 2
        return g

    def edge_subgraph(self, edges: Iterable[Edge]) -> "Graph":
        """Subgraph induced by an edge set (vertices = edge endpoints)."""
        g = Graph()
        for u, v in edges:
            if not self.has_edge(u, v):
                raise GraphError(f"edge ({u!r}, {v!r}) not in graph")
            g.add_edge(u, v, self._adj[u][v])
        return g

    def remove_edges(self, edges: Iterable[Edge]) -> "Graph":
        """Copy of this graph with ``edges`` removed (vertices kept)."""
        g = self.copy()
        for u, v in edges:
            if g.has_edge(u, v):
                g.remove_edge(u, v)
        return g

    def relabeled(self) -> Tuple["Graph", Dict[Vertex, int]]:
        """Copy with vertices renamed to 0..n-1; returns (graph, old→new)."""
        mapping = {v: i for i, v in enumerate(self._adj)}
        g = Graph()
        for v in self._adj:
            g.add_vertex(mapping[v])
        for u, v, w in self.weighted_edges():
            g.add_edge(mapping[u], mapping[v], w)
        return g, mapping

    # ------------------------------------------------------------------
    # Traversal / connectivity
    # ------------------------------------------------------------------
    def bfs_distances(self, source: Vertex) -> Dict[Vertex, int]:
        """Unweighted distances from ``source`` to all reachable vertices."""
        if source not in self._adj:
            raise GraphError(f"vertex {source!r} not in graph")
        dist = {source: 0}
        queue = deque([source])
        adj = self._adj
        pop = queue.popleft
        push = queue.append
        while queue:
            u = pop()
            du = dist[u] + 1
            for v in adj[u]:
                if v not in dist:
                    dist[v] = du
                    push(v)
        return dist

    def bfs_layers(self, source: Vertex) -> List[List[Vertex]]:
        """Vertices of the component of ``source`` grouped by BFS depth."""
        dist = self.bfs_distances(source)
        if not dist:
            return []
        layers: List[List[Vertex]] = [[] for _ in range(max(dist.values()) + 1)]
        for v, d in dist.items():
            layers[d].append(v)
        return layers

    def connected_components(self) -> List[Set[Vertex]]:
        """All connected components, as vertex sets."""
        seen: Set[Vertex] = set()
        comps: List[Set[Vertex]] = []
        for v in self._adj:
            if v in seen:
                continue
            comp = set(self.bfs_distances(v))
            seen |= comp
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        first = next(iter(self._adj))
        return len(self.bfs_distances(first)) == self.n

    def eccentricity(self, v: Vertex) -> int:
        """Max distance from ``v`` within its component."""
        return max(self.bfs_distances(v).values(), default=0)

    def diameter(self) -> int:
        """Exact diameter (∞→raises on disconnected graphs).

        Runs a BFS from every vertex, so intended for the cluster-sized
        graphs the framework manipulates, not the whole network.
        """
        if self.n == 0:
            return 0
        if not self.is_connected():
            raise GraphError("diameter of a disconnected graph is infinite")
        return max(self.eccentricity(v) for v in self._adj)

    def shortest_path(self, source: Vertex, target: Vertex) -> Optional[List[Vertex]]:
        """One unweighted shortest path, or ``None`` if unreachable."""
        if source not in self._adj or target not in self._adj:
            raise GraphError("endpoints must be in the graph")
        parent: Dict[Vertex, Optional[Vertex]] = {source: None}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if u == target:
                path = [u]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            for v in self._adj[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        return None

    # ------------------------------------------------------------------
    # Matrix / interop
    # ------------------------------------------------------------------
    def adjacency_matrix(self, order: Optional[Sequence[Vertex]] = None) -> np.ndarray:
        """Dense 0/1 adjacency matrix (weights ignored).

        ``order`` fixes the row/column ordering; defaults to insertion
        order.
        """
        if order is None:
            order = self.vertices()
        index = {v: i for i, v in enumerate(order)}
        if len(index) != self.n:
            raise GraphError("order must enumerate each vertex exactly once")
        a = np.zeros((self.n, self.n))
        for u, nbrs in self._adj.items():
            i = index[u]
            for v in nbrs:
                a[i, index[v]] = 1.0
        return a

    def to_networkx(self):
        """Convert to a ``networkx.Graph`` (used only by tests/oracles)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._adj)
        g.add_weighted_edges_from(self.weighted_edges())
        return g

    @classmethod
    def from_networkx(cls, nxg) -> "Graph":
        """Convert from a ``networkx.Graph``; weights default to 1."""
        g = cls()
        for v in nxg.nodes:
            g.add_vertex(v)
        for u, v, data in nxg.edges(data=True):
            if u == v:
                continue
            g.add_edge(u, v, float(data.get("weight", 1.0)))
        return g

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if set(self._adj) != set(other._adj):
            return False
        return {
            (edge_key(u, v), w) for u, v, w in self.weighted_edges()
        } == {(edge_key(u, v), w) for u, v, w in other.weighted_edges()}

    def __hash__(self) -> int:  # graphs are mutable; identity hash
        return id(self)

    def __getstate__(self) -> Dict[str, object]:
        # Pickles (and copy/deepcopy) carry the graph, not its layout.
        state = self.__dict__
        if "_layout" in state:
            state = {k: v for k, v in state.items() if k != "_layout"}
        return state
