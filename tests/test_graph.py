"""Unit and property tests for the core Graph class."""

import copy
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import graph as graph_mod
from repro.congest import CongestSimulator, VertexAlgorithm
from repro.congest.checkpoint import graph_fingerprint
from repro.errors import GraphError
from repro.generators import cycle_graph
from repro.graph import Graph, canonical_vertex_order, edge_key

FIXTURES = os.path.join(os.path.dirname(__file__), "data")


def small_graphs():
    """Hypothesis strategy: edge lists over at most 10 vertices."""
    return st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=25,
    ).map(Graph.from_edges)


class TestConstruction:
    def test_empty(self):
        g = Graph()
        assert g.n == 0
        assert g.m == 0
        assert g.vertices() == []
        assert g.edges() == []

    def test_add_edge_creates_vertices(self):
        g = Graph()
        g.add_edge(1, 2)
        assert g.n == 2
        assert g.m == 1
        assert g.has_edge(2, 1)

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge(3, 3)

    def test_reweight_does_not_duplicate(self):
        g = Graph()
        g.add_edge(0, 1, 2.0)
        g.add_edge(0, 1, 5.0)
        assert g.m == 1
        assert g.weight(0, 1) == 5.0

    def test_from_weighted_edges(self):
        g = Graph.from_weighted_edges([(0, 1, 3.0), (1, 2, 4.0)])
        assert g.total_weight() == 7.0

    def test_from_edges_with_isolated_vertices(self):
        g = Graph.from_edges([(0, 1)], vertices=[0, 1, 2, 3])
        assert g.n == 4
        assert g.degree(3) == 0

    def test_copy_is_independent(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        h = g.copy()
        h.remove_edge(0, 1)
        assert g.has_edge(0, 1)
        assert not h.has_edge(0, 1)


class TestRemoval:
    def test_remove_edge(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        g.remove_edge(0, 1)
        assert g.m == 1
        assert g.n == 3

    def test_remove_missing_edge_raises(self):
        g = Graph.from_edges([(0, 1)])
        with pytest.raises(GraphError):
            g.remove_edge(0, 2)

    def test_remove_vertex_drops_incident_edges(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        g.remove_vertex(1)
        assert g.n == 2
        assert g.m == 1
        assert g.has_edge(0, 2)

    def test_remove_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.remove_vertex(7)


class TestQueries:
    def test_degrees(self):
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.max_degree() == 3
        assert g.min_degree() == 1
        assert g.edge_density() == pytest.approx(3 / 4)

    def test_weight_missing_edge_raises(self):
        g = Graph.from_edges([(0, 1)])
        with pytest.raises(GraphError):
            g.weight(0, 2)

    def test_neighbors_of_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.neighbors(0)

    def test_contains_iter_len(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert 0 in g
        assert 5 not in g
        assert sorted(g) == [0, 1, 2]
        assert len(g) == 3


class TestCuts:
    def test_volume_and_boundary(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])  # C4
        assert g.volume([0, 1]) == 4
        assert g.cut_size([0, 1]) == 2
        assert set(g.boundary([0, 1])) == {edge_key(1, 2), edge_key(0, 3)}

    def test_conductance_of_cut_c4(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.conductance_of_cut([0, 1]) == pytest.approx(0.5)
        assert g.conductance_of_cut([]) == 0.0
        assert g.conductance_of_cut([0, 1, 2, 3]) == 0.0

    def test_sparsity_of_cut(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.sparsity_of_cut([0, 1]) == pytest.approx(1.0)

    def test_cut_weight(self):
        g = Graph.from_weighted_edges([(0, 1, 2.0), (1, 2, 3.0)])
        assert g.cut_weight([1]) == pytest.approx(5.0)

    @given(small_graphs(), st.sets(st.integers(0, 9)))
    @settings(max_examples=60, deadline=None)
    def test_cut_size_symmetry(self, g, side):
        side = {v for v in side if v in g}
        complement = set(g.vertices()) - side
        assert g.cut_size(side) == g.cut_size(complement)

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_volume_totals(self, g):
        assert g.volume(g.vertices()) == 2 * g.m


class TestSubgraphs:
    def test_subgraph_induced(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        sub = g.subgraph([0, 1, 2])
        assert sub.n == 3
        assert sub.m == 3

    def test_subgraph_missing_vertex_raises(self):
        g = Graph.from_edges([(0, 1)])
        with pytest.raises(GraphError):
            g.subgraph([0, 5])

    def test_edge_subgraph(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        sub = g.edge_subgraph([(0, 1)])
        assert sub.n == 2
        assert sub.m == 1

    def test_remove_edges_keeps_vertices(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        h = g.remove_edges([(0, 1)])
        assert h.n == 3
        assert h.m == 1

    def test_relabeled(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        h, mapping = g.relabeled()
        assert set(mapping.values()) == {0, 1, 2}
        assert h.m == 2

    @given(small_graphs())
    @settings(max_examples=50, deadline=None)
    def test_subgraph_of_all_vertices_is_identity(self, g):
        assert g.subgraph(g.vertices()) == g


class TestTraversal:
    def test_bfs_distances_path(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert g.bfs_distances(0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_bfs_layers(self):
        g = Graph.from_edges([(0, 1), (0, 2), (1, 3)])
        layers = g.bfs_layers(0)
        assert layers[0] == [0]
        assert set(layers[1]) == {1, 2}
        assert layers[2] == [3]

    def test_connected_components(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        g.add_vertex(4)
        comps = sorted(map(sorted, g.connected_components()))
        assert comps == [[0, 1], [2, 3], [4]]

    def test_diameter(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert g.diameter() == 3

    def test_diameter_disconnected_raises(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            g.diameter()

    def test_shortest_path(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        path = g.shortest_path(0, 3)
        assert path[0] == 0 and path[-1] == 3
        assert len(path) == 3

    def test_shortest_path_unreachable(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert g.shortest_path(0, 3) is None

    @given(small_graphs())
    @settings(max_examples=50, deadline=None)
    def test_components_partition_vertices(self, g):
        comps = g.connected_components()
        union = set().union(*comps) if comps else set()
        assert union == set(g.vertices())
        assert sum(len(c) for c in comps) == g.n


class TestInterop:
    def test_networkx_roundtrip(self):
        g = Graph.from_weighted_edges([(0, 1, 2.0), (1, 2, 3.0)])
        back = Graph.from_networkx(g.to_networkx())
        assert back == g

    def test_adjacency_matrix_symmetry(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        a = g.adjacency_matrix(order=[0, 1, 2])
        assert (a == a.T).all()
        assert a.sum() == 2 * g.m


def frozenset_edges(g):
    """``Graph.edges`` as it was written before the visited-set version:
    one frozenset per half-edge.  The oracle for list and order."""
    seen = set()
    out = []
    for u, nbrs in g._adj.items():
        for v in nbrs:
            key = frozenset((u, v))
            if key not in seen:
                seen.add(key)
                out.append(edge_key(u, v))
    return out


LABELS = {
    "int": st.integers(0, 9),
    "str": st.sampled_from(["a", "b", "c", "d", "e", "2", "10"]),
    "mixed": st.one_of(
        st.integers(0, 6), st.sampled_from(["a", "b", "3", "10"])
    ),
}


@st.composite
def edited_graphs(draw, labels):
    """A graph built from random edges, then thinned by removed edges
    and vertices, then grown again, so insertion order and rows have
    both moved."""
    pair = st.tuples(labels, labels).filter(lambda e: e[0] != e[1])
    g = Graph.from_edges(draw(st.lists(pair, max_size=25)))
    for v in draw(st.lists(labels, max_size=3)):
        g.add_vertex(v)
    for _ in range(draw(st.integers(0, 4))):
        if g.m and draw(st.booleans()):
            g.remove_edge(*draw(st.sampled_from(frozenset_edges(g))))
        elif g.n:
            g.remove_vertex(draw(st.sampled_from(g.vertices())))
    for u, v in draw(st.lists(pair, max_size=5)):
        g.add_edge(u, v)
    return g


class TestEdgesOracle:
    @pytest.mark.parametrize("kind", sorted(LABELS))
    @given(data=st.data())
    def test_edges_match_the_frozenset_version(self, kind, data):
        g = data.draw(edited_graphs(LABELS[kind]))
        assert g.edges() == frozenset_edges(g)


# ----------------------------------------------------------------------
# The simulation layout: shared by simulations, dropped by mutations
# ----------------------------------------------------------------------


class _ReportRow(VertexAlgorithm):
    """Halts at once with the row its context was built from."""

    def initialize(self, ctx):
        ctx.halt((ctx.neighbors, tuple(ctx.edge_weights.items())))


class _ScribbleWeights(VertexAlgorithm):
    """Rewrites its context's weight dict, then halts."""

    def initialize(self, ctx):
        for u in ctx.edge_weights:
            ctx.edge_weights[u] = -1.0
        ctx.edge_weights["ghost"] = 0.0
        ctx.halt()


def simulated_rows(g, engine="fast"):
    sim = CongestSimulator(g, lambda v: _ReportRow(), seed=0, engine=engine)
    return sim.run(max_rounds=1).outputs


def expected_rows(g):
    rows = {}
    for v in g.vertices():
        nbrs = tuple(canonical_vertex_order(g.neighbors(v)))
        rows[v] = (nbrs, tuple((u, g.weight(v, u)) for u in nbrs))
    return rows


def layout_fields(layout):
    fields = (layout.order, layout.index, layout.neighbors, layout.weights)
    if graph_mod.np is None:
        return fields
    return fields + tuple(a.tolist() for a in layout.csr())


def _layout_graph():
    """A path with a chord and an isolated vertex 6."""
    return Graph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)], vertices=range(7)
    )


MUTATIONS = {
    "add-vertex": lambda g: g.add_vertex(9),
    "add-edge": lambda g: g.add_edge(0, 5, 2.5),
    "reweight": lambda g: g.add_edge(0, 1, 7.5),
    "remove-edge": lambda g: g.remove_edge(1, 4),
    "remove-vertex": lambda g: g.remove_vertex(2),
    "remove-isolated-vertex": lambda g: g.remove_vertex(6),
    "remove-vertices": lambda g: g.remove_vertices([3, 6]),
}


def _prepr10_bytes():
    """A cycle_graph(9) pickled at protocol 4 by an older version."""
    with open(os.path.join(FIXTURES, "cache_entry_prepr10.bin"), "rb") as f:
        return f.read()


class TestSimulationLayout:
    def test_simulations_on_one_graph_share_it(self):
        g = _layout_graph()
        fast = CongestSimulator(g, lambda v: _ReportRow(), seed=0)
        ref = CongestSimulator(
            g, lambda v: _ReportRow(), seed=1, engine="reference"
        )
        layout = g.simulation_layout()
        assert fast._engine._layout is layout
        assert ref._engine._layout is layout

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_every_mutator_drops_it(self, mutation, engine):
        g = _layout_graph()
        assert simulated_rows(g, engine) == expected_rows(g)
        before = g.simulation_layout()
        before_fingerprint = graph_fingerprint(g)
        MUTATIONS[mutation](g)
        assert simulated_rows(g, engine) == expected_rows(g)
        assert g.simulation_layout() is not before
        fresh = g.copy()
        assert layout_fields(g.simulation_layout()) == layout_fields(
            fresh.simulation_layout()
        )
        assert graph_fingerprint(g) == graph_fingerprint(fresh)
        assert graph_fingerprint(g) != before_fingerprint

    def test_context_weight_edits_stay_in_their_simulation(self):
        g = Graph.from_weighted_edges([(0, 1, 2.0), (1, 2, 3.0)])
        expected = expected_rows(g)
        CongestSimulator(g, lambda v: _ScribbleWeights(), seed=0).run(
            max_rounds=1
        )
        assert simulated_rows(g) == expected

    def test_pickles_leave_it_out(self):
        g = cycle_graph(9)
        assert pickle.dumps(g, protocol=4) == _prepr10_bytes()
        simulated_rows(g)
        assert "_layout" in vars(g)
        assert pickle.dumps(g, protocol=4) == _prepr10_bytes()

    @pytest.mark.parametrize("how", ["loaded", "deepcopied"])
    def test_loaded_and_copied_graphs_start_without_it(self, how):
        if how == "loaded":
            g = pickle.loads(_prepr10_bytes())
        else:
            source = cycle_graph(9)
            simulated_rows(source)
            g = copy.deepcopy(source)
        assert "_layout" not in vars(g)
        assert simulated_rows(g) == expected_rows(g)
