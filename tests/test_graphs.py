"""Graph representation and structural predicates, checked against frozen
values and a networkx oracle."""

import dataclasses
import math
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from brute import random_graph
from wellcovered.graphs import (
    CapacityError,
    Graph,
    complement,
    components,
    disjoint_union,
    every_edge_in_triangle,
    from_edge_list,
    girth,
    induced_subgraph,
    is_bipartite,
    is_complete,
    is_connected,
    is_regular,
    isolated_in,
    min_degree,
    neighborhood,
    closed_neighborhood,
    residual,
    to_mask,
    to_vertices,
)
from wellcovered.families import complete, cycle, path


def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return from_edge_list(n, chosen)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, (0b01, 0b10))

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Graph(1, (0b10,))

    def test_rejects_oversized_order(self):
        with pytest.raises(CapacityError):
            Graph(65, tuple([0] * 65))

    def test_fields_are_order_and_rows(self):
        assert [f.name for f in dataclasses.fields(Graph)] == ["n", "adj"]

    def test_edge_list_round_trip(self):
        g = from_edge_list(4, [(0, 1), (2, 3), (1, 2)])
        assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
        assert g.m == 3


class TestMasks:
    def test_round_trip(self):
        assert to_vertices(to_mask([5, 1, 3])) == [1, 3, 5]

    def test_neighborhoods(self):
        g = cycle(5)
        assert neighborhood(g, to_mask([0])) == to_mask([1, 4])
        assert closed_neighborhood(g, to_mask([0])) == to_mask([0, 1, 4])
        # open neighborhood of a set excludes nothing inside it by fiat
        assert neighborhood(g, to_mask([0, 1])) == to_mask([1, 0, 2, 4])


class TestStructure:
    def test_components_order(self):
        g = from_edge_list(5, [(3, 4), (0, 1)])
        assert components(g) == [to_mask([0, 1]), to_mask([2]), to_mask([3, 4])]

    def test_split_isolated(self):
        g = from_edge_list(4, [(1, 3)])
        iso = isolated_in(g, g.vertex_mask)
        assert to_vertices(iso) == [0, 2]
        rest = induced_subgraph(g, g.vertex_mask & ~iso)
        assert rest.n == 2 and rest.m == 1
        # isolation is relative to the mask: 1 loses its only neighbor
        assert to_vertices(isolated_in(g, to_mask([0, 1, 2]))) == [0, 1, 2]
        assert isolated_in(g, 0) == 0

    def test_complete_and_regular(self):
        assert is_complete(complete(4))
        assert is_regular(complete(4)) == 3
        assert is_regular(path(3)) is None
        assert is_regular(cycle(6)) == 2

    def test_min_degree_empty(self):
        assert min_degree(Graph(0, ())) == math.inf

    def test_girth_frozen(self):
        assert girth(cycle(3)) == 3
        assert girth(cycle(7)) == 7
        assert girth(path(5)) == math.inf
        assert girth(complete(4)) == 3

    def test_bipartite_sides(self):
        sides = is_bipartite(cycle(6))
        assert sides is not None
        assert sides[0] | sides[1] == cycle(6).vertex_mask
        assert is_bipartite(cycle(5)) is None

    def test_every_edge_in_triangle(self):
        assert every_edge_in_triangle(complete(3))
        assert not every_edge_in_triangle(path(2))
        assert every_edge_in_triangle(Graph(0, ()))

    def test_induced_subgraph_maps_back(self):
        g = cycle(5)
        mask = to_mask([1, 2, 4])
        sub = induced_subgraph(g, mask)
        kept = to_vertices(mask)
        assert sub.n == 3 and kept == [1, 2, 4]
        assert sub.has_edge(kept.index(1), kept.index(2))
        assert not sub.has_edge(kept.index(1), kept.index(4))

    def test_delete_closed_neighborhood(self):
        g = cycle(6)
        assert to_vertices(residual(g, to_mask([0]))) == [2, 3, 4]
        assert residual(g, 0) == g.vertex_mask
        assert residual(g, to_mask([0, 3])) == 0

    def test_complement_involution(self):
        g = cycle(5)
        assert complement(complement(g)) == g

    def test_disjoint_union(self):
        g = disjoint_union(complete(2), complete(3))
        assert g.n == 5
        assert sorted(g.edges()) == [(0, 1), (2, 3), (2, 4), (3, 4)]


class TestAgainstNetworkx:
    @given(graphs())
    def test_connected(self, g):
        nxg = to_networkx(g)
        if g.n == 0:
            assert is_connected(g)
        else:
            assert is_connected(g) == nx.is_connected(nxg)

    @given(graphs())
    def test_bipartite(self, g):
        assert (is_bipartite(g) is not None) == nx.is_bipartite(to_networkx(g))

    @given(graphs())
    def test_girth(self, g):
        ours = girth(g)
        theirs = nx.girth(to_networkx(g)) if g.n else math.inf
        assert ours == theirs

    @given(graphs(), st.integers(min_value=0, max_value=(1 << 8) - 1))
    def test_residual_and_isolated(self, g, s):
        s &= g.vertex_mask
        nxg = to_networkx(g)
        closed = set(to_vertices(s)).union(*(nxg[v] for v in to_vertices(s)))
        rest = residual(g, s)
        assert to_vertices(rest) == sorted(set(range(g.n)) - closed)
        piece = nxg.subgraph(to_vertices(rest))
        assert to_vertices(isolated_in(g, rest)) == sorted(nx.isolates(piece))
        sub = induced_subgraph(g, rest)
        kept = to_vertices(rest)
        assert sorted((kept[u], kept[v]) for u, v in sub.edges()) == sorted(
            tuple(sorted(e)) for e in piece.edges()
        )

    def test_girth_random_bulk(self):
        rng = random.Random(20260822)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            assert girth(g) == nx.girth(to_networkx(g))
