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
    from_edge_list,
    girth,
    induced_subgraph,
    is_bipartite,
    is_complete,
    is_connected,
    is_independent,
    is_maximal_independent,
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

    @pytest.mark.parametrize(
        "n, adj, message",
        [
            # the first bad row decides; within a row: range, loop, asymmetry
            (2, (0b10, 0b10), "asymmetric adjacency between 0 and 1"),
            (2, (0b11, 0b00), "self-loop at vertex 0"),
            (2, (0b101, 0b01), "adjacency row of vertex 0 mentions vertices >= 2"),
            (2, (0b10, 0b100), "asymmetric adjacency between 0 and 1"),
            (2, (0b00, -1), "adjacency row of vertex 1 mentions vertices >= 2"),
            (3, (0b000, 0b101, 0b110), "asymmetric adjacency between 1 and 0"),
            (40, (0,) * 39 + (1 << 39,), "self-loop at vertex 39"),
            (64, (0,) * 62 + (1 << 63, 1 << 62 | 1 << 64), "adjacency row of vertex 63 mentions vertices >= 64"),
            (64, (0,) * 63 + (1 << 62,), "asymmetric adjacency between 63 and 62"),
        ],
    )
    def test_first_defect_message(self, n, adj, message):
        with pytest.raises(ValueError) as info:
            Graph(n, adj)
        assert str(info.value) == message

    def test_validation_matches_pairwise_oracle(self):
        """Corrupted random rows get the verdict and message of a check that
        looks at one vertex pair at a time."""

        def oracle(n, adj):
            for v, row in enumerate(adj):
                if row < 0 or row >= 1 << n:
                    return f"adjacency row of vertex {v} mentions vertices >= {n}"
                if row >> v & 1:
                    return f"self-loop at vertex {v}"
                for u in range(n):
                    if row >> u & 1 and not adj[u] >> v & 1:
                        return f"asymmetric adjacency between {v} and {u}"
            return None

        rng = random.Random(77)
        for _ in range(3000):
            n = rng.choice([rng.randint(0, 9), rng.randint(10, 64)])
            adj = list(random_graph(rng, n, rng.random()).adj)
            for _ in range(rng.randint(0, 3) if n else 0):
                v = rng.randrange(n)
                kind = rng.randrange(4)
                if kind == 0:
                    adj[v] ^= 1 << rng.randrange(n)
                elif kind == 1:
                    adj[v] |= 1 << v
                elif kind == 2:
                    adj[v] |= 1 << rng.randrange(n, n + 70)
                else:
                    adj[v] = ~adj[v]
            try:
                Graph(n, tuple(adj))
                got = None
            except ValueError as err:
                got = str(err)
            assert got == oracle(n, adj), (n, adj)

    def test_rows_are_stored_as_a_tuple(self):
        g = Graph(2, [0b10, 0b01])
        assert g.adj == (0b10, 0b01) and type(g.adj) is tuple
        assert g == path(2) and hash(g) == hash(path(2))

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

    def test_to_vertices_lists_ascending_bit_positions(self):
        rng = random.Random(25)
        masks = [0, 1 << 63 | 1] + [rng.getrandbits(64) for _ in range(200)]
        for mask in masks:
            assert to_vertices(mask) == [v for v in range(64) if mask >> v & 1]

    def test_neighborhoods(self):
        g = cycle(5)
        assert neighborhood(g, to_mask([0])) == to_mask([1, 4])
        assert closed_neighborhood(g, to_mask([0])) == to_mask([0, 1, 4])
        # open neighborhood of a set excludes nothing inside it by fiat
        assert neighborhood(g, to_mask([0, 1])) == to_mask([1, 0, 2, 4])


class TestStructure:
    def test_components_order(self):
        g = from_edge_list(5, [(3, 4), (0, 1)])
        assert components(g, g.vertex_mask) == [
            (to_mask([0, 1]), False),
            (to_mask([2]), False),
            (to_mask([3, 4]), False),
        ]
        # on C5, {0, 1, 3, 4} induces the path 1-0-4-3; without 4, 0-1 and 3 are apart
        assert components(cycle(5), to_mask([0, 1, 3, 4])) == [(to_mask([0, 1, 3, 4]), False)]
        assert components(cycle(5), to_mask([0, 1, 3])) == [
            (to_mask([0, 1]), False),
            (to_mask([3]), False),
        ]
        assert components(cycle(5), 0) == []

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
        assert is_bipartite(cycle(6)) is True
        assert is_bipartite(cycle(5)) is False
        # the odd cycle is found in the second component too
        assert is_bipartite(disjoint_union(path(3), cycle(5))) is False
        assert is_bipartite(Graph(0, ())) is True

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
        assert is_bipartite(g) == nx.is_bipartite(to_networkx(g))

    def test_components_of_masks(self):
        """Each component of G[mask] is a networkx component of the induced
        subgraph, in order of least vertex, and has an odd cycle exactly when
        networkx finds it not bipartite."""
        rng = random.Random(12)
        for _ in range(400):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            mask = rng.getrandbits(g.n)
            sub = to_networkx(g).subgraph(to_vertices(mask))
            expect = sorted((sorted(c) for c in nx.connected_components(sub)), key=min)
            got = components(g, mask)
            assert [to_vertices(c) for c, _ in got] == expect
            for c, odd in got:
                assert odd == (not nx.is_bipartite(sub.subgraph(to_vertices(c))))

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

    def test_girth_sparse_up_to_64(self):
        """Sparse graphs, whose shortest cycles are long and often end in an
        even layer, and the 64-vertex edge."""
        rng = random.Random(26)
        pool = [random_graph(rng, n, 2.2 / n) for n in (rng.randint(10, 64) for _ in range(150))]
        pool += [cycle(64), path(64), from_edge_list(64, [])]
        lengths = set()
        for g in pool:
            lengths.add(girth(g))
            assert girth(g) == nx.girth(to_networkx(g))
        assert {3, 4, 5, 6, math.inf} <= lengths

    def test_independent_set_tests(self):
        """is_independent: no edge inside the set; is_maximal_independent:
        also a dominating set, by networkx."""
        rng = random.Random(5)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            nxg = to_networkx(g)
            for s in [0, g.vertex_mask, *(rng.getrandbits(g.n) for _ in range(20))]:
                members = to_vertices(s)
                independent = nxg.subgraph(members).number_of_edges() == 0
                assert is_independent(g, s) == independent
                maximal = independent and nx.is_dominating_set(nxg, members)
                assert is_maximal_independent(g, s) == maximal
