"""Named constructions, parameter recognition, and the exhaustive corpus."""

import pytest

from wellcovered.families import (
    MAX_EXHAUSTIVE_N,
    FamilySpec,
    complete,
    complete_multipartite,
    corona_with_k1,
    corpus,
    corpus_representatives,
    cycle,
    h_family,
    h_family_params,
    multipartite_params,
    path,
)
from wellcovered.formats import to_graph6
from wellcovered.graphs import CapacityError, from_edge_list
from wellcovered.independence import alpha, i_number, is_well_covered

# labeled connected graphs on n vertices, then all labeled graphs, then
# connected isomorphism classes (n = 1..5)
CONNECTED_COUNTS = [1, 1, 4, 38, 728]
ALL_COUNTS = [1, 2, 8, 64, 1024]
REP_COUNTS = [1, 1, 2, 6, 21]


class TestNamed:
    def test_complete(self):
        g = complete(4)
        assert (g.n, g.m) == (4, 6)
        assert complete(0).n == 0
        assert complete(1).m == 0

    def test_cycle(self):
        g = cycle(6)
        assert (g.n, g.m) == (6, 6)
        assert all(g.degree(v) == 2 for v in range(6))
        with pytest.raises(ValueError, match="at least 3"):
            cycle(2)

    def test_path(self):
        assert path(1).m == 0
        g = path(5)
        assert (g.n, g.m) == (5, 4)
        assert not g.has_edge(0, 4)
        with pytest.raises(ValueError):
            path(0)

    @pytest.mark.parametrize("build", [complete, cycle, path])
    def test_order_capped_before_building(self, build):
        with pytest.raises(CapacityError, match="64-vertex limit"):
            build(10**12)

    def test_multipartite(self):
        g = complete_multipartite([2, 2, 2])
        assert (g.n, g.m) == (6, 12)
        assert complete_multipartite([3]).m == 0
        assert complete_multipartite([1, 1, 1]).adj == complete(3).adj
        with pytest.raises(ValueError, match="positive"):
            complete_multipartite([2, 0])

    @pytest.mark.parametrize("k,n", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (2, 3)])
    def test_h_family_invariants(self, k, n):
        g = h_family(k, n)
        assert g.n == k * (n + 1)
        assert alpha(g) == i_number(g) == k
        assert is_well_covered(g)
        # block i forms a clique together with its private vertex
        first_block = list(range(n)) + [k * n]
        for a in first_block:
            for b in first_block:
                if a != b:
                    assert g.has_edge(a, b)

    def test_h_family_labels(self):
        assert h_family(3, 2).labels == (
            "x1", "y1", "x2", "y2", "x3", "y3", "z1", "z2", "z3",
        )
        assert h_family(2, 3).labels == (
            "a1_1", "a1_2", "a1_3", "a2_1", "a2_2", "a2_3", "z1", "z2",
        )

    def test_corona_is_h_with_single_blocks(self):
        assert corona_with_k1(3).adj == h_family(3, 1).adj
        assert corona_with_k1(3).labels == h_family(3, 1).labels


class TestRecognition:
    @pytest.mark.parametrize("k,n", [(1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3)])
    def test_h_params_round_trip(self, k, n):
        assert h_family_params(h_family(k, n)) == (k, n)

    def test_h_params_ignores_labeling(self):
        g = h_family(2, 2)
        perm = list(reversed(range(g.n)))
        shuffled = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert h_family_params(shuffled) == (2, 2)

    @pytest.mark.parametrize(
        "g", [cycle(4), path(3), complete(1), complete_multipartite([1, 3])]
    )
    def test_h_params_rejections(self, g):
        assert h_family_params(g) is None

    def test_multipartite_params(self):
        assert multipartite_params(complete_multipartite([2, 2, 2])) == (3, 2)
        assert multipartite_params(cycle(4)) == (2, 2)
        assert multipartite_params(complete(5)) == (5, 1)
        assert multipartite_params(complete_multipartite([4])) == (1, 4)
        assert multipartite_params(path(3)) is None
        assert multipartite_params(cycle(5)) is None


class TestCorpus:
    def test_counts_by_order(self):
        for n, want in enumerate(CONNECTED_COUNTS, start=1):
            assert sum(1 for g in corpus(n) if g.n == n) == want

    def test_counts_without_connectivity_filter(self):
        for n, want in enumerate(ALL_COUNTS, start=1):
            got = sum(1 for g in corpus(n, connected_only=False) if g.n == n)
            assert got == want

    def test_representative_counts(self):
        for n, want in enumerate(REP_COUNTS, start=1):
            got = sum(1 for g in corpus_representatives(n) if g.n == n)
            assert got == want

    def test_representatives_embed_in_corpus(self):
        reps = {to_graph6(g) for g in corpus_representatives(4)}
        full = {to_graph6(g) for g in corpus(4)}
        assert reps <= full

    def test_deterministic_order(self):
        first = [to_graph6(g) for g in corpus(4)]
        second = [to_graph6(g) for g in corpus(4)]
        assert first == second
        orders = [g.n for g in corpus(4)]
        assert orders == sorted(orders)

    def test_capped(self):
        assert MAX_EXHAUSTIVE_N == 7
        with pytest.raises(ValueError, match="capped"):
            list(corpus(MAX_EXHAUSTIVE_N + 1))


class TestSpec:
    @pytest.mark.parametrize(
        "text,order",
        [
            ("complete:5", 5),
            ("cycle:6", 6),
            ("path:3", 3),
            ("kpartite:2,2,2", 6),
            ("h:4,2", 12),
            ("corona:3", 6),
        ],
    )
    def test_parse_build_str(self, text, order):
        spec = FamilySpec.parse(text)
        assert spec.build().n == order
        assert str(spec) == text

    def test_kpartite_matches_constructor(self):
        built = FamilySpec.parse("kpartite:1,3").build()
        assert built.adj == complete_multipartite([1, 3]).adj

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown family"):
            FamilySpec.parse("blob:3")
        with pytest.raises(ValueError, match="parameter"):
            FamilySpec.parse("h:4")
        with pytest.raises(ValueError):
            FamilySpec.parse("cycle:x")
        with pytest.raises(ValueError):
            FamilySpec.parse("cycle:")
