"""Independence-layer semantics: frozen small-case values computed by
independent brute force, matching and pairing-property behavior, and
property tests against the subset-filter oracle."""

import random

import pytest
from hypothesis import given, strategies as st

from brute import (
    brute_maximal_independent_sets,
    brute_summary,
    is_independent,
    random_graph,
)
from wellcovered import _mis_fallback
from wellcovered.families import complete, complete_multipartite, cycle, h_family, path
from wellcovered.graphs import Graph, from_edge_list, to_mask, to_vertices
from wellcovered.independence import (
    Matching,
    alpha,
    berge_violation,
    enumerate_independent_sets,
    enumerate_maximal_independent_sets,
    favaron_equivalence_verdict,
    has_pairing_property,
    i_number,
    is_isolatable,
    is_well_covered,
    isolatable_vertices,
    perfect_matchings,
    well_covered_report,
)
from wellcovered.products import direct_product
from wellcovered.verdicts import HOLDS


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return from_edge_list(n, chosen)


class TestFrozenValues:
    """Numbers frozen from an independent 2^n subset filter."""

    @pytest.mark.parametrize(
        "g, expect_i, expect_alpha, expect_wc",
        [
            (cycle(4), 2, 2, True),
            (cycle(5), 2, 2, True),
            (cycle(6), 2, 3, False),
            (cycle(7), 3, 3, True),
            (path(3), 1, 2, False),
            (complete(5), 1, 1, True),
            (complete_multipartite([2, 2, 2]), 2, 2, True),
            (h_family(4, 2), 4, 4, True),
        ],
    )
    def test_summary(self, g, expect_i, expect_alpha, expect_wc):
        assert i_number(g) == expect_i
        assert alpha(g) == expect_alpha
        assert is_well_covered(g) == expect_wc

    def test_very_well_covered(self):
        assert well_covered_report(cycle(4)).very_well_covered
        assert not well_covered_report(cycle(5)).very_well_covered
        assert not well_covered_report(complete(3)).very_well_covered
        # well-covered with an isolated vertex is not very well-covered
        g = from_edge_list(3, [(0, 1)])
        rep = well_covered_report(g)
        assert rep.well_covered and not rep.very_well_covered

    def test_report_json_shape(self):
        data = well_covered_report(cycle(4)).to_json()
        assert list(data) == [
            "n",
            "alpha",
            "i",
            "well_covered",
            "very_well_covered",
            "witness_min",
            "witness_max",
        ]
        assert data["witness_min"] == [0, 2]

    def test_path3_isolatable_ends_only(self):
        g = path(3)
        assert is_isolatable(g, 0)
        assert not is_isolatable(g, 1)
        assert is_isolatable(g, 2)
        assert to_vertices(isolatable_vertices(g)) == [0, 2]

    def test_degree_zero_is_isolatable(self):
        g = from_edge_list(3, [(1, 2)])
        assert is_isolatable(g, 0)

    def test_cycle7_all_isolatable(self):
        g = cycle(7)
        assert to_vertices(isolatable_vertices(g)) == list(range(7))

    def test_complete_none_isolatable(self):
        assert isolatable_vertices(complete(4)) == 0

    def test_star_berge_violation(self):
        g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        bad = berge_violation(g)
        # first violation in enumeration order: two leaves against one center
        assert bad == to_mask([1, 2])

    def test_cycle4_no_berge_violation(self):
        assert berge_violation(cycle(4)) is None


class TestIndependentSetEnumeration:
    def test_includes_empty_first(self):
        sets = list(enumerate_independent_sets(cycle(4)))
        assert sets[0] == 0
        assert len(sets) == 1 + 4 + 2  # empty, singletons, two diagonals

    @given(graphs())
    def test_matches_filter(self, g):
        ours = sorted(enumerate_independent_sets(g))
        expect = [m for m in range(1 << g.n) if is_independent(g.adj, m)]
        assert ours == expect


class TestMatchings:
    def test_matching_validation(self):
        with pytest.raises(ValueError):
            Matching(((0, 1), (1, 2)))

    def test_perfect_matchings_of_c6(self):
        found = list(perfect_matchings(cycle(6)))
        assert len(found) == 2
        assert all(m.is_perfect(cycle(6)) for m in found)

    def test_perfect_matchings_of_k4(self):
        assert len(list(perfect_matchings(complete(4)))) == 3

    def test_odd_order_has_none(self):
        assert list(perfect_matchings(cycle(5))) == []

    def test_pairing_property_on_c4(self):
        g = cycle(4)
        for m in perfect_matchings(g):
            assert has_pairing_property(g, m)

    def test_pairing_property_fails_on_c6(self):
        g = cycle(6)
        assert not any(has_pairing_property(g, m) for m in perfect_matchings(g))

    def test_pairing_property_on_p4(self):
        g = path(4)
        matchings = list(perfect_matchings(g))
        assert len(matchings) == 1
        assert has_pairing_property(g, matchings[0])


class TestKernelLimits:
    """The pure kernel rejects input beyond 64 vertices with the compiled
    kernel's messages instead of computing on it."""

    @pytest.mark.parametrize(
        "fn",
        [
            "maximal_independent_sets",
            "count_maximal_independent_sets",
            "independence_summary",
            "well_covered_size",
        ],
    )
    def test_rows(self, fn):
        full = (1 << 64) - 1
        assert _mis_fallback.independence_summary([0] * 64) == (64, 64, full, full)
        with pytest.raises(ValueError, match="kernel limited to 64 vertices"):
            getattr(_mis_fallback, fn)([0] * 65)

    def test_product(self):
        assert len(_mis_fallback.direct_product_adj([0] * 8, [0] * 8)) == 64
        with pytest.raises(ValueError, match="product exceeds 64 vertices"):
            _mis_fallback.direct_product_adj([0] * 13, [0] * 5)


def summary_oracle_graphs():
    rng = random.Random(2024)
    graphs = [random_graph(rng, rng.randint(1, 20), rng.random()) for _ in range(150)]
    families = [
        (cycle(12), complete(3)), (cycle(13), complete(3)), (cycle(14), complete(3)),
        (path(12), complete(3)), (path(14), complete(3)), (cycle(6), cycle(7)),
        (cycle(5), cycle(8)), (cycle(4), cycle(16)), (h_family(4, 2), complete(3)),
        (h_family(6, 2), complete(3)), (h_family(4, 3), complete(4)), (h_family(9, 1), complete(2)),
    ]
    graphs += [direct_product(g, h).graph for g, h in families]
    return graphs + [Graph(0, ()), complete(64)]


class TestBoundedSummary:
    """The pure summary skips subtrees that cannot improve i or alpha; it must
    still equal the extremes of the full enumeration, witnesses included."""

    @pytest.mark.parametrize("g", summary_oracle_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
    def test_matches_full_enumeration(self, g):
        sets = _mis_fallback.maximal_independent_sets(g.adj)
        # min and max return the first extreme element, i.e. in visit order
        wit_min = min(sets, key=int.bit_count)
        wit_max = max(sets, key=int.bit_count)
        expect = (wit_min.bit_count(), wit_max.bit_count(), wit_min, wit_max)
        assert _mis_fallback.independence_summary(g.adj) == expect
        if g.n <= 12:
            assert expect[:2] == brute_summary(g.adj, g.n)


class TestFavaronEquivalence:
    def test_holds_on_small_corpus(self):
        rng = random.Random(7)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 7), rng.random())
            vwc = well_covered_report(g).very_well_covered
            assert favaron_equivalence_verdict(g, vwc).status == HOLDS

    def test_statements_agree_on_named_graphs(self):
        for g in [cycle(4), cycle(5), cycle(6), path(4), complete(6), h_family(2, 2)]:
            vwc = well_covered_report(g).very_well_covered
            assert favaron_equivalence_verdict(g, vwc).status == HOLDS


class TestAgainstOracle:
    @given(graphs())
    def test_summary_matches_filter(self, g):
        expect = brute_maximal_independent_sets(g.adj, g.n)
        assert sorted(enumerate_maximal_independent_sets(g)) == expect
        assert (i_number(g), alpha(g)) == brute_summary(g.adj, g.n)

    @given(graphs())
    def test_well_covered_definition(self, g):
        sizes = {m.bit_count() for m in brute_maximal_independent_sets(g.adj, g.n)}
        assert is_well_covered(g) == (len(sizes) == 1)

    @given(graphs(max_n=6))
    def test_isolatable_definition(self, g):
        """x is isolatable iff some independent set avoiding N[x] covers N(x)."""
        for x in range(g.n):
            closed = g.adj[x] | 1 << x
            expect = False
            for s in range(1 << g.n):
                if s & closed:
                    continue
                if not is_independent(g.adj, s):
                    continue
                dominated = 0
                for v in to_vertices(s):
                    dominated |= g.adj[v]
                if g.adj[x] & ~dominated == 0:
                    expect = True
                    break
            assert is_isolatable(g, x) == expect

    @given(graphs(max_n=6))
    def test_witnesses_are_maximal_of_right_size(self, g):
        if g.n == 0:
            return
        rep = well_covered_report(g)
        for mask, size in ((rep.witness_min, rep.i_number), (rep.witness_max, rep.alpha)):
            assert mask.bit_count() == size
            assert is_independent(g.adj, mask)
            assert all(g.adj[v] & mask for v in range(g.n) if not mask >> v & 1)
