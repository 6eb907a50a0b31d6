"""Independence-layer semantics: frozen small-case values computed by
independent brute force, matching and pairing-property behavior, and
property tests against the subset-filter oracle."""

import gc
import itertools
import operator
import random

import pytest
from hypothesis import given

from brute import (
    ascending_bits,
    brute_maximal_independent_sets,
    brute_perfect_matchings,
    brute_summary,
    graphs,
    is_independent,
    random_graph,
    recursive_independent_sets,
    reference_maximal_sets,
)
from wellcovered import _mis_fallback
from wellcovered.families import complete, complete_multipartite, corpus, cycle, h_family, path
from wellcovered.graphs import Graph, disjoint_union, from_edge_list, induced_subgraph, to_mask, to_vertices
from wellcovered.independence import (
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
        bad = berge_violation(g, enumerate_independent_sets(g))
        # first violation in enumeration order: two leaves against one center
        assert bad == to_mask([1, 2])

    def test_cycle4_no_berge_violation(self):
        g = cycle(4)
        assert berge_violation(g, enumerate_independent_sets(g)) is None


class TestIndependentSetEnumeration:
    def test_includes_empty_first(self):
        sets = list(enumerate_independent_sets(cycle(4)))
        assert sets[0] == 0
        assert len(sets) == 1 + 4 + 2  # empty, singletons, two diagonals

    @given(graphs(max_n=7))
    def test_matches_filter(self, g):
        ours = sorted(enumerate_independent_sets(g))
        expect = [m for m in range(1 << g.n) if is_independent(g.adj, m)]
        assert ours == expect

    def test_order_of_k0(self):
        assert list(enumerate_independent_sets(Graph(0, ()))) == [0]

    def test_order_matches_recursion_on_corpus(self):
        """Witnesses are the first failing set, so the order is pinned."""
        for g in corpus(5, connected_only=False):
            assert list(enumerate_independent_sets(g)) == list(recursive_independent_sets(g))

    def test_order_matches_recursion_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 16), rng.choice((0.2, 0.4, 0.6)))
            assert list(enumerate_independent_sets(g)) == list(recursive_independent_sets(g))


def brute_perfect_matching_count(g: Graph) -> int:
    """Perfect matchings counted over all n/2-edge subsets of the edges."""
    if g.n % 2:
        return 0
    return sum(
        1
        for chosen in itertools.combinations(list(g.edges()), g.n // 2)
        if len({v for e in chosen for v in e}) == g.n
    )


class TestMatchings:
    def test_perfect_matchings_of_c6(self):
        # the lowest unmatched vertex is paired with its neighbors in order
        assert list(perfect_matchings(cycle(6))) == [(1, 0, 3, 2, 5, 4), (5, 2, 1, 4, 3, 0)]

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
        assert matchings == [(1, 0, 3, 2)]
        assert has_pairing_property(g, matchings[0])

    def test_empty_graph_has_the_empty_matching(self):
        assert list(perfect_matchings(Graph(0, ()))) == [()]

    def test_order_against_involutions(self):
        """Every even-order graph on 2 to 6 vertices, isolated vertices
        allowed: the matchings come in the order of the involution filter,
        which is the lexicographic order of the partner tuples."""
        checked = 0
        for g in corpus(6, connected_only=False):
            if g.n % 2 == 0:
                assert list(perfect_matchings(g)) == brute_perfect_matchings(g)
                checked += 1
        assert checked == 2 + 64 + 32768

    def test_against_edge_subsets(self):
        """Every generated matching is an involution along edges with no
        fixed point, none repeats, and the count is the number of n/2-edge
        subsets that cover every vertex."""
        rng = random.Random(3)
        for _ in range(250):
            g = random_graph(rng, rng.randint(0, 8), rng.random())
            found = list(perfect_matchings(g))
            assert len(set(found)) == len(found) == brute_perfect_matching_count(g)
            for mate in found:
                assert len(mate) == g.n
                for v, u in enumerate(mate):
                    assert u != v and mate[u] == v and g.has_edge(v, u)


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


def large_family_products():
    """The 36- to 64-vertex family products of the large_products workload."""
    pairs = [
        (cycle(12), complete(3)), (cycle(13), complete(3)), (cycle(14), complete(3)),
        (path(12), complete(3)), (path(14), complete(3)),
        (cycle(6), cycle(7)), (cycle(5), cycle(8)), (cycle(4), cycle(16)),
        (h_family(4, 2), complete(3)), (h_family(6, 2), complete(3)),
        (h_family(4, 3), complete(4)), (h_family(9, 1), complete(2)),
    ]
    return [direct_product(g, h).graph for g, h in pairs]


def summary_oracle_graphs():
    rng = random.Random(2024)
    graphs = [random_graph(rng, rng.randint(1, 20), rng.random()) for _ in range(150)]
    graphs += large_family_products()
    families = [(cycle(5), cycle(7)), (path(8), complete(3)), (cycle(5), cycle(9)), (cycle(7), cycle(7))]
    graphs += [direct_product(g, h).graph for g, h in families]
    # walks that absorb many isolated vertices, in a bounded walk first;
    # their ids are tagged, as H_3,1 x H_3,1 has the order and size of a
    # large family product above
    absorbing = [
        (h_family(3, 1), h_family(3, 1)),
        (h_family(3, 2), complete(3)),
        (disjoint_union(complete(1), path(5)), complete(3)),
    ]
    for g, h in absorbing:
        p = direct_product(g, h).graph
        graphs.append(pytest.param(p, id=f"absorb-n{p.n}m{p.m}"))
    return graphs + [Graph(0, ()), complete(64)]


def split_oracle_graphs():
    """Graphs of several components: the summary walks them one at a time."""
    rng = random.Random(2025)
    families = [(cycle(6), cycle(6)), (cycle(4), cycle(8)), (path(4), path(6))]
    graphs = [direct_product(g, h).graph for g, h in families]
    return graphs + [
        disjoint_union(cycle(5), path(4)),
        disjoint_union(disjoint_union(complete(1), h_family(3, 2)), complete(1)),
        disjoint_union(random_graph(rng, 9, 0.3), random_graph(rng, 8, 0.5)),
    ]


def reference_order(g):
    """The maximal independent sets of g in the kernels' visit order, from
    the reference walk, which shares no code with the kernel's."""
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    return list(reference_maximal_sets(closed, g.vertex_mask))


def assert_summary_matches_enumeration(g):
    sets = reference_order(g)
    # min and max return the first extreme element, i.e. in visit order
    wit_min = min(sets, key=int.bit_count)
    wit_max = max(sets, key=int.bit_count)
    expect = (wit_min.bit_count(), wit_max.bit_count(), wit_min, wit_max)
    assert _mis_fallback.independence_summary(g.adj) == expect
    # the decision walks the same way and stops at a second size
    sizes = {s.bit_count() for s in sets}
    assert _mis_fallback.well_covered_size(g.adj) == (sizes.pop() if len(sizes) == 1 else -1)
    if g.n <= 12:
        assert expect[:2] == brute_summary(g.adj, g.n)


@pytest.fixture
def table_everywhere(monkeypatch):
    """Remember every finished state of every walk, small graphs included."""
    monkeypatch.setattr(_mis_fallback, "TABLE_MIN_ORDER", 0)
    monkeypatch.setattr(_mis_fallback, "TABLE_MIN_FREE", 1)
    monkeypatch.setattr(_mis_fallback, "TABLE_MIN_HITS", 0)


def table_soundness_graphs():
    rng = random.Random(2026)
    graphs = [random_graph(rng, rng.randint(2, 14), rng.random()) for _ in range(200)]
    families = [(cycle(12), complete(3)), (path(8), complete(3)), (cycle(5), cycle(5)), (cycle(5), cycle(7))]
    return graphs + [direct_product(g, h).graph for g, h in families]


def assert_table_is_sound(g):
    """Every entry the walk leaves holds, for the state (P, {}), the least and
    greatest completion sizes or bounds on them: the completions are the
    maximal independent sets of G[P], first to last in the order of a walk
    from P."""
    closed = _mis_fallback._closed_rows(g.adj)
    table = {}
    _mis_fallback._walk(closed, g.vertex_mask, table)
    for p, (c_lo, w_lo, c_hi, w_hi) in table.items():
        sets = list(reference_maximal_sets(closed, p))
        first_min = min(sets, key=int.bit_count)
        first_max = max(sets, key=int.bit_count)
        if p.bit_count() <= 12:
            sub = induced_subgraph(g, p)
            assert brute_summary(sub.adj, sub.n) == (first_min.bit_count(), first_max.bit_count())
        if w_lo:
            assert (c_lo, w_lo) == (first_min.bit_count(), first_min)
        else:
            assert c_lo <= first_min.bit_count()
        if w_hi:
            assert (c_hi, w_hi) == (first_max.bit_count(), first_max)
        else:
            assert c_hi >= first_max.bit_count()


class TestBoundedSummary:
    """The pure summary skips subtrees that cannot improve i or alpha; it must
    still equal the extremes of the full enumeration, witnesses included, and
    the decision that shares its walk must give their one size or -1."""

    @pytest.mark.parametrize("g", summary_oracle_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
    def test_matches_full_enumeration(self, g):
        assert_summary_matches_enumeration(g)

    @pytest.mark.parametrize("g", split_oracle_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
    def test_components_match_full_enumeration(self, g):
        assert_summary_matches_enumeration(g)

    def test_table_everywhere_matches_full_enumeration(self, table_everywhere):
        rng = random.Random(2027)
        for _ in range(300):
            assert_summary_matches_enumeration(random_graph(rng, rng.randint(1, 16), rng.random()))

    def test_bounds_everywhere_match_full_enumeration(self, monkeypatch):
        """The degree bounds of the pivot loop in every walk, small graphs
        included, and no table to settle nodes before them."""
        monkeypatch.setattr(_mis_fallback, "TABLE_MIN_ORDER", 0)
        monkeypatch.setattr(_mis_fallback, "TABLE_CAP", 0)
        rng = random.Random(2028)
        for _ in range(300):
            assert_summary_matches_enumeration(random_graph(rng, rng.randint(1, 16), rng.random()))

    def test_table_entries_are_sound(self, table_everywhere):
        for g in table_soundness_graphs():
            assert_table_is_sound(g)

    @pytest.mark.parametrize("cap", [0, 1])
    def test_table_cap_leaves_summary_unchanged(self, monkeypatch, cap):
        """A full table still answers lookups; an empty one answers none."""
        pairs = [(cycle(5), cycle(7)), (path(8), complete(3)), (h_family(9, 1), complete(2)), (path(14), complete(3))]
        graphs = [direct_product(g, h).graph for g, h in pairs]
        expect = [_mis_fallback.independence_summary(g.adj) for g in graphs]
        monkeypatch.setattr(_mis_fallback, "TABLE_CAP", cap)
        assert [_mis_fallback.independence_summary(g.adj) for g in graphs] == expect

    def test_walk_leaves_no_garbage(self):
        """The walk makes no reference cycles, so its table goes as soon as
        the call returns instead of waiting for the cyclic collector."""
        adj = direct_product(cycle(6), cycle(7)).graph.adj
        gc.collect()
        gc.disable()
        try:
            _mis_fallback.independence_summary(adj)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestByteTable:
    """The degree-bound loop of a bounded walk reads P's vertices from
    ``_BYTE_BITS``, a byte of P at a time; they must be the set bits of P,
    lowest first, as a per-bit scan lists them.  On the pure kernel,
    ``TestBoundedSummary::test_bounds_everywhere_match_full_enumeration``
    (``TABLE_MIN_ORDER = 0``) also runs that loop on 300 small graphs."""

    def test_every_entry(self):
        assert len(_mis_fallback._BYTE_BITS) == 8
        for j, rows in enumerate(_mis_fallback._BYTE_BITS):
            assert len(rows) == 256
            for b, row in enumerate(rows):
                assert row == tuple(ascending_bits(b << 8 * j))

    def test_chained_iteration(self):
        """The walk's iteration: the table rows of P's little-endian bytes,
        chained, for P in ``nbytes`` bytes, all 8 or just enough."""
        rng = random.Random(2031)
        masks = [0, (1 << 64) - 1, *(1 << v for v in range(64))]
        masks += [rng.getrandbits(64) for _ in range(2000)]
        for p in masks:
            expect = ascending_bits(p)
            for nbytes in 8, (p.bit_length() + 7) >> 3:
                rows = map(operator.getitem, _mis_fallback._BYTE_BITS, p.to_bytes(nbytes, "little"))
                assert list(itertools.chain.from_iterable(rows)) == expect

    def test_bounded_walk_in_the_high_bytes(self, monkeypatch):
        """C5 x C5, 25 vertices and not well-covered, on labels 39..63 of a
        64-vertex graph, so its bounded walk reads only bytes 4..7.  A
        monotone relabelling keeps the visit order, so the answer is the one
        on labels 0..24 shifted by 39."""
        low = direct_product(cycle(5), cycle(5)).graph
        shift = 64 - low.n
        adj = [0] * shift + [row << shift for row in low.adj]
        within = low.vertex_mask << shift
        read = []

        class Row:
            """A row of the table that notes the byte position of every
            nonzero byte looked up in it."""

            def __init__(self, j, rows):
                self.j, self.rows = j, rows

            def __getitem__(self, b):
                if b:
                    read.append(self.j)
                return self.rows[b]

        table = tuple(itertools.starmap(Row, enumerate(_mis_fallback._BYTE_BITS)))
        monkeypatch.setattr(_mis_fallback, "_BYTE_BITS", table)
        closed = [row | 1 << v for v, row in enumerate(adj)]
        sets = list(reference_maximal_sets(closed, within))
        wit_min = min(sets, key=int.bit_count)
        wit_max = max(sets, key=int.bit_count)
        expect = (wit_min.bit_count(), wit_max.bit_count(), wit_min, wit_max)
        assert _mis_fallback.independence_summary(adj, within) == expect
        assert read and min(read) >= shift >> 3
        assert _mis_fallback.well_covered_size(adj, within) == -1 == _mis_fallback.well_covered_size(low.adj)
        i, a, w_min, w_max = _mis_fallback.independence_summary(low.adj)
        assert expect == (i, a, w_min << shift, w_max << shift)
        assert i < a


class CountingRows(list):
    """Closed rows that count how often the walk reads one."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


class FirstSetReads(list):
    """An ``out`` list that notes how many rows were read when the first set
    was emitted."""

    def __init__(self, rows):
        super().__init__()
        self.rows = rows
        self.reads = None

    def append(self, s):
        if self.reads is None:
            self.reads = self.rows.reads
        super().append(s)


class TestAbsorption:
    """At a node with X empty whose pivot scan does not gather the degree
    bounds, the walk adds every vertex isolated in G[P] to S in one step.
    One pass over P then replaces a chain of nodes that each scan P up to
    the next isolated vertex, so the rows read before the first emitted set
    grow like |P|, not like |P| times the number of isolated vertices."""

    @staticmethod
    def reads_before_first_set(g):
        """The collect walk of ``maximal_independent_sets`` on counting rows:
        the reads before its first set; its sets are those of the reference
        walk, in order."""
        rows = CountingRows(_mis_fallback._closed_rows(g.adj))
        out = FirstSetReads(rows)
        _mis_fallback._walk(rows, g.vertex_mask, {}, out=out)
        assert out == _mis_fallback.maximal_independent_sets(g.adj) == reference_order(g)
        return out.reads

    @pytest.mark.parametrize("m, k", [(2, 40), (10, 30), (30, 30), (40, 20), (60, 4)])
    def test_isolated_vertices_behind_a_clique(self, m, k):
        """K_m on labels 0..m-1 and k isolated vertices above them: the
        root's scan reads every row once and absorbs all k."""
        g = disjoint_union(complete(m), Graph(k, (0,) * k))
        # the scan, the pivot's row and the first candidate's row
        assert self.reads_before_first_set(g) == m + k + 2

    @pytest.mark.parametrize("m, k", [(3, 40), (10, 30), (30, 30), (40, 20)])
    def test_star_behind_a_clique(self, m, k):
        """K_m and then a star whose k leaves come before its center.  The
        root branches at the first leaf, and taking it strands every other
        leaf behind the clique."""
        star = from_edge_list(k + 1, [(leaf, k) for leaf in range(k)])
        g = disjoint_union(complete(m), star)
        # two nodes, each a scan of its P, its pivot's row and a candidate's
        assert self.reads_before_first_set(g) == 2 * (m + k) + 4


def assert_sets_in_reference_order(g):
    sets = _mis_fallback.maximal_independent_sets(g.adj)
    assert sets == reference_order(g)
    assert _mis_fallback.count_maximal_independent_sets(g.adj) == len(sets)


class TestMaximalSetOrder:
    """The pure enumeration is the collect mode of the summary's walk; it
    must emit the sets of the reference walk, in its order, and the count
    must be the number of them."""

    def test_corpus(self):
        graphs = list(corpus(5, connected_only=False))
        assert len(graphs) == 1099
        for g in graphs:
            assert_sets_in_reference_order(g)

    def test_random_graphs(self):
        rng = random.Random(2029)
        for _ in range(200):
            assert_sets_in_reference_order(random_graph(rng, rng.randint(1, 24), rng.random()))

    @pytest.mark.parametrize("g", large_family_products(), ids=lambda g: f"n{g.n}m{g.m}")
    def test_large_family_products(self, g):
        assert_sets_in_reference_order(g)

    @pytest.mark.parametrize("n", [0, 64])
    def test_isolated_vertices(self, n):
        g = Graph(n, (0,) * n)
        assert _mis_fallback.maximal_independent_sets(g.adj) == [g.vertex_mask]
        assert_sets_in_reference_order(g)

    def test_collect_ignores_table_rules(self, table_everywhere, monkeypatch):
        """Collect never skips, tables or bounds a node, whatever the table
        constants say."""
        monkeypatch.setattr(_mis_fallback, "TABLE_CAP", 1)
        rng = random.Random(2030)
        for _ in range(100):
            assert_sets_in_reference_order(random_graph(rng, rng.randint(1, 16), rng.random()))


class TestFavaronEquivalence:
    def test_holds_on_small_corpus(self):
        rng = random.Random(7)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 7), rng.random())
            vwc = well_covered_report(g).very_well_covered
            assert favaron_equivalence_verdict(g, vwc) is None

    def test_statements_agree_on_named_graphs(self):
        for g in [cycle(4), cycle(5), cycle(6), path(4), complete(6), h_family(2, 2)]:
            vwc = well_covered_report(g).very_well_covered
            assert favaron_equivalence_verdict(g, vwc) is None

    def test_witness_of_a_disagreement(self):
        # C5 told very well-covered: it has no perfect matching at all
        assert favaron_equivalence_verdict(cycle(5), True) == {
            "very_well_covered": True,
            "some_matching_has_property": False,
            "all_matchings_have_property": False,
            "perfect_matching_count": 0,
            "matching_with_property": None,
        }
        # C4 told not very well-covered: both of its perfect matchings have
        # the pairing property, and the first found is {01, 23}
        assert favaron_equivalence_verdict(cycle(4), False) == {
            "very_well_covered": False,
            "some_matching_has_property": True,
            "all_matchings_have_property": True,
            "perfect_matching_count": 2,
            "matching_with_property": [[0, 1], [2, 3]],
        }


class TestAgainstOracle:
    @given(graphs(max_n=7))
    def test_summary_matches_filter(self, g):
        expect = brute_maximal_independent_sets(g.adj, g.n)
        assert sorted(enumerate_maximal_independent_sets(g)) == expect
        assert (i_number(g), alpha(g)) == brute_summary(g.adj, g.n)

    @given(graphs(max_n=7))
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
