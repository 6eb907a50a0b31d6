"""Direct product construction, layers, lifting, and the product bound
check, against hand-computed adjacency and the subset-filter oracle."""

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from brute import (
    brute_layers_g,
    brute_layers_h,
    brute_summary,
    graphs,
    is_independent,
    random_graph,
)
from wellcovered import kernel
from wellcovered.claims import (
    COUNTEREXAMPLE,
    HOLDS,
    REGISTRY,
    VACUOUS,
    GraphFacts,
    PairFacts,
    verify,
)
from wellcovered.families import complete, corpus_representatives, cycle, path
from wellcovered.graphs import CapacityError, Graph, from_edge_list, to_mask
from wellcovered.independence import well_covered_report
from wellcovered.products import direct_product, lift_independent, lifted_witnesses, spread


def graph_pairs():
    return st.tuples(graphs(max_n=5, min_n=1), graphs(max_n=5, min_n=1))


def definition_rows(g, h):
    """The product's rows straight from its definition: (g1, h1) and
    (g2, h2) are adjacent when g1g2 and h1h2 are both edges."""
    return [
        to_mask(
            g2 * h.n + h2
            for g2 in range(g.n)
            for h2 in range(h.n)
            if g.has_edge(g1, g2) and h.has_edge(h1, h2)
        )
        for g1 in range(g.n)
        for h1 in range(h.n)
    ]


class TestConstruction:
    def test_k2_times_k2_is_two_disjoint_edges(self):
        p = direct_product(complete(2), complete(2))
        # row-major order: (0,0),(0,1),(1,0),(1,1); edges (0,0)-(1,1), (0,1)-(1,0)
        assert sorted(p.graph.edges()) == [(0, 3), (1, 2)]

    def test_adjacency_definition(self):
        g, h = cycle(3), path(3)
        p = direct_product(g, h)
        for g1 in range(3):
            for h1 in range(3):
                for g2 in range(3):
                    for h2 in range(3):
                        expect = g.has_edge(g1, g2) and h.has_edge(h1, h2)
                        got = p.graph.has_edge(p.index(g1, h1), p.index(g2, h2))
                        assert got == expect

    def test_index_round_trip(self):
        p = direct_product(cycle(4), path(3))
        for g in range(4):
            for h in range(3):
                assert divmod(p.index(g, h), p.n_h) == (g, h)

    def test_vertex_ranges_checked(self):
        p = direct_product(path(2), complete(3))
        for g, h in [(2, 0), (0, 3), (-1, 0), (0, -1)]:
            with pytest.raises(ValueError, match=rf"\({g}, {h}\) outside factor ranges 2x3"):
                p.index(g, h)
        for g in (-1, 2):
            with pytest.raises(ValueError, match=f"vertex {g} outside first factor"):
                p.layer_h(g)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            direct_product(complete(9), complete(9))

    def test_commutativity_up_to_relabeling(self):
        g, h = cycle(5), path(4)
        a = direct_product(g, h).graph
        b = direct_product(h, g).graph
        assert kernel.independence_summary(a.adj)[:2] == kernel.independence_summary(b.adj)[:2]
        assert a.m == b.m

    def test_kernel_adjacency_matches_definition(self):
        rng = random.Random(5150)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 6), rng.random())
            h = random_graph(rng, rng.randint(1, 6), rng.random())
            assert kernel.direct_product_adj(g.adj, h.adj) == definition_rows(g, h)

    @pytest.mark.parametrize("n_g, n_h", [(1, 64), (2, 32), (8, 8), (5, 12), (16, 4), (64, 1)])
    def test_rows_match_definition_up_to_64_vertices(self, kernel_backend, n_g, n_h):
        """Each row is one multiplication in both kernels; the product's top
        layer block ends at bit 63, where a carry or an overflow would show."""
        rng = random.Random(n_g * 100 + n_h)
        for p in (0.3, 0.9, 1.0):
            g, h = random_graph(rng, n_g, p), random_graph(rng, n_h, p)
            assert kernel.direct_product_adj(g.adj, h.adj) == definition_rows(g, h)


class TestLayers:
    @given(graph_pairs())
    def test_layers_are_independent(self, pair):
        g, h = pair
        p = direct_product(g, h)
        for gv in range(g.n):
            assert is_independent(p.graph.adj, p.layer_h(gv))
        for hv in range(h.n):
            assert is_independent(p.graph.adj, p.layers_g(1 << hv))

    @pytest.mark.parametrize("stride", [0, 1, 2, 3, 4, 7, 8, 9, 32, 64])
    def test_spread_moves_each_bit(self, stride):
        """Bit v of the mask lands at bit v * stride, whatever bytes the mask
        spans; stride 0 folds every bit onto bit 0."""
        rng = random.Random(stride)
        masks = [0, 1, 0xFF, 0x100, (1 << 64) - 1]
        masks += [rng.getrandbits(rng.randrange(1, 65)) for _ in range(300)]
        for mask in masks:
            want = 0
            for v in range(mask.bit_length()):
                if mask >> v & 1:
                    want |= 1 << v * stride
            assert spread(mask, stride) == want

    def test_spread_rejects_a_negative_mask(self):
        with pytest.raises(ValueError, match="negative mask -1"):
            spread(-1, 3)

    def test_pairs_serialization(self):
        p = direct_product(cycle(3), path(2))
        s = to_mask([p.index(1, 0), p.index(2, 1)])
        assert p.pairs(s) == [(1, 0), (2, 1)]


class TestLifting:
    def test_lift_layer_union(self):
        g, h = cycle(5), complete(2)
        p = direct_product(g, h)
        lifted = lift_independent(p, to_mask([0, 2]))
        assert lifted == p.layer_h(0) | p.layer_h(2)

    @pytest.mark.parametrize(
        "g, h",
        [(cycle(32), complete(2)), (complete(2), cycle(32)), (cycle(16), complete(4))],
        ids=["C32xK2", "K2xC32", "C16xK4"],
    )
    def test_layers_against_pairs(self, g, h):
        """Both lifts at 64 vertices, where the top layer ends at bit 63,
        against the pair-by-pair oracle: every mask of a factor on at most
        16 vertices, and for C32 the empty and full masks, every mask of at
        most two vertices and 2,000 seeded ones."""
        p = direct_product(g, h)
        rng = random.Random(g.n * 100 + h.n)

        def masks(n):
            if n <= 16:
                return range(1 << n)
            few = [0, (1 << n) - 1] + [1 << v | 1 << u for v in range(n) for u in range(v, n)]
            return few + [rng.getrandbits(n) for _ in range(2000)]

        for mask in masks(g.n):
            assert p.layers_h(mask) == brute_layers_h(g.n, h.n, mask)
        for mask in masks(h.n):
            assert p.layers_g(mask) == brute_layers_g(g.n, h.n, mask)
        assert p.layers_h(g.vertex_mask) == p.layers_g(h.vertex_mask) == (1 << 64) - 1
        for v in range(g.n):
            assert p.layers_h(1 << v) == p.layer_h(v)

    @pytest.mark.parametrize("g, h", [(cycle(16), complete(4)), (complete(2), cycle(32))])
    def test_layers_reject_masks_outside_the_factor(self, g, h):
        p = direct_product(g, h)
        for mask in (1 << g.n, 1 << 63, -1):
            with pytest.raises(ValueError, match="outside the first factor"):
                p.layers_h(mask)
        for mask in (1 << h.n, 1 << 63, -1):
            with pytest.raises(ValueError, match="outside the second factor"):
                p.layers_g(mask)

    def test_lift_rejects_dependent_set(self):
        p = direct_product(cycle(5), complete(2))
        with pytest.raises(ValueError, match="not independent"):
            lift_independent(p, to_mask([0, 1]))


def bounds_check(g, h):
    return verify("trivial_bounds", (g, h))


def doctored(g, h, pair_u, pair_v):
    """G x H with the edge between product vertices pair_u and pair_v
    toggled, still carrying G and H."""
    p = direct_product(g, h)
    u, v = sorted((p.index(*pair_u), p.index(*pair_v)))
    graph = from_edge_list(p.graph.n, set(p.graph.edges()) ^ {(u, v)})
    return type(p)(graph, p.n_g, p.n_h, g, h)


def counted_bounds_check(monkeypatch, p, rep_g=None):
    """The trivial_bounds claim on the pair of factors that p carries, with p
    as their product, and the kernel summaries it runs once the factors are
    summarized counted.  ``rep_g`` stands in for the first factor's report."""
    f = PairFacts(GraphFacts(p.factor_g), GraphFacts(p.factor_h))
    f.__dict__["product"] = p
    f.g.__dict__["report"] = rep_g or f.g.report
    f.h.report
    calls = []
    original = kernel.independence_summary

    def counted(adj):
        calls.append(len(adj))
        return original(adj)

    monkeypatch.setattr(kernel, "independence_summary", counted)
    return REGISTRY["trivial_bounds"].check(f), calls


class TestBoundsCheck:
    def test_holds_for_isolate_free_pairs(self):
        rng = random.Random(2)
        seen_holds = 0
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 5), 0.6)
            h = random_graph(rng, rng.randint(1, 5), 0.6)
            verdict = bounds_check(g, h)
            assert verdict.status in (HOLDS, VACUOUS)
            if verdict.status == HOLDS:
                seen_holds += 1
        assert seen_holds > 0

    def test_certificates_skip_the_product_summary(self, monkeypatch):
        verdict, calls = counted_bounds_check(monkeypatch, direct_product(cycle(5), cycle(5)))
        assert verdict.status == HOLDS
        assert calls == []

    def test_failed_certificate_falls_back_to_exact_values(self, monkeypatch):
        # P3 x K2 is two copies of P3; the lifted maximum set {0, 2} x V(K2)
        # is its unique maximum independent set.  An edge inside it turns one
        # copy into a triangle, so alpha drops from 4 to 3, below the bound.
        p = doctored(path(3), complete(2), (0, 0), (2, 0))
        verdict, calls = counted_bounds_check(monkeypatch, p)
        assert calls == [6]
        assert verdict.status == COUNTEREXAMPLE
        assert verdict.witness == {
            "alpha_product": 3,
            "alpha_lower_bound": 4,
            "i_product": 2,
            "i_upper_bound": 2,
        }
        i_p, a_p = brute_summary(p.graph.adj, p.graph.n)
        assert (verdict.witness["i_product"], verdict.witness["alpha_product"]) == (i_p, a_p)

    @pytest.mark.parametrize(
        "pair_u, pair_v",
        [((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 0), (1, 1))],
        ids=["edge-in-maximum-set", "edge-in-minimum-set", "edge-off-minimum-set"],
    )
    def test_failed_certificate_holds_on_exact_values(self, monkeypatch, pair_u, pair_v):
        # K2 x K3 is a 6-cycle, alpha 3 >= 3 and i 2 <= 2.  An edge added
        # inside the lifted maximum set {0} x V(K3) or the lifted minimum set
        # V(K2) x {0} breaks its independence; removing the edge (0,0)(1,1)
        # leaves (1,1) undominated by the minimum set.  Each time the exact
        # values still hold.
        p = doctored(complete(2), complete(3), pair_u, pair_v)
        verdict, calls = counted_bounds_check(monkeypatch, p)
        assert calls == [6]
        assert verdict.status == HOLDS

    @pytest.mark.parametrize(
        "field, mask", [("witness_max", 0b001), ("witness_min", 0b101)],
        ids=["short-maximum-set", "long-minimum-set"],
    )
    def test_certificate_checks_witness_sizes(self, monkeypatch, field, mask):
        # P3 x K2 with a first-factor witness of the wrong size: lifted, it is
        # still independent (and dominating) but proves nothing about the
        # bound, so the exact summary decides, and the bounds hold.
        g = path(3)
        rep_g = dataclasses.replace(well_covered_report(g), **{field: mask})
        verdict, calls = counted_bounds_check(monkeypatch, direct_product(g, complete(2)), rep_g)
        assert calls == [6]
        assert verdict.status == HOLDS

    def test_vacuous_with_isolated_vertex(self):
        g = from_edge_list(2, [])
        assert bounds_check(g, complete(2)).status == VACUOUS

    def test_bounds_against_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 4), 0.7)
            h = random_graph(rng, rng.randint(2, 4), 0.7)
            p = direct_product(g, h)
            i_p, a_p = brute_summary(p.graph.adj, p.graph.n)
            i_g, a_g = brute_summary(g.adj, g.n)
            i_h, a_h = brute_summary(h.adj, h.n)
            has_iso = any(not r for r in g.adj) or any(not r for r in h.adj)
            if not has_iso:
                assert a_p >= max(a_g * h.n, a_h * g.n)
                assert i_p <= min(i_g * h.n, i_h * g.n)


def counted_decisions(monkeypatch) -> list[int]:
    """The orders of the graphs ``kernel.well_covered_size`` is asked about
    from now on."""
    calls = []
    original = kernel.well_covered_size

    def counted(adj):
        calls.append(len(adj))
        return original(adj)

    monkeypatch.setattr(kernel, "well_covered_size", counted)
    return calls


def brute_wc_size(graph: Graph) -> int:
    i, a = brute_summary(graph.adj, graph.n)
    return a if i == a else -1


# triangle 0-1-2 with the leaf 3 on vertex 0
PAW = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2)])


class TestCertifiedDecision:
    """``PairFacts.product_wc_size`` answers -1 without a search only from
    the lifted witnesses checked in the product; anything else is decided
    by the kernel."""

    def test_witnesses(self):
        # P3 x C4: {0, 2} x V(C4) and {1} x V(C4)
        p = direct_product(path(3), cycle(4))
        big, small = lifted_witnesses(p, well_covered_report(path(3)), well_covered_report(cycle(4)))
        assert (big.bit_count(), small.bit_count()) == (8, 4)
        assert big == p.layer_h(0) | p.layer_h(2)
        assert small == p.layer_h(1)

    def test_none_with_isolated_vertex(self):
        g, h = from_edge_list(3, [(0, 1)]), complete(2)
        p = direct_product(g, h)
        assert lifted_witnesses(p, well_covered_report(g), well_covered_report(h)) is None

    def test_failed_certificate_falls_through_to_the_kernel(self, monkeypatch):
        # K2 x paw is the paw's 8-vertex double cover, certified not
        # well-covered by 4 > 2.  Joining the two copies of the paw's centre
        # puts an edge inside the lifted maximal set V(K2) x {0}, so the
        # certificate fails, and the doctored graph is well-covered.
        f = PairFacts(GraphFacts(complete(2)), GraphFacts(PAW))
        f.__dict__["product"] = doctored(complete(2), PAW, (0, 0), (1, 0))
        assert f.lifted is None
        calls = counted_decisions(monkeypatch)
        assert f.product_wc_size == 4 == brute_wc_size(f.product.graph)
        assert calls == [8]

    @pytest.mark.parametrize(
        "g, h, report, size",
        [
            (path(3), complete(2), {"witness_max": 0b001}, -1),
            (complete(3), complete(3), {"alpha": 2, "witness_max": 0b011}, 3),
            (complete(3), complete(3), {"i_number": 0, "witness_min": 0}, 3),
        ],
        ids=["short-maximum-set", "dependent-maximum-set", "undominating-minimum-set"],
    )
    def test_false_report_falls_through_to_the_kernel(self, monkeypatch, g, h, report, size):
        # a first-factor report whose witness is too small, not independent
        # or not dominating: the checks in the product reject its lift, so
        # the kernel decides.  Unchecked, the last two would set 6 or 3
        # vertices against 3 or 0 and call K3 x K3 not well-covered.
        f = PairFacts(GraphFacts(g), GraphFacts(h))
        f.g.__dict__["report"] = dataclasses.replace(f.g.report, **report)
        assert f.lifted is None
        calls = counted_decisions(monkeypatch)
        assert f.product_wc_size == size
        assert calls == [g.n * h.n]

    def test_computed_report_is_not_a_third_source(self, monkeypatch):
        # C4 x C4 is well-covered, so the certificate cannot settle it: with
        # the product's report already computed the kernel still decides,
        # and agrees with the report
        f = PairFacts(GraphFacts(cycle(4)), GraphFacts(cycle(4)))
        report = f.product_report
        assert report.well_covered
        calls = counted_decisions(monkeypatch)
        assert f.product_wc_size == report.alpha == 8
        assert calls == [16]

    def test_agrees_with_kernel_and_subset_filter(self):
        reps = [GraphFacts(g) for g in corpus_representatives(5) if g.n >= 2]
        checked = 0
        for g in reps:
            for h in reps:
                f = PairFacts(g, h)
                product = f.product.graph
                size = f.product_wc_size
                assert size == kernel.well_covered_size(product.adj), (g.graph6, h.graph6)
                if product.n <= 16:
                    assert size == brute_wc_size(product), (g.graph6, h.graph6)
                checked += 1
        assert checked == 900
