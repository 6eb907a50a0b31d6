"""Weak-partition machinery for products with complete graphs: the four
validity conditions, the partition/MIS correspondence, and kn_alpha_i
against exhaustive enumeration of valid partitions."""

import pytest

from wellcovered import kernel
from wellcovered.families import complete, corpus, cycle, h_family, path
from wellcovered.graphs import CapacityError, Graph, from_edge_list, to_mask
from wellcovered.independence import is_well_covered
from wellcovered.kn_partitions import (
    ENGINE_PRODUCT,
    InvalidPartition,
    WeakPartition,
    enumerate_valid_partitions,
    kn_alpha_i,
    layer_cardinality_check,
    mis_from_partition,
    necessary_condition_check,
    partition_from_mis,
    partition_weight,
)
from wellcovered.products import direct_product
from wellcovered.verdicts import HOLDS, VACUOUS


def c5_partition():
    """V0 = N(0), V1 = rest, bracket = {0}: the construction used to bound
    i(G x K_n) for a vertex of degree >= n."""
    g = cycle(5)
    return WeakPartition(g, 2, to_mask([1, 4]), (to_mask([2, 3]), 0), to_mask([0]))


class TestConditions:
    def test_valid_example(self):
        p = c5_partition()
        assert p.violations() == []
        assert p.weight() == 4
        assert partition_weight(p) == 4

    def test_adjacent_bracket_rejected(self):
        g = cycle(5)
        p = WeakPartition(g, 2, to_mask([2, 3]), (to_mask([4]), 0), to_mask([0, 1]))
        assert "condition 3" in p.violations()

    def test_overlap_and_cover(self):
        g = cycle(5)
        p = WeakPartition(g, 2, to_mask([0, 1]), (to_mask([1, 2]), 0), 0)
        bad = p.violations()
        assert "disjointness" in bad and "cover" in bad

    def test_isolated_class_vertex_rejected(self):
        # V1 = {0, 2} is independent inside C5, so condition 2 fails
        g = cycle(5)
        p = WeakPartition(g, 2, to_mask([1, 3, 4]), (to_mask([0, 2]), 0), 0)
        assert "condition 2" in p.violations()

    def test_cross_class_edge_rejected(self):
        g = path(4)
        p = WeakPartition(g, 2, 0, (to_mask([0, 1]), to_mask([2, 3])), 0)
        assert "condition 1" in p.violations()

    def test_undominated_v0_rejected(self):
        g = path(3)
        p = WeakPartition(g, 2, to_mask([0]), (to_mask([1, 2]), 0), 0)
        assert "condition 4" in p.violations()

    def test_low_clique_order_rejected(self):
        g = cycle(5)
        p = WeakPartition(g, 1, g.vertex_mask, (0,), 0)
        assert "clique order below 2" in p.violations()

    def test_partition_weight_raises_with_reason(self):
        g = cycle(5)
        p = WeakPartition(g, 2, to_mask([2, 3]), (to_mask([4]), 0), to_mask([0, 1]))
        with pytest.raises(InvalidPartition, match="condition 1"):
            partition_weight(p)


class TestCorrespondence:
    def test_partition_to_mis_explicit(self):
        p = c5_partition()
        mis = mis_from_partition(p)
        prod = direct_product(cycle(5), complete(2))
        expect = prod.layer_h(0) | to_mask([prod.index(2, 0), prod.index(3, 0)])
        assert mis == expect

    def test_bad_layer_size_rejected(self):
        g = cycle(4)
        prod = direct_product(g, complete(3))
        # layers of size 2 cannot come from a maximal independent set
        fake = to_mask([prod.index(0, 0), prod.index(0, 1)])
        with pytest.raises(ValueError, match="outside"):
            partition_from_mis(g, 3, fake)

    @pytest.mark.parametrize("n", [2, 3])
    def test_round_trip_over_corpus(self, n):
        for g in corpus(4):
            prod = direct_product(g, complete(n))
            for mis in kernel.maximal_independent_sets(prod.graph.adj):
                p = partition_from_mis(g, n, mis)
                assert p.violations() == []
                assert p.weight() == mis.bit_count()
                assert mis_from_partition(p) == mis

    @pytest.mark.parametrize("n", [2, 3])
    def test_weights_enumerate_mis_sizes(self, n):
        """Valid partitions and maximal independent sets are in bijection,
        so their weight/size multisets agree."""
        for g in corpus(3, connected_only=False):
            prod = direct_product(g, complete(n))
            sizes = sorted(
                m.bit_count() for m in kernel.maximal_independent_sets(prod.graph.adj)
            )
            weights = sorted(p.weight() for p in enumerate_valid_partitions(g, n))
            assert weights == sizes


class TestEngine:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_product_enumeration(self, n):
        """The extremes agree with the weights of all valid partitions,
        found by checking the four conditions on every labeling of V(G)."""
        for g in corpus(4):
            report = kn_alpha_i(g, n)
            weights = [p.weight() for p in enumerate_valid_partitions(g, n)]
            low, high = min(weights), max(weights)
            assert (report.i_value, report.alpha_value) == (low, high)
            assert report.argmin.violations() == []
            assert report.argmax.violations() == []
            assert report.argmin.weight() == low
            assert report.argmax.weight() == high

    def test_h42_headline_value(self):
        report = kn_alpha_i(h_family(4, 2), 3)
        assert report.i_value == report.alpha_value == 12
        assert report.engine == ENGINE_PRODUCT == "product-enumeration"

    def test_c10_values(self):
        report = kn_alpha_i(cycle(5), 2)
        assert (report.i_value, report.alpha_value) == (4, 5)

    def test_product_vertex_cap(self):
        # H(k, n) x K_(n+1) has i = alpha = k(n+1); H(4,3) x K4 has exactly
        # 64 vertices, H(5,3) x K4 has 80
        report = kn_alpha_i(h_family(4, 3), 4)
        assert report.i_value == report.alpha_value == 16
        with pytest.raises(CapacityError):
            kn_alpha_i(h_family(5, 3), 4)

    def test_deterministic_witnesses(self):
        a = kn_alpha_i(cycle(7), 2)
        b = kn_alpha_i(cycle(7), 2)
        assert a.argmin == b.argmin and a.argmax == b.argmax

    def test_report_json_shape(self):
        data = kn_alpha_i(cycle(4), 2).to_json()
        assert list(data) == ["nG", "n", "i", "alpha", "engine", "argmin", "argmax"]
        assert set(data["argmin"]) == {"V0", "classes", "bracket"}
        assert all(isinstance(c, list) for c in data["argmin"]["classes"])

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            kn_alpha_i(cycle(4), 1)


class TestClaimChecks:
    def test_layer_check_holds_everywhere_small(self):
        for g in corpus(4):
            prod = direct_product(g, complete(2))
            sets = kernel.maximal_independent_sets(prod.graph.adj)
            assert layer_cardinality_check(prod, sets).status == HOLDS

    def test_necessary_condition_vacuous_when_not_wc(self):
        assert necessary_condition(cycle(5), 2).status == VACUOUS

    def test_necessary_condition_holds_on_k3(self):
        assert necessary_condition(complete(3), 3).status == HOLDS

    def test_necessary_condition_holds_with_active_degree(self):
        # corona of K3: clique vertices have degree 3 >= 2 and the product
        # with K2 is well-covered, so the conclusion is exercised
        assert necessary_condition(h_family(3, 1), 2).status == HOLDS


def necessary_condition(g, n):
    product_wc = is_well_covered(direct_product(g, complete(n)).graph)
    return necessary_condition_check(g, n, product_wc)
