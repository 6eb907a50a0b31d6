"""Weak-partition machinery for products with complete graphs: the four
validity conditions, the partition/MIS correspondence, and kn_alpha_i
against exhaustive enumeration of valid partitions."""

import random

import pytest

from brute import brute_decode, brute_encode, brute_violations, kn_product_adj
from wellcovered import claims, kernel, kn_partitions
from wellcovered.claims import COUNTEREXAMPLE, HOLDS, VACUOUS, verify
from wellcovered.families import complete, corpus, cycle, h_family, path
from wellcovered.formats import from_graph6, to_graph6
from wellcovered.graphs import CapacityError, Graph, from_edge_list, to_mask
from wellcovered.kn_partitions import (
    ENGINE_PRODUCT,
    InvalidPartition,
    WeakPartition,
    _kn_product,
    enumerate_valid_partitions,
    kn_alpha_i,
    layer_cardinality_check,
    mis_from_partition,
    necessary_condition_check,
    partition_from_mis,
)
from wellcovered.products import ProductGraph, direct_product


@pytest.fixture
def fresh_memo():
    """An empty product memo before the test and after it, so a product
    built or doctored here is never seen by another test."""
    _kn_product.cache_clear()
    yield
    _kn_product.cache_clear()


@pytest.fixture
def product_calls(monkeypatch, fresh_memo):
    """The argument tuples of every kernel.direct_product_adj call made
    during the test, starting from an empty product memo."""
    calls = []
    original = kernel.direct_product_adj

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernel, "direct_product_adj", counted)
    return calls


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

    def test_vertex_bits_outside_graph_reported_as_cover(self):
        p = WeakPartition(cycle(4), 2, 0b1111, (1 << 10, 0), 0)
        assert p.violations() == ["cover"]
        with pytest.raises(InvalidPartition, match="cover"):
            mis_from_partition(p)


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

    def test_bits_outside_product_rejected(self):
        with pytest.raises(ValueError, match="bits outside the 8 vertices"):
            partition_from_mis(cycle(4), 2, 1 << 100)
        with pytest.raises(ValueError, match="bits outside"):
            partition_from_mis(cycle(4), 2, 1 << 8)

    def test_product_over_64_vertices_raises_capacity_error(self):
        # a valid partition whose product K33 x K2 has 66 vertices
        g = complete(33)
        p = WeakPartition(g, 2, g.vertex_mask & ~1, (0, 0), 1)
        assert p.violations() == []
        with pytest.raises(CapacityError, match="33\\*2 = 66 vertices"):
            mis_from_partition(p)

    def test_product_built_once_per_graph_and_order(self, product_calls):
        """kn_alpha_i and the round trip of every maximal independent set
        of H(2,2) x K3 share one product."""
        g = h_family(2, 2)
        kn_alpha_i(g, 3)
        sets = kernel.maximal_independent_sets(_kn_product(g, 3).graph.adj)
        for mis in sets:
            assert mis_from_partition(partition_from_mis(g, 3, mis)) == mis
        assert len(sets) > 1
        assert len(product_calls) == 1

    def test_graph6_round_trip_shares_the_product(self, product_calls):
        """A family graph equals its graph6 round trip, so kn_alpha_i on the
        two finds one memoized product."""
        g = h_family(2, 2)
        parsed = from_graph6(to_graph6(g))
        assert parsed == g and hash(parsed) == hash(g)
        assert kn_alpha_i(g, 3) == kn_alpha_i(parsed, 3)
        assert len(product_calls) == 1

    @pytest.mark.parametrize("fault", ["non-independent", "non-maximal"])
    def test_product_check_still_runs(self, monkeypatch, fresh_memo, fault):
        """A product that disagrees with the partition makes the round trip
        raise: the maximality check reads the product, not the partition."""
        p = c5_partition()
        mis = mis_from_partition(p)
        _kn_product.cache_clear()
        original = kn_partitions.direct_product

        def doctored(g, h):
            prod = original(g, h)
            adj = list(prod.graph.adj)
            if fault == "non-independent":
                # one edge inside the encoded set
                u, w = [v for v in range(prod.graph.n) if mis >> v & 1][:2]
                adj[u] |= 1 << w
                adj[w] |= 1 << u
            else:
                # one vertex outside the set loses its edges into it
                u = next(v for v in range(prod.graph.n) if not mis >> v & 1)
                for w in range(prod.graph.n):
                    if mis >> w & 1:
                        adj[u] &= ~(1 << w)
                        adj[w] &= ~(1 << u)
            return ProductGraph(Graph(prod.graph.n, tuple(adj)), g.n, h.n, g, h)

        monkeypatch.setattr(kn_partitions, "direct_product", doctored)
        with pytest.raises(RuntimeError, match=f"produced a {fault} set"):
            mis_from_partition(p)

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


def random_partition(rng: random.Random, g: Graph) -> tuple:
    """A seeded random (n, V0, classes, bracket) for G: the partition of a
    random maximal independent set of G x K_n or a random labeling, then at
    most one corruption (wrong class count, overlapping parts, a missing
    vertex, or a bit outside V(G))."""
    n = rng.choice([1, 2, 2, 3, 3])
    if n >= 2 and rng.random() < 0.5:
        sets = kernel.maximal_independent_sets(direct_product(g, complete(n)).graph.adj)
        p = partition_from_mis(g, n, rng.choice(sets))
        parts = [p.v0, *p.classes, p.vbracket]
    else:
        parts = [0] * (n + 2)
        for v in range(g.n):
            parts[rng.randrange(n + 2)] |= 1 << v
    fault = rng.randrange(8)
    if fault == 0:
        parts.insert(1, 0) if rng.random() < 0.5 else parts.pop(1)
    elif fault == 1 and g.n:
        parts[rng.randrange(len(parts))] |= 1 << rng.randrange(g.n)
    elif fault == 2 and g.n:
        v = rng.randrange(g.n)
        parts = [p & ~(1 << v) for p in parts]
    elif fault == 3:
        parts[rng.randrange(len(parts))] |= 1 << g.n + rng.randrange(4)
    return n, parts[0], tuple(parts[1:-1]), parts[-1]


class TestViolationsOracle:
    def test_matches_per_vertex_oracle(self):
        rng = random.Random(7)
        graphs = list(corpus(5, connected_only=False))
        valid = 0
        for _ in range(4000):
            g = rng.choice(graphs)
            n, v0, classes, bracket = random_partition(rng, g)
            got = WeakPartition(g, n, v0, classes, bracket).violations()
            assert got == brute_violations(g, n, v0, classes, bracket), (g, n, v0, classes, bracket)
            valid += not got
        assert 500 <= valid <= 3500


def random_product_set(rng: random.Random, g: Graph, n: int, sets: list[int]) -> int:
    """A seeded random set of G x K_n given its maximal independent sets
    ``sets``: one of them, one with a bit flipped, a random subset, one with
    a bit past the product, or a negative number."""
    size = g.n * n
    kind = rng.randrange(6)
    if kind == 0 and size:
        return rng.choice(sets) ^ 1 << rng.randrange(size)
    if kind == 1:
        return rng.getrandbits(size) if size else 0
    if kind == 2:
        return rng.choice(sets) | 1 << size + rng.randrange(4)
    if kind == 3:
        return -rng.randrange(1, 1 << size + 1)
    return rng.choice(sets)


def outcome(call, *args):
    """What a call returns, or the class and message of the ValueError or
    RuntimeError it raises."""
    try:
        return call(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


class TestCodecOracle:
    """``partition_from_mis`` and ``mis_from_partition`` against
    ``brute_decode`` and ``brute_encode``, which count product indices per
    layer and encode (g, k) pairs into a product built from its definition."""

    @pytest.mark.parametrize(("n", "count"), [(2, 433), (3, 564), (4, 701)])
    def test_every_maximal_set_round_trips(self, n, count):
        checked = 0
        for g in corpus(4, connected_only=False):
            for mis in kernel.maximal_independent_sets(kn_product_adj(g, n)):
                want = brute_decode(g, n, mis)
                p = partition_from_mis(g, n, mis)
                assert (p.v0, p.classes, p.vbracket) == want, (to_graph6(g), mis)
                assert brute_encode(g, n, *want) == mis
                assert mis_from_partition(p) == mis
                checked += 1
        assert checked == count

    def test_random_sets_decode_like_the_oracle(self):
        """Valid and malformed sets: a malformed one raises ValueError with
        the oracle's message, naming the first defect."""
        rng = random.Random(11)
        graphs = list(corpus(5, connected_only=False))
        sets: dict[tuple[Graph, int], list[int]] = {}
        messages: set[str] = set()
        decoded = 0
        for _ in range(20000):
            g = rng.choice(graphs)
            n = rng.choice([0, 1, 2, 2, 3, 3, 4])
            if (g, n) not in sets:
                sets[g, n] = kernel.maximal_independent_sets(kn_product_adj(g, n)) if n else [0]
            mask = random_product_set(rng, g, n, sets[g, n])
            try:
                want = brute_decode(g, n, mask)
            except ValueError as exc:
                want = (ValueError, str(exc))
                messages.add(str(exc).split(" ")[0])
            got = outcome(partition_from_mis, g, n, mask)
            if isinstance(got, WeakPartition):
                got = (got.v0, got.classes, got.vbracket)
                decoded += 1
            assert got == want, (to_graph6(g), n, mask)
        assert messages == {"clique", "set", "layer"}
        assert 3000 <= decoded <= 17000

    def test_random_partitions_encode_like_the_oracle(self):
        """Valid and malformed partitions: a malformed one raises
        InvalidPartition with the oracle's message, naming the first
        requirement it breaks."""
        rng = random.Random(13)
        graphs = list(corpus(5, connected_only=False))
        reasons: set[str] = set()
        encoded = 0
        for _ in range(20000):
            g = rng.choice(graphs)
            n, v0, classes, bracket = random_partition(rng, g)
            try:
                want = brute_encode(g, n, v0, classes, bracket)
            except ValueError as exc:
                want = (InvalidPartition, str(exc))
                reasons.add(str(exc).removeprefix("invalid weak partition: ").split(" classes")[0])
            got = outcome(mis_from_partition, WeakPartition(g, n, v0, classes, bracket))
            encoded += isinstance(got, int)
            assert got == want, (to_graph6(g), n, v0, classes, bracket)
        assert reasons == {
            "clique order below 2",
            "expected 2",
            "expected 3",
            "disjointness",
            "cover",
            "condition 1",
            "condition 2",
            "condition 3",
            "condition 4",
        }
        assert 3000 <= encoded <= 17000


def greedy_maximal(adj: tuple[int, ...], seed: int, order) -> int:
    """The maximal independent set that grows the independent set ``seed``
    by each vertex of ``order`` in turn that has no neighbor in it yet."""
    s = seed
    for v in order:
        if not adj[v] & s:
            s |= 1 << v
    return s


# (G, n) with n(G) * n = 64, the product order cap
CAP_PRODUCTS = [(cycle(32), 2), (cycle(16), 4)]


class TestCodecAtTheCap:
    """Decoding and encoding on 64-vertex products G x K_n, where the top
    layer holds bit 63, against ``brute_decode`` and ``brute_encode``."""

    @staticmethod
    def cap_sets(g: Graph, n: int) -> dict[str, int]:
        """Named maximal independent sets of G x K_n for G = C_m: one with
        the full top layer and a class pair below it, and one whose two top
        layers are empty, cut off by full layers over 0 and m - 3."""
        adj = kn_product_adj(g, n)
        full = (1 << n) - 1
        top_seed = full << (g.n - 1) * n | 1 << 5 * n | 1 << 6 * n
        empty_seed = full | full << (g.n - 3) * n | 1 << 10 * n + 1 | 1 << 11 * n + 1
        return {
            "top layer": greedy_maximal(adj, top_seed, range(g.n * n)),
            "empty top layers": greedy_maximal(adj, empty_seed, range(g.n * n)),
        }

    @pytest.mark.parametrize(("g", "n"), CAP_PRODUCTS, ids=["C32xK2", "C16xK4"])
    def test_maximal_sets_round_trip(self, fresh_memo, g, n):
        sets = self.cap_sets(g, n)
        top, empty = sets["top layer"], sets["empty top layers"]
        assert top >> 63 & 1 and top.bit_length() == 64
        assert empty.bit_length() <= (g.n - 2) * n
        for name, mis in sets.items():
            want = brute_decode(g, n, mis)
            p = partition_from_mis(g, n, mis)
            assert (p.v0, p.classes, p.vbracket) == want, name
            assert p.violations() == [], name
            assert sum(1 for vk in p.classes if vk) >= 1, name
            assert p.weight() == mis.bit_count(), name
            assert brute_encode(g, n, *want) == mis, name
            assert mis_from_partition(p) == mis, name
        # the two empty top layers are V0 vertices
        assert partition_from_mis(g, n, empty).v0 >> g.n - 2 == 0b11

    @pytest.mark.parametrize(("g", "n"), CAP_PRODUCTS, ids=["C32xK2", "C16xK4"])
    def test_empty_set_decodes_to_v0(self, fresh_memo, g, n):
        p = partition_from_mis(g, n, 0)
        assert (p.v0, p.classes, p.vbracket) == brute_decode(g, n, 0)
        assert p == WeakPartition(g, n, g.vertex_mask, (0,) * n, 0)
        with pytest.raises(InvalidPartition, match="invalid weak partition: condition 4"):
            mis_from_partition(p)

    @pytest.mark.parametrize(("g", "n"), CAP_PRODUCTS, ids=["C32xK2", "C16xK4"])
    def test_bit_past_the_product_rejected(self, g, n):
        message = f"set has bits outside the 64 vertices of G x K_{n}"
        for mis in [0, *self.cap_sets(g, n).values()]:
            mask = mis | 1 << 64
            with pytest.raises(ValueError, match=message):
                brute_decode(g, n, mask)
            with pytest.raises(ValueError, match=message):
                partition_from_mis(g, n, mask)

    @pytest.mark.parametrize("vertex", [0, 5, 13, 15])
    def test_bad_layer_names_its_vertex(self, vertex):
        """C16 x K4: a layer met twice, the lowest such layer when a second
        bad layer sits above it, is reported with its vertex, also below
        two empty top layers."""
        g, n = cycle(16), 4
        for mis in self.cap_sets(g, n).values():
            bad = mis & ~(0b1111 << vertex * n) | 0b0101 << vertex * n
            messages = []
            for mask in (bad, bad & ~(0b1111 << 15 * n) | 0b0011 << 15 * n):
                with pytest.raises(ValueError) as want:
                    brute_decode(g, n, mask)
                with pytest.raises(ValueError) as got:
                    partition_from_mis(g, n, mask)
                assert str(got.value) == str(want.value)
                messages.append(str(got.value))
            expected = f"layer over vertex {vertex} meets the set in 2 vertices, outside {{0, 1, 4}}"
            assert messages == [expected, expected]

    def test_decoded_partition_equals_one_built_by_hand(self, fresh_memo):
        """C16 x K4 with bracket {0, 11, 13}, V1 = {5, 6} and V3 = {2, 3, 8,
        9}: the full layers over the bracket, clique vertex 0 over V1 and
        clique vertex 2 over V3.  The layers over 14 and 15 are empty."""
        g = cycle(16)
        mis = (
            0b1111 | 0b1111 << 11 * 4 | 0b1111 << 13 * 4
            | 1 << 5 * 4 | 1 << 6 * 4
            | 1 << 2 * 4 + 2 | 1 << 3 * 4 + 2 | 1 << 8 * 4 + 2 | 1 << 9 * 4 + 2
        )
        by_hand = WeakPartition(
            g,
            4,
            to_mask([1, 4, 7, 10, 12, 14, 15]),
            (to_mask([5, 6]), 0, to_mask([2, 3, 8, 9]), 0),
            to_mask([0, 11, 13]),
        )
        assert partition_from_mis(g, 4, mis) == by_hand
        assert by_hand.violations() == [] and by_hand.weight() == 18
        assert mis_from_partition(by_hand) == mis == brute_encode(g, 4, *brute_decode(g, 4, mis))

    def test_record_is_slotted_and_unhashable(self):
        p = partition_from_mis(cycle(16), 4, 0)
        assert not hasattr(p, "__dict__")
        assert p == WeakPartition(cycle(16), 4, cycle(16).vertex_mask, (0, 0, 0, 0), 0)
        with pytest.raises(TypeError, match="unhashable"):
            hash(p)


class TestEnumerateValidPartitions:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_per_vertex_oracle(self, n):
        """The valid partitions are the labelings of V(G) that the per-vertex
        oracle accepts, in the order of the labelings read as base n + 2
        numerals with vertex 0 the leading digit.  A label is 0 for V_0, k
        for V_k and n + 1 for the bracket."""
        base = n + 2
        for g in corpus(4, connected_only=False):
            want = []
            for code in range(base**g.n):
                parts = [0] * base
                for v in range(g.n):
                    parts[code // base ** (g.n - 1 - v) % base] |= 1 << v
                candidate = (parts[0], tuple(parts[1:-1]), parts[-1])
                if not brute_violations(g, n, *candidate):
                    want.append(candidate)
            got = [(p.v0, p.classes, p.vbracket) for p in enumerate_valid_partitions(g, n)]
            assert got == want, to_graph6(g)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: partition_from_mis(cycle(4), 1, 0),
            lambda: enumerate_valid_partitions(cycle(4), 1),
            lambda: layer_cardinality_check(direct_product(cycle(4), complete(1)), []),
            lambda: necessary_condition_check(cycle(4), 1),
        ],
        ids=["partition_from_mis", "enumerate", "layer_cardinality", "necessary_condition"],
    )
    def test_clique_order_below_2_rejected(self, call):
        with pytest.raises(ValueError, match="clique order must be at least 2"):
            call()


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
            assert layer_cardinality_check(prod, sets) is None
        assert verify("layer_sizes", (cycle(4), 2)).status == HOLDS

    def test_layer_check_witness(self):
        # {(0, 0), (0, 1)} meets the layer over vertex 0 of P3 x K3 in 2
        # vertices; it is not independent, and the check looks only at sizes
        prod = direct_product(path(3), complete(3))
        assert layer_cardinality_check(prod, [prod.layer_h(2), 0b011]) == {
            "mis": [(0, 0), (0, 1)],
            "vertex": 0,
            "layer_intersection_size": 2,
        }

    def test_necessary_condition_vacuous_when_not_wc(self):
        assert necessary_condition(cycle(5), 2).status == VACUOUS

    def test_necessary_condition_holds_on_k3(self):
        assert necessary_condition(complete(3), 3).status == HOLDS

    def test_necessary_condition_holds_with_active_degree(self):
        # corona of K3: clique vertices have degree 3 >= 2 and the product
        # with K2 is well-covered, so the conclusion is exercised
        assert necessary_condition(h_family(3, 1), 2).status == HOLDS

    def test_necessary_condition_witness(self):
        # the conclusion asked of C5 and K2 although C5 x K2 is not
        # well-covered: deleting N[0] leaves the edge 23, which has no
        # isolated vertex
        assert necessary_condition_check(cycle(5), 2) == {
            "vertex": 0,
            "degree": 2,
            "residual_vertices": [2, 3],
            "residual_min_degree": 1,
        }
        assert necessary_condition_check(complete(3), 3) is None

    def test_necessary_condition_counterexample_verdict(self):
        # C5 x K2 told well-covered through the facts the claim reads
        f = claims.facts_for(claims.SHAPE_GRAPH_N, (cycle(5), 2), claims.facts_cache())
        f.__dict__["product_wc_size"] = 5
        verdict = claims.REGISTRY["kn_necessary"].verdict(f)
        assert verdict.status == COUNTEREXAMPLE
        assert verdict.instance == {"graph6": "Dhc", "n": 2}
        assert verdict.witness == necessary_condition_check(cycle(5), 2)


def necessary_condition(g, n):
    return verify("kn_necessary", (g, n))
