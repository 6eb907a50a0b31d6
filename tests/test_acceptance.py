"""Acceptance gate: seven exact combinatorial criteria covering the
dichotomy for complete factors, the named families, the cycle table, the
full claim suite, the partition engine, and the enumerator itself.

Each criterion prints one PASS line with its wall time; a failed assert
is the corresponding FAIL line in the pytest report.
"""

import itertools
import random
import time

from brute import brute_maximal_independent_sets, random_graph

from wellcovered import kernel
from wellcovered.claims import (
    CLAIM_IDS,
    COUNTEREXAMPLE,
    HOLDS,
    corpus_graph_n_instances,
    corpus_pair_instances,
    corpus_single_instances,
    run_suite,
    targeted_instances,
    verify,
)
from wellcovered.families import (
    complete,
    complete_multipartite,
    corona_with_k1,
    corpus,
    cycle,
    h_family,
    path,
)
from wellcovered.kn_partitions import (
    enumerate_valid_partitions,
    kn_alpha_i,
    mis_from_partition,
    partition_from_mis,
)
from wellcovered.products import direct_product


def announce(capsys, text, t0):
    with capsys.disabled():
        print(f"\n{text} ({time.perf_counter() - t0:.1f}s)")


def product_wc_size(g, h):
    return kernel.well_covered_size(direct_product(g, h).graph.adj)


def test_criterion_1_complete_dichotomy(capsys):
    t0 = time.perf_counter()
    for n, m in itertools.product(range(2, 6), repeat=2):
        wc = product_wc_size(complete(n), complete(m)) >= 0
        assert wc == (n == m), (n, m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    announce(capsys, "criterion 1 PASS: K_n x K_m well-covered iff n = m, 2..5", t0)


def test_criterion_2_h_family_products(capsys):
    t0 = time.perf_counter()
    for k, n in itertools.product((1, 2, 3, 4), (1, 2)):
        size = product_wc_size(h_family(k, n), complete(n + 1))
        assert size == k * (n + 1), (k, n)
    prod = direct_product(h_family(4, 2), complete(3))
    low, high, _, _ = kernel.independence_summary(prod.graph.adj)
    assert (low, high) == (12, 12)
    report = kn_alpha_i(h_family(4, 2), 3)
    assert (report.i_value, report.alpha_value) == (12, 12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    announce(capsys, "criterion 2 PASS: H(k,n) x K_{n+1} well-covered, 8 pairs; i = alpha = 12 at (4,2)", t0)


def test_criterion_3_multipartite_products(capsys):
    t0 = time.perf_counter()
    for r in (2, 3):
        assert product_wc_size(complete(3), complete_multipartite([r, r, r])) >= 0, r
    for r in (1, 2):
        g = complete_multipartite([r, r, r])
        prod = direct_product(g, g)
        sizes = {m.bit_count() for m in kernel.maximal_independent_sets(prod.graph.adj)}
        assert sizes == {3 * r * r}, r
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    announce(capsys, "criterion 3 PASS: K_3 x K_rrr well-covered, r in {2,3}; every square MIS has 3r^2", t0)


def test_criterion_4_cycle_table(capsys):
    t0 = time.perf_counter()
    table = {
        (m, n): product_wc_size(cycle(m), cycle(n)) >= 0
        for m, n in itertools.product(range(3, 8), repeat=2)
    }
    assert table[3, 3] and table[4, 4]
    assert not table[5, 5] and not table[7, 7]
    assert {pair for pair, wc in table.items() if wc} == {(3, 3), (4, 4)}
    vwc_holds = 0
    for m, n in table:
        verdict = verify("vwc_product", (cycle(m), cycle(n)))
        assert verdict.status != COUNTEREXAMPLE, (m, n)
        if verdict.status == HOLDS:
            vwc_holds += 1
    # C4 is the only very well-covered cycle, so its nine pairs are the
    # non-vacuous ones
    assert vwc_holds == 9
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    announce(capsys, "criterion 4 PASS: C_m x C_n table 3..7 matches; consistent on very well-covered factors", t0)


def test_criterion_5_theorem_suite(capsys, kernel_backend):
    t0 = time.perf_counter()
    instances = itertools.chain(
        targeted_instances(),
        corpus_single_instances(6),
        corpus_pair_instances(6, cap=36, representatives=True),
        corpus_pair_instances(4, cap=36),
        corpus_graph_n_instances(5, orders=(2, 3)),
    )
    report = run_suite(CLAIM_IDS, instances)
    assert report.passed
    assert report.counterexample_count == 0
    for claim_id in CLAIM_IDS:
        assert report.tallies[claim_id].holds >= 1, claim_id
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    checked = sum(t.holds + t.vacuous for t in report.tallies.values())
    announce(
        capsys,
        f"criterion 5 PASS ({kernel_backend} kernel): 23 claims, {checked} verdicts, "
        "0 counterexamples, all non-vacuous",
        t0,
    )


def test_criterion_6_partition_engine_oracle(capsys):
    """kn_alpha_i decodes the product summary, so its values are checked
    against the sizes of the enumerated maximal independent sets and, at
    small orders, against the weights of all valid partitions found by
    testing the four conditions on every labeling of V(G)."""
    t0 = time.perf_counter()
    graphs = 0
    round_trips = 0
    for g in corpus(6, connected_only=False):
        graphs += 1
        for n in (2, 3):
            prod = direct_product(g, complete(n))
            report = kn_alpha_i(g, n)
            assert report.argmin.violations() == []
            assert report.argmax.violations() == []
            sizes = []
            for mis in kernel.maximal_independent_sets(prod.graph.adj):
                p = partition_from_mis(g, n, mis)
                assert p.violations() == []
                assert p.weight() == mis.bit_count()
                assert mis_from_partition(p) == mis
                sizes.append(mis.bit_count())
                round_trips += 1
            assert (report.i_value, report.alpha_value) == (min(sizes), max(sizes))
            assert (report.argmin.weight(), report.argmax.weight()) == (min(sizes), max(sizes))
    partition_graphs = 0
    for g in corpus(4, connected_only=False):
        partition_graphs += 1
        for n in (2, 3):
            report = kn_alpha_i(g, n)
            weights = [p.weight() for p in enumerate_valid_partitions(g, n)]
            assert (report.i_value, report.alpha_value) == (min(weights), max(weights))
    announce(
        capsys,
        f"criterion 6 PASS: engine matches MIS enumeration on {graphs} graphs x {{2,3}} "
        f"and partition enumeration on {partition_graphs}; {round_trips} round trips",
        t0,
    )


def test_criterion_7_enumerator_against_subset_filter(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260822)
    pool = [random_graph(rng, rng.randint(1, 7), rng.uniform(0.15, 0.85)) for _ in range(200)]
    pool += [
        complete(5),
        cycle(7),
        path(6),
        complete_multipartite([2, 2, 2]),
        complete_multipartite([3, 3, 3]),
        complete_multipartite([1, 3]),
        h_family(2, 2),
        h_family(3, 1),
        h_family(4, 2),
        corona_with_k1(4),
    ]
    for g in pool:
        fast = sorted(kernel.maximal_independent_sets(g.adj))
        slow = brute_maximal_independent_sets(g.adj, g.n)
        assert fast == slow
    announce(
        capsys,
        f"criterion 7 PASS: enumerator equals subset filter on {len(pool)} graphs",
        t0,
    )
