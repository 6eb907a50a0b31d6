"""Claim registry: dispatch, known verdicts, tallying, and the suite
runner in both serial and parallel form."""

import dataclasses
import functools
import json
from collections import Counter

import networkx as nx
import pytest

from brute import brute_maximal_independent_sets
from wellcovered import claims, cli, independence, kernel
from wellcovered.claims import (
    CLAIM_IDS,
    COUNTEREXAMPLE,
    HOLDS,
    REGISTRY,
    SKIPPED,
    VACUOUS,
    ClaimTally,
    ClaimVerdict,
    GraphFacts,
    PairFacts,
    SuiteReport,
    corpus_graph_n_instances,
    corpus_pair_instances,
    corpus_single_instances,
    instance_shape,
    run_suite,
    run_suite_parallel,
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
from wellcovered.formats import to_graph6
from wellcovered.graphs import (
    bits,
    closed_neighborhood,
    disjoint_union,
    is_complete,
    neighborhood,
    residual,
    to_mask,
)
from wellcovered.kn_partitions import kn_alpha_i

EXPECTED_IDS = (
    "inverse_image",
    "trivial_bounds",
    "residual_wc",
    "clique_leftover",
    "wc_direct",
    "berge",
    "favaron",
    "vwc_product",
    "layer_sizes",
    "kn_necessary",
    "bipartite_isolation",
    "closed_nbhd_size",
    "regularity",
    "k3_dichotomy",
    "no_isolatable_complete",
    "both_complete",
    "no_bipartite_residual",
    "edge_triangle",
    "girth_three",
    "twins",
    "h_family_product",
    "multipartite_square",
    "support_leaf_unique",
)

PAIR_IDS = frozenset(
    {
        "inverse_image",
        "trivial_bounds",
        "wc_direct",
        "vwc_product",
        "closed_nbhd_size",
        "regularity",
        "no_isolatable_complete",
        "both_complete",
        "no_bipartite_residual",
        "edge_triangle",
        "girth_three",
    }
)
GRAPH_N_IDS = frozenset({"layer_sizes", "kn_necessary", "h_family_product"})


class TestRegistry:
    def test_ids_frozen(self):
        assert CLAIM_IDS == EXPECTED_IDS

    def test_shapes(self):
        for claim_id, claim in REGISTRY.items():
            if claim_id in PAIR_IDS:
                assert claim.shape == "graph-pair"
            elif claim_id in GRAPH_N_IDS:
                assert claim.shape == "graph-plus-n"
            else:
                assert claim.shape == "single-graph"

    def test_every_check_registered_once(self):
        """A check that loses its ``@_claim`` fails here instead of silently
        dropping its claim from the registry."""
        checks = [fn for name, fn in vars(claims).items() if name.startswith("_check_")]
        assert len(checks) == len(REGISTRY)
        for fn in checks:
            assert sum(claim.check is fn for claim in REGISTRY.values()) == 1, fn.__name__

    def test_summaries_present(self):
        assert all(claim.summary for claim in REGISTRY.values())

    def test_instance_shape(self):
        k2 = complete(2)
        assert instance_shape(k2) == "single-graph"
        assert instance_shape((k2, k2)) == "graph-pair"
        assert instance_shape((k2, 3)) == "graph-plus-n"
        with pytest.raises(TypeError, match="unrecognized"):
            instance_shape("Bw")

    def test_dispatch_errors(self):
        with pytest.raises(KeyError, match="unknown claim"):
            verify("nope", complete(2))
        with pytest.raises(TypeError, match="expects"):
            verify("berge", (complete(2), complete(2)))


class TestKnownVerdicts:
    """Spot checks with verdicts worked out by hand."""

    def test_berge(self):
        assert verify("berge", cycle(7)).status == HOLDS
        # an isolated vertex knocks out the hypothesis
        assert verify("berge", disjoint_union(complete(2), complete(1))).status == VACUOUS

    def test_wc_direct(self):
        pair = (disjoint_union(complete(2), complete(1)), complete(2))
        assert verify("wc_direct", pair).status == HOLDS
        # an edgeless factor makes every layer-union maximal, so the claim
        # does not apply
        assert verify("wc_direct", (complete(1), cycle(6))).status == VACUOUS

    def test_bipartite_isolation_reads_no_isolatable_set(self, monkeypatch):
        """The residual of each closed neighborhood settles the claim; the
        set of isolatable vertices is never computed for it."""

        def no_isolatable(g):
            raise AssertionError("isolatable_vertices was called")

        monkeypatch.setattr(claims, "isolatable_vertices", no_isolatable)
        assert verify("bipartite_isolation", cycle(4)).status == HOLDS

    def test_inverse_image(self):
        assert verify("inverse_image", (cycle(4), cycle(4))).status == HOLDS
        assert verify("inverse_image", (complete(2), complete(1))).status == VACUOUS

    def test_girth_three(self):
        # K3 x K3 is well-covered with 2 alpha < 9, so the hypothesis bites
        assert verify("girth_three", (complete(3), complete(3))).status == HOLDS
        # C4 x K2 is very well-covered, so it does not
        assert verify("girth_three", (cycle(4), complete(2))).status == VACUOUS

    def test_multipartite_square(self):
        assert verify("multipartite_square", complete_multipartite([2, 2, 2])).status == HOLDS
        assert verify("multipartite_square", cycle(5)).status == VACUOUS

    def test_k3_dichotomy(self):
        assert verify("k3_dichotomy", complete(3)).status == HOLDS
        # P2 x K3 is not well-covered
        assert verify("k3_dichotomy", path(2)).status == VACUOUS

    def test_h_family_product(self):
        assert verify("h_family_product", (h_family(2, 2), 3)).status == HOLDS
        assert verify("h_family_product", (cycle(4), 2)).status == VACUOUS

    def test_kn_necessary(self):
        assert verify("kn_necessary", (complete(3), 3)).status == HOLDS
        assert verify("kn_necessary", (cycle(5), 2)).status == VACUOUS

    def test_twins(self):
        assert verify("twins", cycle(4)).status == HOLDS
        assert verify("twins", path(4)).status == VACUOUS

    def test_support_leaf_unique(self):
        assert verify("support_leaf_unique", corona_with_k1(2)).status == HOLDS
        # the star has a support vertex with three leaves but is not
        # well-covered, so the claim is silent
        assert verify("support_leaf_unique", complete_multipartite([1, 3])).status == VACUOUS

    def test_verdict_serialization(self):
        v = verify("berge", cycle(7))
        data = v.to_json()
        assert data["claim"] == "berge"
        assert data["status"] == "holds"
        assert set(data["instance"]) == {"graph6"}


def forced(facts, **values):
    """``facts`` with lazy facts preset, so a claim runs its
    conclusion on an instance whose hypothesis does not really hold."""
    for name, value in values.items():
        if name == "report":
            value = dataclasses.replace(facts.report, **value)
        facts.__dict__[name] = value
    return facts


def pair_facts(g, h, **values):
    """The facts of (G, H), with the given facts preset on the pair."""
    return forced(PairFacts(GraphFacts(g), GraphFacts(h)), **values)


def without_isolatable(f):
    """``f`` with neither factor taken to have an isolatable vertex."""
    forced(f.g, isolatable_mask=0)
    forced(f.h, isolatable_mask=0)
    return f


def mis_sizes(g):
    return {s.bit_count() for s in brute_maximal_independent_sets(g.adj, g.n)}


def counterexample(claim_id, facts, keys):
    """The witness of ``claim_id`` on ``facts``, after checking that the
    check finds a counterexample and that the witness has ``keys``."""
    status, witness = REGISTRY[claim_id].check(facts)
    assert status == COUNTEREXAMPLE
    assert list(witness) == keys
    return witness


class TestForcedWitnesses:
    """Counterexample witnesses worked out by hand, reached by presetting a
    fact the hypothesis reads; none of these graphs really satisfies it.  No
    real instance reaches these counterexample branches.  The newer tests
    also re-check each witness on its graphs with the ``graphs`` primitives,
    the subset filter or networkx, apart from the parts that only echo a
    preset fact."""

    def test_residual_wc(self):
        # S = {} leaves all of P3, where i = 1 (the centre) and alpha = 2
        f = forced(GraphFacts(path(3)), report={"well_covered": True})
        verdict = REGISTRY["residual_wc"].check(f)
        assert verdict.status == COUNTEREXAMPLE
        assert verdict.witness == {
            "independent_set": [],
            "residual_vertices": [0, 1, 2],
            "residual_i": 1,
            "residual_alpha": 2,
        }

    def test_clique_leftover(self):
        # with alpha taken as 2, S = {0} of C6 leaves the path 2-3-4
        f = forced(GraphFacts(cycle(6)), report={"alpha": 2})
        verdict = REGISTRY["clique_leftover"].check(f)
        assert verdict.status == COUNTEREXAMPLE
        assert verdict.witness == {"independent_set": [0], "residual_vertices": [2, 3, 4]}

    def test_bipartite_isolation(self):
        # C6 is bipartite with minimum degree 2; N[0] leaves the path 2-3-4
        f = forced(GraphFacts(cycle(6)), report={"well_covered": True})
        verdict = REGISTRY["bipartite_isolation"].check(f)
        assert verdict.status == COUNTEREXAMPLE
        assert verdict.witness == {"vertex": 0, "residual_vertices": [2, 3, 4]}

    def test_no_bipartite_residual(self):
        # C7 itself is an odd cycle; N[0] leaves the path 2-3-4-5
        f = forced(PairFacts(GraphFacts(cycle(7)), GraphFacts(complete(2))), product_wc_size=1)
        assert f.wc_not_vwc
        verdict = REGISTRY["no_bipartite_residual"].check(f)
        assert verdict.status == COUNTEREXAMPLE
        assert verdict.witness == {"independent_set": [0], "component_vertices": [2, 3, 4, 5]}

    def test_multipartite_square(self):
        # C4 = K(2, 2), whose square is in fact well-covered with
        # i = alpha = 8; the witness is read off the square's summary
        f = GraphFacts(cycle(4))
        forced(f.square, product_wc_size=-1)
        verdict = REGISTRY["multipartite_square"].check(f)
        assert verdict.status == COUNTEREXAMPLE
        assert verdict.witness == {"square_i": 8, "square_alpha": 8}

    def test_h_family_product(self):
        # H(2,2) x K3 is in fact well-covered with i = alpha = 6; the witness
        # is the product's summary, decoded into weak partitions
        f = claims.facts_for(claims.SHAPE_GRAPH_N, (h_family(2, 2), 3), claims.facts_cache())
        forced(f, product_wc_size=-1)
        verdict = REGISTRY["h_family_product"].verdict(f)
        assert verdict.status == COUNTEREXAMPLE
        assert verdict.instance == {"graph6": to_graph6(h_family(2, 2)), "n": 3}
        report = kn_alpha_i(h_family(2, 2), 3)
        assert verdict.witness == {
            "i": 6,
            "alpha": 6,
            "argmin": report.argmin.to_json(),
            "argmax": report.argmax.to_json(),
        }


    def test_inverse_image(self):
        # {0} is not a maximal independent set of P3: vertex 2 is undominated
        f = pair_facts(path(3), complete(2))
        forced(f.g, mis_list=[to_mask([0])])
        witness = counterexample("inverse_image", f, ["factor_mis", "lifted"])
        assert witness == {"factor_mis": [0], "lifted": [(0, 0), (0, 1)]}
        prod = f.product
        lifted = to_mask(prod.index(g, h) for g, h in witness["lifted"])
        assert residual(prod.graph, lifted)

    def test_wc_direct_factor_not_well_covered(self):
        f = pair_facts(path(3), complete(2), product_wc_size=2)
        witness = counterexample("wc_direct", f, ["g_well_covered", "h_well_covered"])
        assert witness == {"g_well_covered": False, "h_well_covered": True}
        assert mis_sizes(path(3)) == {1, 2} and mis_sizes(complete(2)) == {1}

    def test_wc_direct_ratios_differ(self):
        f = pair_facts(complete(2), complete(3), product_wc_size=1)
        keys = ["alpha_g_positive", "n_g_positive", "alpha_h_positive", "n_h_positive"]
        witness = counterexample("wc_direct", f, keys)
        assert witness == dict(zip(keys, [1, 2, 1, 3]))
        assert mis_sizes(complete(2)) == mis_sizes(complete(3)) == {1}

    def test_berge(self):
        g = path(3)
        f = forced(GraphFacts(g), report={"well_covered": True})
        witness = counterexample("berge", f, ["independent_set", "open_neighborhood"])
        assert witness == {"independent_set": [0, 2], "open_neighborhood": [1]}
        s = to_mask(witness["independent_set"])
        assert not neighborhood(g, s) & s
        assert neighborhood(g, s) == to_mask(witness["open_neighborhood"])
        assert s.bit_count() > neighborhood(g, s).bit_count()

    def test_vwc_product(self):
        # K3 is taken as very well-covered; C4 x K3 is in fact not
        # well-covered, so it is not very well-covered either
        f = pair_facts(cycle(4), complete(3))
        forced(f.h, report={"very_well_covered": True})
        keys = [
            "product_well_covered",
            "product_very_well_covered",
            "both_factors_very_well_covered",
        ]
        witness = counterexample("vwc_product", f, keys)
        assert witness == dict(zip(keys, [False, False, True]))
        assert len(mis_sizes(f.product.graph)) > 1

    def test_closed_nbhd_size(self):
        # P3 x K2 is taken as well-covered and P3 as free of isolatable
        # vertices; alpha(P3) = 2, so {0} would need 3 / 2 closed neighbors
        g = path(3)
        f = without_isolatable(pair_facts(g, complete(2), product_wc_size=2))
        keys = ["independent_set", "closed_neighborhood", "alpha", "order"]
        witness = counterexample("closed_nbhd_size", f, keys)
        assert witness == dict(zip(keys, [[0], [0, 1], 2, 3]))
        s = to_mask(witness["independent_set"])
        closed = closed_neighborhood(g, s)
        assert closed == to_mask(witness["closed_neighborhood"])
        assert max(mis_sizes(g)) == witness["alpha"]
        assert closed.bit_count() * witness["alpha"] != s.bit_count() * g.n

    def test_regularity(self):
        g = path(3)
        f = without_isolatable(pair_facts(g, complete(2), product_wc_size=2))
        witness = counterexample("regularity", f, ["regular_degree", "alpha", "order"])
        assert witness == {"regular_degree": None, "alpha": 2, "order": 3}
        assert g.degree(0) != g.degree(1)

    def test_k3_dichotomy(self):
        # P3 x K3 is taken as well-covered and P3 as free of isolatable vertices
        g = path(3)
        f = forced(GraphFacts(g), isolatable_mask=0)
        forced(f.clique(3), product_wc_size=3)
        witness = counterexample("k3_dichotomy", f, ["complete_of_order_3", "isolatable_vertices"])
        assert witness == {"complete_of_order_3": False, "isolatable_vertices": []}
        assert not g.has_edge(0, 2)

    def test_no_isolatable_complete(self):
        g = path(3)
        f = without_isolatable(pair_facts(g, complete(2), product_wc_size=2))
        witness = counterexample("no_isolatable_complete", f, ["nonadjacent_pair"])
        assert witness == {"nonadjacent_pair": [0, 2]}
        assert not g.has_edge(*witness["nonadjacent_pair"])

    def test_both_complete(self):
        g, h = path(3), complete(2)
        f = without_isolatable(pair_facts(g, h, product_wc_size=2))
        witness = counterexample("both_complete", f, ["g_complete", "h_complete", "orders"])
        assert witness == {"g_complete": False, "h_complete": True, "orders": [3, 2]}
        assert is_complete(h) and g.m < g.n * (g.n - 1) // 2

    def test_edge_triangle(self):
        # C5 x K2 is taken as well-covered with 1 of its 10 vertices per
        # maximal set, so not very well-covered; C5 has no triangle
        g = cycle(5)
        f = pair_facts(g, complete(2), product_wc_size=1)
        assert f.wc_not_vwc
        witness = counterexample("edge_triangle", f, ["factor", "edge"])
        assert witness == {"factor": "g", "edge": [0, 1]}
        for w in witness["edge"]:
            assert not any(g.adj[w] & g.adj[a] for a in bits(g.adj[w]))

    def test_girth_three(self):
        g, h = cycle(5), complete(2)
        f = pair_facts(g, h, product_wc_size=1)
        witness = counterexample("girth_three", f, ["girth_g", "girth_h"])
        assert witness == {"girth_g": 5, "girth_h": "infinite"}
        assert nx.girth(nx.cycle_graph(5)) == 5 and h.m == h.n - 1

    def test_twins(self):
        # {0} is taken as a maximal independent set of C4: it holds twin 0
        # but not twin 2 and misses their common neighbors 1 and 3
        g = cycle(4)
        f = forced(GraphFacts(g), mis_list=[to_mask([0])])
        witness = counterexample("twins", f, ["mis", "twin_pair"])
        assert witness == {"mis": [0], "twin_pair": [0, 2]}
        u, v = witness["twin_pair"]
        mis = to_mask(witness["mis"])
        assert g.adj[u] == g.adj[v]
        assert not g.adj[u] & mis and (mis >> u & 1) != (mis >> v & 1)

    def test_support_leaf_unique(self):
        g = path(3)
        f = forced(GraphFacts(g), report={"well_covered": True})
        witness = counterexample("support_leaf_unique", f, ["support", "adjacent_leaves"])
        assert witness == {"support": 1, "adjacent_leaves": [0, 2]}
        for leaf in witness["adjacent_leaves"]:
            assert g.adj[leaf] == 1 << witness["support"]


@pytest.mark.parametrize(
    "graph, capped",
    [(h_family(11, 1), "k3_dichotomy"), (complete_multipartite([3, 3, 3]), "multipartite_square")],
    ids=["H(11,1)xK3", "K333xK333"],
)
class TestProductPastTheCap:
    """A single-graph claim whose product passes 64 vertices is counted as
    skipped, and every other claim on the instance still runs."""

    def test_run_suite(self, graph, capped):
        report = run_suite(CLAIM_IDS, [graph])
        assert report.passed
        for claim_id, tally in report.tallies.items():
            counted = tally.holds + tally.vacuous + len(tally.counterexamples)
            if REGISTRY[claim_id].shape != claims.SHAPE_GRAPH:
                assert (counted, tally.skipped) == (0, 0)
            elif claim_id == capped:
                assert (counted, tally.skipped) == (0, 1)
                assert report.to_json()[claim_id]["skipped"] == 1
            else:
                assert (counted, tally.skipped) == (1, 0)
                assert "skipped" not in report.to_json()[claim_id]

    def test_verify(self, graph, capped):
        for claim_id in CLAIM_IDS:
            if REGISTRY[claim_id].shape == claims.SHAPE_GRAPH:
                status = verify(claim_id, graph).status
                assert (status == SKIPPED) == (claim_id == capped)
                assert status != COUNTEREXAMPLE


# pairs past the cap, and H(4,2) x K5 at 60 vertices just inside it
NEAR_THE_CAP = [
    (cycle(11), complete(6)),
    (path(9), cycle(8)),
    (disjoint_union(complete(2), complete(1)), cycle(22)),
    (h_family(4, 2), complete(5)),
    (complete(9), complete(8)),
    (corona_with_k1(5), cycle(7)),
]


class TestPairsPastTheCap:
    """A pair claim reads the product decision before its factor-only facts
    only while the product fits the cap.  Past it, a factor fact that fails
    still makes the verdict vacuous rather than skipped.  These (holds,
    vacuous, skipped) tallies were read before the decision was read first;
    reading it first past the cap too turns vacuous verdicts into skips."""

    EXPECTED = {
        "inverse_image": (1, 0, 5),
        "trivial_bounds": (1, 1, 4),
        "wc_direct": (0, 1, 5),
        "vwc_product": (0, 5, 1),
        "closed_nbhd_size": (0, 5, 1),
        "regularity": (0, 5, 1),
        "no_isolatable_complete": (0, 2, 4),
        "both_complete": (0, 5, 1),
        "no_bipartite_residual": (0, 2, 4),
        "edge_triangle": (0, 2, 4),
        "girth_three": (0, 2, 4),
    }

    def test_tallies(self):
        assert [g.n * h.n for g, h in NEAR_THE_CAP] == [66, 72, 66, 60, 72, 70]
        report = run_suite(CLAIM_IDS, NEAR_THE_CAP)
        assert report.passed
        tallies = {c: (t.holds, t.vacuous, t.skipped) for c, t in report.tallies.items()}
        assert {c: tallies[c] for c in PAIR_IDS} == self.EXPECTED
        assert set(self.EXPECTED) == PAIR_IDS


LAZY_FACTS = [
    (cls, name)
    for cls in (GraphFacts, PairFacts)
    for name, attr in vars(cls).items()
    if isinstance(attr, claims.lazy)
]


class TestLazyFacts:
    """Facts are computed on first read, once per facts object, and a pair
    whose product is decided not well-covered reads no factor-only fact."""

    def test_descriptor(self):
        assert len(LAZY_FACTS) == 13
        for cls, name in LAZY_FACTS:
            assert getattr(cls, name) is vars(cls)[name]
        f = GraphFacts(cycle(5))
        assert "report" not in vars(f)
        report = f.report
        assert vars(f)["report"] is report is f.report

    def test_each_fact_computed_once(self, monkeypatch):
        computed = Counter()
        held = []  # keeps every facts object alive, so no id is reused

        def counted(compute, name):
            def run(obj):
                value = compute(obj)
                held.append(obj)
                computed[id(obj), name] += 1
                return value

            return run

        for cls, name in LAZY_FACTS:
            attr = vars(cls)[name]
            monkeypatch.setattr(attr, "compute", counted(attr.compute, name))
        stream = (
            targeted_instances()
            + list(corpus_pair_instances(4, cap=16))
            + list(corpus_graph_n_instances(4))
            + NEAR_THE_CAP
        )
        assert run_suite(CLAIM_IDS, stream).passed
        assert max(computed.values()) == 1
        names = {name for _, name in computed}
        assert {"report", "isolatable_mask", "lifted", "product_wc_size"} <= names

    @pytest.mark.parametrize(
        "pair",
        # P3 x C4 and C5 x K3 are certified by the lifted sets; the kernel
        # decides C5 x C5 and the 6-cycle times K2 + K1
        [
            (path(3), cycle(4)),
            (cycle(5), complete(3)),
            (cycle(5), cycle(5)),
            (cycle(6), disjoint_union(complete(2), complete(1))),
        ],
        ids=["P3xC4", "C5xK3", "C5xC5", "C6x(K2+K1)"],
    )
    def test_not_well_covered_product_reads_no_factor_fact(self, monkeypatch, pair):
        calls = Counter()

        def counted(name, original):
            def run(g):
                calls[name] += 1
                return original(g)

            return run

        for name in ("isolatable_vertices", "is_connected"):
            monkeypatch.setattr(claims, name, counted(name, getattr(claims, name)))
        report = run_suite(CLAIM_IDS, [pair])
        assert report.tallies["wc_direct"].vacuous == 1
        assert not claims.facts_for(claims.SHAPE_PAIR, pair, claims.facts_cache()).product_wc
        assert calls == {}
        # past the cap the factor facts are read first, as they always were
        run_suite(CLAIM_IDS, [(cycle(11), complete(6))])
        assert calls["isolatable_vertices"] == 1


class TestSuite:
    def test_targeted_non_vacuity(self):
        report = run_suite(CLAIM_IDS, targeted_instances())
        assert report.passed
        assert report.counterexample_count == 0
        for claim_id in CLAIM_IDS:
            assert report.tallies[claim_id].holds >= 1, claim_id

    def test_deterministic(self):
        first = run_suite(CLAIM_IDS, targeted_instances()).to_json()
        second = run_suite(CLAIM_IDS, targeted_instances()).to_json()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_parallel_matches_serial(self, monkeypatch):
        instances = (
            list(corpus_single_instances(3))
            + list(corpus_pair_instances(3, cap=9))
            + list(corpus_graph_n_instances(3))
        )
        serial = run_suite(CLAIM_IDS, instances)
        monkeypatch.setattr(claims, "CHUNK_SIZE", 8)
        parallel = run_suite_parallel(CLAIM_IDS, instances, jobs=2)
        assert serial.to_json() == parallel.to_json()

    def test_subset_of_claims(self):
        report = run_suite(["berge"], targeted_instances())
        assert set(report.tallies) == {"berge"}

    def test_repeated_claim_id_counts_once(self):
        once = run_suite(["berge", "twins"], targeted_instances())
        repeated = run_suite(["berge", "twins", "berge"], targeted_instances())
        assert repeated.to_json() == once.to_json()

    def test_pair_cap_bounds_product_order(self):
        pairs = list(corpus_pair_instances(3, cap=5))
        assert len(pairs) == 12
        assert all(g.n * h.n <= 5 for g, h in pairs)

    def test_graph_n_orders(self):
        insts = list(corpus_graph_n_instances(2, orders=(2, 4)))
        assert [(g.n, n) for g, n in insts] == [(1, 2), (1, 4), (2, 2), (2, 4)]

    def test_graph_n_orders_each_once(self):
        insts = list(corpus_graph_n_instances(2, orders=(4, 2, 4)))
        assert [(g.n, n) for g, n in insts] == [(1, 4), (1, 2), (2, 4), (2, 2)]

    @pytest.mark.parametrize(
        "instance, expected",
        [
            # k3_dichotomy's P3 x K3 is certified not well-covered: the
            # lifted maximum set has 2 * 3 = 6 vertices and the lifted
            # maximal set 1 * 3 = 3, so it makes no decision; P3 and the
            # run's K3 are summarized once each
            (path(3), {"independence_summary": 2, "well_covered_size": 0}),
            # residual_wc decides each of the 7 residuals of C4 = K(2,2),
            # multipartite_square decides C4 x C4, and C4 x K3 is certified
            # (6 > 4) from the summaries of C4 and the run's K3
            (cycle(4), {"independence_summary": 2, "well_covered_size": 8}),
            # the lifted witnesses of P3 x C4 have 2 * 4 = 8 > 1 * 4 = 4
            # vertices, so the product is never searched
            (
                (path(3), cycle(4)),
                {"direct_product_adj": 1, "independence_summary": 2, "well_covered_size": 0},
            ),
            # K3 x K3: both bounds are 3, so only the kernel can decide; the
            # two equal factors are one K3 of the run, summarized once
            (
                (complete(3), complete(3)),
                {"direct_product_adj": 1, "independence_summary": 1, "well_covered_size": 1},
            ),
            # layer_sizes lists the maximal sets of C5 x K3; kn_necessary
            # finds it certified not well-covered (6 > 5) from the summaries
            # of C5 and the run's K3
            (
                (cycle(5), 3),
                {
                    "direct_product_adj": 1,
                    "maximal_independent_sets": 1,
                    "independence_summary": 2,
                    "well_covered_size": 0,
                },
            ),
            # H(2,2) x K3: both bounds are 6, so the kernel decides once,
            # for kn_necessary and h_family_product alike; H(2,2) and the
            # run's K3 are summarized once each
            (
                (h_family(2, 2), 3),
                {
                    "direct_product_adj": 1,
                    "maximal_independent_sets": 1,
                    "independence_summary": 2,
                    "well_covered_size": 1,
                },
            ),
        ],
        ids=["graph", "wc-graph", "certified-pair", "ratio-equal", "graph-n", "h-family"],
    )
    def test_facts_built_once(self, monkeypatch, instance, expected):
        """All claims of an instance read one summary per graph, build each
        product once and ask it only what they need.  K3, the second factor
        of every G x K3, is summarized once in the run, like any other
        graph, so the counts do not depend on what ran before."""
        calls = Counter()
        for name in expected:
            original = getattr(kernel, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(kernel, name, counted)
        assert run_suite(CLAIM_IDS, [instance]).passed
        assert {name: calls[name] for name in expected} == expected

    @pytest.mark.parametrize(
        "instance",
        # C4 is well-covered and isolate-free, so residual_wc, clique_leftover
        # and berge all read its sets; K3 x K3 is well-covered but not very
        # well-covered, so closed_nbhd_size and no_bipartite_residual read K3's
        [cycle(4), (complete(3), complete(3))],
        ids=["graph", "pair"],
    )
    def test_independent_sets_walked_once(self, monkeypatch, instance):
        """Every claim that ranges over the independent sets of a graph reads
        the one list in its ``GraphFacts``."""
        walks = 0
        original = independence.enumerate_independent_sets

        def counted(g):
            nonlocal walks
            walks += 1
            return original(g)

        monkeypatch.setattr(claims, "enumerate_independent_sets", counted)
        monkeypatch.setattr(independence, "enumerate_independent_sets", counted)
        assert run_suite(CLAIM_IDS, [instance]).passed
        assert walks == 1

    @pytest.mark.parametrize("n", [0, 1])
    def test_clique_order_below_2_is_vacuous_without_a_product(self, monkeypatch, n):
        def no_product(*args):
            raise AssertionError("a product was built")

        monkeypatch.setattr(kernel, "direct_product_adj", no_product)
        report = run_suite(CLAIM_IDS, [(cycle(4), n)])
        tallies = {c: (t.holds, t.vacuous) for c, t in report.tallies.items() if t.vacuous}
        assert tallies == {c: (0, 1) for c in sorted(GRAPH_N_IDS, key=CLAIM_IDS.index)}
        assert report.passed

    def test_negative_clique_order_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            run_suite(CLAIM_IDS, [(cycle(4), -1)])
        with pytest.raises(ValueError, match="nonnegative"):
            verify("h_family_product", (cycle(4), -1))

    def test_kernel_only_path_gives_the_same_report(self, monkeypatch):
        """The lifted certificate changes no verdict or witness: without it
        every product is decided, and trivial_bounds summarized, by the
        kernel alone."""
        args = cli._parser().parse_args(["verify", "--max-n", "4"])
        certified = run_suite(CLAIM_IDS, cli._instances(args)).to_json()
        monkeypatch.setattr(claims, "lifted_witnesses", lambda p, rep_g, rep_h: None)
        assert run_suite(CLAIM_IDS, cli._instances(args)).to_json() == certified


def mixed_stream(pool, filler):
    """The targeted instances, then the singles, pairs and (G, n) instances of
    ``pool``, with the ``filler`` singles between the pairs and the (G, n)
    instances."""
    return [
        *targeted_instances(),
        *pool,
        *((g, h) for g in pool for h in pool),
        *filler,
        *((g, n) for g in pool for n in (2, 3)),
    ]


def shared_and_separate(stream):
    """One ``run_suite`` call over ``stream``, and the merge of one call per
    instance, which shares no facts between instances."""
    shared = run_suite(CLAIM_IDS, stream)
    separate = functools.reduce(
        SuiteReport.merge, (run_suite(CLAIM_IDS, [inst]) for inst in stream)
    )
    return shared, separate


def all_counterexamples(report):
    return [v for tally in report.tallies.values() for v in tally.counterexamples]


class TestSharedFacts:
    """``run_suite`` keeps one ``GraphFacts`` per distinct graph for the whole
    call; that sharing must change no tally, verdict or witness."""

    def test_one_call_equals_one_call_per_instance(self):
        # the 1,024 labeled 5-vertex graphs fill the cache past its size, so
        # it is emptied between the pairs and the (G, n) instances
        pool = list(corpus(4, connected_only=False))
        filler = [g for g in corpus(5, connected_only=False) if g.n == 5]
        assert len(set(pool + filler)) > claims.FACTS_CACHE_SIZE
        shared, separate = shared_and_separate(mixed_stream(pool, filler))
        assert shared.to_json() == separate.to_json()
        assert all_counterexamples(shared) == all_counterexamples(separate)

    def test_facts_keyed_by_order_alone_are_caught(self, monkeypatch):
        """A cache that takes every graph of one order for the first it saw
        gives a report that differs from one call per instance."""

        def by_order():
            held = {}

            def facts(g):
                return held.setdefault(g.n, GraphFacts(g))

            return facts

        monkeypatch.setattr(claims, "facts_cache", by_order)
        stream = mixed_stream(list(corpus(3, connected_only=False)), [])
        shared, separate = shared_and_separate(stream)
        assert shared.to_json() != separate.to_json()

    def test_equal_graphs_share_facts(self):
        facts = claims.facts_cache()
        first = facts(cycle(5))
        assert facts(cycle(5)) is first
        assert facts(cycle(6)) is not first
        assert first.clique(3) is first.clique(3)
        assert claims.facts_for(claims.SHAPE_PAIR, (cycle(5), cycle(5)), facts) is first.square

    def test_clique_pair_is_the_graph_n_facts(self):
        """A (G, K_n) pair is ``G.clique(n)``, the facts of the (G, n)
        instance, and for n = 3 the product ``k3_dichotomy`` reads; K_n x K_n
        is also K_n's ``square``.  The K_n is the run's: its facts read
        ``families.complete(n)``, and another run has its own."""
        facts = claims.facts_cache()
        g = facts(path(3))
        for n in (2, 3):
            pair = claims.facts_for(claims.SHAPE_PAIR, (path(3), complete(n)), facts)
            assert pair is g.clique(n)
            assert pair.h is facts(complete(n))
            assert pair.h.graph is complete(n)
            assert claims.facts_for(claims.SHAPE_GRAPH_N, (path(3), n), facts) is pair
        k3 = claims.facts_for(claims.SHAPE_PAIR, (complete(3), complete(3)), facts)
        assert k3 is facts(complete(3)).square is facts(complete(3)).clique(3)
        assert claims.facts_cache()(complete(3)) is not facts(complete(3))
        # the last pair, P3 x K3, told well-covered, and P3 told free of
        # isolatable vertices: k3_dichotomy then finds a counterexample
        check = REGISTRY["k3_dichotomy"].outcome
        assert check(g).status == VACUOUS
        forced(pair, product_wc_size=3)
        forced(g, isolatable_mask=0)
        assert check(g).status == COUNTEREXAMPLE

    def test_cache_starts_afresh_when_full(self, monkeypatch):
        monkeypatch.setattr(claims, "FACTS_CACHE_SIZE", 2)
        facts = claims.facts_cache()
        first = facts(cycle(4))
        facts(cycle(5))
        assert facts(cycle(4)) is first
        facts(cycle(6))  # the third graph empties the cache
        assert facts(cycle(4)) is not first


class TestTallyMachinery:
    """The counterexample path never fires on real claims, so exercise it
    with a hand-built verdict."""

    def fake(self, status):
        return ClaimVerdict("berge", {"graph6": "Bw"}, status, witness={"set": [0]})

    def test_report_fails_on_counterexample(self):
        report = SuiteReport({"berge": ClaimTally()})
        report.tallies["berge"].counterexamples.append(self.fake(COUNTEREXAMPLE))
        assert not report.passed
        assert report.counterexample_count == 1
        encoded = report.to_json()["berge"]["counterexamples"][0]
        assert encoded["status"] == "counterexample"
        assert encoded["witness"] == {"set": [0]}

    def test_merge(self):
        a = SuiteReport({"berge": ClaimTally(holds=2, skipped=1)})
        b = SuiteReport(
            {"berge": ClaimTally(holds=1, vacuous=3, skipped=2), "twins": ClaimTally(holds=5)}
        )
        merged = a.merge(b)
        assert merged.tallies["berge"].holds == 3
        assert merged.tallies["berge"].vacuous == 3
        assert merged.tallies["berge"].skipped == 3
        assert merged.tallies["twins"].holds == 5
        assert merged.to_json()["berge"]["skipped"] == 3
        assert "skipped" not in merged.to_json()["twins"]
