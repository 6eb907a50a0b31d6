"""Claim registry: dispatch, known verdicts, tallying, and the suite
runner in both serial and parallel form."""

import dataclasses
import json
from collections import Counter

import pytest

from wellcovered import claims, cli, independence, kernel
from wellcovered.claims import (
    CLAIM_IDS,
    COUNTEREXAMPLE,
    HOLDS,
    REGISTRY,
    VACUOUS,
    ClaimTally,
    ClaimVerdict,
    GraphFacts,
    PairFacts,
    SuiteReport,
    complete_facts,
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
    cycle,
    h_family,
    path,
)
from wellcovered.formats import to_graph6
from wellcovered.graphs import disjoint_union
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
    """``facts`` with cached properties preset, so a claim runs its
    conclusion on an instance whose hypothesis does not really hold."""
    for name, value in values.items():
        if name == "report":
            value = dataclasses.replace(facts.report, **value)
        facts.__dict__[name] = value
    return facts


class TestForcedWitnesses:
    """Counterexample witnesses worked out by hand, reached by presetting a
    fact the hypothesis reads; none of these graphs really satisfies it."""

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
        f = claims._facts_for(claims.SHAPE_GRAPH_N, (h_family(2, 2), 3))
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
            # maximal set 1 * 3 = 3, so it makes no decision
            (path(3), {"independence_summary": 1, "well_covered_size": 0}),
            # residual_wc decides each of the 7 residuals of C4 = K(2,2),
            # multipartite_square decides C4 x C4, and C4 x K3 is certified
            # (6 > 4)
            (cycle(4), {"independence_summary": 1, "well_covered_size": 8}),
            # the lifted witnesses of P3 x C4 have 2 * 4 = 8 > 1 * 4 = 4
            # vertices, so the product is never searched
            (
                (path(3), cycle(4)),
                {"direct_product_adj": 1, "independence_summary": 2, "well_covered_size": 0},
            ),
            # K3 x K3: both bounds are 3, so only the kernel can decide
            (
                (complete(3), complete(3)),
                {"direct_product_adj": 1, "independence_summary": 2, "well_covered_size": 1},
            ),
            # layer_sizes lists the maximal sets of C5 x K3; kn_necessary
            # finds it certified not well-covered (6 > 5) from the summary
            # of C5 and the shared one of K3
            (
                (cycle(5), 3),
                {
                    "direct_product_adj": 1,
                    "maximal_independent_sets": 1,
                    "independence_summary": 1,
                    "well_covered_size": 0,
                },
            ),
            # H(2,2) x K3: both bounds are 6, so the kernel decides once,
            # for kn_necessary and h_family_product alike
            (
                (h_family(2, 2), 3),
                {
                    "direct_product_adj": 1,
                    "maximal_independent_sets": 1,
                    "independence_summary": 1,
                    "well_covered_size": 1,
                },
            ),
        ],
        ids=["graph", "wc-graph", "certified-pair", "ratio-equal", "graph-n", "h-family"],
    )
    def test_facts_built_once(self, monkeypatch, instance, expected):
        """All claims of an instance read one summary per graph, build each
        product once and ask it only what they need.  K3, the second factor
        of every G x K3, is summarized once per process, before counting."""
        complete_facts(3).report
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
        a = SuiteReport({"berge": ClaimTally(holds=2)})
        b = SuiteReport({"berge": ClaimTally(holds=1, vacuous=3), "twins": ClaimTally(holds=5)})
        merged = a.merge(b)
        assert merged.tallies["berge"].holds == 3
        assert merged.tallies["berge"].vacuous == 3
        assert merged.tallies["twins"].holds == 5
