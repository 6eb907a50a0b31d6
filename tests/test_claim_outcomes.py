"""Claim outcomes: what a check returns, how the suite tallies it, and the
counterexample path from a check to the CLI's exit code."""

import dataclasses
import json
from collections import Counter

import pytest

from wellcovered import claims, cli
from wellcovered.claims import (
    CLAIM_IDS,
    COUNTEREXAMPLE,
    HOLDS,
    REGISTRY,
    VACUOUS,
    ClaimVerdict,
    Outcome,
    corpus_graph_n_instances,
    corpus_pair_instances,
    corpus_single_instances,
    run_suite,
    run_suite_parallel,
    targeted_instances,
    verify,
)
from wellcovered.families import complete, cycle
from wellcovered.formats import to_graph6
from wellcovered.graphs import Graph

K0 = Graph(0, ())
WITNESS = {"planted": True}


def planted_berge(f):
    """A stand-in for the berge check that finds a counterexample on C5
    alone, which ``verify --max-n 2`` meets once, among the targeted
    instances."""
    if f.graph == cycle(5):
        return Outcome(COUNTEREXAMPLE, WITNESS)
    return claims.HOLDS_OUTCOME


@pytest.fixture
def planted(monkeypatch):
    claim = dataclasses.replace(REGISTRY["berge"], check=planted_berge)
    monkeypatch.setitem(REGISTRY, "berge", claim)


# a claim of each shape, an instance of that shape, and the instance JSON
# its verdicts name; the pair (C5, K3) and the instance (C5, 3) share one
# facts object but not their JSON
SHAPED = {
    claims.SHAPE_GRAPH: ("berge", cycle(5), {"graph6": "Dhc"}),
    claims.SHAPE_PAIR: ("inverse_image", (cycle(5), complete(3)), {"g": "Dhc", "h": "Bw"}),
    claims.SHAPE_GRAPH_N: ("layer_sizes", (cycle(5), 3), {"graph6": "Dhc", "n": 3}),
}


@pytest.fixture
def planted_shapes(monkeypatch):
    """The claims of ``SHAPED`` made to find a counterexample everywhere."""
    for claim_id, _, _ in SHAPED.values():
        claim = dataclasses.replace(
            REGISTRY[claim_id], check=lambda f: Outcome(COUNTEREXAMPLE, WITNESS)
        )
        monkeypatch.setitem(REGISTRY, claim_id, claim)


def parity_instances():
    return [
        *targeted_instances(),
        *corpus_single_instances(4),
        *corpus_pair_instances(4),
        *corpus_graph_n_instances(4),
    ]


class TestParity:
    def test_suite_counts_match_verify(self, monkeypatch):
        instances = parity_instances()
        outcomes = []

        def recorded(check):
            def run(f):
                outcome = check(f)
                outcomes.append(outcome)
                return outcome

            return run

        for claim_id, claim in list(REGISTRY.items()):
            wrapped = dataclasses.replace(claim, check=recorded(claim.check))
            monkeypatch.setitem(REGISTRY, claim_id, wrapped)
        report = run_suite(CLAIM_IDS, instances)
        assert outcomes
        for outcome in outcomes:
            assert type(outcome) is Outcome
            assert outcome.status in (HOLDS, VACUOUS, COUNTEREXAMPLE)
        monkeypatch.undo()

        expected = {c: Counter() for c in CLAIM_IDS}
        for inst in instances:
            shape = claims.instance_shape(inst)
            for claim_id in CLAIM_IDS:
                if REGISTRY[claim_id].shape == shape:
                    expected[claim_id][verify(claim_id, inst).status] += 1
        for claim_id, tally in report.tallies.items():
            counts = Counter(holds=tally.holds, vacuous=tally.vacuous)
            counts[COUNTEREXAMPLE] = len(tally.counterexamples)
            assert +counts == expected[claim_id], claim_id

    def test_suite_builds_no_graph6(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g.n)
            return to_graph6(g)

        monkeypatch.setattr(claims, "to_graph6", counted)
        assert run_suite(CLAIM_IDS, targeted_instances()).passed
        assert calls == []
        verdict = verify("berge", cycle(7))
        assert verdict.instance == {"graph6": to_graph6(cycle(7))}
        assert calls == [7]

    def test_claim_verdict_names_claim_and_instance(self):
        f = claims.facts_for(claims.SHAPE_PAIR, (cycle(5), complete(3)), claims.facts_cache())
        instance = {"g": to_graph6(cycle(5)), "h": to_graph6(complete(3))}
        verdict = REGISTRY["inverse_image"].verdict(f)
        assert verdict == ClaimVerdict("inverse_image", instance, HOLDS)


class TestInstanceJson:
    @pytest.mark.parametrize("shape", sorted(SHAPED))
    def test_verdict_names_the_instance(self, planted_shapes, shape):
        claim_id, instance, expected = SHAPED[shape]
        facts = claims.facts_for(shape, instance, claims.facts_cache())
        verdict = REGISTRY[claim_id].verdict(facts)
        assert verdict == ClaimVerdict(claim_id, expected, COUNTEREXAMPLE, WITNESS)

    def test_suite_counterexample_names_the_instance(self, planted_shapes):
        ids = [claim_id for claim_id, _, _ in SHAPED.values()]
        report = run_suite(ids, [instance for _, instance, _ in SHAPED.values()])
        assert report.counterexample_count == len(SHAPED)
        for claim_id, _, expected in SHAPED.values():
            assert report.tallies[claim_id].counterexamples == [
                ClaimVerdict(claim_id, expected, COUNTEREXAMPLE, WITNESS)
            ]


class TestEmptyGraph:
    def test_bipartite_isolation_is_vacuous_on_k0(self):
        assert verify("bipartite_isolation", K0).status == VACUOUS

    def test_no_counterexample_on_k0(self):
        report = run_suite(CLAIM_IDS, [K0, (K0, K0), (K0, complete(1)), (K0, 2)])
        assert report.counterexample_count == 0


class TestCounterexamplePath:
    def test_tally_keeps_the_verdict(self, planted):
        report = run_suite(CLAIM_IDS, targeted_instances())
        assert report.counterexample_count == 1
        assert report.tallies["berge"].counterexamples == [
            ClaimVerdict("berge", {"graph6": to_graph6(cycle(5))}, COUNTEREXAMPLE, WITNESS)
        ]

    def test_cli_verify_exits_2(self, planted, capsys):
        assert cli.main(["verify", "--max-n", "2", "--format", "json"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is False
        assert data["counterexample_count"] == 1
        assert data["claims"]["berge"]["counterexamples"] == [
            {
                "claim": "berge",
                "instance": {"graph6": to_graph6(cycle(5))},
                "status": COUNTEREXAMPLE,
                "witness": WITNESS,
            }
        ]

    def test_cli_product_check_exits_2(self, monkeypatch, capsys):
        claim = dataclasses.replace(
            REGISTRY["wc_direct"], check=lambda f: Outcome(COUNTEREXAMPLE, WITNESS)
        )
        monkeypatch.setitem(REGISTRY, "wc_direct", claim)
        assert cli.main(["product", "cycle:5", "complete:2", "--check", "--format", "json"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert data["check"] == {
            "claim": "wc_direct",
            "instance": {"g": to_graph6(cycle(5)), "h": to_graph6(complete(2))},
            "status": COUNTEREXAMPLE,
            "witness": WITNESS,
        }

    def test_parallel_matches_serial(self, planted, monkeypatch):
        instances = [*targeted_instances(), *corpus_single_instances(3)]
        serial = run_suite(CLAIM_IDS, instances)
        monkeypatch.setattr(claims, "CHUNK_SIZE", 4)
        parallel = run_suite_parallel(CLAIM_IDS, instances, jobs=2)
        assert serial.counterexample_count == 1
        assert json.dumps(parallel.to_json()) == json.dumps(serial.to_json())
