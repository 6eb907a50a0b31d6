"""Tests of the benchmark's own machinery: the output checker counts a wrong
answer, the tracer leaves the package as it found it, and BENCHMARK.json
names exactly the metrics run.py reports.

    python3 -m pytest perfbench -q
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks as C  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, KnRoundtrip, LargeProducts  # noqa: E402


def test_corrupted_alpha_is_counted():
    wc = run.import_package()
    w = LargeProducts()
    item = (wc.h_family(4, 2), wc.complete(3), C.h_family(4, 2), C.complete(3), ("h", "complete"))
    good = w.run(wc, item)
    assert w.check(item, good) == []
    bad = good[:2] + (good[2] + 1,) + good[3:]
    assert any("alpha" in reason for reason in w.check(item, bad))
    failed, reasons = run.check_outputs(w, [item], [(0, good), (0, bad), (0, good)])
    assert failed == 1 and len(reasons) == 1


def test_corrupted_alpha_is_counted_against_exact_enumeration():
    wc = run.import_package()
    w = KnRoundtrip()
    item = (wc.cycle(5), 3)
    good = w.run(wc, item)
    bad = good[:5] + (good[5] + 1,) + good[6:]
    failed, _ = run.check_outputs(w, [item], [(0, bad), (0, good)])
    assert failed == 1


def test_enumerator_matches_subset_filter():
    rng = random.Random(7)
    for _ in range(50):
        adj = C.from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.4])
        brute = [s for s in range(1 << 8) if C.is_maximal_independent(adj, s)]
        assert sorted(C.maximal_independent_sets(adj)) == brute


def test_tracer_restores_the_package():
    wc = run.import_package()
    before = (wc.products.direct_product, wc.claims.direct_product, wc.Graph.__post_init__,
              dict(wc.claims.REGISTRY))
    tracer = Tracer()
    tracer.install(wc)
    assert wc.claims.direct_product is not before[1]
    wc.claims.run_suite(wc.CLAIM_IDS, [(wc.cycle(4), wc.complete(2))])
    tracer.uninstall()
    after = (wc.products.direct_product, wc.claims.direct_product, wc.Graph.__post_init__,
             dict(wc.claims.REGISTRY))
    assert after == before
    stats = tracer.per_name()
    assert stats["products.direct_product"]["calls"] >= 1
    assert stats["claims.trivial_bounds"]["calls"] == 1


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    e2e = run.end_to_end([0.001, 0.002, 0.003], 1.0, [0.5])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
