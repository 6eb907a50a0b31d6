"""The four workloads: how each builds its items from a seed, runs one item
through the package's public functions, and checks the output.

Every workload is a closed loop with one client: the next item starts when
the previous one has returned.  ``make_items`` is timed as set-up, ``run``
is the timed item, and ``check`` runs afterwards against ``checks``, which
shares no code with the package.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

import checks as C

# claim id -> instance shape, as the paper states each claim
CLAIM_SHAPES = {
    "inverse_image": "pair", "trivial_bounds": "pair", "residual_wc": "graph",
    "clique_leftover": "graph", "wc_direct": "pair", "berge": "graph", "favaron": "graph",
    "vwc_product": "pair", "layer_sizes": "graph_n", "kn_necessary": "graph_n",
    "bipartite_isolation": "graph", "closed_nbhd_size": "pair", "regularity": "pair",
    "k3_dichotomy": "graph", "no_isolatable_complete": "pair", "both_complete": "pair",
    "no_bipartite_residual": "pair", "edge_triangle": "pair", "girth_three": "pair",
    "twins": "graph", "h_family_product": "graph_n", "multipartite_square": "graph",
    "support_leaf_unique": "graph",
}
CLAIM_IDS = tuple(CLAIM_SHAPES)


def random_adj(rng: random.Random, n: int, p: float) -> tuple[int, ...]:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return C.from_edges(n, edges)


def wc_of(adj) -> bool:
    i, a, _ = C.summary(adj)
    return i == a


# --- claim_suite -----------------------------------------------------------

class ClaimSuite:
    """A seeded sample of the acceptance-criterion-5 instance stream, one
    instance per item, through ``claims.run_suite`` with all 23 claims."""

    name = "claim_suite"
    whole_passes = False
    sample = 16_000

    def make_items(self, wc, rng):
        cl = wc.claims
        strata = [
            cl.targeted_instances(),
            list(cl.corpus_single_instances(6)),
            list(cl.corpus_pair_instances(6, cap=36, representatives=True)),
            list(cl.corpus_pair_instances(4, cap=36)),
            list(cl.corpus_graph_n_instances(5, orders=(2, 3))),
        ]
        total = sum(len(s) for s in strata)
        items = list(strata[0])
        for stratum in strata[1:]:
            items += rng.sample(stratum, round(len(stratum) * self.sample / total))
        rng.shuffle(items)
        return items

    def run(self, wc, item):
        report = wc.claims.run_suite(wc.CLAIM_IDS, [item])
        out = []
        for claim_id in CLAIM_IDS:
            t = report.tallies[claim_id]
            out.append("c" if t.counterexamples else "h" if t.holds else "v" if t.vacuous else "-")
            if t.holds + t.vacuous + len(t.counterexamples) > 1:
                out[-1] = "*"
        return "".join(out)

    def check(self, item, out):
        f = C.Failures()
        if isinstance(item, tuple) and isinstance(item[1], int):
            shape, g, n = "graph_n", item[0].adj, item[1]
        elif isinstance(item, tuple):
            shape, g, h = "pair", item[0].adj, item[1].adj
        else:
            shape, g = "graph", item.adj
        verdicts = dict(zip(CLAIM_IDS, out))
        for claim_id, status in verdicts.items():
            applies = CLAIM_SHAPES[claim_id] == shape
            f.expect(status != "c", f"{claim_id}: counterexample")
            f.expect(status != "*", f"{claim_id}: more than one verdict")
            f.expect((status != "-") == applies, f"{claim_id}: verdict count wrong for a {shape} instance")
        if shape == "graph":
            wc_g = wc_of(g)
            f.expect((verdicts["residual_wc"] == "v") == (not wc_g), "residual_wc vacuity disagrees with well-coveredness")
            f.expect((verdicts["berge"] == "v") == (not (wc_g and all(g))), "berge vacuity disagrees")
        elif shape == "pair":
            f.expect((verdicts["trivial_bounds"] == "v") == (not (all(g) and all(h))), "trivial_bounds vacuity disagrees")
            if len(g) * len(h) <= C.EXACT_LIMIT:
                wc_p = wc_of(C.product(g, h))
                if not wc_p:
                    f.expect(verdicts["wc_direct"] == "v", "wc_direct not vacuous on a non-well-covered product")
                elif any(g) and any(h):
                    f.expect(verdicts["wc_direct"] == "h", "wc_direct vacuous on a well-covered product")
        else:
            f.expect(verdicts["layer_sizes"] == "h", "layer_sizes did not hold")
            wc_p = wc_of(C.product(g, C.complete(n)))
            f.expect((verdicts["kn_necessary"] == "v") == (not wc_p), "kn_necessary vacuity disagrees")
        return f.reasons


# --- kn_roundtrip ----------------------------------------------------------

def partition_tuple(p):
    return p.v0, tuple(p.classes), p.vbracket


class KnRoundtrip:
    """Every graph of corpus(5, connected_only=False) and a seeded sample of
    labeled 6-vertex graphs, each with n in {2, 3}: kn_alpha_i, the product
    summary, and a partition round trip of every maximal independent set."""

    name = "kn_roundtrip"
    whole_passes = False
    six_vertex_sample = 2500

    def make_items(self, wc, rng):
        graphs = list(wc.corpus(5, connected_only=False))
        six = [g for g in wc.corpus(6, connected_only=False) if g.n == 6]
        graphs += rng.sample(six, self.six_vertex_sample)
        items = [(g, n) for g in graphs for n in (2, 3)]
        rng.shuffle(items)
        return items

    def run(self, wc, item):
        g, n = item
        kp = wc.kn_partitions
        rep = wc.kn_alpha_i(g, n)
        prod = wc.direct_product(g, wc.complete(n))
        i, a, wit_min, wit_max = wc.kernel.independence_summary(prod.graph.adj)
        sets = wc.kernel.maximal_independent_sets(prod.graph.adj)
        broken = 0
        for s in sets:
            p = kp.partition_from_mis(g, n, s)
            if p.violations() or p.weight() != s.bit_count() or kp.mis_from_partition(p) != s:
                broken += 1
        return (rep.i_value, rep.alpha_value, partition_tuple(rep.argmin), partition_tuple(rep.argmax),
                i, a, wit_min, wit_max, C.set_digest(sets), broken)

    def check(self, item, out):
        g, n = item[0].adj, item[1]
        kn_i, kn_a, argmin, argmax, i, a, wit_min, wit_max, digest, broken = out
        f = C.Failures()
        prod = C.product(g, C.complete(n))
        sets = C.maximal_independent_sets(prod)
        sizes = [s.bit_count() for s in sets]
        exact = (min(sizes), max(sizes))
        f.expect((i, a) == exact, f"product summary {(i, a)}, exact {exact}")
        f.expect((kn_i, kn_a) == exact, f"kn_alpha_i {(kn_i, kn_a)}, exact {exact}")
        f.expect(digest == C.set_digest(sets), "maximal independent sets differ from the exact list")
        f.expect(broken == 0, f"{broken} partition round trips failed")
        C.check_witnesses(f, prod, i, a, wit_min, wit_max)
        C.check_partition(f, g, n, kn_i, *argmin)
        C.check_partition(f, g, n, kn_a, *argmax)
        return f.reasons


# --- large_products --------------------------------------------------------

# (first factor kind, parameter, second factor kind, parameter); every
# product has 36 to 64 vertices and costs 5 to 110 ms on the pure-Python
# kernel on an unloaded host
FAMILY_PRODUCTS = [
    ("cycle", 12, "complete", 3), ("cycle", 13, "complete", 3), ("cycle", 14, "complete", 3),
    ("path", 12, "complete", 3), ("path", 14, "complete", 3),
    ("cycle", 6, "cycle", 7), ("cycle", 5, "cycle", 8), ("cycle", 4, "cycle", 16),
    ("h", (4, 2), "complete", 3), ("h", (6, 2), "complete", 3),
    ("h", (4, 3), "complete", 4), ("h", (9, 1), "complete", 2),
]
# Seeded G(12, p) x K3 with p in [0.6, 0.7]: at that density every item
# costs under 30 ms, well below the middle of the family list, so the seed
# moves neither the pass time much nor which item is the median: with 15
# items a pass, the median latency is that of H(6,2) x K3, whose neighbours
# in cost (H(9,1) x K2, C13 x K3) are within 20% of it.  Short passes give
# 10 to 12 samples of each item a run.
GNP_PRODUCTS = 3


class LargeProducts:
    """Products of 36 to 64 vertices where kernel search dominates: each item
    runs direct_product, well_covered_report and is_well_covered, plus
    kn_alpha_i when the second factor is complete."""

    name = "large_products"
    whole_passes = True

    def make_items(self, wc, rng):
        builders = {"cycle": (wc.cycle, C.cycle), "path": (wc.path, C.path),
                    "complete": (wc.complete, C.complete), "h": (wc.h_family, C.h_family)}

        def factor(kind, param):
            pkg, own = builders[kind]
            args = param if isinstance(param, tuple) else (param,)
            return pkg(*args), own(*args)

        items = []
        for kg, pg, kh, ph in FAMILY_PRODUCTS:
            (g, g_own), (h, h_own) = factor(kg, pg), factor(kh, ph)
            items.append((g, h, g_own, h_own, (kg, kh)))
        k3, k3_own = factor("complete", 3)
        for _ in range(GNP_PRODUCTS):
            # G(12, p) conditioned on its expected edge count
            m = round(rng.uniform(0.6, 0.7) * 66)
            pairs = rng.sample([(u, v) for u in range(12) for v in range(u + 1, 12)], m)
            g_own = C.from_edges(12, pairs)
            items.append((wc.from_edge_list(12, pairs), k3, g_own, k3_own, ("graph", "complete")))
        rng.shuffle(items)
        return items

    def run(self, wc, item):
        g, h = item[0], item[1]
        prod = wc.direct_product(g, h)
        rep = wc.well_covered_report(prod.graph)
        wc_flag = wc.is_well_covered(prod.graph)
        kn = None
        if item[4][1] == "complete":
            r = wc.kn_alpha_i(g, h.n)
            kn = (r.i_value, r.alpha_value, partition_tuple(r.argmin), partition_tuple(r.argmax))
        return (prod.graph.adj, rep.i_number, rep.alpha, rep.well_covered, rep.very_well_covered,
                rep.witness_min, rep.witness_max, wc_flag, kn)

    def check(self, item, out):
        g, h, kinds = item[2], item[3], item[4]
        adj, i, a, wc_rep, vwc, wit_min, wit_max, wc_flag, kn = out
        f = C.Failures()
        prod = C.product(g, h)
        f.expect(tuple(adj) == prod, "product adjacency differs")
        C.check_witnesses(f, prod, i, a, wit_min, wit_max)
        C.check_product_values(f, g, h, i, a, kinds)
        f.expect(wc_rep == wc_flag == (i == a), "well-covered flags disagree with (i, alpha)")
        f.expect(vwc == (i == a and 2 * a == len(prod) and all(prod)), "very well-covered flag wrong")
        if kn is not None:
            f.expect(kn[:2] == (i, a), f"kn_alpha_i {kn[:2]} differs from the product {(i, a)}")
            C.check_partition(f, g, len(h), kn[0], *kn[2])
            C.check_partition(f, g, len(h), kn[1], *kn[3])
        return f.reasons


# --- cli_mix ---------------------------------------------------------------

PASSES = [
    ["scan", "--max-n", "3", "--format", "json"],
    ["scan", "--max-n", "4", "--reps", "--format", "json"],
    ["generate", "--max-n", "4", "--filter", "wc"],
    ["generate", "--max-n", "4", "--filter", "vwc", "--format", "json"],
    ["generate", "--max-n", "4", "--filter", "wc-not-vwc"],
    ["verify", "--max-n", "3", "--format", "json"],
    ["verify", "--max-n", "4", "--reps", "--format", "json"],
]
BLOCKS = 120  # 30 commands each: 18 analyze, 9 product, 3 corpus passes


def small_graphs(max_n: int):
    """Connected labeled graphs on 1..max_n vertices, as adjacency tuples."""
    out = []
    for n in range(1, max_n + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pairs)):
            adj = C.from_edges(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])
            if C.is_connected(adj):
                out.append(adj)
    return out


def canonical(adj) -> str:
    n = len(adj)
    best = None
    for perm in itertools.permutations(range(n)):
        rel = [0] * n
        for v in range(n):
            for u in range(n):
                if adj[v] >> u & 1:
                    rel[perm[v]] |= 1 << perm[u]
        code = C.graph6_encode(tuple(rel))
        best = code if best is None or code < best else best
    return best


def parse_output(text: str):
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    data = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        try:
            data[key] = json.loads(value)
        except ValueError:
            data[key] = value
    return data


class CliMix:
    """In-process ``cli.main`` calls with stdout captured: analyze, product
    (some with complete factors, some with --check), and corpus passes of
    scan, generate --filter and verify over graphs of at most 4 vertices."""

    name = "cli_mix"
    whole_passes = False

    def make_items(self, wc, rng):
        items = []
        for b in range(BLOCKS):
            block = []
            for k in range(18):
                adj = random_adj(rng, rng.randint(5, 9), rng.uniform(0.2, 0.7))
                fmt = ["--format", "json"] if k % 2 else []
                block.append((["analyze", C.graph6_encode(adj), *fmt], ("analyze", adj)))
            for k in range(9):
                if k < 3:
                    order = rng.choice((2, 3, 4))
                    g = random_adj(rng, rng.randint(4, 8), rng.uniform(0.25, 0.6))
                    h = C.complete(order)
                    if k == 2:
                        g, h = h, g
                else:
                    a = rng.randint(3, 7)
                    g = random_adj(rng, a, rng.uniform(0.3, 0.8))
                    h = random_adj(rng, rng.randint(3, min(7, 36 // a)), rng.uniform(0.3, 0.8))
                extra = ["--check"] if k % 3 == 1 else []
                fmt = ["--format", "json"] if k % 2 else []
                argv = ["product", C.graph6_encode(g), C.graph6_encode(h), *extra, *fmt]
                block.append((argv, ("product", g, h)))
            for k in range(3):
                argv = PASSES[(3 * b + k) % len(PASSES)]
                block.append((list(argv), ("pass",)))
            rng.shuffle(block)
            items += block
        return items

    def run(self, wc, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = wc.cli.main(list(item[0]))
        return code, buf.getvalue()

    def check(self, item, out):
        argv, spec = item
        code, text = out
        f = C.Failures()
        f.expect(code == 0, f"exit code {code}")
        if code != 0:
            return f.reasons
        if argv[0] == "generate":
            self._check_generate(f, argv, text)
            return f.reasons
        data = parse_output(text)
        if argv[0] == "analyze":
            self._check_analyze(f, spec[1], data)
        elif argv[0] == "product":
            self._check_product(f, spec[1], spec[2], data)
        elif argv[0] == "scan":
            self._check_scan(f, argv, data)
        else:
            f.expect(data["passed"] is True and data["counterexample_count"] == 0, "verify found a counterexample")
            totals = {}
            for claim_id, tally in data["claims"].items():
                f.expect(not tally["counterexamples"], f"{claim_id}: counterexample")
                totals.setdefault(CLAIM_SHAPES[claim_id], set()).add(tally["holds"] + tally["vacuous"])
            f.expect(len(data["claims"]) == len(CLAIM_IDS), "verify did not report every claim")
            f.expect(all(len(t) == 1 for t in totals.values()), "claims of one shape saw different instance counts")
        return f.reasons

    def _check_analyze(self, f, adj, d):
        i, a, _ = C.summary(adj)
        f.expect((d["n"], d["i"], d["alpha"]) == (len(adj), i, a), f"analyze (n, i, alpha) wrong: {(d['n'], d['i'], d['alpha'])}")
        C.check_witnesses(f, adj, d["i"], d["alpha"], mask(d["witness_min"]), mask(d["witness_max"]))
        f.expect(d["well_covered"] == (i == a), "well_covered wrong")
        f.expect(d["very_well_covered"] == (i == a and 2 * a == len(adj) and all(adj)), "very_well_covered wrong")
        girth = C.girth(adj)
        f.expect(d["girth"] == ("infinite" if girth is None else girth), "girth wrong")
        f.expect(d["regular_degree"] == C.regular_degree(adj), "regular_degree wrong")
        f.expect(d["bipartite"] == C.is_bipartite(adj), "bipartite wrong")
        f.expect(d["connected"] == C.is_connected(adj), "connected wrong")
        f.expect(d["isolatable"] == C.isolatable(adj), "isolatable wrong")

    def _check_product(self, f, g, h, d):
        prod = C.product(g, h)
        f.expect((d["nG"], d["nH"], d["n"]) == (len(g), len(h), len(prod)), "product orders wrong")
        i, a = d["i"], d["alpha"]
        C.check_witnesses(f, prod, i, a, mask(d["witness_min"]), mask(d["witness_max"]))
        kinds = tuple("complete" if x == C.complete(len(x)) and len(x) >= 2 else "graph" for x in (g, h))
        C.check_product_values(f, g, h, i, a, kinds)
        f.expect(d["well_covered"] == (i == a), "well_covered wrong")
        f.expect(d["very_well_covered"] == (i == a and 2 * a == len(prod) and all(prod)), "very_well_covered wrong")
        if kinds[1] == "complete":
            base, n = g, len(h)
        elif kinds[0] == "complete":
            base, n = h, len(g)
        else:
            f.expect("partition_engine" not in d, "partition engine ran without a complete factor")
            base = None
        if base is not None:
            kn = d["partition_engine"]
            f.expect((kn["i"], kn["alpha"]) == (i, a), "partition engine disagrees with the product")
            for key, weight in (("argmin", i), ("argmax", a)):
                p = kn[key]
                C.check_partition(f, base, n, weight, mask(p["V0"]), [mask(c) for c in p["classes"]], mask(p["bracket"]))
        if "check" in d:
            f.expect(d["check"]["status"] != "counterexample", "product --check found a counterexample")

    def _check_scan(self, f, argv, d):
        max_n = int(argv[argv.index("--max-n") + 1])
        graphs = small_graphs(max_n)
        if "--reps" in argv:
            graphs = list({canonical(adj): adj for adj in graphs}.values())
        expected = sum(1 for g in graphs for h in graphs if len(g) * len(h) <= 36)
        f.expect(len(d["pairs"]) == expected, f"scan listed {len(d['pairs'])} pairs, expected {expected}")
        for row in d["pairs"]:
            g, h = C.graph6_decode(row["g"]), C.graph6_decode(row["h"])
            prod = C.product(g, h)
            i, a, _ = C.summary(prod)
            ok = (row["order"] == len(prod) and row["well_covered"] == (i == a)
                  and row["very_well_covered"] == (i == a and 2 * a == len(prod) and all(prod)))
            f.expect(ok, f"scan row wrong for {row['g']} x {row['h']}")

    def _check_generate(self, f, argv, text):
        if "--format" in argv:
            emitted = json.loads(text)["graphs"]
        else:
            emitted = text.strip().splitlines()[1:]
        name = argv[argv.index("--filter") + 1]
        expected = []
        for adj in small_graphs(int(argv[argv.index("--max-n") + 1])):
            i, a, _ = C.summary(adj)
            wc_g = i == a
            vwc = wc_g and 2 * a == len(adj) and all(adj)
            if {"wc": wc_g, "vwc": vwc, "wc-not-vwc": wc_g and not vwc}[name]:
                expected.append(C.graph6_encode(adj))
        f.expect(sorted(emitted) == sorted(expected), f"generate --filter {name} emitted the wrong graphs")


def mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


WORKLOADS = {w.name: w for w in (ClaimSuite(), KnRoundtrip(), LargeProducts(), CliMix())}
