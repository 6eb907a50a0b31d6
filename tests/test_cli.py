"""Command-line interface: output fields, exit codes, determinism, and
agreement with the library functions it fronts."""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import wellcovered
from wellcovered import __version__, claims, cli, kernel
from wellcovered.claims import corpus_pair_instances
from wellcovered.cli import main
from wellcovered.families import complete, corpus, cycle
from wellcovered.formats import from_graph6, to_graph6
from wellcovered.graphs import disjoint_union, to_mask
from wellcovered.independence import well_covered_report
from wellcovered.kn_partitions import WeakPartition, kn_alpha_i
from wellcovered.products import direct_product

FILTERS = {
    "wc": lambda rep: rep.well_covered,
    "vwc": lambda rep: rep.very_well_covered,
    "wc-not-vwc": lambda rep: rep.well_covered and not rep.very_well_covered,
}


# sha256 of the stdout of ``verify <argv> --format json``; verdict tallies and
# witnesses must stay byte-identical whichever path decides a product
VERIFY_DIGESTS = {
    "--max-n 4": "eee90025ef3b3499c88122bbb638ce56f6728a490a437c8bdf00a9d9184ec87e",
    "--max-n 5 --reps": "128d0e9b9655c5c5aed6d86c807356f32c97c08efbb3e61dc086578bb0b1a9ff",
}

# the same for ``scan <argv> --format json``: every row stays byte-identical
# whichever path decides its product
SCAN_DIGESTS = {
    "--max-n 4": "4fa0d2ad1b2e08631da985ae5dcb5d02b7f7cfbafa29c4c4da4dac98abdc1a96",
    "--max-n 5 --reps": "740beb5585f646f942b88fb397b42e08bc90da8620d2a26d35d414d835829601",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_kernel_calls(monkeypatch, *names) -> Counter:
    """A Counter that each listed kernel function bumps when called."""
    calls = Counter()
    for name in names:
        original = getattr(kernel, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(kernel, name, counted)
    return calls


class TestAnalyze:
    def test_cycle_text(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "cycle:7")
        assert code == 0
        assert "well_covered: true" in out
        assert "alpha: 3" in out
        assert "i: 3" in out
        assert "girth: 7" in out
        assert "isolatable: [0, 1, 2, 3, 4, 5, 6]" in out

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "cycle:4", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["version"] == __version__
        assert data["n"] == 4
        assert data["alpha"] == data["i"] == 2
        assert data["well_covered"] and data["very_well_covered"]
        assert data["girth"] == 4
        assert data["regular_degree"] == 2
        assert data["bipartite"] and data["connected"]

    def test_infinite_girth(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "path:3", "--format", "json")
        assert json.loads(out)["girth"] == "infinite"

    def test_irregular_text(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "path:3")
        assert "girth: infinite" in out.splitlines()
        assert "regular_degree: null" in out.splitlines()

    def test_graph6_input(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "Bw", "--format", "json")
        assert code == 0
        assert json.loads(out)["n"] == 3

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("Bw\n")
        _, direct, _ = run_cli(capsys, "analyze", "Bw", "--format", "json")
        _, via_file, _ = run_cli(capsys, "analyze", f"@{path}", "--format", "json")
        assert direct == via_file

    def test_bare_at_is_the_one_vertex_graph6(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "@")
        assert code == 0
        assert "n: 1" in out.splitlines()
        code, out, _ = run_cli(capsys, "product", "@", "@", "--format", "json")
        assert code == 0
        assert json.loads(out)["n"] == 1

    def test_generated_graph6_reads_back(self, capsys):
        _, out, _ = run_cli(capsys, "generate", "--max-n", "4")
        lines = out.strip().splitlines()[1:]
        assert "@" in lines
        for line in lines:
            code, out, _ = run_cli(capsys, "analyze", line, "--format", "json")
            assert code == 0
            assert json.loads(out)["n"] == from_graph6(line).n

    def test_parse_failure_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "zz;;")
        assert code == 1
        assert "cannot parse" in err

    def test_family_cap_exits_3(self, capsys):
        # the second input is the edgeless graph on 65 vertices in graph6:
        # "~" and three size characters, then 2080 zero bits in 347 characters
        for graph in (f"complete:{10**12}", "~?@@" + "?" * 347):
            code, _, err = run_cli(capsys, "analyze", graph)
            assert code == 3, graph
            assert "resource cap" in err

    @pytest.mark.parametrize(
        "text,code,message",
        [
            ("-1 0\n", 1, "error:"),
            ("-1 1\n0 1\n", 1, "error:"),
            ("65 0\n", 3, "resource cap"),
            ("3 x\n", 1, "expected 'n m'"),
            ("5\n", 1, "expected 'n m'"),
        ],
        ids=["negative", "negative-with-edge", "over-cap", "non-integer-header", "one-field-header"],
    )
    def test_edge_list_vertex_count_exit_code(self, capsys, tmp_path, text, code, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        got, _, err = run_cli(capsys, "analyze", f"@{path}")
        assert got == code
        assert message in err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "no graph data found in input"),
            ("# only a comment\n\n   # and another\n", "no graph data found in input"),
            ("3 3\n0 1\n1 2\n", "header promises 3 edges but 2 lines follow"),
            ("3 2\n0 1 2\n1 2\n", "bad edge line '0 1 2'"),
            ("3 1\n1 1\n", "edge (1, 1) is a loop"),
            # whitespace or a leading digit rule out graph6 (bytes 63..126)
            ("3 x\n", "bad edge-list header '3 x': expected 'n m', the vertex and edge counts"),
            ("5\n", "bad edge-list header '5': expected 'n m', the vertex and edge counts"),
            # a graph6 file names one graph, not the first of several
            ("Bw\nCw\n", "graph6 input holds 2 data lines; expected one graph"),
        ],
        ids=[
            "empty",
            "comments-only",
            "short-edge-count",
            "three-token-edge",
            "loop",
            "non-integer-header",
            "one-field-header",
            "several-graph6-lines",
        ],
    )
    def test_bad_edge_list_file_exits_1(self, capsys, tmp_path, text, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        assert run_cli(capsys, "analyze", f"@{path}") == (1, "", f"wellcovered: error: {message}\n")

    @pytest.mark.parametrize(
        "graph,message",
        [
            ("~", "cannot parse graph input '~': not a family spec, @file, or graph6 string"),
            ("h:0,2", "family spec 'h:0,2' needs positive parameters"),
        ],
        ids=["truncated-long-form", "nonpositive-parameter"],
    )
    def test_bad_graph_argument_exits_1(self, capsys, graph, message):
        assert run_cli(capsys, "analyze", graph) == (1, "", f"wellcovered: error: {message}\n")

    def test_empty_graph6_is_k0(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "?", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert (data["n"], data["regular_degree"], data["connected"]) == (0, 0, True)

    def test_missing_argument_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["analyze"])
        assert info.value.code == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1


class TestProduct:
    def test_partition_engine_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "product", "h:4,2", "complete:3", "--format", "json"
        )
        data = json.loads(out)
        assert code == 0
        assert data["n"] == 36
        assert data["alpha"] == data["i"] == 12
        assert data["well_covered"]
        engine = data["partition_engine"]
        assert engine["engine"] == "product-enumeration"
        assert (engine["i"], engine["alpha"]) == (12, 12)

    def test_complete_factor_summarized_once(self, capsys, monkeypatch):
        """The partition view decodes the product report's summary instead of
        enumerating G x K_n again."""
        calls = []
        original = kernel.independence_summary

        def counted(adj):
            calls.append(len(adj))
            return original(adj)

        monkeypatch.setattr(kernel, "independence_summary", counted)
        _, out, _ = run_cli(capsys, "product", "cycle:5", "complete:3", "--format", "json")
        assert calls == [15]
        monkeypatch.undo()
        assert json.loads(out)["partition_engine"] == kn_alpha_i(cycle(5), 3).to_json()

    def test_complete_factor_on_left(self, capsys):
        _, out, _ = run_cli(capsys, "product", "complete:3", "cycle:4", "--format", "json")
        assert json.loads(out)["partition_engine"]["nG"] == 4

    def test_complete_first_factor_summarized_once(self, capsys, monkeypatch):
        """K_n x H decodes the partition view of H x K_n from its own report,
        each vertex (k, v) read as (v, k), instead of building and
        summarizing H x K_n as well."""
        calls = count_kernel_calls(monkeypatch, "direct_product_adj", "independence_summary")
        _, out, _ = run_cli(capsys, "product", "complete:3", "cycle:5", "--format", "json")
        monkeypatch.undo()
        assert calls == {"direct_product_adj": 1, "independence_summary": 1}
        engine = json.loads(out)["partition_engine"]
        expect = kn_alpha_i(cycle(5), 3)
        assert (engine["nG"], engine["n"]) == (5, 3)
        assert (engine["i"], engine["alpha"]) == (expect.i_value, expect.alpha_value)
        for key, weight in (("argmin", engine["i"]), ("argmax", engine["alpha"])):
            part = engine[key]
            p = WeakPartition(
                cycle(5),
                3,
                to_mask(part["V0"]),
                tuple(map(to_mask, part["classes"])),
                to_mask(part["bracket"]),
            )
            assert p.violations() == []
            assert p.weight() == weight

    def test_check_passes(self, capsys):
        g6 = to_graph6(disjoint_union(complete(2), complete(1)))
        code, out, _ = run_cli(capsys, "product", g6, "A_", "--check", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["check"]["claim"] == "wc_direct"
        assert data["check"]["status"] == "holds"

    def test_check_decides_with_the_kernel(self, capsys, monkeypatch):
        """The report printed for C4 x C4 does not decide the check: the
        lifted certificate cannot settle a product of two well-covered
        factors, so ``PairFacts.product_wc_size`` asks the kernel once."""
        calls = []
        original = kernel.well_covered_size

        def counted(adj):
            calls.append(len(adj))
            return original(adj)

        monkeypatch.setattr(kernel, "well_covered_size", counted)
        code, out, _ = run_cli(capsys, "product", "cycle:4", "cycle:4", "--check")
        assert code == 0
        assert '"status": "holds"' in out
        assert calls == [16]

    def test_capacity_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "product", "complete:9", "complete:9")
        assert code == 3
        assert "resource cap" in err


class Interrupted(Exception):
    """Raised by a stub source partway through a stream."""


class TestGenerate:
    def test_text_streams(self, capsys, monkeypatch):
        """Each line is printed as its graph comes, before the corpus ends."""

        def two_then_fail(max_n, representatives=False):
            yield complete(1)
            yield complete(2)
            raise Interrupted

        monkeypatch.setattr(cli, "corpus_single_instances", two_then_fail)
        with pytest.raises(Interrupted):
            main(["generate", "--max-n", "7"])
        assert capsys.readouterr().out == f"version: {__version__}\n@\nA_\n"

    def test_specs_text(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "complete:3", "cycle:5")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == f"version: {__version__}"
        assert lines[1:] == ["Bw", "Dhc"]

    def test_corpus_counts(self, capsys):
        _, out, _ = run_cli(capsys, "generate", "--max-n", "3", "--format", "json")
        assert json.loads(out)["count"] == 6
        _, out, _ = run_cli(capsys, "generate", "--max-n", "3", "--reps", "--format", "json")
        assert json.loads(out)["count"] == 4

    @pytest.mark.parametrize(
        "name, count", [("wc", 3), ("vwc", 1), ("wc-not-vwc", 2)], ids=["wc", "vwc", "wc-not-vwc"]
    )
    def test_filter_matches_library(self, capsys, name, count):
        _, out, _ = run_cli(
            capsys, "generate", "--max-n", "3", "--filter", name, "--format", "json"
        )
        got = json.loads(out)["graphs"]
        want = [
            to_graph6(g) for g in corpus(3) if FILTERS[name](well_covered_report(g))
        ]
        assert got == want and len(got) == count

    def test_corpus_cap_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--max-n", "8")
        assert code == 3
        assert "resource cap" in err

    def test_reps_cap_exits_3(self, capsys):
        assert run_cli(capsys, "generate", "--max-n", "8", "--reps") == (
            3, "", "wellcovered: resource cap: exhaustive corpus capped at 7 vertices\n"
        )

    def test_no_input_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "generate")
        assert code == 1
        assert "nothing to generate" in err


class TestVerify:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--list")
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 23
        assert lines[0].startswith("inverse_image: ")

    def test_small_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "3", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["passed"] is True
        assert data["counterexample_count"] == 0
        assert len(data["claims"]) == 23
        assert all(t["counterexamples"] == [] for t in data["claims"].values())

    def test_claim_subset(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "berge", "twins", "--max-n", "3", "--format", "json"
        )
        assert code == 0
        assert set(json.loads(out)["claims"]) == {"berge", "twins"}

    def test_unknown_claim_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nope", "--max-n", "2")
        assert code == 1
        assert "unknown claim ids" in err

    def test_bad_cap_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--max-n", "2", "--cap", "99"])
        assert info.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--cap" in err

    def test_corpus_cap_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-n", "8")
        assert code == 3
        assert "resource cap" in err

    @pytest.mark.parametrize("orders", ["-1", "0", "2,0", "2,x"])
    def test_nonpositive_orders_exits_1(self, capsys, orders):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--max-n", "2", f"--orders={orders}"])
        assert info.value.code == 1
        assert "--orders" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--max-n", "3", "--format", "json")
        _, second, _ = run_cli(capsys, "verify", "--max-n", "3", "--format", "json")
        assert first == second

    @pytest.mark.parametrize("argv", sorted(VERIFY_DIGESTS))
    def test_output_digest(self, capsys, argv):
        code, out, _ = run_cli(capsys, "verify", *argv.split(), "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[argv]

    def test_worker_pool_prints_the_same(self, capsys):
        argv = "--max-n 4"
        code, out, _ = run_cli(capsys, "verify", *argv.split(), "--jobs", "2", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[argv]

    def test_kernel_calls_per_run(self, capsys, monkeypatch):
        """One GraphFacts per distinct graph for the whole run: each graph is
        summarized once however many instances it is in, and a (G, K3) pair,
        a (G, 3) instance and k3_dichotomy share one G x K3, as a (G, K2)
        pair and a (G, 2) instance share G x K2.  K_n x K_n is also K_n's
        square, for multipartite_square and the pair (K_n, K_n).  So the
        products and decisions of the (G, K_n) pairs are not counted twice.
        K2 and K3 are summarized once, as instances and as the second
        factors of every G x K_n alike.  The facts of K_n belong to the run,
        so a second run in the same process makes the same calls."""
        for _ in range(2):
            calls = count_kernel_calls(
                monkeypatch,
                "independence_summary",
                "well_covered_size",
                "maximal_independent_sets",
                "direct_product_adj",
            )
            code, _, _ = run_cli(capsys, "verify", "--max-n", "4", "--reps", "--format", "json")
            monkeypatch.undo()
            assert code == 0
            assert calls == {
                "independence_summary": 17,
                "well_covered_size": 136,
                "maximal_independent_sets": 40,
                "direct_product_adj": 113,
            }

    @pytest.mark.parametrize("reps", [[], ["--reps"]], ids=["labeled", "reps"])
    def test_corpus_built_once_per_run(self, capsys, monkeypatch, reps):
        """The singles, the pairs and the (G, n) instances read one pool."""
        passes = Counter()
        for name in ("corpus", "corpus_representatives"):

            def counted(max_n, _stream=getattr(claims, name), _name=name):
                passes[_name] += 1
                return _stream(max_n)

            monkeypatch.setattr(claims, name, counted)
        code, _, _ = run_cli(capsys, "verify", "--max-n", "3", *reps)
        assert code == 0
        assert passes == {"corpus_representatives" if reps else "corpus": 1}

    def test_repeated_claim_id_counts_once(self, capsys):
        argv = ["--max-n", "3", "--no-targeted", "--format", "json"]
        _, once, _ = run_cli(capsys, "verify", "berge", *argv)
        _, twice, _ = run_cli(capsys, "verify", "berge", "berge", *argv)
        assert twice == once
        assert json.loads(once)["claims"]["berge"]["holds"] == 2

    def test_repeated_order_counts_once(self, capsys):
        argv = ["layer_sizes", "--max-n", "3", "--no-targeted", "--format", "json"]
        _, once, _ = run_cli(capsys, "verify", *argv, "--orders", "2")
        _, twice, _ = run_cli(capsys, "verify", *argv, "--orders", "2,2")
        assert twice == once
        assert json.loads(once)["claims"]["layer_sizes"]["holds"] == 6


class TestScan:
    def test_rows_match_library(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--max-n", "2", "--format", "json")
        rows = json.loads(out)["pairs"]
        assert code == 0
        assert len(rows) == 4
        from wellcovered.formats import from_graph6
        from wellcovered.products import direct_product

        for row in rows:
            prod = direct_product(from_graph6(row["g"]), from_graph6(row["h"]))
            rep = well_covered_report(prod.graph)
            assert row["order"] == prod.graph.n
            assert row["well_covered"] == rep.well_covered
            assert row["very_well_covered"] == rep.very_well_covered

    @pytest.mark.parametrize("name", list(FILTERS))
    def test_filter_matches_library(self, capsys, name):
        _, out, _ = run_cli(
            capsys, "scan", "--max-n", "3", "--cap", "9", "--filter", name, "--format", "json"
        )
        got = [(row["g"], row["h"]) for row in json.loads(out)["pairs"]]
        want = [
            (to_graph6(g), to_graph6(h))
            for g, h in corpus_pair_instances(3, cap=9)
            if FILTERS[name](well_covered_report(direct_product(g, h).graph))
        ]
        assert got == want and got

    def test_filter_finds_k3_square(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "scan", "--max-n", "3", "--cap", "9",
            "--filter", "wc-not-vwc", "--format", "json",
        )
        rows = json.loads(out)["pairs"]
        assert {"g": "Bw", "h": "Bw", "order": 9,
                "well_covered": True, "very_well_covered": False} in rows

    def test_text_shape(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--max-n", "2")
        lines = out.strip().splitlines()
        assert lines[0] == f"version: {__version__}"
        assert lines[1].startswith("g=@ h=@ order=1 ")
        assert "well_covered=" in lines[1]

    def test_text_streams(self, capsys, monkeypatch):
        """Each row is printed as its pair is decided, before the scan ends."""
        decide = kernel.well_covered_size
        calls = []

        def two_then_fail(*args):
            calls.append(args)
            if len(calls) > 2:
                raise Interrupted
            return decide(*args)

        monkeypatch.setattr(kernel, "well_covered_size", two_then_fail)
        with pytest.raises(Interrupted):
            main(["scan", "--max-n", "2"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"version: {__version__}"
        assert [line.split()[:2] for line in lines[1:]] == [["g=@", "h=@"], ["g=@", "h=A_"]]

    def test_each_factor_summarized_once(self, capsys, monkeypatch):
        """All pairs with a common factor share its summary, even when the
        pool holds more graphs than a bounded facts cache, and the lifted
        certificate settles some pairs without a decision.  K1, K2 and K3
        are summarized in the run, as every other graph is."""
        monkeypatch.setattr(claims, "FACTS_CACHE_SIZE", 2)
        calls = count_kernel_calls(monkeypatch, "independence_summary", "well_covered_size")
        code, out, _ = run_cli(capsys, "scan", "--max-n", "3", "--format", "json")
        assert code == 0
        assert calls["independence_summary"] == len(list(corpus(3)))
        assert calls["well_covered_size"] < len(json.loads(out)["pairs"])

    @pytest.mark.parametrize("argv", sorted(SCAN_DIGESTS))
    def test_output_digest(self, capsys, argv):
        code, out, _ = run_cli(capsys, "scan", *argv.split(), "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SCAN_DIGESTS[argv]

    def test_bad_cap_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["scan", "--max-n", "2", "--cap", "0"])
        assert info.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--cap" in err

    def test_jobs_is_unrecognized(self, capsys):
        """scan runs in one process; only verify has a worker pool."""
        with pytest.raises(SystemExit) as info:
            main(["scan", "--max-n", "2", "--jobs", "2"])
        assert info.value.code == 1
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    # verify only: scan's error would name --jobs as an unrecognized argument
    @pytest.mark.parametrize("command", ["verify"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_nonpositive_jobs_exits_1(self, capsys, command, jobs):
        with pytest.raises(SystemExit) as info:
            main([command, "--max-n", "2", "--jobs", jobs])
        assert info.value.code == 1
        assert "--jobs" in capsys.readouterr().err


class TestOutputTables:
    @pytest.mark.parametrize("command", ["generate", "scan"])
    def test_filter_choices_are_the_table(self, command):
        sub = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        action = next(a for a in sub.choices[command]._actions if a.dest == "filter")
        assert action.choices == tuple(cli.FILTERS) == ("wc", "vwc", "wc-not-vwc")

    @pytest.mark.parametrize(
        "name,kept",
        [
            (None, [True, True, True, True]),
            ("wc", [False, False, True, True]),
            ("vwc", [False, True, False, True]),
            ("wc-not-vwc", [False, False, True, False]),
        ],
    )
    def test_filter_truth_table(self, name, kept):
        """Over (wc, vwc) = (F, F), (F, T), (T, F), (T, T); the second cannot
        occur, but the predicates still decide it."""
        cases = [(False, False), (False, True), (True, False), (True, True)]
        assert [cli._passes_filter(name, *c) for c in cases] == kept

    @pytest.mark.parametrize(
        "value,text",
        [
            (None, "null"),
            (True, "true"),
            (False, "false"),
            ([0, 2], "[0, 2]"),
            ({"a": [1], "b": None}, '{"a": [1], "b": null}'),
            ("Bw", "Bw"),
            (7, "7"),
        ],
    )
    def test_text_form(self, value, text):
        assert cli._text(value) == text


class TestMaxN:
    @pytest.mark.parametrize("command", ["generate", "verify", "scan"])
    def test_negative_exits_1(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--max-n", "-1"])
        assert info.value.code == 1
        assert "--max-n" in capsys.readouterr().err

    def test_zero_is_the_empty_corpus(self, capsys):
        _, out, _ = run_cli(capsys, "generate", "--max-n", "0", "--format", "json")
        assert json.loads(out)["count"] == 0
        _, out, _ = run_cli(capsys, "scan", "--max-n", "0", "--format", "json")
        assert json.loads(out)["pairs"] == []
        code, out, _ = run_cli(capsys, "verify", "--max-n", "0", "--format", "json")
        assert code == 0
        # the targeted instances still run
        assert json.loads(out)["claims"]["berge"]["holds"] >= 1


@pytest.fixture
def fresh_parser():
    """Drop the process's cached parser before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


@pytest.mark.usefixtures("fresh_parser")
class TestRepeatedCalls:
    """``main`` reuses one parser; no call may leak into the next."""

    def test_usage_error_and_version_leave_no_trace(self, capsys):
        argv = ("analyze", "cycle:5")
        first = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as info:
            main(["analyze"])
        assert info.value.code == 1
        usage = capsys.readouterr().err
        assert run_cli(capsys, *argv) == first
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out == f"wellcovered {__version__}\n"
        assert run_cli(capsys, *argv) == first
        with pytest.raises(SystemExit):
            main(["analyze"])
        assert capsys.readouterr().err == usage

    def test_json_call_does_not_change_the_next_text_call(self, capsys):
        argv = ("product", "cycle:5", "complete:3", "--check")
        fresh = run_cli(capsys, *argv)
        cli._parser.cache_clear()
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and out.startswith("{")
        assert run_cli(capsys, *argv) == fresh

    def test_replaced_command_runs_on_the_next_call(self, capsys, monkeypatch):
        run_cli(capsys, "analyze", "cycle:5")
        seen = []

        def replacement(args):
            seen.append(args.graph)
            return 7

        monkeypatch.setattr(cli, "_cmd_analyze", replacement)
        assert main(["analyze", "cycle:4"]) == 7
        assert seen == ["cycle:4"]

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        original = cli.build_parser

        def counting():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting)
        run_cli(capsys, "analyze", "cycle:5")
        run_cli(capsys, "generate", "cycle:5")
        assert len(built) == 1

    def test_orders_default_is_immutable(self):
        assert cli._parser().parse_args(["verify"]).orders == (2, 3)


class TestModuleEntryPoint:
    """``python -m wellcovered.cli`` in its own process, one call each."""

    @staticmethod
    def popen_module(*argv, **kwargs):
        src = str(Path(wellcovered.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.Popen(
            [sys.executable, "-m", "wellcovered.cli", *argv],
            text=True, env={**os.environ, "PYTHONPATH": path}, **kwargs,
        )

    def run_module(self, *argv):
        proc = self.popen_module(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)

    def test_version(self):
        done = self.run_module("--version")
        assert done.returncode == 0
        assert done.stdout == f"wellcovered {__version__}\n"

    def test_analyze_json(self):
        done = self.run_module("analyze", "cycle:5", "--format", "json")
        assert done.returncode == 0
        assert json.loads(done.stdout)["alpha"] == 2

    def test_missing_graph_exits_1(self):
        done = self.run_module("analyze")
        assert done.returncode == 1
        assert done.stdout == ""
        assert "required: graph" in done.stderr

    def test_reader_closes_pipe_early(self):
        """``generate --max-n 6 | head -2``: the run stops at the closed pipe
        with exit code 141 and writes nothing to stderr."""
        proc = self.popen_module(
            "generate", "--max-n", "6", stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert head == [f"version: {__version__}\n", "@\n"]
        assert err == ""

    def test_pipe_closed_before_output(self):
        """Output that fits the stdout buffer meets the closed pipe at the
        final flush, not at interpreter exit."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = self.popen_module(
            "generate", "--max-n", "3", "--reps", stdout=write_end, stderr=subprocess.PIPE
        )
        os.close(write_end)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == ""


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("wellcovered")
        if exe is None:
            pytest.skip("console script not on PATH")
        done = subprocess.run(
            [exe, "--version"], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0
        assert done.stdout.strip() == f"wellcovered {__version__}"

    def test_installed_analyze(self):
        exe = shutil.which("wellcovered")
        if exe is None:
            pytest.skip("console script not on PATH")
        done = subprocess.run(
            [exe, "analyze", "cycle:5", "--format", "json"],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0
        assert json.loads(done.stdout)["alpha"] == 2
