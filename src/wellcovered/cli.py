"""Command-line front end.

Subcommands: analyze a single graph, build and report a direct product,
generate family or corpus graphs, run the claim suite, and scan factor
pairs for well-covered products.  Output is JSON or a line-per-field text
rendering of the same data, and is byte-stable for fixed inputs apart from
the version field.

Exit codes: 0 success, 1 usage or parse error, 2 a claim counterexample
was found, 3 a resource cap was exceeded, 141 the reader closed stdout
early (128 + SIGPIPE, what a shell reports for a writer that a closed pipe
kills); the run then stops without a message.

``main(argv)`` can be called repeatedly in one process: the parser is built
on the first call and reused, and each call looks up ``_cmd_<command>`` in
this module when it runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .claims import (
    CLAIM_IDS,
    COUNTEREXAMPLE,
    REGISTRY,
    SHAPE_PAIR,
    PairFacts,
    corpus_instances,
    corpus_pair_instances,
    corpus_single_instances,
    facts_cache,
    facts_for,
    instance_json,
    run_suite_parallel,
    targeted_instances,
)
from .families import FAMILIES, FamilySpec
from .formats import from_graph6, load_graph_text, to_graph6
from .graphs import (
    MAX_VERTICES,
    CapacityError,
    Graph,
    girth,
    is_bipartite,
    is_complete,
    is_connected,
    is_regular,
    json_girth,
    to_vertices,
)
from .independence import isolatable_vertices, well_covered_report
from .kn_partitions import kn_report


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves 2
    for counterexamples, so usage failures are remapped to 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_between(text: str, low: int, high: float, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if not low <= value <= high:
        raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_between(text, 1, math.inf, "a positive integer")


def _nonnegative_int(text: str) -> int:
    return _int_between(text, 0, math.inf, "a nonnegative integer")


def _product_order(text: str) -> int:
    return _int_between(text, 1, MAX_VERTICES, f"an integer from 1 to {MAX_VERTICES}")


def parse_graph_arg(text: str) -> Graph:
    """Accept a family spec (cycle:7), an @file path, or a graph6 string.

    A bare ``@`` is the graph6 string of the 1-vertex graph, the only
    graph6 string that starts with ``@``."""
    if text.startswith("@") and len(text) > 1:
        return load_graph_text(Path(text[1:]).read_text())
    head = text.partition(":")[0]
    if head in FAMILIES:
        return FamilySpec.parse(text).build()
    try:
        return from_graph6(text)
    except CapacityError:
        raise
    except ValueError:
        raise ValueError(
            f"cannot parse graph input {text!r}: not a family spec, @file, or graph6 string"
        ) from None


def _text(value: object) -> str:
    """A value in text output: JSON for booleans, None and containers.
    Every scan row holds two booleans, so they are spelled here rather than
    by the far slower ``json.dumps``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None or isinstance(value, (dict, list)):
        return json.dumps(value)
    return str(value)


def _render(data: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(data, indent=2)
    return "\n".join(f"{key}: {_text(value)}" for key, value in data.items())


def _analyze_payload(g: Graph) -> dict:
    data = {"version": __version__}
    data.update(well_covered_report(g).to_json())
    data["girth"] = json_girth(girth(g))
    data["regular_degree"] = is_regular(g)
    data["bipartite"] = is_bipartite(g)
    data["connected"] = is_connected(g)
    data["isolatable"] = to_vertices(isolatable_vertices(g))
    return data


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = parse_graph_arg(args.graph)
    print(_render(_analyze_payload(g), args.format))
    return 0


def _cmd_product(args: argparse.Namespace) -> int:
    g = parse_graph_arg(args.g)
    h = parse_graph_arg(args.h)
    shared = facts_cache()
    try:
        facts = facts_for(SHAPE_PAIR, (g, h), shared)  # G x G summarizes G once
        data = {"version": __version__}
        data.update(facts.product.to_json_sidecar())
        rep = facts.product_report
        data.update(rep.to_json())
        if is_complete(h) and h.n >= 2:
            # G x K_n is the product just summarized, in kn_report's layout
            summary = (rep.i_number, rep.alpha, rep.witness_min, rep.witness_max)
            data["partition_engine"] = kn_report(g, h.n, summary).to_json()
        elif is_complete(g) and g.n >= 2:
            # K_n x H is H x K_n with each vertex (k, v) read as (v, k)
            swap = facts.product.swapped
            summary = (rep.i_number, rep.alpha, swap(rep.witness_min), swap(rep.witness_max))
            data["partition_engine"] = kn_report(h, g.n, summary).to_json()
        status = 0
        if args.check:
            verdict = REGISTRY["wc_direct"].verdict(facts)
            data["check"] = verdict.to_json()
            if verdict.status == COUNTEREXAMPLE:
                status = 2
        print(_render(data, args.format))
    finally:
        shared.release()
    return status


# each --filter name and the (well-covered, very well-covered) pairs it keeps
FILTERS = {
    "wc": lambda wc, vwc: wc,
    "vwc": lambda wc, vwc: vwc,
    "wc-not-vwc": lambda wc, vwc: wc and not vwc,
}


def _passes_filter(name: str | None, well_covered: bool, very_well_covered: bool) -> bool:
    return name is None or FILTERS[name](well_covered, very_well_covered)


def _print_lines(lines: Iterable[str]) -> None:
    """The text output of a stream: the version line, then each line as it
    is produced, so a long run can be piped and cut short.  The version line
    waits for the first line, so a source that fails at once, such as a
    corpus past its cap, writes nothing to stdout."""
    lines = iter(lines)
    first = next(lines, None)
    print(f"version: {__version__}")
    if first is not None:
        print(first)
    for line in lines:
        print(line)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.specs:
        graphs: Iterable[Graph] = [FamilySpec.parse(s).build() for s in args.specs]
    elif args.max_n is not None:
        graphs = corpus_single_instances(args.max_n, args.reps)
    else:
        raise ValueError("nothing to generate: pass family specs or --max-n")

    def kept(g: Graph) -> bool:
        report = well_covered_report(g)
        return _passes_filter(args.filter, report.well_covered, report.very_well_covered)

    emitted = (to_graph6(g) for g in graphs if args.filter is None or kept(g))
    if args.format == "json":
        lines = list(emitted)
        print(json.dumps({"version": __version__, "count": len(lines), "graphs": lines}, indent=2))
    else:
        _print_lines(emitted)
    return 0


def _instances(args: argparse.Namespace) -> Iterator:
    if not args.no_targeted:
        yield from targeted_instances()
    yield from corpus_instances(args.max_n, args.cap, tuple(args.orders), args.reps)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.list:
        for claim_id in CLAIM_IDS:
            print(f"{claim_id}: {REGISTRY[claim_id].summary}")
        return 0
    ids = args.claims or list(CLAIM_IDS)
    unknown = [c for c in ids if c not in REGISTRY]
    if unknown:
        raise ValueError(f"unknown claim ids: {', '.join(unknown)}")
    report = run_suite_parallel(ids, _instances(args), jobs=args.jobs)
    data = {
        "version": __version__,
        "passed": report.passed,
        "counterexample_count": report.counterexample_count,
        "claims": report.to_json(),
    }
    print(_render(data, args.format))
    return 0 if report.passed else 2


def _scan_row(f: PairFacts) -> dict:
    return {
        **instance_json(SHAPE_PAIR, f),
        "order": f.product.graph.n,
        "well_covered": f.product_wc,
        "very_well_covered": f.product_vwc,
    }


def _cmd_scan(args: argparse.Namespace) -> int:
    pairs = corpus_pair_instances(args.max_n, args.cap, args.reps)
    # one GraphFacts per distinct factor for the whole run, so each factor is
    # summarized once however many pairs it is in; unbounded, because the
    # pair stream holds the whole pool in memory anyway
    shared = facts_cache(bounded=False)
    facts = (facts_for(SHAPE_PAIR, pair, shared) for pair in pairs)
    rows = (
        r
        for r in map(_scan_row, facts)
        if _passes_filter(args.filter, r["well_covered"], r["very_well_covered"])
    )
    try:
        if args.format == "json":
            print(json.dumps({"version": __version__, "pairs": list(rows)}, indent=2))
        else:
            _print_lines(" ".join(f"{k}={_text(v)}" for k, v in r.items()) for r in rows)
    finally:
        shared.release()
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="wellcovered", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"wellcovered {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("analyze", help="independence and structure report for one graph")
    p.add_argument("graph", help="family spec, @file, or graph6 string")
    common(p)

    p = sub.add_parser("product", help="build a direct product and report it")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--check", action="store_true", help="also verify the factor conditions")
    common(p)

    p = sub.add_parser("generate", help="emit family graphs or a small-graph corpus as graph6")
    p.add_argument("specs", nargs="*", help="family specs such as h:4,2 or cycle:7")
    p.add_argument(
        "--max-n", type=_nonnegative_int, default=None, help="stream the connected corpus instead"
    )
    p.add_argument("--reps", action="store_true", help="one graph per isomorphism class")
    p.add_argument("--filter", choices=tuple(FILTERS), default=None)
    common(p)

    p = sub.add_parser("verify", help="run the claim suite over corpora and targeted instances")
    p.add_argument("claims", nargs="*", help="claim ids (default: all)")
    p.add_argument("--list", action="store_true", help="list claim ids and exit")
    p.add_argument("--max-n", type=_nonnegative_int, default=4)
    p.add_argument(
        "--cap", type=_product_order, default=36, help="max product order for pair instances"
    )
    p.add_argument(
        "--orders", type=lambda s: [_positive_int(x) for x in s.split(",")], default=(2, 3)
    )
    p.add_argument("--reps", action="store_true", help="pair scan over isomorphism classes only")
    p.add_argument("--no-targeted", action="store_true")
    p.add_argument("--jobs", type=_positive_int, default=1)
    common(p)

    p = sub.add_parser("scan", help="flag well-covered products over all factor pairs in range")
    p.add_argument("--max-n", type=_nonnegative_int, default=4)
    p.add_argument("--cap", type=_product_order, default=36)
    p.add_argument("--filter", choices=tuple(FILTERS), default=None)
    p.add_argument("--reps", action="store_true")
    common(p)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The process's one parser, built on first use rather than at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a replaced _cmd_* function is the one that runs
    command = globals()[f"_cmd_{args.command}"]
    try:
        code = command(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the idiom of Python's signal docs: point stdout at devnull so the
        # flush at exit does not fail again, and stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CapacityError as exc:
        print(f"wellcovered: resource cap: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"wellcovered: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
