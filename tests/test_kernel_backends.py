"""The compiled kernel and the pure-Python fallback must be observationally
identical: same sets, same order, same witnesses, same short-circuits, same
errors.

The tracked ``_mis_core.c`` is compiled with the system C compiler, warnings
as errors, into a temporary directory and loaded by path, so the parity
checks run wherever a compiler is available, whether or not the extension is
installed."""

import importlib.util
import random
import re
import shutil
import subprocess
import sys
import sysconfig
import time
from functools import cache
from pathlib import Path

import pytest

from brute import (
    brute_maximal_independent_sets,
    brute_summary,
    is_maximal_independent,
    random_graph,
    reference_maximal_sets,
)
from test_independence import no_rotation_graphs, rotation_graphs
from wellcovered import _mis_fallback as pure
from wellcovered import kernel
from wellcovered.families import complete, complete_multipartite, cycle, h_family, path
from wellcovered.formats import from_graph6
from wellcovered.graphs import Graph, bits, disjoint_union, from_edge_list, induced_subgraph, to_mask, to_vertices
from wellcovered.products import direct_product

SOURCE = Path(pure.__file__).with_name("_mis_core.c")
SEARCHES = (
    "maximal_independent_sets",
    "count_maximal_independent_sets",
    "independence_summary",
    "well_covered_size",
)


def build(tmp_path_factory, *defines):
    """Compiles the tracked source with the given -D flags into a temporary
    directory and returns the path of the extension."""
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler")
    name = "_mis_core" + sysconfig.get_config_var("EXT_SUFFIX")
    target = tmp_path_factory.mktemp("mis_core") / name
    include = "-I" + sysconfig.get_paths()["include"]
    flags = ["-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC", *defines]
    done = subprocess.run(
        [compiler, *flags, include, str(SOURCE), "-o", str(target)],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return target


def load(path):
    spec = importlib.util.spec_from_file_location("_mis_core", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sample_graphs():
    rng = random.Random(41)
    graphs = [
        complete(1),
        complete(6),
        cycle(4),
        cycle(7),
        path(6),
        h_family(4, 2),
        h_family(3, 1),
        complete_multipartite([2, 2, 2]),
    ]
    for _ in range(200):
        graphs.append(random_graph(rng, rng.randint(1, 10), rng.random()))
    for _ in range(10):
        graphs.append(random_graph(rng, rng.randint(11, 18), 0.4))
    # no vertices, and 64 isolated ones: one set, the full mask 2**64 - 1
    graphs += [from_edge_list(0, []), from_edge_list(64, [])]
    return graphs


@pytest.mark.parametrize("g", sample_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
def test_identical_enumeration(compiled, g):
    assert compiled.maximal_independent_sets(g.adj) == pure.maximal_independent_sets(g.adj)


def test_identical_derived_quantities(compiled):
    for g in sample_graphs():
        assert compiled.count_maximal_independent_sets(g.adj) == pure.count_maximal_independent_sets(g.adj)
        assert compiled.independence_summary(g.adj) == pure.independence_summary(g.adj)
        assert compiled.well_covered_size(g.adj) == pure.well_covered_size(g.adj)


@pytest.mark.parametrize(
    "g, h",
    [
        (cycle(14), complete(3)),
        (path(14), complete(3)),
        (cycle(4), cycle(16)),
        (h_family(4, 3), complete(4)),
        (complete(8), cycle(8)),
        (complete(0), cycle(5)),
        (cycle(5), complete(0)),
        (h_family(6, 2), complete(3)),
        (cycle(7), cycle(9)),
        (cycle(5), cycle(11)),
        (cycle(7), cycle(7)),
    ],
    ids=["C14xK3", "P14xK3", "C4xC16", "H43xK4", "K8xC8", "K0xC5", "C5xK0", "H62xK3", "C7xC9", "C5xC11", "C7xC7"],
)
def test_identical_summary_on_large_products(compiled, g, h):
    """The pure summary skips the most subtrees on the first four products;
    the next three are the 64-vertex and 0-vertex edges of the product.  The
    walks over P14 x K3, C14 x K3 and H(6,2) x K3 answer revisits from the
    table of finished states.  The connected products of two odd cycles,
    C7 x C9, C5 x C11 and C7 x C7, repeat few states, so their tables fill
    with states that seldom answer a lookup; the degree bounds of the pivot
    loop skip nearly half of the nodes they expand, with X empty and
    nonempty."""
    adj = compiled.direct_product_adj(g.adj, h.adj)
    assert adj == pure.direct_product_adj(g.adj, h.adj) == list(direct_product(g, h).graph.adj)
    assert compiled.independence_summary(adj) == pure.independence_summary(adj)


def corona(g):
    """g with one new leaf on each vertex v, labeled g.n + v."""
    return from_edge_list(2 * g.n, [*g.edges(), *((v, g.n + v) for v in range(g.n))])


def isolated_residual_graphs():
    """Graphs whose walks meet many vertices isolated in G[P] at nodes with
    X empty, which the walk adds to S in one step: 64 vertices with K1 at
    label 0 and at label 63, G x K_n where G has isolated vertices, the
    well-covered H(k, n) x K_{n+1}, and coronas."""
    rng = random.Random(47)
    big = direct_product(h_family(7, 2), complete(3)).graph
    graphs = [disjoint_union(complete(1), big), disjoint_union(big, complete(1))]
    for n in (2, 3, 4):
        for isolated in (1, 3):
            g = disjoint_union(random_graph(rng, rng.randint(2, 12), rng.random()), Graph(isolated, (0,) * isolated))
            graphs.append(direct_product(g, complete(n)).graph)
    hk = [(k, 1) for k in (2, 3, 4, 8, 16)] + [(k, 2) for k in (2, 3, 5, 7)] + [(2, 3), (4, 3), (2, 4), (1, 7)]
    graphs += [direct_product(h_family(k, n), complete(n + 1)).graph for k, n in hk]
    graphs += [corona(g) for g in (path(4), cycle(5), complete(6), cycle(16), path(32), complete(32))]
    graphs += [corona(random_graph(rng, rng.randint(3, 32), rng.random())) for _ in range(12)]
    return graphs


@pytest.mark.parametrize("g", isolated_residual_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
def test_identical_on_isolated_residuals(compiled, g):
    """Both backends give equal summaries and decisions, and up to 20
    vertices both enumerate in the reference walk's order."""
    assert compiled.independence_summary(g.adj) == pure.independence_summary(g.adj)
    assert compiled.well_covered_size(g.adj) == pure.well_covered_size(g.adj)
    if g.n <= 20:
        closed = [row | 1 << v for v, row in enumerate(g.adj)]
        expect = list(reference_maximal_sets(closed, g.vertex_mask))
        assert compiled.maximal_independent_sets(g.adj) == pure.maximal_independent_sets(g.adj) == expect


# well-covered 64-vertex products whose walks absorb isolated vertices at
# most nodes: H(4,1) x H(4,1), the slowest well-covered products of two
# connected 8-vertex graphs, and the first of those in the labels that
# ``_canonical_mask`` gives its factors, in both orders
HARD_WELL_COVERED = [
    (h_family(4, 1), h_family(4, 1)),
    (from_graph6("GpQC?G"), from_graph6("GxQC?G")),
    (from_graph6("GpQC?G"), from_graph6("GxQCAG")),
    (from_graph6("GhQC?G"), from_graph6("GxQC?G")),
    (from_graph6("GsCaC?"), from_graph6("G{CaC?")),
    (from_graph6("G{CaC?"), from_graph6("GsCaC?")),
]


@pytest.mark.parametrize("impl", ["compiled", "pure"])
def test_hard_well_covered_decisions(compiled, impl):
    """Each product decides well-covered with size 32, and its summary is
    (32, 32) with two maximal independent sets as witnesses.  A walk that
    takes one isolated vertex a node spends several seconds on the first
    four on the pure kernel; absorbing them takes a fraction of a second.  A
    walk that stops looking up its table after a run of lookups that seldom
    hit spends 1.4 s or more on ``GsCaC?`` x ``G{CaC?`` alone."""
    kernel_impl = compiled if impl == "compiled" else pure
    start = time.perf_counter()
    for g, h in HARD_WELL_COVERED:
        prod = direct_product(g, h).graph
        assert kernel_impl.well_covered_size(prod.adj) == 32
        i, a, wit_min, wit_max = kernel_impl.independence_summary(prod.adj)
        assert (i, a) == (32, 32)
        for w in (wit_min, wit_max):
            assert w.bit_count() == 32 and is_maximal_independent(prod.adj, prod.n, w)
    assert time.perf_counter() - start < 2.0


def test_table_defaults_match_the_pure_kernel():
    """The ``TABLE_*`` defaults of ``_mis_core.c`` equal the constants of
    ``_mis_fallback``; the slot count is C's own.  The parity tests cannot
    see a drift, which changes only speed."""
    defines = dict(re.findall(r"^#define (TABLE_\w+) (\d+)$", SOURCE.read_text(), re.M))
    assert defines.pop("TABLE_SLOTS")
    constants = {name: value for name, value in vars(pure).items() if name.startswith("TABLE_")}
    assert {name: int(value) for name, value in defines.items()} == constants


# the -D builds: no table, a one-state table, a table at every node of every
# walk, and the degree bounds in every walk with no table
TABLE_RULES = {
    "cap0": ["-DTABLE_CAP=0"],
    "cap1": ["-DTABLE_CAP=1"],
    "everywhere": ["-DTABLE_MIN_ORDER=0", "-DTABLE_MIN_FREE=1"],
    "bounds": ["-DTABLE_MIN_ORDER=0", "-DTABLE_CAP=0"],
}


@pytest.fixture(scope="session")
def variants(tmp_path_factory):
    """The kernel built with each of ``TABLE_RULES``, once per run."""
    return {name: load(build(tmp_path_factory, *defines)) for name, defines in TABLE_RULES.items()}


@pytest.mark.parametrize("rules", list(TABLE_RULES))
def test_table_rules_leave_summary_unchanged(variants, rules):
    """The compiled summary and decision with no table, a one-state table, a
    table at every node of every walk, or the degree bounds in every walk and
    no table equal the pure ones with their own rules, also on the graphs
    whose walks stop at the root's second branch and on one hard
    well-covered product in three labelings."""
    variant = variants[rules]
    rng = random.Random(43)
    graphs = [random_graph(rng, rng.randint(8, 16), rng.random()) for _ in range(1500)]
    graphs += [
        direct_product(g, h).graph
        for g, h in [(path(14), complete(3)), (cycle(14), complete(3)), (h_family(6, 2), complete(3))]
    ]
    graphs += isolated_residual_graphs()
    graphs += [g for _, g in rotation_graphs()]
    graphs += [direct_product(g, h).graph for g, h in HARD_WELL_COVERED[1:2] + HARD_WELL_COVERED[4:]]
    for g in graphs:
        assert (variant.independence_summary(g.adj), variant.well_covered_size(g.adj)) == pure_answers(g.adj)


@cache
def pure_answers(adj):
    """The pure summary and decision, once per graph for all the builds."""
    return pure.independence_summary(adj), pure.well_covered_size(adj)


def test_identical_on_rotation_graphs(compiled):
    """Every product of two cycles or complete graphs on 24 to 64 vertices,
    and Cn and Kn alone, where both walks stop at the root's second branch,
    and 40 seeded relabelings of them, where they do not."""
    for g in [g for _, g in rotation_graphs()] + no_rotation_graphs():
        assert (compiled.independence_summary(g.adj), compiled.well_covered_size(g.adj)) == pure_answers(g.adj)


def within_graphs():
    """Products with two or more components, disjoint unions and the 0- and
    64-vertex edges: the inputs where the summary runs per component."""
    rng = random.Random(7)
    graphs = [
        direct_product(g, h).graph
        for g, h in [(cycle(4), cycle(16)), (cycle(6), cycle(6)), (cycle(8), cycle(8)), (path(4), path(6))]
    ]
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        graphs.append(disjoint_union(g, random_graph(rng, rng.randint(0, 12), rng.random())))
    return graphs + [from_edge_list(0, []), from_edge_list(64, [])]


@pytest.mark.parametrize("g", within_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
def test_identical_summary_within(compiled, g):
    rng = random.Random(g.n * 1000 + g.m)
    masks = [None, g.vertex_mask, 0] + [rng.getrandbits(g.n) for _ in range(20)]
    for m in masks:
        assert compiled.independence_summary(g.adj, m) == pure.independence_summary(g.adj, m)
        assert compiled.well_covered_size(g.adj, m) == pure.well_covered_size(g.adj, m)


@pytest.mark.parametrize("impl", ["compiled", "pure"])
def test_summary_within_is_induced_summary(compiled, impl):
    """The summary of G[within] in G's labels is the summary of the induced
    subgraph, its witnesses mapped back through ``to_vertices(within)``."""
    summary = (compiled if impl == "compiled" else pure).independence_summary
    rng = random.Random(13)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 16), rng.random())
        m = rng.getrandbits(g.n)
        kept = to_vertices(m)
        i, a, wit_min, wit_max = pure.independence_summary(induced_subgraph(g, m).adj)
        back = [to_mask(kept[v] for v in bits(w)) for w in (wit_min, wit_max)]
        assert summary(g.adj, m) == (i, a, *back)


def test_identical_within_errors(compiled):
    for fn in ("independence_summary", "well_covered_size"):
        for adj, within in [([0] * 3, 0b1000), ([0] * 3, -1), ([0] * 64, 1 << 64), ([0] * 64, -1), ([], 1)]:
            messages = []
            for impl in (compiled, pure):
                with pytest.raises(ValueError) as info:
                    getattr(impl, fn)(adj, within)
                messages.append(str(info.value))
            assert messages[0] == messages[1] == f"within mask mentions vertices >= {len(adj)}"
        for impl in (compiled, pure):
            # positional only, as the benchmark's replay records calls
            with pytest.raises(TypeError):
                getattr(impl, fn)([0], within=1)
            with pytest.raises(TypeError):
                getattr(impl, fn)([0], 1, 1)
            with pytest.raises(TypeError):
                getattr(impl, fn)()


def test_identical_limits(compiled, variants):
    """Both backends and the -D builds refuse a graph past 64 vertices and,
    with one message, a row that is negative or has a bit at or past n, where
    the pure kernel answered (2, 2, 3, 3) and the compiled one raised
    OverflowError or answered too."""
    calls = [(fn, ([0] * 65,), "kernel limited to 64 vertices") for fn in SEARCHES]
    calls.append(("direct_product_adj", ([0] * 13, [0] * 5), "product exceeds 64 vertices"))
    for row in (-1, 1 << 5, 1 << 63, 1 << 64):
        calls += [(fn, ([row, 0],), "row of G is negative or mentions vertices >= 2") for fn in SEARCHES]
    for fn, args, message in calls:
        for impl in (pure, compiled, *variants.values()):
            with pytest.raises(ValueError) as info:
                getattr(impl, fn)(*args)
            assert str(info.value) == message, (fn, args)


@pytest.mark.parametrize(
    "adj_g, adj_h, factor",
    [
        ([-1, 0], [0, 0], "G"),
        ([1 << 3, 0], [2, 1], "G"),
        ([1 << 63, 0], [2, 1], "G"),
        ([1 << 64, 0], [2, 1], "G"),
        ([2, 1], [0, -2], "H"),
        ([2, 1], [4, 0], "H"),
        ([-1], [-1], "G"),
        ([0] * 64, [1 << 64], "H"),
    ],
)
def test_identical_row_errors(compiled, adj_g, adj_h, factor):
    """A factor row that is negative or has a bit at or past the factor's
    order is refused by both backends, rows of G first, where the pure
    kernel looped forever on a negative row and the compiled one raised
    OverflowError or shifted past bit 63."""
    n = len(adj_g if factor == "G" else adj_h)
    for impl in (compiled, pure):
        with pytest.raises(ValueError) as info:
            impl.direct_product_adj(adj_g, adj_h)
        assert str(info.value) == f"row of {factor} is negative or mentions vertices >= {n}"
    # an empty product reads no rows
    assert compiled.direct_product_adj([], adj_h) == pure.direct_product_adj([], adj_h) == []


@pytest.mark.parametrize("impl", ["compiled", "pure"])
def test_decision_agrees_with_subset_filter(compiled, impl):
    """``well_covered_size(adj, m)`` is the one size of the maximal
    independent sets of G[m] that the 2**n subset filter finds, or -1."""
    decide = (compiled if impl == "compiled" else pure).well_covered_size
    rng = random.Random(17)
    graphs = [random_graph(rng, rng.randint(0, 10), rng.random()) for _ in range(400)]
    graphs += [
        disjoint_union(cycle(5), cycle(7)),
        disjoint_union(cycle(4), path(3)),
        direct_product(cycle(3), path(3)).graph,
    ]
    for g in graphs:
        for m in (g.vertex_mask, rng.getrandbits(g.n), rng.getrandbits(g.n)):
            sub = induced_subgraph(g, m)
            sizes = {s.bit_count() for s in brute_maximal_independent_sets(sub.adj, sub.n)}
            assert decide(g.adj, m) == (sizes.pop() if len(sizes) == 1 else -1)


def test_decision_walks_components(compiled):
    """The product of the corona of P4 with itself has 64 vertices in two
    components, and every maximal independent set has 32.  A decision that
    walks the maximal sets of the whole product takes seconds on the pure
    kernel; one bounded walk per component takes milliseconds."""
    adj = direct_product(corona(path(4)), corona(path(4))).graph.adj
    start = time.perf_counter()
    assert pure.well_covered_size(adj) == 32
    assert time.perf_counter() - start < 1.0
    assert compiled.well_covered_size(adj) == 32


def test_agrees_with_subset_filter(compiled):
    rng = random.Random(99)
    for _ in range(120):
        g = random_graph(rng, rng.randint(0, 9), rng.random())
        expect = brute_maximal_independent_sets(g.adj, g.n)
        assert sorted(compiled.maximal_independent_sets(g.adj)) == expect
        if expect:
            assert compiled.independence_summary(g.adj)[:2] == brute_summary(g.adj, g.n)


def test_order_64_boundary(compiled):
    g = complete(64)
    sets = compiled.maximal_independent_sets(g.adj)
    assert sets == pure.maximal_independent_sets(g.adj)
    assert len(sets) == 64


def test_load_by_path_registers_nothing(compiled_path):
    """A fresh interpreter that loads the extension by path gains no
    ``sys.modules`` entry from it, so the package still sees no installed
    extension."""
    code = (
        "import importlib.util, sys\n"
        "before = set(sys.modules)\n"
        f"spec = importlib.util.spec_from_file_location('_mis_core', {str(compiled_path)!r})\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_kernel_selection(compiled, monkeypatch):
    monkeypatch.setitem(sys.modules, "wellcovered._mis_core", compiled)
    monkeypatch.delenv("WELLCOVERED_PURE", raising=False)
    try:
        importlib.reload(kernel)
        assert kernel.BACKEND == "c"
        assert kernel.independence_summary is compiled.independence_summary
        monkeypatch.setenv("WELLCOVERED_PURE", "1")
        importlib.reload(kernel)
        assert kernel.BACKEND == "python"
        assert kernel.independence_summary is pure.independence_summary
    finally:
        monkeypatch.undo()
        importlib.reload(kernel)


def test_selected_backend_exports_kernel_api():
    for name in (*SEARCHES, "direct_product_adj"):
        assert hasattr(kernel, name)
