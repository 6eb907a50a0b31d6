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
from pathlib import Path

import pytest

from brute import brute_maximal_independent_sets, brute_summary, random_graph
from wellcovered import _mis_fallback as pure
from wellcovered import kernel
from wellcovered.families import complete, complete_multipartite, cycle, h_family, path
from wellcovered.graphs import bits, disjoint_union, from_edge_list, induced_subgraph, to_mask, to_vertices
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
    C7 x C9, C5 x C11 and C7 x C7, repeat few states, so their walks soon
    stop looking states up; the degree bounds of the pivot loop skip nearly
    half of the nodes they expand, with X empty and nonempty."""
    adj = compiled.direct_product_adj(g.adj, h.adj)
    assert adj == pure.direct_product_adj(g.adj, h.adj) == list(direct_product(g, h).graph.adj)
    assert compiled.independence_summary(adj) == pure.independence_summary(adj)


def test_table_defaults_match_the_pure_kernel():
    """The ``TABLE_*`` defaults of ``_mis_core.c`` equal the constants of
    ``_mis_fallback``; the slot count is C's own.  The parity tests cannot
    see a drift, which changes only speed."""
    defines = dict(re.findall(r"^#define (TABLE_\w+) (\d+)$", SOURCE.read_text(), re.M))
    assert defines.pop("TABLE_SLOTS")
    constants = {name: value for name, value in vars(pure).items() if name.startswith("TABLE_")}
    assert {name: int(value) for name, value in defines.items()} == constants


@pytest.mark.parametrize(
    "defines",
    [
        ["-DTABLE_CAP=0"],
        ["-DTABLE_CAP=1"],
        ["-DTABLE_MIN_ORDER=0", "-DTABLE_MIN_FREE=1", "-DTABLE_MIN_HITS=0"],
        ["-DTABLE_MIN_ORDER=0", "-DTABLE_CAP=0"],
    ],
    ids=["cap0", "cap1", "everywhere", "bounds"],
)
def test_table_rules_leave_summary_unchanged(tmp_path_factory, defines):
    """The compiled summary and decision with no table, a one-state table, a
    table at every node of every walk, or the degree bounds in every walk and
    no table equal the pure ones with their own rules."""
    variant = load(build(tmp_path_factory, *defines))
    rng = random.Random(43)
    graphs = [random_graph(rng, rng.randint(8, 16), rng.random()) for _ in range(1500)]
    graphs += [
        direct_product(g, h).graph
        for g, h in [(path(14), complete(3)), (cycle(14), complete(3)), (h_family(6, 2), complete(3))]
    ]
    for g in graphs:
        assert variant.independence_summary(g.adj) == pure.independence_summary(g.adj)
        assert variant.well_covered_size(g.adj) == pure.well_covered_size(g.adj)


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


def test_identical_limits(compiled):
    calls = [(fn, ([0] * 65,)) for fn in SEARCHES]
    calls.append(("direct_product_adj", ([0] * 13, [0] * 5)))
    for fn, args in calls:
        messages = []
        for impl in (compiled, pure):
            with pytest.raises(ValueError) as info:
                getattr(impl, fn)(*args)
            messages.append(str(info.value))
        assert messages[0] == messages[1], fn


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


def comb(k):
    """The path P_k with one leaf on each vertex."""
    return from_edge_list(2 * k, [(v, v + 1) for v in range(k - 1)] + [(v, k + v) for v in range(k)])


def test_decision_walks_components(compiled):
    """comb(4) x comb(4) has 64 vertices in two components, and every maximal
    independent set has 32.  A decision that walks the maximal sets of the
    whole product takes seconds on the pure kernel; one bounded walk per
    component takes milliseconds."""
    adj = direct_product(comb(4), comb(4)).graph.adj
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
