"""The compiled kernel and the pure-Python fallback must be observationally
identical: same sets, same order, same witnesses, same short-circuits.

When the extension is not installed, the tracked ``_mis_core.c`` is compiled
with the system C compiler into a temporary directory and loaded by path, so
the parity checks run wherever a compiler is available."""

import importlib.util
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from brute import brute_maximal_independent_sets, brute_summary, random_graph
from wellcovered import _mis_fallback as pure
from wellcovered import kernel
from wellcovered.families import complete, complete_multipartite, cycle, h_family, path
from wellcovered.products import direct_product

SOURCE = Path(pure.__file__).with_name("_mis_core.c")


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    try:
        from wellcovered import _mis_core

        return _mis_core
    except ImportError:
        pass
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        pytest.skip("compiled kernel not built and no C compiler")
    name = "_mis_core" + sysconfig.get_config_var("EXT_SUFFIX")
    target = tmp_path_factory.mktemp("mis_core") / name
    include = "-I" + sysconfig.get_paths()["include"]
    subprocess.run(
        [compiler, "-O2", "-shared", "-fPIC", include, str(SOURCE), "-o", str(target)],
        check=True,
        capture_output=True,
    )
    spec = importlib.util.spec_from_file_location("_mis_core", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the extension registers itself under its package name; drop that so
    # the package still finds no installed extension
    sys.modules.pop("wellcovered._mis_core", None)
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
    ],
    ids=["C14xK3", "P14xK3", "C4xC16", "H43xK4"],
)
def test_identical_summary_on_large_products(compiled, g, h):
    """Products where the pure summary skips the most subtrees."""
    adj = direct_product(g, h).graph.adj
    assert compiled.independence_summary(adj) == pure.independence_summary(adj)


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


def test_env_forces_fallback():
    pytest.importorskip("wellcovered._mis_core", reason="compiled kernel not installed")
    code = "import wellcovered; print(wellcovered.BACKEND)"
    env = dict(os.environ, WELLCOVERED_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "python"
    env.pop("WELLCOVERED_PURE")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "cython"


def test_selected_backend_exports_kernel_api():
    for name in (
        "maximal_independent_sets",
        "count_maximal_independent_sets",
        "independence_summary",
        "well_covered_size",
        "direct_product_adj",
    ):
        assert hasattr(kernel, name)
