"""The public surface: every name in ``wellcovered.__all__`` resolves, the
README's library example runs as printed and its CLI examples parse, no
module imports a name it does not use, and none reads a sibling's private
names."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import wellcovered
from wellcovered import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCES = sorted(Path(wellcovered.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", wellcovered.__all__)
def test_all_names_resolve(name):
    assert getattr(wellcovered, name) is not None


def test_version_matches_pyproject():
    """Every CLI output prints ``__version__``; it is kept by hand in step
    with the version the package is built under."""
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert wellcovered.__version__ == project["version"]


def test_readme_library_example_runs():
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under 'Library example'"
    namespace: dict = {}
    exec(compile(block.group(1), f"{README}:Library example", "exec"), namespace)
    assert namespace["report"].well_covered


def test_readme_cli_examples_parse():
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)
    assert block is not None, "no sh block under 'CLI'"
    lines = [line for line in block.group(1).splitlines() if line.startswith("wellcovered ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README CLI example does not parse: {line}")


class _ModuleImports(ast.NodeVisitor):
    """The names bound by imports outside every function and class body."""

    def __init__(self) -> None:
        self.names: list[str] = []

    def visit_FunctionDef(self, node) -> None:
        pass

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Import(self, node) -> None:
        self.names += [(a.asname or a.name).partition(".")[0] for a in node.names]

    def visit_ImportFrom(self, node) -> None:
        if node.module != "__future__":
            self.names += [a.asname or a.name for a in node.names]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imports = _ModuleImports()
    imports.visit(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a package re-exports what it lists in __all__
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    assert [name for name in imports.names if name not in used] == []


CLAIM_NAMES = {"ClaimVerdict", "HOLDS", "VACUOUS", "COUNTEREXAMPLE"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_claim_verdicts_stay_in_claims(path):
    """Claim ids, statuses and verdicts belong to ``claims.py``; of the other
    modules only the CLI and the package namespace read them there.  A helper
    elsewhere returns a witness or None."""
    if path.name in ("claims.py", "cli.py", "__init__.py"):
        return
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "claims" and node.level:
            found.append("import from .claims")
        names = (
            [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [a.asname or a.name for a in node.names] if isinstance(node, ast.ImportFrom)
            else []
        )
        found += [name for name in names if name in CLAIM_NAMES]
    assert found == []


def test_pure_kernel_imports_nothing_from_the_package():
    """``_mis_fallback`` mirrors ``_mis_core.c`` on its own: it imports only
    the standard library, so it keeps its own copy of any table the package
    also has (the spread tables of ``products.spread``)."""
    path = Path(wellcovered.__file__).parent / "_mis_fallback.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("wellcovered")):
            found.append(f"from {'.' * node.level}{node.module or ''}")
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.partition(".")[0] == "wellcovered"]
    assert found == []


# the process-wide memos, and why each may live as long as the process
PROCESS_MEMOS = {
    "families.complete",  # a Graph is immutable, so it keeps no decided fact
    "cli._parser",  # the argument parser, built on first use
    "kn_partitions._kn_product",  # decoders get no product from their callers
}


def test_process_wide_memos_are_the_known_ones():
    """Facts decided in one run belong to that run (``claims.facts_cache``):
    a ``cache`` or ``lru_cache`` on a module's function or a class's method
    lives for the whole process, so each one in the package is named here."""
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        defs = [(node, "") for node in tree.body]
        defs += [
            (child, f"{node.name}.")
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for child in node.body
        ]
        for node, owner in defs:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("cache", "lru_cache"):
                    found.add(f"{path.stem}.{owner}{node.name}")
    assert found == PROCESS_MEMOS


# the kernel picks its backend by importing one of these modules
KERNEL_BACKENDS = {"_mis_fallback", "_mis_core"}


def private_reads(tree: ast.Module) -> list[str]:
    """The private names a module takes from its siblings: underscore names
    in its relative imports, apart from the kernel backends, and underscore
    attributes of a name that such an import binds.  Dunder names are
    public."""

    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    found, bound = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if private(alias.name) and alias.name not in KERNEL_BACKENDS:
                    found.append(f"import {alias.name}")
                bound.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_private_reads_finds_both_forms():
    source = (
        "from . import __version__, _mis_core as _impl\n"
        "from .claims import _json_girth, verify\n"
        "from .families import FamilySpec\n"
        "kinds = FamilySpec._KINDS, FamilySpec.parse, _impl.well_covered_size\n"
    )
    assert private_reads(ast.parse(source)) == ["import _json_girth", "FamilySpec._KINDS"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    """A module reaches a sibling only through its public names, so a
    sibling can rename or drop a private helper without breaking it."""
    assert private_reads(ast.parse(path.read_text(), str(path))) == []
