"""Replay recorded kernel inputs through the pure-Python and compiled kernels.

The compiled kernel is built from the tracked ``src/wellcovered/_mis_core.c``
with the system C compiler into a scratch directory and loaded by file path
under its own top-level name, so ``wellcovered.kernel`` keeps the backend it
chose at import.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from time import perf_counter


def build_compiled(root: Path, scratch: Path):
    """(module, None) on success, else (None, reason)."""
    source = root / "src" / "wellcovered" / "_mis_core.c"
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        return None, "no C compiler"
    if not source.is_file():
        return None, "no _mis_core.c"
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="replay-", dir=scratch))
    try:
        target = tmp / ("_mis_core" + sysconfig.get_config_var("EXT_SUFFIX"))
        cmd = [compiler, "-O2", "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"],
               str(source), "-o", str(target)]
        env = dict(os.environ, TMPDIR=str(tmp))
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
        if done.returncode != 0:
            return None, "compile failed: " + done.stderr.strip()[-300:]
        spec = importlib.util.spec_from_file_location("_mis_core", target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module, None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def replay(fn: str, inputs: list, python_impl, compiled_impl) -> tuple[float, float | None, int]:
    """Time every recorded call of kernel function ``fn`` on each backend:
    (pure-Python seconds, compiled seconds or None, calls whose outputs differ)."""
    py_fn = getattr(python_impl, fn)
    c_fn = getattr(compiled_impl, fn) if compiled_impl is not None else None
    py_s = c_s = 0.0
    mismatches = 0
    for args in inputs:
        t0 = perf_counter()
        expected = py_fn(*args)
        t1 = perf_counter()
        py_s += t1 - t0
        if c_fn is not None:
            got = c_fn(*args)
            c_s += perf_counter() - t1
            if _plain(got) != _plain(expected):
                mismatches += 1
    return py_s, (c_s if c_fn is not None else None), mismatches


def _plain(value):
    return list(value) if isinstance(value, (list, tuple)) else value
