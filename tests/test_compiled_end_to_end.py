"""The end-to-end checks of the CLI on the compiled kernel.

The parity tests compare the two kernels call by call, and the rest of the
suite runs on whichever backend loads, the pure-Python one where no
extension is installed.  Here the tracked ``_mis_core.c`` is built as the
parity tests build it and swapped in for the ``kernel`` functions, so the
pinned ``verify`` and ``scan`` digests also hold on the backend that a user
with a compiler runs.  Criterion 5 of ``test_acceptance.py`` runs on both
backends through the same fixture.  Without a C compiler these tests skip.
"""

import hashlib

import pytest

from test_cli import SCAN_DIGESTS, VERIFY_DIGESTS, run_cli

pytestmark = pytest.mark.parametrize("kernel_backend", ["c"], indirect=True)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(VERIFY_DIGESTS))
def test_verify_digest(capsys, kernel_backend, argv):
    code, out, _ = run_cli(capsys, "verify", *argv.split(), "--format", "json")
    assert code == 0
    assert digest(out) == VERIFY_DIGESTS[argv]


def test_verify_worker_pool_digest(capsys, kernel_backend):
    argv = "--max-n 4"
    code, out, _ = run_cli(capsys, "verify", *argv.split(), "--jobs", "2", "--format", "json")
    assert code == 0
    assert digest(out) == VERIFY_DIGESTS[argv]


@pytest.mark.parametrize("argv", sorted(SCAN_DIGESTS))
def test_scan_digest(capsys, kernel_backend, argv):
    code, out, _ = run_cli(capsys, "scan", *argv.split(), "--format", "json")
    assert code == 0
    assert digest(out) == SCAN_DIGESTS[argv]
