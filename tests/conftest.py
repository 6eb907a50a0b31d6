import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

@pytest.fixture(scope="session")
def compiled_path(tmp_path_factory):
    """The tracked ``_mis_core.c``, built once per run by the parity tests'
    helper; tests that ask for it skip without a C compiler."""
    from test_kernel_backends import build

    return build(tmp_path_factory)


@pytest.fixture(scope="session")
def compiled(compiled_path):
    from test_kernel_backends import load

    return load(compiled_path)


@pytest.fixture(params=["pure", "c"])
def kernel_backend(request, monkeypatch):
    """Runs a test on each kernel backend.  Every module calls the kernel
    through ``kernel.<name>``, so swapping the five names swaps the backend,
    also in worker processes forked during the test."""
    from test_kernel_backends import SEARCHES
    from wellcovered import _mis_fallback, kernel

    if request.param == "c":
        impl = request.getfixturevalue("compiled")
    else:
        impl = _mis_fallback
    for name in (*SEARCHES, "direct_product_adj"):
        monkeypatch.setattr(kernel, name, getattr(impl, name))
    return request.param
