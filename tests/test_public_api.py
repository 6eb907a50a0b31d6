"""The public surface: every name in ``wellcovered.__all__`` resolves, and
the README's library example runs as printed."""

import re
from pathlib import Path

import pytest

import wellcovered

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", wellcovered.__all__)
def test_all_names_resolve(name):
    assert getattr(wellcovered, name) is not None


def test_readme_library_example_runs():
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under 'Library example'"
    namespace: dict = {}
    exec(compile(block.group(1), f"{README}:Library example", "exec"), namespace)
    assert namespace["report"].well_covered
