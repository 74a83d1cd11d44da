"""The package's public names."""

from __future__ import annotations

import re
import warnings
from pathlib import Path

import trustsim


def test_every_public_name_resolves():
    assert len(set(trustsim.__all__)) == len(trustsim.__all__)
    assert [name for name in trustsim.__all__ if not hasattr(trustsim, name)] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from trustsim import *", namespace)
    assert {name: namespace[name] for name in trustsim.__all__} == {
        name: getattr(trustsim, name) for name in trustsim.__all__}


README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_readme_python_block_runs():
    """The README's Python code names only what the package has, and runs
    with no RuntimeWarning (an overflow, say)."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for i, code in enumerate(blocks):
            exec(compile(code, f"README.md, python block {i}", "exec"), {})
