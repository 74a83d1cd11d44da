"""The package's public names."""

from __future__ import annotations

import ast
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


SRC = Path(trustsim.__file__).resolve().parent


def _unused_imports(path: Path) -> list:
    """The names a module imports and never reads, but those of an import
    whose lines say "unused here" and those of `from __future__`."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if any("unused here" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [entry for path in modules for entry in _unused_imports(path)] == []


def _private_imports(path: Path) -> list:
    """The private names (one leading underscore, not a dunder) a module
    imports from another module of the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").partition(".")[0] == "trustsim")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def test_no_module_imports_another_modules_private_name():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [entry for path in modules for entry in _private_imports(path)] == []
