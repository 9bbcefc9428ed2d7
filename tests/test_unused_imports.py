"""Every name a package module imports is used in that module.

No linter ships with the project, so this walks each module's syntax tree
with the standard library: a name bound by an import must be read
somewhere in the module, or be re-exported through ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ninepoint"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from ast.literal_eval(node.value)


def unused_imports(source: str):
    tree = ast.parse(source)
    used = set(_used_names(tree))
    return sorted(set(_imported_names(tree)) - used)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "centers.py", "triangle.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path: Path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "from typing import List, Optional\nimport os.path\nx: List[int] = []\n"
    assert unused_imports(source) == ["Optional", "os"]


def test_all_counts_as_use():
    assert unused_imports("from .a import f\n__all__ = ['f']\n") == []
