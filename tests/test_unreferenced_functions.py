"""Every public module-level function of the package is reached by it.

A public function (a module-level ``def`` whose name does not start with
``_``) must either be referenced by package code outside its own body, by
its bare name or as ``<module>.<name>``, or be listed in
``ninepoint.__all__``, the documented library API.  A same-named
attribute of anything else does not count: ``t.add`` reads a method, not
the function ``add``.  A helper that only tests call fails this check:
delete it, or inline it where the package uses it.  Like
``test_unused_imports.py``, this walks each module's syntax tree with the
standard library.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List

import ninepoint

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ninepoint"


def _references(node: ast.AST) -> Iterator[str]:
    """Each bare name that ``node`` reads, and each attribute of a bare
    name as ``owner.attr``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            yield f"{sub.value.id}.{sub.attr}"


def unreferenced_functions(sources: Dict[str, str], exported: List[str]) -> List[str]:
    """``module.function`` for each public module-level function that no
    code outside its own body references and ``exported`` does not list."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = [name for tree in trees.values() for name in _references(tree)]
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            own = list(_references(node))
            spellings = (node.name, f"{module}.{node.name}")
            outside = sum(everywhere.count(name) - own.count(name) for name in spellings)
            if outside == 0 and node.name not in exported:
                found.append(f"{module}.{node.name}")
    return sorted(found)


def test_every_public_function_is_reached_or_exported():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_functions(sources, ninepoint.__all__) == []


def test_detects_what_no_package_code_reaches():
    sources = {
        "a": (
            "def used():\n    return 1\n\n"
            "def unused():\n    return used()\n\n"
            "def loop(n):\n    return loop(n - 1) if n else 0\n\n"
            "def _private():\n    return 0\n\n"
            "def api():\n    return 2\n"
        ),
        "b": (
            "from .a import used\n\n"
            "class Plane:\n    @staticmethod\n    def add(p, q):\n        return p\n\n"
            "def add(p, q):\n    return p\n\n"
            "value = used(Plane.add)\n"
        ),
        "c": "from . import a\n\nvalue = a.api()\n",
    }
    # b.add is read only as a method of the same name.
    assert unreferenced_functions(sources, ["api"]) == ["a.loop", "a.unused", "b.add"]
    # a.api is reached as an attribute of its module.
    assert unreferenced_functions(sources, []) == ["a.loop", "a.unused", "b.add"]
