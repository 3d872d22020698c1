"""Every name the package imports is used: a standard-library stand-in for
a linter's unused-import rule (F401), run over src/stabrec/*.py.

A name counts as used when it is read anywhere in the module (annotations
included) or listed in `__all__`.  An import statement whose lines carry
`# noqa: F401` is a deliberate re-export and is skipped.

Every private function or class (a `_name`, dunders aside) is referenced
somewhere in the package outside its own definition: a private helper that
only tests or itself call is dead code.
"""

from __future__ import annotations

import ast
import collections
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stabrec"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1: node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_flags_an_unused_import():
    src = ("import os\nfrom x import a, b as c\nfrom y import d  # noqa: F401\n"
           "__all__ = ['a']\nprint(os)\n")
    assert unused_imports(src) == ["line 2: c"]


def _refs(tree, skip=None) -> collections.Counter:
    """Names read (`x`) or looked up as attributes (`o.x`) in tree, outside
    the node skip."""
    out = collections.Counter()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        todo.extend(ast.iter_child_nodes(node))
    return out


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    refs = sum((_refs(t) for t in trees.values()), collections.Counter())
    dead = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")
                    and refs[node.name] == _refs(node)[node.name]):
                dead.append(f"{name}:{node.lineno}: {node.name}")
    return dead


def test_every_private_function_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_check_flags_an_unreferenced_private():
    a = ("def _used():\n    pass\n\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\n\n"
         "class _Kept:\n    def _helper(self):\n        pass\n\n    def __len__(self):\n"
         "        return 0\n")
    b = "from a import _used, _Kept\n_used()\n_Kept()\n"
    assert unreferenced_privates({"a.py": a, "b.py": b}) == [
        "a.py:5: _recursive", "a.py:10: _helper"]
