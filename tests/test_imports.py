"""Every top-level import is read by its module, and every private helper
by the package.

Scans the package (its `__init__.py` re-exports the public names, so it is
left out) and the test modules with `ast`: a name bound by a module-level
`import` or `from ... import` must be loaded somewhere in that module.
`from __future__` imports bind no name and are skipped.

A private top-level function of the package, or a method of one of its
private classes (dunder methods aside), must be read by name, bare or as
an attribute, somewhere in the package outside its own `def`: tests do not
count, so a deletion that leaves a helper without a caller fails here.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "turanlab").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "turanlab").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    src = "import os, sys as system\nfrom math import comb, gcd\nimport a.b\nprint(system, gcd(1, 2), a)\n"
    assert unused_imports(src) == ["os", "comb"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private_helpers(tree: ast.Module):
    """The module's private top-level functions and the non-dunder methods
    of its private classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs) and node.name.startswith("_"):
            yield node
        elif isinstance(node, ast.ClassDef) and node.name.startswith("_"):
            yield from (f for f in node.body if isinstance(f, defs) and not f.name.startswith("__"))


def _names_read(node: ast.AST) -> Counter:
    """How often each name is loaded in the subtree, bare or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def unread_helpers(sources: dict[str, str]) -> list[str]:
    """module:name for each private helper no code outside its own def reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = sum((_names_read(tree) for tree in trees.values()), Counter())
    return [
        f"{module}:{d.name}"
        for module, tree in trees.items()
        for d in _private_helpers(tree)
        if read[d.name] == _names_read(d)[d.name]
    ]


def test_unread_helpers_are_found():
    src = (
        "def _used(): return 1\n"
        "def _recursive(k): return _recursive(k - 1)\n"
        "def public(): return _used()\n"
        "class _Box:\n"
        "    def __init__(self): self.x = 1\n"
        "    def get(self): return self.x\n"
        "    def gone(self): return self.get()\n"
        "class Open:\n"
        "    def _own(self): return 0\n"
    )
    assert unread_helpers({"m": src, "other": "import m\nm._Box().x\n"}) == ["m:_recursive", "m:gone"]


def test_every_private_helper_is_read():
    assert unread_helpers({p.name: p.read_text(encoding="utf-8") for p in PACKAGE}) == []
