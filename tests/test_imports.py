"""Every top-level import is read by its module.

Scans the package (its `__init__.py` re-exports the public names, so it is
left out) and the test modules with `ast`: a name bound by a module-level
`import` or `from ... import` must be loaded somewhere in that module.
`from __future__` imports bind no name and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "turanlab").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


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
