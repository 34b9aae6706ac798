"""Every import is read where it binds its name, and every private helper
by the package.

Scans the package and the test modules with `ast`: a name bound by a
module-level `import` or `from ... import` must be loaded somewhere in that
module, and one bound by an import inside a `def` (the package imports a
subcommand's modules when it runs) must be loaded inside that `def`.
`from __future__` imports bind no name and are skipped.

A private top-level function of the package, or a method of one of its
private classes (dunders aside: the interpreter calls them), must be read
by name, bare or as an attribute, somewhere in the package outside its own
`def`: tests do not count, so a deletion that leaves a helper without a
caller fails here.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import turanlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "turanlab").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bound_imports(scope: ast.AST) -> list[str]:
    """Names bound by the imports of `scope` itself, not of a def nested in it."""
    bound = []
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif not isinstance(node, (*DEFS, ast.ClassDef, ast.Lambda)):
            bound += _bound_imports(node)
    return bound


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never reads, then
    `def:name` for each name a def imports and does not read inside itself."""
    tree = ast.parse(source)
    unused = []
    for scope in [tree, *(d for d in ast.walk(tree) if isinstance(d, DEFS))]:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        prefix = "" if scope is tree else f"{scope.name}:"
        unused += [prefix + name for name in _bound_imports(scope) if name not in read]
    return unused


def test_unused_imports_are_found():
    src = "import os, sys as system\nfrom math import comb, gcd\nimport a.b\nprint(system, gcd(1, 2), a)\n"
    assert unused_imports(src) == ["os", "comb"]


def test_unused_imports_inside_defs_are_found():
    src = (
        "import json\n"
        "def f():\n"
        "    from math import comb, gcd\n"
        "    if True:\n"
        "        import os\n"
        "    def inner():\n"
        "        import re\n"
        "        return gcd(1, 2)\n"
        "    return inner\n"
        "def g():\n"
        "    import json\n"
        "    return comb\n"
    )
    # a def's import is not read by a use elsewhere in the module (`comb`, `json`),
    # while a nested def's reads count for the def around it (`gcd`)
    assert unused_imports(src) == ["json", "f:comb", "f:os", "g:json", "inner:re"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private_helpers(tree: ast.Module):
    """The module's private top-level functions and the non-dunder methods
    of its private classes."""
    for node in tree.body:
        if isinstance(node, DEFS) and node.name.startswith("_") and not node.name.startswith("__"):
            yield node
        elif isinstance(node, ast.ClassDef) and node.name.startswith("_"):
            yield from (f for f in node.body if isinstance(f, DEFS) and not f.name.startswith("__"))


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
        "def __getattr__(name): return name\n"
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


# every name the package re-exported when it imported its submodules eagerly
EXPORTS = {
    "checkers": [
        "CertificateReport",
        "cancellative_witness",
        "fisher_ryan_certificate",
        "inequality2_certificate",
        "is_cancellative",
        "is_k_free",
        "link_count_identity",
        "links_triangle_free",
        "mantel_link_bound",
        "neighborhoods_independent",
        "theorem13_certificate",
    ],
    "constructions": [
        "balanced_partition",
        "perturb",
        "random_maximal_cancellative",
        "random_triangle_free_near_bipartite",
        "turan_count",
        "turan_hypergraph",
    ],
    "hypergraph": [
        "Hypergraph",
        "auxiliary_graph",
        "contains_clique",
        "count_cliques",
        "format_hypergraph",
        "load_hypergraph",
        "parse_hypergraph",
        "save_hypergraph",
    ],
    "partitions": ["Partition", "bad_edges"],
    "search": ["ExtremalRecord", "extremal_number", "max_ell_cut", "vertex_move_optimal"],
    "stability": [
        "BipartiteDistanceReport",
        "StabilityReport",
        "bipartite_distance_analysis",
        "epsilon_delta_scan",
        "extract_partition_cancellative",
        "extract_partition_generalized",
        "extract_partition_kfree",
        "greedy_clique_removal",
        "lemma25_pair",
    ],
}


def test_lazy_package_exports():
    star: dict = {}
    exec("from turanlab import *", star)
    names = [name for names in EXPORTS.values() for name in names]
    assert sorted(turanlab.__all__) == sorted(names)
    assert set(star) - {"__builtins__"} == set(names)
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(turanlab, name) is getattr(importlib.import_module(f"turanlab.{module}"), name)
            assert star[name] is getattr(turanlab, name)
            assert name in dir(turanlab)
    assert "__version__" in dir(turanlab)
    with pytest.raises(AttributeError, match="no_such_name"):
        turanlab.no_such_name
