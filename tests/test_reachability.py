"""Every top-level function and class in the package is used by the package.

A definition counts as used when another part of `src/computadlab` names it,
as a bare name or as an attribute, outside the definition itself. Re-exports
in `__init__.py` do not count. A definition that only tests, benchmarks or
planned work reach needs an entry in KEPT that says why it stays; an entry
must go once the package uses the name, or once the name is gone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "computadlab"

PASTING_NORMAL_FORM = ("the pasting-diagram normal form for globular computads "
                       "(ROADMAP) builds on it")
SLICE_COLLECTIONS = ("the slices computed as symmetric collections (ROADMAP) "
                     "are checked against it")
CONNECTED_LIMITS = ("the equalizer experiments for connected limits (ROADMAP) "
                    "may reuse it; delete it if they do not")

KEPT = {
    "pasting.node_count": PASTING_NORMAL_FORM,
    "pasting.truncate_tree": PASTING_NORMAL_FORM,
    "pasting.tree_from_str": PASTING_NORMAL_FORM,
    "pasting.pasting_cells": PASTING_NORMAL_FORM,
    "globular.validate": PASTING_NORMAL_FORM,
    "globular.make_globular": PASTING_NORMAL_FORM,
    "globular.terminal_globular": PASTING_NORMAL_FORM,
    "operads.trivial_sym_collection": SLICE_COLLECTIONS,
    "operads.regular_sym_collection": SLICE_COLLECTIONS,
    "computads.theta_computad": "acceptance criterion 1 runs it",
    "operads.strong_analytic_bijection": "acceptance criterion 8 runs it",
    "freecat.verify_certificate": ("acceptance criteria 3 and 7 and the "
                                   "benchmark's query oracle replay certificates "
                                   "with it"),
    "limitlab.is_pullback": CONNECTED_LIMITS,
    "limitlab.is_weak_pullback": CONNECTED_LIMITS,
    "limitlab.graph_pullback": CONNECTED_LIMITS,
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _named(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _unreferenced() -> list[str]:
    modules = _modules()
    named = [(stmt, _named(stmt)) for tree in modules.values() for stmt in tree.body]
    out = []
    for module, tree in modules.items():
        for defn in tree.body:
            if not isinstance(defn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if not any(defn.name in names
                       for stmt, names in named if stmt is not defn):
                out.append(f"{module}.{defn.name}")
    return out


def test_every_definition_is_used_or_kept():
    unkept = [name for name in _unreferenced() if name not in KEPT]
    assert not unkept, f"only tests reach these; delete them or add them to KEPT: {unkept}"


def test_kept_names_are_still_unreferenced():
    stale = sorted(set(KEPT) - set(_unreferenced()))
    assert not stale, f"used by the package now, or gone; drop from KEPT: {stale}"
