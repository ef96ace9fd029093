"""Every top-level function, class and assigned name (a constant) in the
package, and every member of its classes, is used by the package.

A definition counts as used when package code names it outside the
definition itself: as a bare name in its own module, as an attribute of a
name that a module binds to its module (`cpd.free_algebra` after
`from . import computads as cpd`), or in a `from .module import name`. An
attribute that merely shares the name (`args.height`) does not count, and
neither do re-exports in `__init__.py`. A member of a class (a dataclass or
NamedTuple field, a method or a property; dunder methods aside) counts as
used when package code loads an attribute of that name from anything. Every
field of a class counts as used when package code passes `dataclasses.asdict`
a name bound, in the same function, to a call of a package function whose
return annotation is that class (`report = limitlab.computad_topos_gate(...)`,
then `dataclasses.asdict(report)`). A
definition or member that only tests, benchmarks or planned work reach needs
an entry in KEPT that says why it stays; an entry must go once the package
uses the name, or once the name is gone.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "computadlab"

KEPT = {
    "operads.strong_analytic_bijection": "acceptance criterion 8 runs it",
    "freecat.verify_certificate": ("acceptance criteria 3 and 7 and the "
                                   "benchmark's query oracle replay certificates "
                                   "with it"),
    "freecat.equal_cells": ("acceptance criteria 3 and 7 and the benchmark's "
                            "query workload decide equalities with it"),
    "limitlab.PathPreservationSummary.matching_pairs": (
        "the sweep's total of matching pairs of paths, which the tests "
        "compare across strides and against a reference sweep"),
    "limitlab.PathPreservationSummary.generic_checked": (
        "acceptance criterion 5 and the benchmark's sweep check read how "
        "many cospans the checker saw"),
    "cli._Parser.error": ("argparse calls it on every usage error, so that "
                          "error exits 1 with one line"),
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _module_aliases(tree: ast.Module, modules) -> dict[str, str]:
    """The names that `tree` binds to a package module: alias -> module."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            for alias in node.names:
                if alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
    return aliases


def _uses(module: str, stmt: ast.stmt, aliases: dict[str, str]) -> set[str]:
    """The `module.name` definitions that one top-level statement names."""
    out = set()
    for sub in ast.walk(stmt):
        if isinstance(sub, ast.Name):
            out.add(f"{module}.{sub.id}")
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in aliases):
            out.add(f"{aliases[sub.value.id]}.{sub.attr}")
        elif isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module:
            out.update(f"{sub.module}.{alias.name}" for alias in sub.names)
    return out


def _members(cls: ast.ClassDef):
    """The annotated fields, methods and properties of a class body."""
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id
        elif (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (stmt.name.startswith("__") and stmt.name.endswith("__"))):
            yield stmt.name


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _serialized_classes(modules) -> set[str]:
    """The classes whose fields `dataclasses.asdict` reads: for each
    `asdict(x)`, the return annotation of the package function whose call
    the same function binds to x."""
    returns = {fn.name: fn.returns.id for tree in modules.values() for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and isinstance(fn.returns, ast.Name)}
    out = set()
    for fn in (fn for tree in modules.values() for defn in tree.body
               for fn in (defn.body if isinstance(defn, ast.ClassDef) else [defn])
               if isinstance(fn, ast.FunctionDef)):
        bound, read = {}, []
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and isinstance(node.targets[0], ast.Name)):
                bound[node.targets[0].id] = _callee(node.value)
            elif (isinstance(node, ast.Call) and _callee(node) == "asdict"
                  and node.args and isinstance(node.args[0], ast.Name)):
                read.append(node.args[0].id)
        out.update(returns[bound[name]] for name in read if bound.get(name) in returns)
    return out


def _unread_members(modules) -> list[str]:
    """The `module.Class.member` members whose name no attribute load reads,
    in classes that no `asdict` call reads whole."""
    loaded = {node.attr for tree in modules.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    serialized = _serialized_classes(modules)
    return [f"{module}.{defn.name}.{member}"
            for module, tree in modules.items() for defn in tree.body
            if isinstance(defn, ast.ClassDef) and defn.name not in serialized
            for member in _members(defn) if member not in loaded]


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class, or the
    names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
    return []


def _unreferenced() -> list[str]:
    modules = _modules()
    aliases = {module: _module_aliases(tree, modules) for module, tree in modules.items()}
    used = [(stmt, _uses(module, stmt, aliases[module]))
            for module, tree in modules.items() for stmt in tree.body]
    out = []
    for module, tree in modules.items():
        for defn in tree.body:
            for name in (f"{module}.{n}" for n in _defined(defn)):
                if not any(name in names for stmt, names in used if stmt is not defn):
                    out.append(name)
    return out + _unread_members(modules)


def test_every_definition_is_used_or_kept():
    unkept = [name for name in _unreferenced() if name not in KEPT]
    assert not unkept, f"only tests reach these; delete them or add them to KEPT: {unkept}"


def test_kept_names_are_still_unreferenced():
    stale = sorted(set(KEPT) - set(_unreferenced()))
    assert not stale, f"used by the package now, or gone; drop from KEPT: {stale}"


def test_readme_module_table_lists_exactly_the_modules():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Modules", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)`", table, re.MULTILINE)
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(listed) == sorted(modules)


def test_an_attribute_of_the_same_name_is_not_a_use(monkeypatch):
    modules = _modules()
    monkeypatch.setitem(globals(), "_modules", lambda: modules)
    # `cli` reads `args.bound`, which is no use of a top-level `bound`
    modules["pasting"].body += ast.parse("def bound():\n    return 0\n").body
    assert "pasting.bound" in _unreferenced()
    # named through its module, or imported from it, the function is used
    cli = list(modules["cli"].body)
    for caller in ("from . import pasting as pst\npst.bound()\n",
                   "from .pasting import bound\n"):
        modules["cli"].body = cli + ast.parse(caller).body
        assert "pasting.bound" not in _unreferenced()


def test_a_constant_is_used_only_when_package_code_names_it(monkeypatch):
    modules = _modules()
    monkeypatch.setitem(globals(), "_modules", lambda: modules)
    planted = {"pasting.PLANTED", "pasting.LOW", "pasting.HIGH", "pasting.TYPED"}
    modules["pasting"].body += ast.parse(
        "PLANTED = 1\nLOW, HIGH = 0, 2\nTYPED: int = 3\n").body
    assert planted <= set(_unreferenced())
    # `args.PLANTED` is no use; named through its module, the constant is used
    cli = list(modules["cli"].body)
    for caller, used in (("def read(args):\n    return args.PLANTED\n", False),
                         ("from . import pasting as pst\n"
                          "def read():\n    return pst.PLANTED\n", True)):
        modules["cli"].body = cli + ast.parse(caller).body
        assert ("pasting.PLANTED" not in _unreferenced()) is used


def test_a_member_is_used_only_when_an_attribute_load_reads_it(monkeypatch):
    modules = _modules()
    monkeypatch.setitem(globals(), "_modules", lambda: modules)
    planted = [f"pasting.Planted.{m}" for m in ("field", "method", "prop")]
    modules["pasting"].body += ast.parse(
        "class Planted(NamedTuple):\n"
        "    field: int\n"
        "    def method(self):\n"
        "        return 0\n"
        "    @property\n"
        "    def prop(self):\n"
        "        return 0\n").body
    assert set(planted) <= set(_unreferenced())
    # a store, or a bare name, reads no member
    cli = list(modules["cli"].body)
    modules["cli"].body = cli + ast.parse(
        "def touch(p, field, method, prop):\n"
        "    p.field = p.method = p.prop = (field, method, prop)\n").body
    assert set(planted) <= set(_unreferenced())
    modules["cli"].body = cli + ast.parse(
        "def read(p):\n"
        "    return p.field, p.method(), p.prop\n").body
    assert not set(planted) & set(_unreferenced())


def test_asdict_reads_the_fields_of_the_class_its_argument_was_returned_as(monkeypatch):
    modules = _modules()
    monkeypatch.setitem(globals(), "_modules", lambda: modules)
    modules["pasting"].body += ast.parse(
        "class Planted(NamedTuple):\n"
        "    planted_field: int\n"
        "def make() -> Planted:\n"
        "    return Planted(0)\n").body
    cli = list(modules["cli"].body)
    # a value of unknown class passed to asdict reads no field
    modules["cli"].body = cli + ast.parse(
        "def emit(args):\n"
        "    doc = dict(args)\n"
        "    return pasting.make(), dataclasses.asdict(doc)\n").body
    assert "pasting.Planted.planted_field" in _unreferenced()
    modules["cli"].body = cli + ast.parse(
        "def emit():\n"
        "    report = pasting.make()\n"
        "    return dataclasses.asdict(report)\n").body
    assert "pasting.Planted.planted_field" not in _unreferenced()
