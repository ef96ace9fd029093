"""Every row of the mutant catalogue (`tests/mutants.py`) still fits the
code it guards: its old text occurs exactly once in its file, and each test
it names has its file and a top-level `def` there. Running the catalogue
plants every row and takes about a minute on two workers; this check
reads the files only, so a refactor that moves guarded text or renames a test fails tier-1
at once."""

import ast
from functools import cache
from pathlib import Path

from mutants import MUTANTS, ROOT


@cache
def defined_functions(path: Path) -> frozenset[str]:
    tree = ast.parse(path.read_text())
    return frozenset(node.name for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_every_mutant_row_names_present_text_and_defined_tests():
    problems = []
    for m in MUTANTS:
        found = (ROOT / m.file).read_text().count(m.old)
        if found != 1:
            problems.append(f"{m.name}: old text found {found} times in {m.file}")
        for test in m.tests:
            path, name = test.split("::", 1)
            if not (ROOT / path).is_file():
                problems.append(f"{m.name}: no file {path}")
            elif name.split("[", 1)[0] not in defined_functions(ROOT / path):
                problems.append(f"{m.name}: no def for {test}")
    assert not problems, "\n".join(problems)
