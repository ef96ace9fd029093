"""Planted faults, each with the tests that must catch it.

    python tests/mutants.py

Each row of `MUTANTS` plants one fault: in `file`, the exact text `old`
becomes `new`. The runner first runs every row's tests on an unchanged
copy of the files the tier-1 suite reads (`COPIED`), where they must pass.
Then, for each row, it plants the fault in a fresh copy and runs all of
the row's tests in one `pytest -q` process, which writes a JUnit XML
report; every one of them must fail or error there. A test id without
parameters counts as failed when any of its parametrizations failed. A row
whose old text is missing or not unique fails the runner, and so does a
pytest exit code other than 0 or 1, as for a test id that pytest cannot
collect: a refactor that moves guarded code updates the row, or deletes it
with a CHANGES.md line that says why. A row is never deleted or weakened to
make the runner pass.

Exits 1 when any row fails. pytest does not collect this file (it is not
named `test_*.py`).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml", "README.md", "BENCHMARK.json")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # exact text, present once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, each of which must fail


LIMITLAB = "src/computadlab/limitlab.py"
FREECAT = "src/computadlab/freecat.py"
ORACLES = "tests/oracles.py"
OPERADS = "src/computadlab/operads.py"
CLI = "src/computadlab/cli.py"

MUTANTS = [
    Mutant("fiber column off by one lane", LIMITLAB,
           "counts[p * n + j] += 1",
           "counts[p * n + (j + 1) % n] += 1",
           ("tests/test_limitlab.py::test_cospan_orbits_one_member_per_orbit",
            "tests/test_limitlab.py::test_reused_counts_match_a_dp_per_cospan")),
    Mutant("edge code column added unshifted", LIMITLAB,
           "row.codes[nv + k] << (square + ((s * max_v + t) * max_e + a) * span)",
           "row.codes[nv + k]",
           ("tests/test_limitlab.py::test_cospan_orbits_one_member_per_orbit",
            "tests/test_limitlab.py::"
            "test_two_cospans_share_a_code_exactly_when_their_pullbacks_agree")),
    Mutant("collision search compares images' elements by value", LIMITLAB,
           "if other is not elem:",
           "if other != elem:",
           ("tests/test_limitlab.py::"
            "test_checker_matches_reference_on_corrupted_pullbacks",)),
    Mutant("extraction keeps every candidate as a class's best", FREECAT,
           "if c not in best or cand < best[c]:",
           "if True:",
           ("tests/test_freecat.py::test_each_representative_is_its_class_least_term",
            "tests/test_relations.py::test_every_declaration_order_gives_the_same_levels")),
    Mutant("extraction overprices identity atoms", FREECAT,
           "offer((len(s), s, root[t], -1, t, -1))",
           "offer((len(s) + 9 * (node.kind != GEN), s, root[t], -1, t, -1))",
           ("tests/test_freecat.py::"
            "test_each_representative_is_its_class_least_term[whiskers-size2]",)),
    Mutant("merge skips the invariant guard", FREECAT,
           "split = self._invariant_split(self.nodes[ru], self.nodes[rv])",
           "split = None",
           ("tests/test_freecat.py::test_a_planted_bad_merge_raises_its_own_guard",)),
    Mutant("saturation round skips its split guard", FREECAT,
           "if seen.setdefault(old_root, now) != now:",
           "if False:",
           ("tests/test_freecat.py::test_a_planted_split_raises_the_round_guard",)),
    Mutant("terms skip their composability check", FREECAT,
           "if (ta is not None and sb is not None\n",
           "if (False and ta is not None and sb is not None\n",
           ("tests/test_freecat.py::test_a_malformed_composite_is_an_error",
            "tests/test_freecat.py::test_boundary_checks_on_terms",
            "tests/test_cli.py::test_malformed_input_exit_one[not-composable]")),
    Mutant("the parser skips the operand-dimension check", FREECAT,
           "if term_dim(right) != term_dim(left):",
           "if False:",
           ("tests/test_cli.py::test_malformed_input_exit_one[operand-dimensions-differ]",)),
    Mutant("engine terms skip the generator dimension check", FREECAT,
           "if t.dim != self.dim:",
           "if False:",
           ("tests/test_freecat.py::"
            "test_a_malformed_composite_is_an_error[right-operand-of-dim-0]",)),
    Mutant("associativity merges only along comp_0", FREECAT,
           'self._merge(tid, t2, ("assoc", x, b))',
           'k == 0 and self._merge(tid, t2, ("assoc", x, b))',
           ("tests/test_freecat.py::test_engine_work_is_pinned[slice-k3-g2-size4]",
            "tests/test_freecat.py::test_classes_match_pasting_diagram_oracle[terminal2-size3]",
            "tests/test_freecat.py::test_classes_match_pasting_diagram_oracle[whiskers-size3]",
            "tests/test_relations.py::test_suspension_on_fixed_computads[loop-size4]",
            "tests/test_relations.py::test_suspension_on_fixed_computads[slice-k1-g2-size4]",
            "tests/test_relations.py::test_duality_and_suspension_on_random_computads")),
    Mutant("merge marks no class stale", FREECAT,
           "self._stale.update([root[x] for x in users])",
           "pass",
           ("tests/test_freecat.py::test_enode_index_after_every_step",)),
    Mutant("merge lets the loser's e-nodes win", FREECAT,
           "table.setdefault(key, t)  # the winner's members come first",
           "table[key] = t",
           ("tests/test_freecat.py::test_enode_index_after_every_step",
            "tests/test_freecat.py::test_engine_work_is_pinned")),
    Mutant("verifier skips a step's local check", FREECAT,
           "if not _STEPS[name].check(e, u, v, args):",
           "if False:",
           ("tests/test_freecat.py::test_malformed_certificate_is_rejected_without_raising",
            "tests/test_freecat.py::test_certificate_tampering_is_caught")),
    Mutant("verifier skips a step's premises", FREECAT,
           "if _replay_find(parent, x) != _replay_find(parent, y):",
           "if False:",
           ("tests/test_freecat.py::test_certificates_hold_exactly_their_proof",
            "tests/test_freecat.py::test_malformed_certificate_is_rejected_without_raising"
            "[first-step-dropped]")),
    Mutant("interchange step accepts one index twice", FREECAT,
           "if not (j != k and nu.kind == nv.kind == CMP):",
           "if not (nu.kind == nv.kind == CMP):",
           ("tests/test_freecat.py::test_interchange_step_needs_two_indices",)),
    Mutant("premises take the matched pattern swapped", FREECAT,
           "return tuple(zip((nu.a, nu.b), args))",
           "return tuple(zip((nu.a, nu.b), args[::-1]))",
           ("tests/test_freecat.py::test_every_forest_edge_replays",
            "tests/test_freecat.py::test_certificates_hold_exactly_their_proof",
            "tests/test_freecat.py::test_equal_cells_eckmann_hilton_certified",
            "tests/test_freecat.py::test_eckmann_hilton_certificate_size_does_not_grow")),
    Mutant("idfun step skips its lower composite", FREECAT,
           "return (na.kind == IDA and nb.kind == IDA\n"
           "            and e.levels[e.dim - 1].comp.get((nv.k, na.lower, nb.lower)) == nu.lower)",
           "return na.kind == IDA and nb.kind == IDA",
           ("tests/test_freecat.py::test_an_idfun_step_needs_its_identities_to_compose_to_u",)),
    Mutant("unit step accepts any body", FREECAT,
           "return nu.kind == CMP and body == v and pad == e._unit_pad(v, nu.k, left)",
           "return nu.kind == CMP and pad == e._unit_pad(v, nu.k, left)",
           ("tests/test_freecat.py::test_a_unit_step_needs_v_as_its_body",)),
    Mutant("identity table keeps engine term ids", FREECAT,
           "ids=[canon[root[t]] for t in self.id_atoms]",
           "ids=[root[t] for t in self.id_atoms]",
           ("tests/test_freecat.py::test_each_level_holds_its_identity_table_when_frozen",
            "tests/test_freecat.py::test_dim1_completeness_random_graphs",
            "tests/test_freecat.py::"
            "test_each_representative_is_its_class_least_term[scalar2-size4]")),
    Mutant("right unit pad reads the source along comp_1 in dimension 3", FREECAT,
           "if left\n               else _descend_tgt(self.levels, node.tgt, d, k))",
           "if (left or (k == 1 and self.dim == 3))\n"
           "               else _descend_tgt(self.levels, node.tgt, d, k))",
           ("tests/test_relations.py::test_duality_on_fixed_computads[three-cell3-size3]",
            "tests/test_relations.py::test_suspension_on_fixed_computads[three-cell2-size3]")),
    Mutant("left unit pad reads the target in dimension 3", FREECAT,
           "cls = (_descend_src(self.levels, node.src, d, k) if left\n",
           "cls = (_descend_src(self.levels, node.src, d, k) if (left and self.dim != 3)\n",
           ("tests/test_relations.py::test_duality_on_fixed_computads[three-cell3-size3]",
            "tests/test_relations.py::test_suspension_on_fixed_computads[scalar2-size4]",
            "tests/test_relations.py::test_suspension_on_fixed_computads[whiskers-size2]")),
    Mutant("composability reads the left source along comp_1 in dimension 3", FREECAT,
           "if _descend_tgt(self.levels, na.tgt, d, k) != _descend_src(self.levels, nb.src, d, k):",
           "if (_descend_src(self.levels, na.src, d, k) if (k == 1 and self.dim == 3)\n"
           "                else _descend_tgt(self.levels, na.tgt, d, k))"
           " != _descend_src(self.levels, nb.src, d, k):",
           ("tests/test_relations.py::test_suspension_on_fixed_computads[chain-size2]",)),
    Mutant("identity functoriality skips comp_1 in dimension 3", FREECAT,
           "if self._settled(ids[c], k, ids[a], ids[b]):",
           "if self._settled(ids[c], k, ids[a], ids[b]) or (k == 1 and self.dim == 3):",
           ("tests/test_relations.py::test_suspension_on_fixed_computads[whiskers-size2]",
            "tests/test_freecat.py::test_engine_work_is_pinned[slice-k3-g2-size4]")),
    Mutant("lane widths never refuse", LIMITLAB,
           "if most * most >> fiber_bits:",
           "if False:",
           ("tests/test_limitlab.py::test_lane_widths_guard_the_fiber_lane",
            "tests/test_cli.py::test_a_fiber_lane_overflow_exits_one_with_one_line")),
    Mutant("decorations skip the source comparison", ORACLES,
           "if s != prev:",
           "if False:",
           ("tests/test_pasting.py::test_pasting_cells_respects_endpoints",
            "tests/test_pasting.py::test_pasting_cells_match_path_oracle_dim1")),
    Mutant("pasting accepts an attachment that is not a generator", ORACLES,
           "if not all(isinstance(t, Gen) and t.name in below for t in (g.src, g.tgt)):",
           "if False:",
           ("tests/test_pasting.py::test_pasting_cells_refuse_scalar2",
            "tests/test_pasting.py::test_pasting_cells_refuse_a_two_generator_on_points")),
    Mutant("slice oracle reads the classes above the size bound", OPERADS,
           "level.msets)\n             if len(mset) <= size]",
           "level.msets)]",
           ("tests/test_operads.py::test_slice_at_size_zero_is_the_unit",
            "tests/test_cli.py::test_slice_at_bound_zero_matches")),
    Mutant("usage errors fall back to argparse's own exit", CLI,
           'raise InputError(f"{self.prog}: {message}")',
           "super().error(message)",
           ("tests/test_cli.py::test_malformed_input_exit_one[usage-gate-without-n]",
            "tests/test_cli.py::test_malformed_input_exit_one[usage-unknown-verb]",
            "tests/test_cli.py::test_malformed_input_exit_one[usage-bound-not-a-number]")),
    Mutant("trees takes the bound flags it never reads", CLI,
           'sub.add_parser("trees", parents=[output]',
           'sub.add_parser("trees", parents=[bounds, output]',
           ("tests/test_cli.py::test_malformed_input_exit_one[usage-trees-bound]",)),
    Mutant("the graph-bounds cap never refuses", LIMITLAB,
           "if sum(graph_bounds) > MAX_GRAPH_SIZE:",
           "if False:",
           ("tests/test_limitlab.py::"
            "test_gate_refuses_graph_bounds_above_the_cap_before_sweeping",)),
    Mutant("the n = 3 verdict is a constant", LIMITLAB,
           '("pass-within-bounds", _PASS_WORDING) if witness is None',
           '("pass-within-bounds", _PASS_WORDING) if witness is None and n != 3',
           ("tests/test_limitlab.py::test_gate_three_verdict_is_read_from_the_engine",)),
    Mutant("the engine record's is_pullback is a constant", LIMITLAB,
           '"is_pullback": conflated is None',
           '"is_pullback": False',
           ("tests/test_limitlab.py::test_gate_three_verdict_is_read_from_the_engine",)),
    Mutant("a checked lane reuses a passing verdict of another count", LIMITLAB,
           "total = passed.get(code)\n                    if total != expected:",
           "total = passed.get(code)\n                    if total is None:",
           ("tests/test_limitlab.py::"
            "test_a_count_unlike_its_codes_passing_count_gets_its_own_check",)),
]


def copy_tree(dest: Path):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest / name)


def pytest(where: Path, ids, *flags) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags, *ids],
        cwd=where, env=env, capture_output=True, text=True)


def failed_cases(report: Path) -> set[tuple[str, str]]:
    """The (module, name) of each test case that failed or errored in a
    JUnit XML report, the module dotted as in `tests.test_cli`."""
    return {(case.get("classname"), case.get("name"))
            for case in ElementTree.parse(report).getroot().iter("testcase")
            if case.find("failure") is not None or case.find("error") is not None}


def caught(test: str, failed: set[tuple[str, str]]) -> bool:
    """Whether the test id `test`, or one of its parametrizations, failed."""
    path, name = test.split("::", 1)
    module = path.removesuffix(".py").replace("/", ".")
    return any(m == module and (n == name or n.startswith(name + "["))
               for m, n in failed)


def tail(run: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((run.stdout + run.stderr).strip().splitlines()[-lines:])


def plant(where: Path, m: Mutant) -> str | None:
    """Apply row m in the copy at `where`; the reason it cannot, or None."""
    path = where / m.file
    text = path.read_text()
    found = text.count(m.old)
    if found != 1:
        return f"old text found {found} times in {m.file}, expected once"
    path.write_text(text.replace(m.old, m.new))
    return None


def check(m: Mutant) -> list[str]:
    """Plant row m in a fresh copy; the ways it escaped, empty when every
    one of its tests failed."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        where = Path(tmp)
        copy_tree(where)
        bad = plant(where, m)
        if bad:
            return [bad]
        report = where / "report.xml"
        run = pytest(where, m.tests, f"--junit-xml={report}")
        if run.returncode not in (0, 1):  # not a test failure: usage, collection
            return [f"pytest exited {run.returncode}\n{tail(run)}"]
        failed = failed_cases(report)
        return [f"{test} passed" for test in m.tests if not caught(test, failed)]


def main() -> int:
    started = time.perf_counter()
    ids = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy_tree(Path(tmp))
        run = pytest(Path(tmp), ids)
    if run.returncode != 0:
        print(f"the catalogue's tests fail with no fault planted:\n{tail(run)}")
        return 1
    failed = 0
    for m in MUTANTS:
        t0 = time.perf_counter()
        problems = check(m)
        status = "escaped" if problems else "caught"
        count = f"{len(m.tests)} test{'s' * (len(m.tests) > 1)}"
        print(f"{status}: {m.name} ({count}, {time.perf_counter() - t0:.1f} s)")
        for p in problems:
            print(f"    {p}")
        failed += bool(problems)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} planted faults caught "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
