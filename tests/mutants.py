"""Planted faults, each with the tests that must catch it.

    python tests/mutants.py

Each row of `MUTANTS` plants one fault: in `file`, the exact text `old`
becomes `new`. The runner first runs every row's tests on an unchanged
copy of the files the tier-1 suite reads (`COPIED`), where they must
pass. Then, for each row, it plants the fault in a fresh copy and runs
all of the row's tests in one `pytest -q` process, which writes a JUnit
XML report; every one of them must fail or error there. The rows run on
`WORKERS` threads, each waiting on its own process, and print in
catalogue order. A row's process that runs past `ROW_TIMEOUT` seconds is
killed and the row reported as escaped, so a planted hang cannot hold
the run. pytest runs with `--assert=plain`: a failing `assert` still
raises, so a test passes or fails as it does under tier-1, and start-up
skips rewriting the asserts of the test modules, most of its cost. A
test id without parameters counts as failed when any of its
parametrizations failed. A row whose old text is missing or not unique
fails the runner, and so does a pytest exit code other than 0 or 1, as
for a test id that pytest cannot collect: a refactor that moves guarded
code updates the row, or deletes it with a CHANGES.md line that says
why. A row is never deleted or weakened to make the runner pass.

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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml", "README.md", "BENCHMARK.json")
WORKERS = 2  # rows planted and tested at once
ROW_TIMEOUT = 60  # seconds a row's pytest may run; the slowest took 7.4 s


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

# the end of `parse_presentation`'s loop over lines and the start of its loop
# over equations, where {0} completes each equation's entry and {1} names
# the op table its sides are read with
PARSE_TAIL = """\
        else:
            raise OperadError(f"line {{lineno}}: expected 'op' or 'eq'")
    equations = []
    for lineno, lhs, rhs{0} in sides:
        try:
            equations.append((_variables(lhs, {1}), _variables(rhs, {1})))
"""

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
    Mutant("the path tree records a path's first edge in place of its last", LIMITLAB,
           "                steps.append((p, e))\n",
           "                first, q = e, p\n"
           "                while q >= g.nv:\n"
           "                    q, first = steps[q - g.nv]\n"
           "                steps.append((p, first))\n",
           ("tests/test_limitlab.py::test_path_fibers_name_each_path_image",
            "tests/test_limitlab.py::test_cospan_orbits_one_member_per_orbit",
            "tests/test_limitlab.py::test_reused_counts_match_a_dp_per_cospan")),
    Mutant("a leg's vertex code bits are shifted by the wrong width", LIMITLAB,
           "bits[k] |= 1 << j",
           "bits[k] |= 1 << (j * max_v)",
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
    Mutant("terms skip the generator dimension check", FREECAT,
           "if t.dim != d:",
           "if False:",
           ("tests/test_freecat.py::"
            "test_a_malformed_composite_is_an_error[right-operand-of-dim-0]",)),
    Mutant("a query reads the left child's root for both children", FREECAT,
           "return self._sig[(t.k, self._order[a], self._order[b])]",
           "return self._sig[(t.k, self._order[a], self._order[a])]",
           ("tests/test_relations.py::test_queries_read_the_frozen_level_and_build_nothing",
            "tests/test_freecat.py::test_equal_cells_eckmann_hilton_certified")),
    Mutant("queries skip the frozen-level check", FREECAT,
           "if len(levels) <= d or levels[d] is not self._frozen:",
           "if False:",
           ("tests/test_freecat.py::test_a_query_needs_the_level_its_engine_froze",)),
    Mutant("associativity merges only along comp_0", FREECAT,
           'self._merge(tid, t2, ("assoc", x, b, inner))',
           'k == 0 and self._merge(tid, t2, ("assoc", x, b, inner))',
           ("tests/test_freecat.py::test_engine_work_is_pinned[slice-k3-g2-size4]",
            "tests/test_freecat.py::test_classes_match_pasting_diagram_oracle[terminal2-size3]",
            "tests/test_freecat.py::test_classes_match_pasting_diagram_oracle[whiskers-size3]",
            "tests/test_relations.py::test_suspension_on_fixed_computads[loop-size4]",
            "tests/test_relations.py::test_suspension_on_fixed_computads[slice-k1-g2-size4]",
            "tests/test_relations.py::test_duality_and_suspension_on_random_computads")),
    Mutant("saturation stops one stratum below the size bound", FREECAT,
           "for size in range(self.bounds.size + 1):",
           "for size in range(self.bounds.size):",
           ("tests/test_relations.py::test_a_full_round_after_saturation_changes_nothing"
            "[loop-size12]",
            "tests/test_operads.py::test_first_slice_is_free_monoid",
            "tests/test_freecat.py::test_classes_match_pasting_diagram_oracle[loop-size3]")),
    Mutant("generation pairs right roots one size short", FREECAT,
           "for rb in of_size.get(size - n, ()):",
           "for rb in of_size.get(size - n - 1, ()):",
           ("tests/test_relations.py::test_a_full_round_after_saturation_changes_nothing"
            "[scalar2-size5]",
            "tests/test_operads.py::test_second_slice_is_free_commutative_monoid",
            "tests/test_freecat.py::test_classes_match_pasting_diagram_oracle[loop-size2]")),
    Mutant("identity functoriality runs in no stratum", FREECAT,
           "if size == 0:  # its instances hold no generator",
           "if size < 0:  # its instances hold no generator",
           ("tests/test_relations.py::test_a_full_round_after_saturation_changes_nothing"
            "[two-loops-size2]",
            "tests/test_freecat.py::test_malformed_certificate_is_rejected_without_raising"
            "[idfun-relabelled-unit-l]",
            "tests/test_freecat.py::test_engine_work_is_pinned[slice-k2-g3-size4]")),
    Mutant("the stop rule ignores new terms", FREECAT,
           'if len(self.nodes) == n_terms and self.counters["merges"] == n_merges:',
           'if self.counters["merges"] == n_merges:',
           ("tests/test_freecat.py::test_a_round_that_only_adds_terms_does_not_end_its_stratum",)),
    Mutant("the e-node cache keeps a list of the stratum in progress", FREECAT,
           "if len(nodes[root].mset) < self._running:",
           "if len(nodes[root].mset) <= self._running:",
           ("tests/test_freecat.py::test_a_list_of_the_stratum_in_progress_is_read_afresh",
            "tests/test_freecat.py::test_enode_lists_are_kept_once_their_stratum_is_done",
            "tests/test_freecat.py::test_enode_index_after_every_step",
            "tests/test_freecat.py::test_engine_work_is_pinned[slice-k1-g3-size6]",
            "tests/test_freecat.py::test_engine_work_is_pinned[slice-k2-g3-size4]",
            "tests/test_freecat.py::test_engine_work_is_pinned[slice-k2-g3-size6]",
            "tests/test_freecat.py::test_engine_work_is_pinned[slice-k3-g2-size4]",
            "tests/test_freecat.py::test_engine_work_is_pinned[scalar2-size5]")),
    Mutant("merge lets the loser's e-nodes win", FREECAT,
           "self._class_terms[win].extend(lost_terms)",
           "self._class_terms[win][:0] = lost_terms",
           ("tests/test_freecat.py::test_a_merge_keeps_the_winners_enode_for_a_shared_key",
            "tests/test_freecat.py::test_engine_work_is_pinned")),
    Mutant("users stay with the losing class", FREECAT,
           "self._uses.setdefault(win, []).extend(users)",
           "pass",
           ("tests/test_freecat.py::test_enode_index_after_every_step",
            "tests/test_freecat.py::test_a_list_of_the_stratum_in_progress_is_read_afresh")),
    Mutant("verifier replays a step its row refuses as if it had no premises", FREECAT,
           "        if premises is None:\n            return False",
           "        premises = premises or ()",
           ("tests/test_freecat.py::test_malformed_certificate_is_rejected_without_raising",
            "tests/test_freecat.py::test_certificate_tampering_is_caught")),
    Mutant("verifier skips a step's premises", FREECAT,
           "if _replay_find(parent, x) != _replay_find(parent, y):",
           "if False:",
           ("tests/test_freecat.py::test_certificates_hold_exactly_their_proof",
            "tests/test_freecat.py::test_malformed_certificate_is_rejected_without_raising"
            "[first-step-dropped]")),
    Mutant("interchange step accepts one index twice", FREECAT,
           "if not (j != k and nu.kind == nv.kind == CMP",
           "if not (nu.kind == nv.kind == CMP",
           ("tests/test_freecat.py::test_interchange_step_needs_two_indices",)),
    Mutant("assoc premises take the matched pattern swapped", FREECAT,
           "return (nu.a, p), (nu.b, q), (nv.a, np.a)",
           "return (nu.a, q), (nu.b, p), (nv.a, np.a)",
           ("tests/test_freecat.py::test_every_forest_edge_replays",
            "tests/test_freecat.py::test_certificates_hold_exactly_their_proof")),
    Mutant("interchange premises take the matched pattern swapped", FREECAT,
           "return ((nu.a, p), (nu.b, q), (nv.a, l)",
           "return ((nu.a, q), (nu.b, p), (nv.a, l)",
           ("tests/test_freecat.py::test_every_forest_edge_replays",
            "tests/test_freecat.py::test_certificates_hold_exactly_their_proof",
            "tests/test_freecat.py::test_equal_cells_eckmann_hilton_certified",
            "tests/test_freecat.py::test_eckmann_hilton_certificate_size_does_not_grow")),
    Mutant("idfun step skips its lower composite", FREECAT,
           "\n            and e.levels[e.dim - 1].comp.get((nv.k, np.lower, nq.lower)) == nu.lower)",
           ")",
           ("tests/test_freecat.py::test_an_idfun_step_needs_its_identities_to_compose_to_u",)),
    Mutant("unit step accepts any body", FREECAT,
           "return (nu.a, e._unit_pad(v, nu.k, True)), (nu.b, v)",
           "return ((nu.a, e._unit_pad(v, nu.k, True)),)",
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
           "t2 = self.make_comp(k, ids[a], ids[b])",
           "t2 = None if k == 1 and self.dim == 3 else self.make_comp(k, ids[a], ids[b])",
           ("tests/test_relations.py::test_suspension_on_fixed_computads[whiskers-size2]",
            "tests/test_freecat.py::test_engine_work_is_pinned[slice-k3-g2-size4]")),
    # stratum 0 never reaches its fixed point: a test at the default term
    # budget had built 28,230 of its 200,000 terms after 60 s, and this
    # one's budget ends it at once
    Mutant("make_comp skips its canonical lookup", FREECAT,
           "if hit is not None:\n            return hit",
           "if False:\n            return hit",
           ("tests/test_freecat.py::test_a_budget_of_the_pinned_terms_saturates",)),
    Mutant("the assoc premise r.b ~ q is dropped", FREECAT,
           "(nv.b, r), (nr.a, np.b), (nr.b, q)",
           "(nv.b, r), (nr.a, np.b)",
           ("tests/test_freecat.py::test_a_forged_step_fails_verification"
            "[assoc-r-right-child-elsewhere]",)),
    Mutant("the stop rule ignores merges", FREECAT,
           'if len(self.nodes) == n_terms and self.counters["merges"] == n_merges:',
           "if len(self.nodes) == n_terms:",
           ("tests/test_freecat.py::test_a_round_that_only_merges_does_not_end_its_stratum",)),
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
    Mutant("slice oracle reads the classes above the size bound", ORACLES,
           "level.msets)\n             if len(mset) <= size]",
           "level.msets)]",
           ("tests/test_operads.py::test_slice_at_size_zero_is_the_unit",)),
    Mutant("orbits counted on the n-generator multiset", OPERADS,
           "orbits = count[tuple(gens[:1] * n)]",
           "orbits = count[tuple(sorted(gens[:n]))]",
           ("tests/test_operads.py::test_slice_arities_count_elements_and_orbits",
            "tests/test_operads.py::test_freeness_is_a_monomial_cycle_index",
            "tests/test_limitlab.py::test_gate_slice_rows_are_read_from_the_engine",
            "tests/test_golden.py::test_report_matches_golden[slice_k_1]")),
    Mutant("free compares |A_k[n]| with #orbits", OPERADS,
           '"free": elements == math.factorial(n) * orbits',
           '"free": elements == orbits',
           ("tests/test_operads.py::test_slice_arities_count_elements_and_orbits",
            "tests/test_operads.py::test_freeness_is_a_monomial_cycle_index",
            "tests/test_limitlab.py::test_gate_slice_freeness_is_strong_regularity",
            "tests/test_golden.py::test_report_matches_golden[gate_n_2]")),
    Mutant("a bare nullary op reads as a variable", OPERADS,
           "        if head in ops:\n",
           "        if head in ops and (n or ops[head]):\n",
           ("tests/test_operads.py::test_monoid_is_strongly_regular",
            "tests/test_operads.py::test_op_lines_may_follow_their_use",
            "tests/test_golden.py::test_report_matches_golden[regular_monoid]",
            "tests/test_parse_property.py::"
            "test_a_presentation_reads_the_same_in_any_line_order")),
    Mutant("an application's arity is not checked", OPERADS,
           "if n != ops[head]:",
           "if not n and ops[head]:",
           ("tests/test_operads.py::test_parser_rejects_bad_input",
            "tests/test_cli.py::test_regular_term_errors_name_their_line")),
    Mutant("equations are read in file order with the op lines", OPERADS,
           "sides.append((lineno, lhs, rhs))\n" + PARSE_TAIL.format("", "ops"),
           "sides.append((lineno, lhs, rhs, dict(ops)))\n"
           + PARSE_TAIL.format(", known", "known"),
           ("tests/test_cli.py::"
            "test_malformed_input_exit_one[regular-op-declared-late-wrong-arity]",
            "tests/test_operads.py::test_op_lines_may_follow_their_use",
            "tests/test_parse_property.py::"
            "test_a_presentation_reads_the_same_in_any_line_order")),
    Mutant("usage errors fall back to argparse's own exit", CLI,
           'raise InputError(f"{self.prog}: {message}")',
           "super().error(message)",
           ("tests/test_cli.py::test_malformed_input_exit_one[usage-gate-without-n]",
            "tests/test_cli.py::test_malformed_input_exit_one[usage-unknown-verb]",
            "tests/test_cli.py::test_malformed_input_exit_one[usage-bound-not-a-number]")),
    Mutant("collection keys accept a leading zero", CLI,
           "if n is None or arity != str(n):",
           "if n is None:",
           ("tests/test_cli.py::test_malformed_input_exit_one[eval-arity-leading-zero]",)),
    Mutant("the reader accepts any Unicode digit", FREECAT,
           "not (word.isascii() and word.isdigit())",
           "not word.isdigit()",
           ("tests/test_cli.py::test_malformed_input_exit_one[slice-k-arabic-indic-two]",
            "tests/test_cli.py::test_malformed_input_exit_one[dim-arabic-indic-one]",
            "tests/test_parse_property.py::"
            "test_natural_reads_exactly_the_ascii_numbers_up_to_largest")),
    Mutant("the reader ignores largest", FREECAT,
           "return n if n <= largest else None",
           "return n",
           ("tests/test_cli.py::test_malformed_input_exit_one[dim-above-max]",
            "tests/test_cli.py::test_malformed_input_exit_one[comp-index-too-large]",
            "tests/test_parse_property.py::test_natural_reads_leading_zeros")),
    Mutant("saturate stops at stratum 2m, one stratum early", FREECAT,
           "if size > 2 * max(",
           "if size >= 2 * max(",
           ("tests/test_golden.py::test_report_matches_golden[free_loop_bound_2]",)),
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
    Mutant("the class square is taken on 2-cells at every n", LIMITLAB,
           "    ff = _class_map(fa_x, fa_z, fmap, k)\n"
           "    res = check_square(Square(_class_map(fa_p, fa_x, pb.proj1, k),\n"
           "                              _class_map(fa_p, fa_x, pb.proj2, k), ff, ff))",
           "    ff = _class_map(fa_x, fa_z, fmap, 2)\n"
           "    res = check_square(Square(_class_map(fa_p, fa_x, pb.proj1, 2),\n"
           "                              _class_map(fa_p, fa_x, pb.proj2, 2), ff, ff))",
           ("tests/test_golden.py::test_report_matches_golden[gate_n_4]",
            "tests/test_golden.py::test_report_matches_golden[gate_n_13]",
            "tests/test_limitlab.py::test_the_gate_fails_exactly_when_a_slice_is_not_free")),
    Mutant("the gate's cap is off by one", LIMITLAB,
           "if not 1 <= n <= MAX_GATE_N:",
           "if not 1 <= n < MAX_GATE_N:",
           ("tests/test_limitlab.py::test_gate_rejects_unsupported_dimension",
            "tests/test_limitlab.py::test_the_gate_fails_exactly_when_a_slice_is_not_free",
            "tests/test_golden.py::test_report_matches_golden[gate_n_13]")),
    Mutant("the engine record's is_pullback is a constant", LIMITLAB,
           '"is_pullback": res.pullback_ok',
           '"is_pullback": False',
           ("tests/test_limitlab.py::test_gate_three_verdict_is_read_from_the_engine",)),
    Mutant("is_pullback reads injectivity only", LIMITLAB,
           '"is_pullback": res.pullback_ok',
           '"is_pullback": res.conflated is None',
           ("tests/test_limitlab.py::test_gate_three_names_a_missed_pair",)),
    Mutant("a missed pair yields no witness", LIMITLAB,
           "    if res.pullback_ok:\n        return records, None",
           "    if res.conflated is None:\n        return records, None",
           ("tests/test_limitlab.py::test_gate_three_names_a_missed_pair",)),
    Mutant("a checked lane reuses a passing verdict of another count", LIMITLAB,
           "total = passed.get(code)\n                if total != expected:",
           "total = passed.get(code)\n                if total is None:",
           ("tests/test_limitlab.py::"
            "test_a_count_unlike_its_codes_passing_count_gets_its_own_check",)),
    Mutant("every code lane is cut one byte short", LIMITLAB,
           'map(itemgetter(0), iter_unpack(f"{code_bytes}s", raw))',
           '(lane[:-1] for lane, in iter_unpack(f"{code_bytes}s", raw))',
           ("tests/test_limitlab.py::"
            "test_two_cospans_share_a_code_exactly_when_their_pullbacks_agree",
            "tests/test_limitlab.py::test_cospan_orbits_one_member_per_orbit")),
    Mutant("the size cut ignores composability", FREECAT,
           "largest[_descend_tgt(levels, nodes[r].tgt, d, k)]",
           "max(largest.values())",
           ("tests/test_freecat.py::test_partiality_marker_reflects_size_cut",)),
    Mutant("dimension 1 never reports its size cut", FREECAT,
           "self.saw_size_cut = self._cuts_a_cell()",
           "self.saw_size_cut = self.dim > 1 and self._cuts_a_cell()",
           ("tests/test_freecat.py::test_partiality_marker_reflects_size_cut",
            "tests/test_freecat.py::"
            "test_a_size_cut_one_dimension_down_marks_the_algebra_partial",
            "tests/test_freecat.py::test_engine_work_is_pinned[slice-k1-g3-size6]",
            "tests/test_golden.py::test_report_matches_golden[free_loop_bound_2]",
            "tests/test_golden.py::test_report_matches_golden[slice_k_1]",
            "tests/test_relations.py::"
            "test_composition_tables_are_complete_up_to_the_size_cut")),
    Mutant("slice rows ignore the gate's term budget", LIMITLAB,
           'operads.slice_of_strict(k, ["x0", "x1", "x2"], replace(bounds, size=3))',
           'operads.slice_of_strict(k, ["x0", "x1", "x2"], Bounds(size=3))',
           ("tests/test_cli.py::test_malformed_input_exit_one[budget-gate-slice-rows]",)),
]


def copy_tree(dest: Path):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest / name)


def pytest(where: Path, ids, *flags, timeout: float | None = None) -> subprocess.CompletedProcess:
    """Run pytest on `ids` in the copy at `where`; raises
    subprocess.TimeoutExpired, with the process killed, past `timeout`."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--assert=plain",
         *flags, *ids],
        cwd=where, env=env, capture_output=True, text=True, timeout=timeout)


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
        try:
            run = pytest(where, m.tests, f"--junit-xml={report}", timeout=ROW_TIMEOUT)
        except subprocess.TimeoutExpired:
            return [f"timed out after {ROW_TIMEOUT} s"]
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

    def timed(m: Mutant) -> tuple[list[str], float]:
        t0 = time.perf_counter()
        return check(m), time.perf_counter() - t0

    failed = 0
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for m, (problems, seconds) in zip(MUTANTS, pool.map(timed, MUTANTS)):
            status = "escaped" if problems else "caught"
            count = f"{len(m.tests)} test{'s' * (len(m.tests) > 1)}"
            print(f"{status}: {m.name} ({count}, {seconds:.1f} s)", flush=True)
            for p in problems:
                print(f"    {p}")
            failed += bool(problems)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} planted faults caught "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
