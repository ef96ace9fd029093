import json
import sys
from importlib import resources

import pytest

from computadlab import cli, computads, freecat, limitlab, operads
from computadlab.cli import main
from computadlab.freecat import Bounds


def data_path(name: str) -> str:
    return str(resources.files("computadlab").joinpath("data", name))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_free_theta(capsys, tmp_path):
    path = tmp_path / "theta2.cpd"
    path.write_text("dim 2\n0 o\n")
    code, out, _ = run(capsys, "free", str(path), "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert [doc["dimensions"][str(r)]["classes"] for r in range(3)] == [1, 1, 1]


def test_free_loop_counts(capsys):
    code, out, _ = run(capsys, "free", data_path("loop.cpd"),
                       "--bound", "3", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimensions"]["1"]["classes"] == 4


def test_free_scalar_counts(capsys):
    code, out, _ = run(capsys, "free", data_path("scalar2.cpd"),
                       "--bound", "2", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimensions"]["2"]["classes"] == 6


def test_free_input_error_exit_one(capsys, tmp_path):
    path = tmp_path / "bad.cpd"
    path.write_text("dim 1\n0 a\n1 f : gen(a) => gen(missing)\n")
    code, _, err = run(capsys, "free", str(path))
    assert code == 1 and err


def test_slice_match(capsys):
    code, out, _ = run(capsys, "slice", "--k", "1", "--generators", "2",
                       "--bound", "3", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "MATCH"
    assert doc["counts_by_size"]["3"]["classes"] == 8
    code, out, _ = run(capsys, "slice", "--k", "2", "--generators", "2",
                       "--bound", "3", "--format", "structured")
    doc = json.loads(out)
    assert code == 0 and doc["counts_by_size"]["3"]["classes"] == 4


def test_slice_no_generators(capsys):
    code, out, _ = run(capsys, "slice", "--k", "1", "--generators", "0",
                       "--bound", "2", "--format", "structured")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "MATCH"
    assert doc["counts_by_size"]["0"] == {"classes": 1, "oracle": 1, "match": True}
    for size in ("1", "2"):
        assert doc["counts_by_size"][size] == {"classes": 0, "oracle": 0, "match": True}


def test_slice_at_the_largest_k_runs(capsys):
    """`--k` is capped at the largest `dim` a computad file may declare,
    and the cap itself still runs."""
    code, out, _ = run(capsys, "slice", "--k", str(computads.MAX_DIM),
                       "--generators", "0", "--format", "structured")
    assert code == 0 and json.loads(out)["verdict"] == "MATCH"


@pytest.mark.parametrize("k,generators", [("1", "3"), ("2", "2")])
def test_slice_at_bound_zero_matches(capsys, k, generators):
    """Only the identity class fits size 0; the generators' classes lie
    above the bound and are neither counted nor read by the oracle."""
    code, out, err = run(capsys, "slice", "--k", k, "--generators", generators,
                         "--bound", "0", "--format", "structured")
    doc = json.loads(out)
    assert code == 0 and not err and doc["verdict"] == "MATCH"
    assert doc["counts_by_size"] == {"0": {"classes": 1, "oracle": 1, "match": True}}


def test_regular_catalog(capsys):
    code, out, _ = run(capsys, "regular", data_path("monoid.thy"),
                       "--format", "structured")
    assert code == 0 and json.loads(out)["verdict"] == "STRONGLY-REGULAR"
    code, out, _ = run(capsys, "regular", data_path("commutative_monoid.thy"),
                       "--format", "structured")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "NOT-STRONGLY-REGULAR"
    assert doc["violation"] == "permutation"
    code, out, _ = run(capsys, "regular", data_path("gray_slice2.thy"),
                       "--format", "structured")
    assert code == 0 and json.loads(out)["verdict"] == "STRONGLY-REGULAR"


def test_regular_missing_file(capsys):
    code, _, err = run(capsys, "regular", "no-such-file.thy")
    assert code == 1 and err


def test_gate_verdicts(capsys):
    code, out, _ = run(capsys, "gate", "--n", "2", "--format", "structured")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "pass-within-bounds"
    code, out, _ = run(capsys, "gate", "--n", "3", "--format", "structured",
                       "--bound", "2")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "counterexample"
    assert doc["witness"]["oracle_replay_conflates"] is True


NONPARALLEL = ("dim 2\n0 a\n0 b\n0 c\n1 f : gen(a) => gen(b)\n"
               "1 h : gen(b) => gen(c)\n2 m : gen(f) => gen(h)\n")


# a 2-cell whose source composes two 1-cells along comp_{}
COMP_INDEX = ("dim 2\n0 a\n1 f : gen(a) => gen(a)\n"
              "2 s : comp_{}(gen(f),gen(f)) => gen(f)\n")


# a 2-cell on a 1-cell term whose term text is {}
TERM_TEXT = "dim 2\n0 a\n1 f : gen(a) => gen(a)\n2 s : {} => gen(f)\n"

# a 2-cell on comp_0(f,f), where f: a -> b does not compose with itself
NOT_COMPOSABLE = ("dim 2\n0 a\n0 b\n1 f : gen(a) => gen(b)\n"
                  "2 al : comp_0(gen(f),gen(f)) => comp_0(gen(f),gen(f))\n")


# a 2-cell on comp_0(f,f) over a loop f, which needs size 2 below it
LOOP_SQUARE = ("dim 2\n0 a\n1 f : gen(a) => gen(a)\n"
               "2 al : comp_0(gen(f),gen(f)) => comp_0(gen(f),gen(f))\n")

# a 2-cell on comp_0(f,a), whose operands are a 1-cell and a 0-cell
OPERAND_DIMS = ("dim 2\n0 a\n1 f : gen(a) => gen(a)\n"
                "2 al : comp_0(gen(f),gen(a)) => gen(f)\n")


# (argv, input text written to FILE, term budget patched into cli._bounds,
# a phrase the one error line must contain)
@pytest.mark.parametrize("argv, text, max_terms, phrase", [
    # vacuous gates: a pass over zero cases is no evidence
    pytest.param(["gate", "--n", "1", "--graph-vertices", "-1"], None, None,
                 "graph bounds (-1, 2) admit no edge", id="gate-no-vertices"),
    pytest.param(["gate", "--n", "2", "--graph-edges", "-1"], None, None,
                 "graph bounds (2, -1) admit no edge", id="gate-no-edges"),
    pytest.param(["gate", "--n", "1", "--bound", "0"], None, None,
                 "path length 0 checks only identities", id="gate-path-length-0"),
    pytest.param(["gate", "--n", "1", "--graph-vertices", "0", "--graph-edges", "0"],
                 None, None, "graph bounds (0, 0) admit no edge", id="gate-empty-graph-only"),
    pytest.param(["gate", "--n", "2", "--graph-edges", "0"], None, None,
                 "graph bounds (2, 0) admit no edge", id="gate-identities-only"),
    # graph bounds above the cap, which would sweep for minutes
    pytest.param(["gate", "--n", "1", "--graph-vertices", "4", "--graph-edges", "3"],
                 None, None, "graph bounds (4, 3) allow more than 6", id="gate-graph-4-3"),
    pytest.param(["gate", "--n", "2", "--graph-vertices", "5", "--graph-edges", "2"],
                 None, None, "graph bounds (5, 2) allow more than 6", id="gate-graph-5-2"),
    pytest.param(["gate", "--n", "1", "--graph-vertices", "1", "--graph-edges", "6"],
                 None, None, "graph bounds (1, 6) allow more than 6", id="gate-graph-1-6"),
    # numbers in computad files
    pytest.param(["free", "FILE"], "dim x\n0 a\n", None,
                 "line 1: dim must be a natural number, got 'x'", id="dim-not-a-number"),
    pytest.param(["free", "FILE"], "dim\n0 a\n", None,
                 "line 1: dim must be a natural number, got ''", id="dim-without-number"),
    pytest.param(["free", "FILE"], "dim -1\n", None,
                 "line 1: dim must be a natural number, got '-1'", id="dim-negative"),
    pytest.param(["free", "FILE"], f"dim {computads.MAX_DIM + 1}\n0 a\n", None,
                 f"line 1: dim {computads.MAX_DIM + 1} above", id="dim-above-max"),
    pytest.param(["free", "FILE"], "dim " + "9" * 5000 + "\n", None,
                 "line 1: dim has too many digits", id="dim-too-many-digits"),
    pytest.param(["regular", "FILE"], "op m : " + "9" * 5000 + "\n", None,
                 "line 1: arity has too many digits", id="arity-too-many-digits"),
    pytest.param(["free", "FILE"], "dim 1\n0 a\n-1 f : gen(a) => gen(a)\n", None,
                 "line 3: generator dimension must be a natural number",
                 id="generator-dim-negative"),
    pytest.param(["free", "FILE"], "dim 1\n0 a\n1 f : gen(a) => gen(q)\n", None,
                 "line 3: unknown generator 'q'", id="unknown-generator"),
    pytest.param(["free", "FILE"], COMP_INDEX.format(-1), None,
                 "line 4: negative composition index", id="comp-index-negative"),
    pytest.param(["free", "FILE"], COMP_INDEX.format(7), None,
                 "line 4: composition index 7", id="comp-index-too-large"),
    # attachments, certified by free_algebra
    pytest.param(["free", "FILE"], NONPARALLEL, None,
                 "boundaries gen(f) and gen(h) are not parallel", id="non-parallel"),
    pytest.param(["free", "FILE"], "dim 2\n0 a\n2 s : gen(a) => gen(a)\n", None,
                 "source term has dimension 0, expected 1", id="wrong-dimension"),
    pytest.param(["free", "FILE"], "dim 1\n0 a\n1 f\n", None,
                 "line 3: generator of dim 1 needs 'src => tgt'", id="missing-boundary"),
    pytest.param(["free", "FILE"], "dim 0\n0 a\n0 a\n", None,
                 "duplicate generator name 'a'", id="duplicate-name"),
    pytest.param(["free", "FILE"], NOT_COMPOSABLE, None,
                 "the operands of comp_0(gen(f),gen(f)) do not compose", id="not-composable"),
    pytest.param(["free", "FILE", "--bound", "1"], LOOP_SQUARE, None,
                 "generator 'al': boundary term not materialized within the bounds",
                 id="attachment-beyond-the-bound"),
    pytest.param(["free", "FILE"], OPERAND_DIMS, None,
                 "line 4: the operands of 'comp_0' have dimensions 1 and 0",
                 id="operand-dimensions-differ"),
    # the shape of computad files
    pytest.param(["free", "FILE"], "dim 1\n0 a\ndim 1\n", None,
                 "line 3: repeated dim declaration", id="dim-repeated"),
    pytest.param(["free", "FILE"], "0 a\ndim 0\n", None,
                 "line 1: missing dim declaration", id="generator-before-dim"),
    pytest.param(["free", "FILE"], "# no dim\n", None, "missing dim declaration", id="no-dim"),
    pytest.param(["free", "FILE"], "dim 0\n0 a b\n", None,
                 "line 2: expected '<dim> <name>", id="three-words"),
    pytest.param(["free", "FILE"], "dim 0\n0 a\n1 f : gen(a) => gen(a)\n", None,
                 "line 3: generator dimension 1 above dim 0", id="generator-above-dim"),
    pytest.param(["free", "FILE"], "dim 1\n0 a : gen(a) => gen(a)\n", None,
                 "line 2: 0-generators take no attachment", id="attached-0-generator"),
    # term syntax in computad files
    pytest.param(["free", "FILE"], TERM_TEXT.format("id1(id1(gen(a))"), None,
                 "line 4: expected ')'", id="term-missing-paren"),
    pytest.param(["free", "FILE"], TERM_TEXT.format("comp_0(gen(f) gen(f))"), None,
                 "line 4: expected ','", id="term-missing-comma"),
    pytest.param(["free", "FILE"], TERM_TEXT.format("comp_0(gen(f),gen(f))x"), None,
                 "line 4: trailing input after position 21", id="term-trailing-text"),
    # presentations for regular
    pytest.param(["regular", "FILE"], "op m : 2\neq m(x,y)\n", None,
                 "line 2: equation needs '='", id="regular-no-equals"),
    pytest.param(["regular", "FILE"], "op m : 2\nfoo\n", None,
                 "line 2: expected 'op' or 'eq'", id="regular-no-keyword"),
    pytest.param(["regular", "FILE"], "op m : 2\neq m(,y) = m(x,y)\n", None,
                 "line 2: expected a symbol", id="regular-missing-symbol"),
    pytest.param(["regular", "FILE"], "op m : 2\neq m(x y) = m(x,y)\n", None,
                 "line 2: expected ',' or ')'", id="regular-missing-comma"),
    pytest.param(["regular", "FILE"], "op m : 2\neq m(x,y)z = m(x,y)\n", None,
                 "line 2: trailing input", id="regular-trailing-text"),
    # ranges on the command line
    pytest.param(["trees", "--height", "-1", "--width", "2"], None, None,
                 "--height and --width must be >= 0", id="trees-height-negative"),
    pytest.param(["trees", "--height", "2", "--width", "-1"], None, None,
                 "--height and --width must be >= 0", id="trees-width-negative"),
    pytest.param(["trees", "--height", "3", "--width", "4"], None, None,
                 "more than 1,000,000 trees", id="trees-above-max"),
    pytest.param(["slice", "--k", "1", "--generators", "-1"], None, None,
                 "the number of generators must be >= 0", id="slice-generators-negative"),
    pytest.param(["free", "FILE", "--bound", "-1"], "dim 0\n0 a\n", None,
                 "got size -1", id="free-bound-negative"),
    pytest.param(["slice", "--k", "1", "--rounds", "0"], None, None,
                 "rounds 0", id="slice-rounds-zero"),
    pytest.param(["slice", "--k", "0"], None, None, "slices start at k = 1", id="slice-k-zero"),
    pytest.param(["slice", "--k", str(computads.MAX_DIM + 1)], None, None,
                 f"slice k = {computads.MAX_DIM + 1} above", id="slice-k-above-max"),
    pytest.param(["gate", "--n", "0"], None, None,
                 "unsupported gate dimension 0", id="gate-n-zero"),
    # files that are not UTF-8 text, or nest beyond the recursion limit
    pytest.param(["free", "FILE"], b"\xff\xfe", None,
                 "can't decode byte 0xff", id="free-undecodable"),
    pytest.param(["regular", "FILE"], b"\xff\xfe", None,
                 "can't decode byte 0xff", id="regular-undecodable"),
    pytest.param(["eval", "FILE"], b"\xff\xfe", None,
                 "can't decode byte 0xff", id="eval-undecodable"),
    pytest.param(["eval", "FILE"], "[" * 100_000 + "]" * 100_000, None,
                 "nested too deeply", id="eval-nested-too-deeply"),
    # collection files for eval
    pytest.param(["eval", "FILE"], '["a"]', None,
                 "a collection is a JSON object keyed by arity", id="eval-not-an-object"),
    pytest.param(["eval", "FILE"], '{"x": ["a"]}', None,
                 "arity 'x' is not a natural number", id="eval-arity-not-a-number"),
    pytest.param(["eval", "FILE"], '{"1": "a"}', None,
                 "arity 1: expected an object with key 'elements'", id="eval-payload-string"),
    pytest.param(["eval", "FILE", "--arity-bound", "-1"], '{"1": ["a"]}', None,
                 "--arity-bound must be >= 0", id="eval-arity-bound-negative"),
    pytest.param(["eval", "FILE"], '{"-1": ["a"]}', None,
                 "arity '-1' is not a natural number", id="eval-arity-negative"),
    pytest.param(["eval", "FILE"], '{"2": {"elements": 5}}', None,
                 "arity 2: 'elements' is not a list", id="eval-elements-not-a-list"),
    pytest.param(["eval", "FILE"], '{"1": {"elements": ["a"], "action": 3}}', None,
                 "arity 1: 'action' is not a list", id="eval-action-not-a-list"),
    pytest.param(["eval", "FILE"], '{"1": {"elements": ["a"], "action": [5]}}', None,
                 "expected an object with key 'perm'", id="eval-action-entry-not-an-object"),
    pytest.param(["eval", "FILE"],
                 '{"1": {"elements": ["a"], "action": [{"perm": 5, "map": {}}]}}',
                 None, "'perm' is not a list", id="eval-perm-not-a-list"),
    pytest.param(["eval", "FILE"],
                 '{"1": {"elements": ["a"], "action": [{"perm": [0], "map": [1]}]}}',
                 None, "'map' is not a dict", id="eval-map-not-an-object"),
    pytest.param(["eval", "FILE"], '{"1": {"elements": [["a"]], "action": []}}', None,
                 "must be strings, numbers, booleans or null", id="eval-unhashable-element"),
    pytest.param(["eval", "FILE"],
                 '{"2": {"elements": ["a"], "action": [{"perm": [0, 0], "map": {}}]}}',
                 None, "[0, 0] is not a permutation", id="eval-perm-repeats-a-value"),
    pytest.param(["eval", "FILE"],
                 f'{{"{operads.MAX_ARITY + 1}": {{"elements": ["a"], "action": []}}}}', None,
                 f"arity {operads.MAX_ARITY + 1} above", id="eval-symmetric-arity-above-max"),
    pytest.param(["eval", data_path("bicategory_slice1.json"), "--set", "a,a"], None,
                 None, "names an element twice", id="eval-set-repeated"),
    # usage errors, which argparse alone would end with exit 2 after its usage text
    pytest.param(["gate"], None, None, "required: --n", id="usage-gate-without-n"),
    pytest.param(["slice", "--k", "1", "--frob"], None, None,
                 "unrecognized arguments: --frob", id="usage-unknown-flag"),
    pytest.param(["frob"], None, None, "invalid choice: 'frob'", id="usage-unknown-verb"),
    pytest.param(["slice", "--k", "1", "--bound", "x"], None, None,
                 "invalid int value: 'x'", id="usage-bound-not-a-number"),
    pytest.param([], None, None, "required: verb", id="usage-no-verb"),
    # bound flags on a verb that reads no bounds
    pytest.param(["trees", "--height", "2", "--width", "2", "--bound", "2"], None, None,
                 "unrecognized arguments: --bound 2", id="usage-trees-bound"),
    pytest.param(["regular", data_path("monoid.thy"), "--rounds", "3"], None, None,
                 "unrecognized arguments: --rounds 3", id="usage-regular-rounds"),
    pytest.param(["eval", data_path("bicategory_slice1.json"), "--bound", "2"], None,
                 None, "unrecognized arguments: --bound 2", id="usage-eval-bound"),
    # an exhausted term budget
    pytest.param(["free", data_path("scalar2.cpd")], None, 20,
                 "term budget 20 exhausted", id="budget-free"),
    pytest.param(["slice", "--k", "2"], None, 20, "term budget 20 exhausted", id="budget-slice"),
    pytest.param(["gate", "--n", "3", "--bound", "2"], None, 20,
                 "term budget 20 exhausted", id="budget-gate"),
])
def test_malformed_input_exit_one(capsys, monkeypatch, tmp_path, argv, text, max_terms,
                                  phrase):
    if text is not None:
        path = tmp_path / "input.cpd"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        argv = [str(path) if a == "FILE" else a for a in argv]
    if max_terms is not None:
        monkeypatch.setattr(cli, "_bounds", lambda args: Bounds(
            size=args.bound, rounds=args.rounds, max_terms=max_terms))
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err and "usage:" not in err
    assert phrase in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gate", "-h"])
    assert exc.value.code == 0 and "usage:" in capsys.readouterr().out


def test_bounds_error_states_the_limits(capsys):
    for flag, value in (("--bound", "-1"), ("--rounds", "0")):
        code, _, err = run(capsys, "slice", "--k", "1", flag, value)
        assert code == 1
        assert "size >= 0, rounds >= 1 and max_terms >= 1" in err


def test_comp_index_errors_name_the_index(capsys, tmp_path):
    path = tmp_path / "input.cpd"
    for index, phrase in ((-1, "negative composition index"),
                          (7, "composition index 7")):
        path.write_text(COMP_INDEX.format(index))
        code, _, err = run(capsys, "free", str(path))
        assert code == 1 and err.startswith("error: line 4: ") and phrase in err
    path.write_text(COMP_INDEX.format(0))
    code, _, _ = run(capsys, "free", str(path), "--bound", "2")
    assert code == 0


def test_regular_term_errors_name_their_line(capsys, tmp_path):
    path = tmp_path / "input.thy"
    for text in ("op m : 2\neq m(,y) = m(x,y)\n", "op m : 2\neq m(x) = m(x,y)\n"):
        path.write_text(text)
        code, _, err = run(capsys, "regular", str(path))
        assert code == 1 and err.startswith("error: line 2: ")


def test_free_algebra_saturated_once_per_computad(capsys, monkeypatch):
    saturated = []
    original = freecat.Engine.saturate

    def counting(self):
        saturated.append(self.dim)
        return original(self)

    monkeypatch.setattr(freecat.Engine, "saturate", counting)
    paths = sorted(resources.files("computadlab").joinpath("data").glob("*.cpd"))
    assert paths
    for path in paths:
        saturated.clear()
        code, _, _ = run(capsys, "free", str(path), "--bound", "4")
        dim = computads.loads_computad(path.read_text()).dim
        assert code == 0 and len(saturated) == dim, path.name
    saturated.clear()
    code, _, _ = run(capsys, "gate", "--n", "3", "--bound", "2")
    # two engines each: the codomain {z} in the map check, the domain {a, b},
    # and the pullback, whose algebra climbs one dimension at a time
    assert code == 0 and len(saturated) == 6


def test_a_soundness_failure_exits_two_with_one_line(capsys, monkeypatch):
    original = freecat.Engine.saturation_round

    def planted(self):
        if len(self.gen_atoms) == 2:  # the 2-cells alpha and beta
            self._merge(*self.gen_atoms.values(), ("planted",))
        return original(self)

    monkeypatch.setattr(freecat.Engine, "saturation_round", planted)
    code, out, err = run(capsys, "free", data_path("scalar2.cpd"))
    assert code == 2 and not out
    assert err.splitlines() == [
        "soundness failure: merge would mix two terms whose generator multisets differ"]


def test_an_oracle_mismatch_exits_two_with_one_line(capsys, monkeypatch):
    original = operads.free_monoid_elements
    # the oracle gains a word of size 1 that no class of the slice has
    monkeypatch.setattr(operads, "free_monoid_elements",
                        lambda gens, size: [*original(gens, size), ("x9",)])
    code, out, err = run(capsys, "slice", "--k", "1", "--generators", "2",
                         "--bound", "2", "--format", "structured")
    doc = json.loads(out)
    assert code == 2 and doc["verdict"] == "MISMATCH"
    assert doc["counts_by_size"]["1"] == {"classes": 2, "oracle": 3, "match": False}
    assert err.splitlines() == ["oracle mismatch: slice computation disagrees with the oracle"]


def test_a_fiber_lane_overflow_exits_one_with_one_line(capsys, monkeypatch):
    # 8-bit fiber lanes: the 16 paths of two loops at path length 3 could
    # give 256 matching pairs, which do not fit
    original = limitlab._lane_widths
    monkeypatch.setattr(limitlab, "_lane_widths",
                        lambda *bounds: original(*bounds, fiber_bits=8))
    code, out, err = run(capsys, "gate", "--n", "1", "--bound", "3")
    assert code == 1 and not out
    assert err.splitlines() == [
        "error: graph bounds (2, 2) at path length 3 allow 16 paths in one "
        "graph, so up to 256 matching pairs, which do not fit in 8 bits"]


def test_gate_unsupported_dimension(capsys):
    code, _, err = run(capsys, "gate", "--n", "5")
    assert code == 1 and err


def test_trees(capsys):
    code, out, _ = run(capsys, "trees", "--height", "2", "--width", "2",
                       "--format", "structured")
    doc = json.loads(out)
    assert code == 0 and doc["count"] == 13


def test_eval_names_a_missing_key(capsys, tmp_path):
    path = tmp_path / "input.json"
    for text, key in (('{"1": {"action": []}}', "elements"),
                      ('{"1": {"elements": ["a"], "action": [{"map": {}}]}}', "perm"),
                      ('{"1": {"elements": ["a"], "action": [{"perm": [0]}]}}', "map")):
        path.write_text(text)
        code, _, err = run(capsys, "eval", str(path))
        assert code == 1 and f"expected an object with key {key!r}" in err


def test_eval_checks_a_large_arity_through_generators(capsys, tmp_path):
    # the composition law at arity 7 is checked on 6 x 5,040 pairs of
    # permutations, not on all 5,040 x 5,040
    path = tmp_path / "input.json"
    path.write_text('{"7": {"elements": ["a"], "action": []}}')
    code, out, _ = run(capsys, "eval", str(path), "--set", "a",
                       "--arity-bound", "1", "--format", "structured")
    assert code == 0 and json.loads(out)["count"] == 0


def test_eval_collection(capsys):
    code, out, _ = run(capsys, "eval", data_path("bicategory_slice1.json"),
                       "--set", "a,b", "--arity-bound", "2",
                       "--format", "structured")
    doc = json.loads(out)
    assert code == 0 and doc["count"] == 7 and doc["kind"] == "strongly-analytic"


def test_structured_reports_are_deterministic(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code = main(["slice", "--k", "2", "--generators", "2", "--bound", "3",
                     "--format", "structured",
                     "--out", str(target)])
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_reports_deterministic_across_processes(tmp_path):
    # hash randomization differs between processes; reports must not
    import os
    import subprocess
    import sys

    # the child imports the same computadlab as this process
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        for argv in (["free", data_path("scalar2.cpd"), "--bound", "2"],
                     ["gate", "--n", "3", "--bound", "2"],
                     ["trees", "--height", "2", "--width", "2"]):
            proc = subprocess.run(
                [sys.executable, "-m", "computadlab", *argv,
                 "--format", "structured"],
                capture_output=True, env=env, check=True)
            outputs.append((seed, tuple(argv), proc.stdout))
    by_cmd = {}
    for seed, argv, stdout in outputs:
        by_cmd.setdefault(argv, set()).add(stdout)
    assert all(len(v) == 1 for v in by_cmd.values())


def test_reports_embed_bounds(capsys):
    code, out, _ = run(capsys, "slice", "--k", "1", "--bound", "2",
                       "--format", "structured")
    doc = json.loads(out)
    assert doc["bounds"] == {"size": 2, "rounds": 24}
    assert "marker" in doc
