import json
import sys
from importlib import resources

import pytest

from computadlab import cli, computads, freecat, operads
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


# (argv, input text written to FILE, term budget patched into cli._bounds)
@pytest.mark.parametrize("argv, text, max_terms", [
    # vacuous gates: a pass over zero cases is no evidence
    pytest.param(["gate", "--n", "1", "--graph-vertices", "-1"], None, None,
                 id="gate-no-vertices"),
    pytest.param(["gate", "--n", "2", "--graph-edges", "-1"], None, None,
                 id="gate-no-edges"),
    pytest.param(["gate", "--n", "1", "--bound", "0"], None, None,
                 id="gate-path-length-0"),
    pytest.param(["gate", "--n", "1", "--graph-vertices", "0", "--graph-edges", "0"],
                 None, None, id="gate-empty-graph-only"),
    pytest.param(["gate", "--n", "2", "--graph-edges", "0"], None, None,
                 id="gate-identities-only"),
    # numbers in computad files
    pytest.param(["free", "FILE"], "dim x\n0 a\n", None, id="dim-not-a-number"),
    pytest.param(["free", "FILE"], "dim\n0 a\n", None, id="dim-without-number"),
    pytest.param(["free", "FILE"], "dim -1\n", None, id="dim-negative"),
    pytest.param(["free", "FILE"], f"dim {computads.MAX_DIM + 1}\n0 a\n", None,
                 id="dim-above-max"),
    pytest.param(["free", "FILE"], "dim " + "9" * 5000 + "\n", None,
                 id="dim-too-many-digits"),
    pytest.param(["regular", "FILE"], "op m : " + "9" * 5000 + "\n", None,
                 id="arity-too-many-digits"),
    pytest.param(["free", "FILE"], "dim 1\n0 a\n-1 f : gen(a) => gen(a)\n", None,
                 id="generator-dim-negative"),
    pytest.param(["free", "FILE"], "dim 1\n0 a\n1 f : gen(a) => gen(q)\n", None,
                 id="unknown-generator"),
    pytest.param(["free", "FILE"], COMP_INDEX.format(-1), None,
                 id="comp-index-negative"),
    pytest.param(["free", "FILE"], COMP_INDEX.format(7), None,
                 id="comp-index-too-large"),
    # attachments, certified by free_algebra
    pytest.param(["free", "FILE"], NONPARALLEL, None, id="non-parallel"),
    pytest.param(["free", "FILE"], "dim 2\n0 a\n2 s : gen(a) => gen(a)\n", None,
                 id="wrong-dimension"),
    pytest.param(["free", "FILE"], "dim 1\n0 a\n1 f\n", None, id="missing-boundary"),
    pytest.param(["free", "FILE"], "dim 0\n0 a\n0 a\n", None, id="duplicate-name"),
    # ranges on the command line
    pytest.param(["trees", "--height", "-1", "--width", "2"], None, None,
                 id="trees-height-negative"),
    pytest.param(["trees", "--height", "2", "--width", "-1"], None, None,
                 id="trees-width-negative"),
    pytest.param(["trees", "--height", "3", "--width", "4"], None, None,
                 id="trees-above-max"),
    pytest.param(["slice", "--k", "1", "--generators", "-1"], None, None,
                 id="slice-generators-negative"),
    pytest.param(["free", "FILE", "--bound", "-1"], "dim 0\n0 a\n", None,
                 id="free-bound-negative"),
    pytest.param(["slice", "--k", "1", "--rounds", "0"], None, None,
                 id="slice-rounds-zero"),
    pytest.param(["slice", "--k", "0"], None, None, id="slice-k-zero"),
    pytest.param(["gate", "--n", "0"], None, None, id="gate-n-zero"),
    # files that are not UTF-8 text, or nest beyond the recursion limit
    pytest.param(["free", "FILE"], b"\xff\xfe", None, id="free-undecodable"),
    pytest.param(["regular", "FILE"], b"\xff\xfe", None, id="regular-undecodable"),
    pytest.param(["eval", "FILE"], b"\xff\xfe", None, id="eval-undecodable"),
    pytest.param(["eval", "FILE"], "[" * 100_000 + "]" * 100_000, None,
                 id="eval-nested-too-deeply"),
    # collection files for eval
    pytest.param(["eval", "FILE"], '["a"]', None, id="eval-not-an-object"),
    pytest.param(["eval", "FILE"], '{"x": ["a"]}', None, id="eval-arity-not-a-number"),
    pytest.param(["eval", "FILE"], '{"1": "a"}', None, id="eval-payload-string"),
    pytest.param(["eval", "FILE", "--arity-bound", "-1"], '{"1": ["a"]}', None,
                 id="eval-arity-bound-negative"),
    pytest.param(["eval", "FILE"], '{"-1": ["a"]}', None, id="eval-arity-negative"),
    pytest.param(["eval", "FILE"], '{"2": {"elements": 5}}', None,
                 id="eval-elements-not-a-list"),
    pytest.param(["eval", "FILE"], '{"1": {"elements": ["a"], "action": 3}}', None,
                 id="eval-action-not-a-list"),
    pytest.param(["eval", "FILE"], '{"1": {"elements": ["a"], "action": [5]}}', None,
                 id="eval-action-entry-not-an-object"),
    pytest.param(["eval", "FILE"],
                 '{"1": {"elements": ["a"], "action": [{"perm": 5, "map": {}}]}}',
                 None, id="eval-perm-not-a-list"),
    pytest.param(["eval", "FILE"],
                 '{"1": {"elements": ["a"], "action": [{"perm": [0], "map": [1]}]}}',
                 None, id="eval-map-not-an-object"),
    pytest.param(["eval", "FILE"], '{"1": {"elements": [["a"]], "action": []}}', None,
                 id="eval-unhashable-element"),
    pytest.param(["eval", "FILE"],
                 f'{{"{operads.MAX_ARITY + 1}": {{"elements": ["a"], "action": []}}}}', None,
                 id="eval-symmetric-arity-above-max"),
    pytest.param(["eval", data_path("bicategory_slice1.json"), "--set", "a,a"], None,
                 None, id="eval-set-repeated"),
    # an exhausted term budget
    pytest.param(["free", data_path("scalar2.cpd")], None, 20, id="budget-free"),
    pytest.param(["slice", "--k", "2"], None, 20, id="budget-slice"),
    pytest.param(["gate", "--n", "3", "--bound", "2"], None, 20, id="budget-gate"),
])
def test_malformed_input_exit_one(capsys, monkeypatch, tmp_path, argv, text, max_terms):
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
    assert "Traceback" not in err


def test_bounds_error_states_the_limits(capsys):
    for flag, value in (("--bound", "-1"), ("--rounds", "0")):
        code, _, err = run(capsys, "trees", "--height", "1", "--width", "1", flag, value)
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
