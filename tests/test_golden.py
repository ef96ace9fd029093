"""Golden corpus: structured reports and slice class tables, byte for byte.

The files under tests/golden/ were written by the engine before its e-class
index existed, and their representatives once more when `freeze` began
extracting each class's least term; every later engine change must
reproduce them exactly. To write them again from the current code (only
when a report is meant to change), run

    PYTHONPATH=src python tests/test_golden.py

Every verb runs from the data directory with bare file names, so a report
that names its input file names it the same way in any checkout.
"""

import json
import os
from importlib import resources
from pathlib import Path

import pytest

from computadlab import operads
from computadlab.cli import main
from computadlab.freecat import Bounds
from oracles import slice_matches_oracle

GOLDEN = Path(__file__).parent / "golden"
DATA = resources.files("computadlab").joinpath("data")

VERBS = (
    [["free", f"{name}.cpd", "--bound", str(b)]
     for name in ("loop", "scalar2", "theta2") for b in range(2, 6)]
    + [["free", "loop.cpd", "--bound", "12"]]
    + [["free", "contract3.cpd", "--bound", str(b)] for b in (2, 3)]
    + [["slice", "--k", str(k)] for k in (1, 2, 3)]
    + [["slice", "--k", "2", "--generators", "2", "--bound", "5"],
       ["slice", "--k", "1", "--generators", "3", "--bound", "5"]]
    + [["gate", "--n", str(n)] for n in (1, 2, 3, 4, 5, 13)]
    + [["gate", "--n", "3", "--bound", "2"]]
    + [["regular", name] for name in ("monoid.thy", "commutative_monoid.thy",
                                      "gray_slice2.thy")]
    + [["trees", "--height", "2", "--width", "4"],
       ["eval", "bicategory_slice1.json", "--set", "a,b,c"]]
)

# (k, number of generators, size bound) -> levels[k].reps and .msets
SLICES = [(2, 3, 4), (2, 3, 6), (3, 2, 4), (1, 3, 6), (3, 3, 4), (1, 2, 7)]
SLICE_TABLES = GOLDEN / "slice_tables.json"


def slice_configs() -> list[tuple[int, int, int]]:
    """(k, number of generators, size bound) of every slice report above,
    at the verb's defaults of 2 generators and bound 4, then of SLICES."""
    out = []
    for argv in VERBS:
        if argv[0] == "slice":
            opt = dict(zip(argv[1::2], argv[2::2]))
            out.append((int(opt["--k"]), int(opt.get("--generators", 2)),
                        int(opt.get("--bound", 4))))
    return out + SLICES


def golden_name(argv) -> str:
    return "_".join(a.lstrip("-").split(".")[0].replace(",", "-")
                    for a in argv) + ".json"


def report_bytes(argv, out: Path) -> bytes:
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        code = main(argv + ["--format", "structured", "--out", str(out.resolve())])
    finally:
        os.chdir(cwd)
    assert code == 0, argv
    return out.read_bytes()


def slice_tables() -> dict:
    tables = {}
    for k, n, size in SLICES:
        res = operads.slice_of_strict(k, [f"x{i}" for i in range(n)], Bounds(size=size))
        lv = res.free.levels[k]
        tables[f"k{k}_g{n}_s{size}"] = {"reps": lv.reps,
                                        "msets": [list(m) for m in lv.msets]}
    return tables


@pytest.mark.parametrize("argv", VERBS, ids=lambda argv: golden_name(argv)[:-5])
def test_report_matches_golden(argv, tmp_path):
    want = (GOLDEN / golden_name(argv)).read_bytes()
    assert report_bytes(argv, tmp_path / "report.json") == want


def test_slice_tables_match_golden():
    assert slice_tables() == json.loads(SLICE_TABLES.read_text())


@pytest.mark.parametrize("k,n,size", slice_configs())
def test_slices_are_their_oracles_element_by_element(k, n, size):
    """Each class maps onto its own element of the free monoid (k = 1) or
    the free commutative monoid (k >= 2), and every element has a class."""
    res = operads.slice_of_strict(k, [f"x{i}" for i in range(n)], Bounds(size=size))
    ok, counts, _ = slice_matches_oracle(res)
    assert ok and counts == {s: res.counts.get(s, 0) for s in range(size + 1)}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for argv in VERBS:
        report_bytes(argv, GOLDEN / golden_name(argv))
    SLICE_TABLES.write_text(json.dumps(slice_tables(), indent=1) + "\n")
