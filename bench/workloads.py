"""The benchmark's workloads, their parts, and the oracles that check them.

Each workload is a closed loop with one caller: an operation starts when the
previous one returns. `setup()` builds the inputs (it is timed, and may be
called several times); `ops()` returns the operation list of one pass on
fresh state, prepared outside the timed region. An operation's `check`
returns None when the output is right and a one-line reason when it is not.

`Slices`, `Queries` and `Verbs` are the parts of the `engine` workload;
`Sweep` is the `sweep` workload. `PASS_SECONDS` is a workload's nominal pass
time, checks included, on a 2-core Xeon virtual machine; it sets how many
passes a run of a given length makes. Only `Queries` samples; the other parts
are exhaustive over fixed inputs and ignore the seed. `tiny=True` shrinks
every input for the self-test.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import random
from dataclasses import dataclass
from typing import Callable

from computadlab import cli, freecat, limitlab, operads
from computadlab import computads as cpd
from computadlab.freecat import Bounds, Comp, Gen, Id, Term

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "src", "computadlab", "data")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


# --- oracles, independent of the program ---------------------------------------


def free_monoid(gens, size: int) -> set[tuple]:
    return {w for n in range(size + 1) for w in itertools.product(gens, repeat=n)}


def free_commutative_monoid(gens, size: int) -> set[tuple]:
    return {m for n in range(size + 1)
            for m in itertools.combinations_with_replacement(sorted(gens), n)}


def term_word(t: Term) -> tuple:
    """Generator names of a term's top dimension, left to right."""
    if isinstance(t, Gen):
        return (t.name,)
    if isinstance(t, Id):
        return ()
    return term_word(t.left) + term_word(t.right)


def plane_trees(height: int, width: int) -> int:
    """Plane rooted trees of height <= height, every node with <= width children."""
    count = 1
    for _ in range(height):
        count = sum(count ** n for n in range(width + 1))
    return count


# --- slices --------------------------------------------------------------------


class Slices:
    """`operads.slice_of_strict` on fixed configurations, default rounds."""

    CONFIGS = {False: [(1, 3, 6), (2, 3, 4), (2, 3, 6), (3, 2, 4)],
               True: [(1, 2, 3), (2, 2, 3), (3, 2, 2)]}

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.configs = self.CONFIGS[tiny]

    def setup(self) -> None:
        """The inputs are three integers per configuration: nothing to build."""

    def ops(self) -> list[Op]:
        out = []
        for k, g, size in self.configs:
            gens = [f"x{i}" for i in range(g)]
            out.append(Op(
                f"k{k}_g{g}_s{size}",
                lambda k=k, gens=gens, size=size:
                    operads.slice_of_strict(k, gens, Bounds(size=size)),
                lambda result, k=k, gens=gens, size=size:
                    self.check(k, gens, size, result)))
        return out

    @staticmethod
    def check(k: int, gens: list[str], size: int, result) -> str | None:
        # class -> word (k = 1) or generator multiset (k >= 2) must be a
        # bijection onto the oracle's elements
        images = [term_word(t) if k == 1 else tuple(sorted(term_word(t)))
                  for t in result.free.levels[k].rep_terms]
        if len(set(images)) != len(images):
            return f"k={k}: two classes map to the same element"
        expected = (free_monoid(gens, size) if k == 1
                    else free_commutative_monoid(gens, size))
        if set(images) != expected:
            return (f"k={k}: {len(expected - set(images))} oracle elements missing, "
                    f"{len(set(images) - expected)} extra")
        if not result.fixed_point:
            return f"k={k}: no fixed point within the round cap"
        bad = {key: n for key, n in result.free.soundness_report().items()
               if key.endswith("violations") or key == "unknown_verdicts"}
        if any(bad.values()):
            return f"k={k}: soundness counters {bad}"
        return None


# --- sweep ---------------------------------------------------------------------

# Exact cospan counts, keyed by operation label; the generic checker must see
# every `stride`-th cospan and both gates must pass.
SWEEP_EXPECTED = {
    "paths_v3_e2_l3_stride1": 115_989,
    "paths_v2_e3_l3_stride25": 129_006,
    "gate1_v3_e2_l1": {"path": 115_989},
    "gate2_v2_e2_l3": {"path": 4_171, "list": 59},
    "paths_v2_e1_l2_stride1": 256,
    "paths_v2_e2_l2_stride5": 4_171,
    "gate1_v2_e1_l1": {"path": 256},
}


class Sweep:
    """`limitlab` pullback-preservation sweeps and gates; no engine work."""

    PASS_SECONDS = 14.0

    SWEEPS = {False: [(3, 2, 3, 1), (2, 3, 3, 25)], True: [(2, 1, 2, 1), (2, 2, 2, 5)]}
    GATES = {False: [(1, (3, 2), 1), (2, (2, 2), 3)], True: [(1, (2, 1), 1), (2, (2, 2), 3)]}

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.sweeps = self.SWEEPS[tiny]
        self.gates = self.GATES[tiny]

    def setup(self) -> None:
        """The inputs are bounds only: nothing to build."""

    def ops(self) -> list[Op]:
        out = []
        for v, e, length, stride in self.sweeps:
            label = f"paths_v{v}_e{e}_l{length}_stride{stride}"
            out.append(Op(
                label,
                lambda v=v, e=e, length=length, stride=stride:
                    limitlab.run_path_preservation(v, e, length, generic_stride=stride),
                lambda s, label=label, stride=stride: self.check_sweep(label, stride, s)))
        for n, (v, e), length in self.gates:
            label = f"gate{n}_v{v}_e{e}_l{length}"
            out.append(Op(
                label,
                lambda n=n, v=v, e=e, length=length:
                    limitlab.computad_topos_gate(n, graph_bounds=(v, e), path_len=length),
                lambda r, label=label: self.check_gate(label, r)))
        return out

    @staticmethod
    def check_sweep(label: str, stride: int, s) -> str | None:
        expected = SWEEP_EXPECTED[label]
        if s.cospans != expected:
            return f"{s.cospans} cospans, expected {expected}"
        if s.count_failures or s.generic_failures:
            return (f"{len(s.count_failures)} count and "
                    f"{len(s.generic_failures)} generic failures")
        if s.generic_checked != expected // stride:
            return f"generic checker saw {s.generic_checked} cospans"
        return None

    @staticmethod
    def check_gate(label: str, r) -> str | None:
        if r.verdict != "pass-within-bounds":
            return f"verdict {r.verdict}"
        seen = {}
        for exp in r.experiments:
            kind = "path" if "(path) functor" in exp["experiment"] else "list"
            if not exp["all_pullback"]:
                return f"{kind} experiment found a non-pullback"
            seen[kind] = exp["cospans"]
        if seen != SWEEP_EXPECTED[label]:
            return f"cospans {seen}, expected {SWEEP_EXPECTED[label]}"
        return None


# --- queries -------------------------------------------------------------------


def random_term(rng: random.Random, word: list[str], dim: int, unit: Term) -> Term:
    """A random bracketing of `word` with random composition indices and
    occasional identity padding; the generators keep their order."""
    if not word:
        return unit
    if len(word) == 1:
        t: Term = Gen(word[0], dim)
    else:
        i = rng.randrange(1, len(word))
        t = Comp(rng.randrange(dim), random_term(rng, word[:i], dim, unit),
                 random_term(rng, word[i:], dim, unit))
    if rng.random() < 0.15:
        k = rng.randrange(dim)
        t = Comp(k, unit, t) if rng.random() < 0.5 else Comp(k, t, unit)
    return t


def same_cell(dim: int, w1: list[str], w2: list[str]) -> bool:
    """The oracle: 1-cells of a free monoid are equal when their words are;
    scalar 2-cells commute (Eckmann-Hilton), so only the multiset counts."""
    return w1 == w2 if dim == 1 else sorted(w1) == sorted(w2)


class Queries:
    """Equality queries against two saturated engines, alternating between
    the scalar 2-cells of `scalar2.cpd` and the k = 1 slice on 3 generators."""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.scalar_size, self.slice_size, n = (2, 3, 40) if tiny else (4, 5, 1000)
        self.slice_gens = ["x0", "x1"] if tiny else ["x0", "x1", "x2"]
        rng = random.Random(seed)
        engines = [(2, ["alpha", "beta"], self.scalar_size, Id(Id(Gen("p", 0)))),
                   (1, self.slice_gens, self.slice_size, Id(Gen("o", 0)))]
        self.queries = []
        for i in range(n):
            dim, gens, size, unit = engines[i % 2]
            j = i // 2
            # The seed picks words and bracketings; the mix is fixed, so that
            # seeds differ in inputs, not in how much work they ask for: word
            # sizes cycle through 1..size, and on each engine every fourth
            # pair is equal by the oracle and the others are not. Random pairs
            # alone are almost never equal at k = 1, and `equal` verdicts are
            # the ones that build and replay certificates.
            w1 = [rng.choice(gens) for _ in range(1 + j // 4 % size)]
            if j % 4 == 0:
                w2 = list(w1)
                if dim == 2:
                    rng.shuffle(w2)
            else:
                w2 = w1
                while same_cell(dim, w1, w2):
                    w2 = [rng.choice(gens) for _ in range(rng.randint(1, size))]
            self.queries.append((i % 2, random_term(rng, w1, dim, unit),
                                 random_term(rng, w2, dim, unit), same_cell(dim, w1, w2)))
        self.pristine = b""

    def setup(self) -> None:
        with open(os.path.join(DATA, "scalar2.cpd")) as fh:
            text = fh.read()
        bounds = Bounds(size=self.scalar_size)
        scalar = cpd.free_algebra(cpd.loads_computad(text, bounds), bounds)
        sliced = operads.slice_of_strict(1, self.slice_gens, Bounds(size=self.slice_size))
        # queries intern new terms, so every pass starts from a pristine copy
        self.pristine = pickle.dumps((scalar, sliced.free), pickle.HIGHEST_PROTOCOL)

    def ops(self) -> list[Op]:
        algebras = pickle.loads(self.pristine)
        return [Op(f"q{i}",
                   lambda fa=algebras[which], t1=t1, t2=t2: self.query(fa, t1, t2),
                   lambda result, same=same: self.check(same, result))
                for i, (which, t1, t2, same) in enumerate(self.queries)]

    @staticmethod
    def query(fa, t1: Term, t2: Term):
        c1, c2 = fa.class_of_term(t1), fa.class_of_term(t2)
        verdict, witness = freecat.equal_cells(fa.engines[fa.dim], t1, t2)
        replayed = (freecat.verify_certificate(fa.engines[fa.dim], witness)
                    if verdict == freecat.EQUAL else None)
        return c1, c2, verdict, replayed

    @staticmethod
    def check(same: bool, result) -> str | None:
        c1, c2, verdict, replayed = result
        if c1 is None or c2 is None:
            return "a term within the bound has no class"
        if (c1 == c2) != same:
            return f"class_of_term says {'equal' if c1 == c2 else 'distinct'}, oracle disagrees"
        if verdict == freecat.UNKNOWN:
            return "unknown verdict"
        if (verdict == freecat.EQUAL) != same:
            return f"verdict {verdict}, oracle says {'equal' if same else 'distinct'}"
        if verdict == freecat.EQUAL and not replayed:
            return "certificate does not replay"
        return None


# --- verbs ---------------------------------------------------------------------


def _data(name: str) -> str:
    return os.path.join(DATA, name)


# Expected verdicts of `regular`, by presentation file.
REGULAR_EXPECTED = {
    "monoid.thy": "STRONGLY-REGULAR",
    "commutative_monoid.thy": "NOT-STRONGLY-REGULAR",
    "gray_slice2.thy": "STRONGLY-REGULAR",
}

# Expected graph cospans in `gate --n 1|2` at the default graph bounds (2, 2).
GATE_COSPANS = {1: 4_171, 2: 4_171}

# The `gate --n 3` witness: two pullback classes with one common image.
GATE3_WITNESS = {("(a|a)", "(b|b)"), ("(a|b)", "(b|a)")}


def _free_oracle(path: str, bound: int) -> dict[str, set[tuple]]:
    """Generator multisets per dimension of the free algebra on a data file."""
    name = os.path.basename(path)
    if name == "loop.cpd":
        return {"0": {("p",)}, "1": {("f",) * n for n in range(bound + 1)}}
    if name == "scalar2.cpd":
        return {"0": {("p",)}, "1": {()},
                "2": free_commutative_monoid(["alpha", "beta"], bound)}
    if name == "theta2.cpd":
        return {"0": {("o",)}, "1": {()}, "2": {()}}
    raise KeyError(name)


def _eval_oracle(path: str, elements: list[str], arity_bound: int) -> int:
    with open(path) as fh:
        coll = json.load(fh)
    return sum(len(ops) * len(elements) ** int(n)
               for n, ops in coll.items() if int(n) <= arity_bound)


def check_report(argv: list[str], doc: dict) -> str | None:
    """Semantic fields of a structured report; never bytes or schema_version."""
    verb = argv[0]
    opt = lambda flag, default: argv[argv.index(flag) + 1] if flag in argv else default
    if verb == "free":
        expected = _free_oracle(argv[1], int(opt("--bound", 4)))
        if not doc["fixed_point"]:
            return "free: no fixed point"
        for r, msets in expected.items():
            got = [tuple(row["multiset"]) for row in doc["dimensions"][r]["table"]]
            if doc["dimensions"][r]["classes"] != len(got) or len(set(got)) != len(got):
                return f"free: dimension {r} repeats a multiset"
            if set(got) != msets:
                return f"free: dimension {r} has {len(got)} classes, expected {len(msets)}"
        return None
    if verb == "slice":
        k, g, size = int(opt("--k", 1)), int(opt("--generators", 2)), int(opt("--bound", 4))
        gens = [f"x{i}" for i in range(g)]
        elems = free_monoid(gens, size) if k == 1 else free_commutative_monoid(gens, size)
        want = {str(s): sum(1 for e in elems if len(e) == s) for s in range(size + 1)}
        got = {s: row["classes"] for s, row in doc["counts_by_size"].items()}
        if doc["verdict"] != "MATCH" or got != want or doc["unknown_verdicts"]:
            return f"slice: verdict {doc['verdict']}, classes by size {got}, expected {want}"
        return None
    if verb == "regular":
        want = REGULAR_EXPECTED[os.path.basename(argv[1])]
        return None if doc["verdict"] == want else f"regular: {doc['verdict']}, expected {want}"
    if verb == "gate":
        n = int(opt("--n", 0))
        if n == 3:
            pair = {tuple(sorted(doc["witness"]["left_multiset"])),
                    tuple(sorted(doc["witness"]["right_multiset"]))}
            image = doc["witness"]["common_image"]
            if doc["verdict"] != "counterexample" or pair != GATE3_WITNESS or image[0] != image[1]:
                return f"gate 3: verdict {doc['verdict']}, witness {pair}"
            return None
        cospans = [e["cospans"] for e in doc["experiments"] if "(path)" in e["experiment"]]
        if doc["verdict"] != "pass-within-bounds" or cospans != [GATE_COSPANS[n]]:
            return f"gate {n}: verdict {doc['verdict']}, path cospans {cospans}"
        return None
    if verb == "trees":
        want = plane_trees(int(opt("--height", 0)), int(opt("--width", 0)))
        if doc["count"] != want or len(set(doc["trees"])) != want:
            return f"trees: {doc['count']} trees, expected {want}"
        return None
    if verb == "eval":
        elements = [s for s in opt("--set", "").split(",") if s]
        want = _eval_oracle(argv[1], elements, int(opt("--arity-bound", 3)))
        return None if doc["count"] == want else f"eval: {doc['count']} elements, expected {want}"
    raise KeyError(verb)


class Verbs:
    """`cli.main` in-process, `--format structured --out <file>`."""

    VERBS = {
        False: [
            ["free", _data("loop.cpd"), "--bound", "12"],
            ["free", _data("scalar2.cpd"), "--bound", "4"],
            ["free", _data("scalar2.cpd"), "--bound", "5"],
            ["free", _data("theta2.cpd")],
            ["slice", "--k", "2", "--generators", "2", "--bound", "5"],
            ["slice", "--k", "1", "--generators", "3", "--bound", "5"],
            ["regular", _data("monoid.thy")],
            ["regular", _data("commutative_monoid.thy")],
            ["regular", _data("gray_slice2.thy")],
            ["gate", "--n", "1"],
            ["gate", "--n", "2"],
            ["gate", "--n", "3", "--bound", "2"],
            ["trees", "--height", "2", "--width", "4"],
            ["eval", _data("bicategory_slice1.json"), "--set", "a,b,c"],
        ],
        True: [
            ["free", _data("loop.cpd"), "--bound", "3"],
            ["free", _data("scalar2.cpd"), "--bound", "2"],
            ["slice", "--k", "1", "--generators", "2", "--bound", "3"],
            ["regular", _data("commutative_monoid.thy")],
            ["gate", "--n", "1"],
            ["gate", "--n", "3", "--bound", "2"],
            ["trees", "--height", "2", "--width", "2"],
            ["eval", _data("bicategory_slice1.json"), "--set", "a,b"],
        ],
    }

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.verbs = self.VERBS[tiny]
        self.out = os.path.join(workdir, "verb-report.json")

    def setup(self) -> None:
        """The inputs are the command lines and data files: nothing to build."""

    def ops(self) -> list[Op]:
        return [Op(" ".join(os.path.basename(a) for a in argv),
                   lambda argv=argv: cli.main(
                       argv + ["--format", "structured", "--out", self.out]),
                   lambda code, argv=argv: self.check(argv, code))
                for argv in self.verbs]

    def check(self, argv: list[str], code) -> str | None:
        if code != 0:
            return f"{argv[0]}: exit code {code}"
        try:
            with open(self.out) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return f"{argv[0]}: report does not parse: {exc}"
        finally:
            if os.path.exists(self.out):
                os.remove(self.out)
        return check_report(argv, doc)


# --- the benchmark's workloads ----------------------------------------------------


class Engine:
    """`slices`, then `queries`, then `verbs` in one pass: every operation
    that builds or queries a saturation engine. The three parts share one
    workload so that each gets the run length the host's noise needs (see
    NOTES.md); their labels keep the part's name for failures and spans."""

    PASS_SECONDS = 14.0

    PARTS = {"slices": Slices, "queries": Queries, "verbs": Verbs}

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.parts = {name: cls(seed, tiny, workdir) for name, cls in self.PARTS.items()}

    def setup(self) -> None:
        for part in self.parts.values():
            part.setup()

    def ops(self) -> list[Op]:
        return [Op(f"{name}/{op.label}", op.run, op.check)
                for name, part in self.parts.items() for op in part.ops()]


WORKLOADS = {"engine": Engine, "sweep": Sweep}
