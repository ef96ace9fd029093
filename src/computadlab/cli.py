"""Command-line surface: load inputs, run engines and experiments, emit reports.

Verbs: free, slice, regular, gate, trees, eval. Exit codes: 0 = ran and
verdict delivered, 1 = input error or exhausted term budget, 2 = internal
soundness failure (an oracle mismatch is a correctness failure, not a
verdict). `main` turns every exit-1 and exit-2 exception into one line on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import computads as cpd
from . import limitlab, operads, pasting
from .freecat import Bounds, EngineLimit, FreecatError, SoundnessError

SCHEMA_VERSION = 2


class InputError(Exception):
    """An argument or input file a verb cannot run on; exits 1."""


# Exceptions that end a verb with exit 1 and one `error: ...` line.
_INPUT_ERRORS = (OSError, UnicodeDecodeError, json.JSONDecodeError, InputError,
                 cpd.ComputadError, FreecatError, EngineLimit, limitlab.LimitError,
                 operads.OperadError)


def _bounds(args) -> Bounds:
    return Bounds(size=args.bound, rounds=args.rounds)


def _emit(doc: dict, args) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    if args.format == "structured":
        text = json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"
    else:
        lines = [f"# {doc.get('command', '')}"]
        lines.extend(_tabulate(doc))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tabulate(doc, prefix="") -> list[str]:
    rows = []
    for key in sorted(doc):
        if key in ("command", "schema_version"):
            continue
        val = doc[key]
        if isinstance(val, dict):
            rows.append(f"{prefix}{key}:")
            rows.extend(_tabulate(val, prefix + "  "))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            for i, item in enumerate(val):
                rows.append(f"{prefix}{key}[{i}]:")
                rows.extend(_tabulate(item, prefix + "  "))
        else:
            rows.append(f"{prefix}{key}: {val}")
    return rows


def cmd_free(args) -> int:
    with open(args.computad) as fh:
        text = fh.read()
    c = cpd.loads_computad(text)
    fa = cpd.free_algebra(c, _bounds(args))  # certifies the attachments
    dims = {}
    for r in range(c.dim + 1):
        rows = fa.enumerate_cells(r)
        dims[str(r)] = {
            "classes": len(rows),
            "table": [{"representative": rep, "size": len(m),
                       "multiset": list(m)} for rep, m in rows],
            "by_size": {str(s): sum(1 for _, m in rows if len(m) == s)
                        for s in sorted({len(m) for _, m in rows})},
        }
    _emit({
        "command": "free",
        "computad": cpd.dumps_computad(c).strip().splitlines(),
        "bounds": {"size": args.bound, "rounds": args.rounds},
        "fixed_point": fa.fixed_point,
        "partial": fa.partial,
        "marker": fa.partiality_marker(),
        "dimensions": dims,
    }, args)
    return 0


def cmd_slice(args) -> int:
    if args.generators < 0:
        raise InputError("the number of generators must be >= 0")
    gens = [f"x{i}" for i in range(args.generators)]
    result = operads.slice_of_strict(args.k, gens, _bounds(args))
    ok, expected, oracle_name = operads.slice_matches_oracle(result)
    table = {
        str(s): {"classes": result.counts.get(s, 0),
                 "oracle": expected.get(s, 0),
                 "match": result.counts.get(s, 0) == expected.get(s, 0)}
        for s in sorted(set(result.counts) | set(expected))
    }
    _emit({
        "command": "slice",
        "k": args.k,
        "generators": gens,
        "bounds": {"size": args.bound, "rounds": args.rounds},
        "oracle": oracle_name,
        "counts_by_size": table,
        "verdict": "MATCH" if ok else "MISMATCH",
        "fixed_point": result.fixed_point,
        "unknown_verdicts": result.unknown_verdicts,
        "partial": result.partial,
        "marker": result.marker,
    }, args)
    if not ok or result.unknown_verdicts:
        print("oracle mismatch: slice computation disagrees with the oracle",
              file=sys.stderr)
        return 2
    return 0


def cmd_regular(args) -> int:
    with open(args.presentation) as fh:
        text = fh.read()
    p = operads.parse_presentation(text)
    verdict = operads.is_strongly_regular_presentation(p)
    _emit({
        "command": "regular",
        "presentation": args.presentation,
        "operations": {name: arity for name, arity in sorted(p.ops.items())},
        "equations": len(p.equations),
        "verdict": "STRONGLY-REGULAR" if verdict.strongly_regular else "NOT-STRONGLY-REGULAR",
        "violation": verdict.violation,
        "equation_index": verdict.equation_index,
        "detail": verdict.detail,
    }, args)
    return 0


def cmd_gate(args) -> int:
    report = limitlab.computad_topos_gate(
        args.n, _bounds(args),
        graph_bounds=(args.graph_vertices, args.graph_edges),
        path_len=min(args.bound, 3) if args.n <= 2 else args.bound,
        witness_size=args.witness_size)
    _emit({
        "command": "gate",
        "n": args.n,
        "verdict": report.verdict,
        "wording": report.wording,
        "bounds": report.bounds,
        "slice_checks": report.slice_checks,
        "experiments": report.experiments,
        "witness": report.witness,
    }, args)
    return 0


def cmd_trees(args) -> int:
    if args.height < 0 or args.width < 0:
        raise InputError("--height and --width must be >= 0")
    if pasting.tree_count(args.height, args.width) > pasting.MAX_TREES:
        raise InputError(f"--height {args.height} --width {args.width} asks for more "
                         f"than {pasting.MAX_TREES:,} trees")
    trees = pasting.enumerate_trees(args.height, args.width)
    _emit({
        "command": "trees",
        "height": args.height,
        "width": args.width,
        "count": len(trees),
        "trees": [pasting.tree_to_str(t) for t in trees],
    }, args)
    return 0


def _field(obj, key: str, kind: type, where: str):
    """obj[key], where obj must be a JSON object and obj[key] a `kind`."""
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{where}: expected an object with key {key!r}")
    if not isinstance(obj[key], kind):
        raise InputError(f"{where}: {key!r} is not a {kind.__name__}")
    return obj[key]


def _load_collection(path: str):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise InputError("the collection file is nested too deeply") from None
    sets: dict[int, list] = {}
    actions: dict[int, dict] = {}
    symmetric = False
    if not isinstance(doc, dict):
        raise InputError("a collection is a JSON object keyed by arity")
    for arity, payload in doc.items():
        try:
            n = int(arity)
        except ValueError:
            n = -1
        if n < 0:
            raise InputError(f"arity {arity!r} is not a natural number")
        if isinstance(payload, list):
            sets[n] = list(payload)
            continue
        sets[n] = list(_field(payload, "elements", list, f"arity {n}"))
        if "action" in payload:
            symmetric = True
            actions[n] = {}
            for entry in _field(payload, "action", list, f"arity {n}"):
                perm = tuple(_field(entry, "perm", list, f"arity {n} action"))
                # only numbers can equal 0..n-1, and only they sort together;
                # the length goes first, so a huge n never builds range(n)
                if not (all(isinstance(i, (int, float)) for i in perm)
                        and len(perm) == n and sorted(perm) == list(range(n))):
                    raise InputError(f"arity {n}: {list(perm)} is not a permutation")
                actions[n][perm] = dict(_field(entry, "map", dict, f"arity {n} action"))
    if not symmetric:
        return operads.NonSymCollection(sets)
    if max(sets) > operads.MAX_ARITY:
        raise InputError(f"arity {max(sets)} above the largest symmetric arity "
                         f"{operads.MAX_ARITY}")
    full = {}
    for n, elems in sets.items():
        if any(isinstance(e, (list, dict)) for e in elems):
            raise InputError(f"arity {n}: elements of a symmetric collection "
                             f"must be strings, numbers, booleans or null")
        # the action is only read, so every unlisted permutation shares one
        # identity table
        tables = dict.fromkeys(operads.all_perms(n), {e: e for e in elems})
        tables.update(actions.get(n, {}))
        full[n] = tables
    return operads.SymCollection(sets, full)


def cmd_eval(args) -> int:
    if args.arity_bound < 0:
        raise InputError("--arity-bound must be >= 0")
    coll = _load_collection(args.collection)
    xs = [s for s in args.set.split(",") if s] if args.set else []
    if len(set(xs)) < len(xs):
        raise InputError(f"--set {args.set!r} names an element twice")
    if isinstance(coll, operads.SymCollection):
        elems = operads.eval_analytic(coll, xs, args.arity_bound)
        kind = "analytic"
    else:
        elems = operads.eval_strongly_analytic(coll, xs, args.arity_bound)
        kind = "strongly-analytic"
    _emit({
        "command": "eval",
        "kind": kind,
        "collection": args.collection,
        "set": xs,
        "arity_bound": args.arity_bound,
        "count": len(elems),
        "elements": [repr(e) for e in elems],
    }, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bound", type=int, default=4,
                        help="size bound (generator occurrences per cell)")
    common.add_argument("--rounds", type=int, default=24,
                        help="saturation round cap")
    common.add_argument("--format", choices=("tabular", "structured"),
                        default="tabular")
    common.add_argument("--out", default=None, help="write the report to a file")

    parser = argparse.ArgumentParser(
        prog="computadlab",
        description="workbench for computads over the strict-category monad")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("free", parents=[common],
                       help="free algebra of a computad file")
    p.add_argument("computad")
    p.set_defaults(run=cmd_free)

    p = sub.add_parser("slice", parents=[common],
                       help="slice of the strict monad on a finite set")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--generators", type=int, default=2)
    p.set_defaults(run=cmd_slice)

    p = sub.add_parser("regular", parents=[common],
                       help="strong-regularity check of a presentation")
    p.add_argument("presentation")
    p.set_defaults(run=cmd_regular)

    p = sub.add_parser("gate", parents=[common],
                       help="presheaf-topos gate experiments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--graph-vertices", type=int, default=2)
    p.add_argument("--graph-edges", type=int, default=2)
    p.add_argument("--witness-size", type=int, default=2,
                   help="cell size bound for the n=3 witness engine")
    p.set_defaults(run=cmd_gate)

    p = sub.add_parser("trees", parents=[common], help="enumerate pasting shapes")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.set_defaults(run=cmd_trees)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate an analytic functor on a set")
    p.add_argument("collection", help="JSON collection file")
    p.add_argument("--set", default="", help="comma-separated elements")
    p.add_argument("--arity-bound", type=int, default=3)
    p.set_defaults(run=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _bounds(args)  # every verb rejects out-of-range --bound and --rounds
        return args.run(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SoundnessError as exc:
        print(f"soundness failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
