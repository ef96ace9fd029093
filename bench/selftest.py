"""Self-test of the benchmark.

    python3 bench/selftest.py           # every workload at tiny sizes (seconds)
    python3 bench/selftest.py --full    # full sizes (minutes); also requires
                                        # every per-module metric to be nonzero
                                        # on the workload the metric map names

For each workload it asserts that every metric named in BENCHMARK.json is
emitted with its unit, that the untouched workload passes its correctness
checks, that every span fires on the workload the metric map assigns it to
(a binding the wrappers missed would stay silent), and that a planted wrong
expectation is counted as a failed operation instead of aborting the run.
Exits 1 when any assertion fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from unittest import mock

import run

run.load_program()

import tracing  # noqa: E402  (needs the program on the path)
import workloads  # noqa: E402

# Zero by design: the queries gate counts any unknown verdict as a failure,
# and the overhead is a difference of two timings.
EXPECTED_ZERO = {"freecat.unknown_verdicts", "trace.overhead_s"}


def planted(name: str):
    """One wrong expectation in each part of the named workload."""
    if name == "sweep":
        return mock.patch.dict(workloads.SWEEP_EXPECTED, {
            key: value + 1 for key, value in workloads.SWEEP_EXPECTED.items()
            if isinstance(value, int)})
    if name == "engine":
        stack = contextlib.ExitStack()
        right = workloads.free_monoid
        stack.enter_context(mock.patch.object(  # slices
            workloads, "free_monoid", lambda gens, size: right(gens, size) - {()}))
        stack.enter_context(mock.patch.object(  # queries
            workloads, "same_cell", lambda dim, w1, w2: False))
        stack.enter_context(mock.patch.dict(  # verbs
            workloads.REGULAR_EXPECTED, {"commutative_monoid.thy": "STRONGLY-REGULAR"}))
        return stack
    raise KeyError(name)


def span_workloads() -> dict[str, str]:
    spans = {span: tracing.PER_LAYER[metric][1] for metric, span in tracing.BUSY.items()}
    spans["cli.main"] = "engine"  # its self time is part of cli.self_s
    missing = set(tracing.SPANS) - set(spans)
    if missing:
        raise SystemExit(f"spans without a workload: {sorted(missing)}")
    return spans


def check_workload(name: str, tiny: bool, declared: dict, errors: list[str]) -> None:
    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {what}")
        if not ok:
            errors.append(f"{name}: {what}")

    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, details = run.run_workload(name, 1, 0, trace, tiny)
        units = {key: m["unit"] for key, m in result["metrics"].items()}
        expect(units == declared[kind], f"{kind} metrics emitted with their units")
        expect(result["failed"] == 0 and result["correct"],
               f"{kind} run passes its checks {details['failures'][:3]}")
        if not trace:
            zero = [key for key, m in result["metrics"].items() if not m["value"] > 0]
            expect(not zero, f"end-to-end metrics are positive {zero}")
            continue
        fired = details["raw"]
        silent = [span for span, owner in span_workloads().items()
                  if owner == name and not fired.get(f"calls:{span}", 0)]
        expect(not silent, f"every span mapped here fires {silent}")
        if not tiny:
            zero = [key for key, (_, owner) in tracing.PER_LAYER.items()
                    if owner in (name, None) and key not in EXPECTED_ZERO
                    and not result["metrics"][key]["value"]]
            expect(not zero, f"every per-module metric mapped here is nonzero {zero}")
    # a traced run checks its outputs in this process, where the plant is
    with planted(name):
        result, details = run.run_workload(name, 1, 0, True, tiny)
    expect(result["failed"] > 0 and not result["correct"],
           f"planted wrong expectation counted: {result['failed']} of "
           f"{result['attempted']} operations failed {details['failures'][:1]}")
    parts = getattr(workloads.WORKLOADS[name], "PARTS", {})
    if parts:
        expect(set(parts) <= set(details["failed_parts"]),
               f"every part's plant counted: {details['failed_parts']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="run at full sizes")
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}
    errors: list[str] = []
    for w in bench["workloads"]:
        check_workload(w["name"], not args.full, declared, errors)
    print(f"selftest: {'FAILED' if errors else 'passed'} ({len(errors)} failures)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
