"""computadlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the program under `src/`, checks every output
against an oracle, and prints the metrics; the last line of standard output
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` they are the per-module ones, taken from spans recorded around
the program's public functions, plus the tracing overhead.

A run makes a fixed number of whole passes over the workload's operation
list: as many as take about `--seconds` at the workload's nominal pass time,
at least one, and no pass that would end more than 60% past `--seconds`
after the first. An untraced run shares its passes out over three fresh
worker processes, started one after another and never together, and reports
each operation's mean time; each worker imports and sets up, so that set-up
is a median of three. Workers sample the host's speed throughout and
report times scaled to a reference speed (see `HostSampler`). A traced run stays in this process. Results,
provenance and (with `--trace 1`) all spans are written under `.bench_out/`
in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Worker processes per untraced run; each gives one set-up sample and makes
# a share of the passes.
WORKERS = 3

# No pass starts once the run has spent this share of `--seconds` measuring.
CAP = 1.6

# While a worker measures, the host's speed is sampled every SAMPLE_EVERY
# seconds by timing a fixed pure-Python loop of SAMPLE_LOOPS iterations that
# never calls the program. A sample's own time is taken out of the operation
# it interrupts, and each operation's time is scaled by REF_SECONDS over the
# mean of the samples inside it and on either side of it: scaled times read
# as seconds on a host where a sample takes REF_SECONDS (about a quiet 2-core
# Xeon virtual machine with Python 3.11).
SAMPLE_LOOPS = 25_000
SAMPLE_EVERY = 0.2
REF_SECONDS = 0.002

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


def load_program() -> None:
    """Import `computadlab` from this checkout's `src/`, or exit with code 1."""
    if not os.path.isfile(os.path.join(SRC, "computadlab", "__init__.py")):
        sys.exit(f"error: no computadlab source under {SRC}")
    sys.path.insert(0, SRC)
    import computadlab
    if os.path.dirname(os.path.dirname(os.path.abspath(computadlab.__file__))) != SRC:
        sys.exit(f"error: imported computadlab from {computadlab.__file__}, not {SRC}")


class HostSampler:
    """Samples the host's speed from a SIGALRM handler while active, and once
    on entry and once on exit. The handler runs in the main thread between
    two bytecodes of whatever it interrupts, so each sample lies wholly
    inside or wholly outside any span of time the program measures."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.sampling = False

    def sample(self, *_) -> None:
        if self.sampling:  # a signal that arrives during a sample
            return
        self.sampling = True
        t0 = time.perf_counter()
        acc = 0
        for i in range(SAMPLE_LOOPS):
            acc += i * i % 7
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.sampling = False

    def __enter__(self) -> "HostSampler":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def measured(self, t0: float, t1: float) -> tuple[float, float]:
        """The time from `t0` to `t1` (`perf_counter` readings taken while
        active) without the samples taken in it, and that time scaled to the
        reference speed by the samples in it and the one on either side."""
        inside = range(bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.ends, t1))
        taken = [self.ends[k] - self.starts[k]
                 for k in range(inside.start - 1, inside.stop + 1)]
        dt = t1 - t0 - sum(taken[1:-1])
        return dt, dt * REF_SECONDS / statistics.fmean(taken)


class Phase:
    """Outcome of whole passes over a workload's operations."""

    def __init__(self):
        self.walls: list[float] = []  # one per pass: summed operation latency
        self.labels: list[str] = []  # per operation of the list
        self.latencies: list[list[float]] = []  # per operation of the list, one per pass
        self.windows: list[list[tuple[float, float]]] = []  # the same, as (start, end)
        self.failures: list[str] = []
        self.attempted = 0

    def op_fastest(self) -> list[float]:
        """Each operation's fastest latency over the passes.

        The program is deterministic, so a slower repeat of the same operation
        measures interference from the host, not the program; the fastest
        repeat is the steadiest estimate of the program's own time.
        """
        return [min(samples) for samples in self.latencies]


def run_pass(workload, phase: Phase, tracer=None) -> None:
    """One pass over the operation list, each operation checked after it
    returns."""
    wall = 0.0
    for i, op in enumerate(workload.ops()):
        if tracer is not None:
            tracer.op = phase.attempted
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except (Exception, SystemExit) as exc:  # a failed operation never aborts the run
            result, error = None, f"{op.label}: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        dt = t1 - t0
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                error = f"{op.label}: {error}"
        del result
        phase.attempted += 1
        wall += dt
        if i == len(phase.latencies):
            phase.latencies.append([])
            phase.windows.append([])
            phase.labels.append(op.label)
        phase.latencies[i].append(dt)
        phase.windows[i].append((t0, t1))
        if error is not None:
            phase.failures.append(error)
    phase.walls.append(wall)


def pass_count(cls, seconds: float) -> int:
    """Whole passes that take about `seconds` at the workload's nominal pass
    time. The count does not depend on how fast the host runs today, so every
    run reports the mean of the same number of repeats, unless the host is
    so slow that the run stops at its cap."""
    return max(1, round(seconds / cls.PASS_SECONDS))


def run_passes(workload, phases: list, passes: int, cap: float, tracer=None) -> None:
    """`passes` rounds, each one pass per phase (a phase traced when it is
    the last and `tracer` is given); after the first round, no round starts
    that, taking as long as the previous one, would end more than `cap`
    seconds after the first began."""
    if tracer is not None:
        import tracing
    start = time.perf_counter()
    for i in range(passes):
        t0 = time.perf_counter()
        if i and t0 - start + last > cap:
            break
        for j, phase in enumerate(phases):
            if tracer is not None and j == len(phases) - 1:
                with tracing.installed(tracer):
                    run_pass(workload, phase, tracer)
            else:
                run_pass(workload, phase)
        last = time.perf_counter() - t0


def measure(name: str, seed: int, passes: int, cap: float, tiny: bool) -> dict:
    """A worker's share of an untraced run: import, set up once, then
    `passes` passes within `cap` seconds, with the host's speed sampled
    throughout. Runs in a fresh interpreter."""
    phase = Phase()
    with HostSampler() as sampler:
        t0 = time.perf_counter()
        load_program()
        import workloads
        t1 = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed, tiny, OUT)
        workload.setup()
        t2 = time.perf_counter()
        run_passes(workload, [phase], passes, cap)
    import_s, _ = sampler.measured(t0, t1)
    setup_s, setup_adjusted_s = sampler.measured(t0, t2)
    measured = [[sampler.measured(*w) for w in op] for op in phase.windows]
    return {"import_s": import_s, "build_s": setup_s - import_s,
            "setup_adjusted_s": setup_adjusted_s, "walls": phase.walls,
            "labels": phase.labels, "latencies": [[m[0] for m in op] for op in measured],
            "adjusted": [[m[1] for m in op] for op in measured],
            "samples": len(sampler.starts), "attempted": phase.attempted,
            "failures": phase.failures,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_worker(name: str, seed: int, passes: int, cap: float, tiny: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(cap), "--worker-passes", str(passes)]
    if tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.exit(f"error: worker failed with exit code {done.returncode}: "
                 f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def p99(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, dict]:
    """One run; returns the result object and the details behind it."""
    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    details: dict = {}
    if not trace:
        # the passes are shared out over the workers; a worker that, at the
        # previous one's pace, would end past the cap only sets up
        n = pass_count(workloads.WORKLOADS[name], seconds)
        runs, start, last = [], time.perf_counter(), 0.0
        for i in range(WORKERS):
            share = n // WORKERS + (i < n % WORKERS)
            t0 = time.perf_counter()
            if runs and t0 - start + last > CAP * seconds:
                share = 0
            runs.append(run_worker(name, seed, share, CAP * seconds, tiny))
            last = time.perf_counter() - t0
        measured = [r for r in runs if r["latencies"]]
        # per operation of the list, its latencies in every pass of every worker
        latencies = [sum(op, []) for op in zip(*(r["latencies"] for r in measured))]
        adjusted = [sum(op, []) for op in zip(*(r["adjusted"] for r in measured))]
        # one latency per operation of the list: its fastest over the passes
        lat = [min(samples) for samples in latencies]
        queries = [t for label, t in zip(measured[0]["labels"], lat)
                   if label.startswith("queries/")]
        metrics = {
            "setup_s": statistics.median(r["setup_adjusted_s"] for r in runs),
            "wall_s": sum(statistics.fmean(samples) for samples in adjusted),
            "peak_rss_mb": max(r["rss_mb"] for r in runs),
        }
        units = END_TO_END
        attempted = sum(r["attempted"] for r in runs)
        failures = [f for r in runs for f in r["failures"]]
        # as measured, before scaling to the reference speed
        details.update(passes=[len(r["walls"]) for r in runs], workers=runs,
                       raw_setup_s=statistics.median(r["import_s"] + r["build_s"] for r in runs),
                       raw_wall_s=sum(statistics.fmean(samples) for samples in latencies))
        if queries:
            # reported, not gated: their spread on a shared host exceeds any bound
            details.update(query_p50_ms=statistics.median(queries) * 1e3,
                           query_p99_ms=p99(queries) * 1e3)
    else:
        # untraced and traced passes alternate, so that a drift of the
        # host's speed does not masquerade as tracing overhead
        workload = workloads.WORKLOADS[name](seed, tiny, OUT)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            workload.setup()
        at_setup = tracing.raw_counts(tracer)
        plain, traced = Phase(), Phase()
        run_passes(workload, [plain, traced], pass_count(type(workload), seconds / 2),
                   CAP * seconds, tracer)
        at_end = tracing.raw_counts(tracer)
        # one traced set-up plus the mean traced pass
        n = len(traced.walls)
        raw = {key: at_setup.get(key, 0) + (value - at_setup.get(key, 0)) / n
               for key, value in at_end.items()}
        metrics = tracing.per_layer_metrics(raw)
        metrics["trace.overhead_s"] = sum(traced.op_fastest()) - sum(plain.op_fastest())
        units = {key: unit for key, (unit, _) in tracing.PER_LAYER.items()}
        attempted = plain.attempted + traced.attempted
        failures = plain.failures + traced.failures
        details.update(passes=[len(plain.walls), len(traced.walls)], raw=raw,
                       untraced_walls=plain.walls, traced_walls=traced.walls)
        if not tiny:
            tracer.write(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl.gz"))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    details.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                   operations=attempted, fail_ratio=len(failures) / attempted,
                   failures=failures[:50], **provenance())
    # the parts of a composite workload with a failed operation ("part/op: why")
    details["failed_parts"] = sorted({f.partition(": ")[0].partition("/")[0]
                                      for f in failures if "/" in f.partition(": ")[0]})
    return result, details


def provenance() -> dict:
    """Python version, processors, the commit (when in a git checkout) and a
    digest of the program source, which identifies the code either way."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "computadlab"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for fname in sorted(files):
            path = os.path.join(base, fname)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="computadlab benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["engine", "sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a worker process of an untraced run, and the self-test's sizes
    parser.add_argument("--worker-passes", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    if args.worker_passes is not None:
        print(json.dumps(measure(args.workload, args.seed, args.worker_passes, args.seconds,
                                 args.tiny)))
        return 0
    load_program()
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1, default=str)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={details['python']} "
          f"nproc={details['nproc']} commit={details['commit']} "
          f"source={details['source_sha256'][:12]}")
    print(f"# passes={details['passes']} operations={details['operations']} "
          f"failed={result['failed']} fail_ratio={details['fail_ratio']:.4g}")
    for failure in details["failures"][:5]:
        print(f"# FAIL {failure}")
    for key, m in result["metrics"].items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")
    for key, unit in (("raw_setup_s", "s"), ("raw_wall_s", "s"),
                      ("query_p50_ms", "ms"), ("query_p99_ms", "ms")):
        if key in details:
            print(f"# {key} = {details[key]:.6g} {unit} (reported, not a gated metric)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # string hashing feeds set and dict order inside the program: pin it
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
