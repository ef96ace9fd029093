"""Span tracing from outside the program.

Inside `installed(...)`, the public functions and `Engine` / `FreeAlgebra`
methods the benchmark measures are replaced with timing wrappers, in every
`computadlab` module that bound them (a from-import makes a second binding);
the originals come back when the block ends. Spans are kept in memory as
parallel arrays (name, start, end, parent span, operation id) and written out
once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import sys
import time
from array import array

NO_PARENT = -1


class Tracer:
    """In-memory span recorder.

    The wrappers only append to the span arrays; busy time, self time and
    call counts are computed from them afterwards, which keeps the cost of a
    span low. Busy time sums the spans of one name that have no enclosing span
    of the same name; self time is a span's duration minus its children's.
    """

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[int] = []  # open spans, innermost last
        self.counts: dict[str, float] = {}
        self.homs_into: dict[tuple, int] = {}  # (parent span, Z) -> homs found
        self.op = NO_PARENT

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def parent(self) -> tuple[int, str] | None:
        """The innermost open span, as (span index, name)."""
        if not self.stack:
            return None
        idx = self.stack[-1]
        return idx, self.names[self.span_name[idx]]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def snapshot(self) -> dict[str, float]:
        """Every additive quantity recorded so far, by key."""
        names, parent = self.span_name, self.span_parent
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p != NO_PARENT:
                child[p] += dur[i]
        busy = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i, ni in enumerate(names):
            own[ni] += dur[i] - child[i]
            calls[ni] += 1
            p = parent[i]
            while p != NO_PARENT and names[p] != ni:
                p = parent[p]
            if p == NO_PARENT:
                busy[ni] += dur[i]
        out = dict(self.counts)
        for ni, name in enumerate(self.names):
            out[f"busy:{name}"] = busy[ni]
            out[f"self:{name}"] = own[ni]
            out[f"calls:{name}"] = calls[ni]
        return out

    @property
    def n_spans(self) -> int:
        return len(self.span_start)

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines, times relative to the first span."""
        t0 = self.span_start[0] if self.n_spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(self.n_spans):
                fh.write(f"[{self.span_name[i]},{self.span_start[i] - t0:.7f},"
                         f"{self.span_end[i] - t0:.7f},{self.span_parent[i]},"
                         f"{self.span_op[i]}]\n")


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    ni = tracer.name_index(name)
    clock = time.perf_counter
    stack = tracer.stack
    starts, ends = tracer.span_start, tracer.span_end
    add_name, add_parent = tracer.span_name.append, tracer.span_parent.append
    add_op, add_start, add_end = tracer.span_op.append, starts.append, ends.append

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = before(args, kwargs) if before is not None else None
        idx = len(starts)
        add_name(ni)
        add_parent(stack[-1] if stack else NO_PARENT)
        add_op(tracer.op)
        add_end(0.0)
        stack.append(idx)
        add_start(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            stack.pop()
        if after is not None:
            after(args, kwargs, result, token, ends[idx] - starts[idx])
        return result

    return traced


def _arg(args, kwargs, i: int, name: str, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _hooks(tracer: Tracer) -> dict:
    """Counters read from the program's public state after each call."""
    import computadlab.freecat as freecat

    def after_freeze(args, kwargs, result, token, dur):
        e = args[0]
        tracer.add("freecat.rounds", e.round)
        tracer.add("freecat.terms", len(e.nodes))
        tracer.add("freecat.classes", len(e.classes()))
        tracer.add("freecat.merges", e.counters["merges"])
        tracer.add("freecat.axiom_instances", e.counters["axiom_instances"])

    def before_equal(args, kwargs):
        return len(args[0].nodes)

    def after_equal(args, kwargs, result, token, dur):
        tracer.add("freecat.query_terms_added", len(args[0].nodes) - token)
        if result[0] == freecat.UNKNOWN:
            tracer.add("freecat.unknown_verdicts", 1)

    def after_certificate(args, kwargs, result, token, dur):
        tracer.add("freecat.certificate_steps", len(result.steps))

    def after_slice(args, kwargs, result, token, dur):
        size = _arg(args, kwargs, 2, "bounds", freecat.Bounds()).size
        label = f"k{args[0]}_g{len(list(args[1]))}_s{size}"
        tracer.add(f"operads.slice.{label}_s", dur)

    def after_homs(args, kwargs, result, token, dur):
        tracer.add("limitlab.homs", len(result))
        parent = tracer.parent()
        if parent is not None and parent[1] in ("limitlab.run_path_preservation",
                                                "limitlab.computad_topos_gate"):
            key = (parent[0], args[1])
            tracer.homs_into[key] = tracer.homs_into.get(key, 0) + len(result)

    def after_sweep(args, kwargs, result, token, dur):
        tracer.add("limitlab.cospans", result.cospans)
        tracer.add("limitlab.generic_checked", result.generic_checked)

    def after_gate(args, kwargs, result, token, dur):
        for exp in result.experiments:
            if exp.get("experiment", "").startswith("free category (path) functor"):
                tracer.add("limitlab.cospans", exp["cospans"])
                tracer.add("limitlab.generic_checked", exp["cospans"])

    def after_main(args, kwargs, result, token, dur):
        argv = list(_arg(args, kwargs, 0, "argv") or [])
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                tracer.add("cli.report_bytes", os.path.getsize(path))

    return {
        "freecat.Engine.freeze": (None, after_freeze),
        "freecat.equal_cells": (before_equal, after_equal),
        "freecat.certificate": (None, after_certificate),
        "operads.slice_of_strict": (None, after_slice),
        "limitlab.graph_homs": (None, after_homs),
        "limitlab.run_path_preservation": (None, after_sweep),
        "limitlab.computad_topos_gate": (None, after_gate),
        "cli.main": (None, after_main),
    }


# Span names, as "<module>.<function>" or "<module>.<Class>.<method>".
SPANS = [
    "freecat.Engine.extend_composites",
    "freecat.Engine.saturation_round",
    "freecat.Engine.freeze",
    "freecat.equal_cells",
    "freecat.certificate",
    "freecat.verify_certificate",
    "computads.free_algebra",
    "computads.loads_computad",
    "computads.FreeAlgebra.class_of_term",
    "computads.pullback_computads",
    "operads.slice_of_strict",
    "limitlab.run_path_preservation",
    "limitlab.computad_topos_gate",
    "limitlab.enumerate_graphs",
    "limitlab.graph_homs",
    "limitlab.graph_automorphisms",
    "limitlab.path_fibers",
    "limitlab.check_path_cospan",
    "cli.main",
    "cli.cmd_free",
    "cli.cmd_slice",
    "cli.cmd_regular",
    "cli.cmd_gate",
    "cli.cmd_trees",
    "cli.cmd_eval",
    "pasting.enumerate_trees",
]


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "computadlab" or name.startswith("computadlab."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Every span target wrapped for the duration of the block."""
    import importlib

    hooks = _hooks(tracer)
    undo: list[tuple] = []
    try:
        for span in SPANS:
            modname, _, attr = span.partition(".")
            module = importlib.import_module(f"computadlab.{modname}")
            before, after = hooks.get(span, (None, None))
            if "." in attr:  # a method: one binding, on the class
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, _wrap(tracer, span, original, before, after))
                undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapped = _wrap(tracer, span, original, before, after)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, original))
        yield
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# Per-module metrics: name -> (unit, the workload on which the metric must be
# nonzero, because it measures work that workload's end-to-end numbers rest on).
# The trace's own metrics belong to every workload.
PER_LAYER = {
    "freecat.extend_composites_s": ("s", "engine"),
    "freecat.saturation_round_s": ("s", "engine"),
    "freecat.freeze_s": ("s", "engine"),
    "freecat.rounds": ("count", "engine"),
    "freecat.terms": ("count", "engine"),
    "freecat.classes": ("count", "engine"),
    "freecat.class_yield": ("ratio", "engine"),
    "freecat.merges": ("count", "engine"),
    "freecat.axiom_instances": ("count", "engine"),
    "freecat.merge_yield": ("ratio", "engine"),
    "freecat.equal_cells_s": ("s", "engine"),
    "freecat.equal_cells_calls": ("count", "engine"),
    "freecat.certificate_s": ("s", "engine"),
    "freecat.verify_certificate_s": ("s", "engine"),
    "freecat.certificate_steps": ("count", "engine"),
    "freecat.query_terms_added": ("count", "engine"),
    "freecat.unknown_verdicts": ("count", "engine"),
    "computads.free_algebra_s": ("s", "engine"),
    "computads.free_algebra_calls": ("count", "engine"),
    "computads.loads_computad_s": ("s", "engine"),
    "computads.class_of_term_s": ("s", "engine"),
    "computads.pullback_computads_s": ("s", "engine"),
    "operads.slice_of_strict_s": ("s", "engine"),
    "operads.slice.k1_g3_s6_s": ("s", "engine"),
    "operads.slice.k2_g3_s4_s": ("s", "engine"),
    "operads.slice.k2_g3_s6_s": ("s", "engine"),
    "operads.slice.k3_g2_s4_s": ("s", "engine"),
    "limitlab.run_path_preservation_s": ("s", "sweep"),
    "limitlab.sweep_self_s": ("s", "sweep"),
    "limitlab.computad_topos_gate_s": ("s", "sweep"),
    "limitlab.gate_self_s": ("s", "sweep"),
    "limitlab.enumerate_graphs_s": ("s", "sweep"),
    "limitlab.graph_homs_s": ("s", "sweep"),
    "limitlab.homs": ("count", "sweep"),
    "limitlab.graph_automorphisms_s": ("s", "sweep"),
    "limitlab.path_fibers_s": ("s", "sweep"),
    "limitlab.check_path_cospan_s": ("s", "sweep"),
    "limitlab.generic_checked": ("count", "sweep"),
    "limitlab.cospans": ("count", "sweep"),
    "limitlab.orbit_yield": ("ratio", "sweep"),
    "cli.free_s": ("s", "engine"),
    "cli.slice_s": ("s", "engine"),
    "cli.regular_s": ("s", "engine"),
    "cli.gate_s": ("s", "engine"),
    "cli.trees_s": ("s", "engine"),
    "cli.eval_s": ("s", "engine"),
    "cli.self_s": ("s", "engine"),
    "cli.report_bytes": ("bytes", "engine"),
    "pasting.enumerate_trees_s": ("s", "engine"),
    "trace.overhead_s": ("s", None),
    "trace.spans": ("count", None),
}


# Metrics that are the busy time of one span.
BUSY = {
    "freecat.extend_composites_s": "freecat.Engine.extend_composites",
    "freecat.saturation_round_s": "freecat.Engine.saturation_round",
    "freecat.freeze_s": "freecat.Engine.freeze",
    "freecat.equal_cells_s": "freecat.equal_cells",
    "freecat.certificate_s": "freecat.certificate",
    "freecat.verify_certificate_s": "freecat.verify_certificate",
    "computads.free_algebra_s": "computads.free_algebra",
    "computads.loads_computad_s": "computads.loads_computad",
    "computads.class_of_term_s": "computads.FreeAlgebra.class_of_term",
    "computads.pullback_computads_s": "computads.pullback_computads",
    "operads.slice_of_strict_s": "operads.slice_of_strict",
    "limitlab.run_path_preservation_s": "limitlab.run_path_preservation",
    "limitlab.computad_topos_gate_s": "limitlab.computad_topos_gate",
    "limitlab.enumerate_graphs_s": "limitlab.enumerate_graphs",
    "limitlab.graph_homs_s": "limitlab.graph_homs",
    "limitlab.graph_automorphisms_s": "limitlab.graph_automorphisms",
    "limitlab.path_fibers_s": "limitlab.path_fibers",
    "limitlab.check_path_cospan_s": "limitlab.check_path_cospan",
    "cli.free_s": "cli.cmd_free",
    "cli.slice_s": "cli.cmd_slice",
    "cli.regular_s": "cli.cmd_regular",
    "cli.gate_s": "cli.cmd_gate",
    "cli.trees_s": "cli.cmd_trees",
    "cli.eval_s": "cli.cmd_eval",
    "pasting.enumerate_trees_s": "pasting.enumerate_trees",
}


def raw_counts(tracer: Tracer) -> dict[str, float]:
    """Additive quantities, with the per-Z hom totals folded into the orbit base."""
    out = tracer.snapshot()
    # the candidate (f, g) pairs for one Z are (sum over X of |hom(X, Z)|)^2
    out["limitlab.orbit_candidates"] = sum(n * n for n in tracer.homs_into.values())
    out["trace.spans"] = tracer.n_spans
    return out


def per_layer_metrics(raw: dict[str, float]) -> dict[str, float]:
    """Derive every PER_LAYER metric (except the overhead) from raw counts."""
    get = lambda key: raw.get(key, 0)
    m = {name: get(f"busy:{span}") for name, span in BUSY.items()}
    for key in ("freecat.rounds", "freecat.terms", "freecat.classes", "freecat.merges",
                "freecat.axiom_instances", "freecat.certificate_steps",
                "freecat.query_terms_added", "freecat.unknown_verdicts",
                "limitlab.homs", "limitlab.generic_checked", "limitlab.cospans",
                "cli.report_bytes", "trace.spans"):
        m[key] = get(key)
    for key in PER_LAYER:
        if key.startswith("operads.slice."):
            m[key] = get(key)
    m["freecat.equal_cells_calls"] = get("calls:freecat.equal_cells")
    m["computads.free_algebra_calls"] = get("calls:computads.free_algebra")
    m["freecat.class_yield"] = _ratio(m["freecat.classes"], m["freecat.terms"])
    m["freecat.merge_yield"] = _ratio(m["freecat.merges"], m["freecat.axiom_instances"])
    m["limitlab.orbit_yield"] = _ratio(m["limitlab.cospans"], get("limitlab.orbit_candidates"))
    m["limitlab.sweep_self_s"] = get("self:limitlab.run_path_preservation")
    m["limitlab.gate_self_s"] = get("self:limitlab.computad_topos_gate")
    m["cli.self_s"] = sum(get(f"self:{span}") for span in SPANS if span.startswith("cli."))
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
