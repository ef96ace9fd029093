"""Finite (weak) pullback machinery and the presheaf-topos gate experiments.

Squares of finite set maps are tested for being pullbacks (comparison map
bijective) or weak pullbacks (comparison map surjective, with a chosen
section). Bounded endofunctors of Set are run over families of cospans to
test pullback preservation; the gate assembles the decisive experiments
for the strict-category monad. A pass is bounded evidence only; a failure
ships a witness that replays outside the engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from . import computads as cpd
from . import operads
from .freecat import Bounds


class LimitError(Exception):
    pass


# --- finite set maps and squares ----------------------------------------------


@dataclass
class FinSetMap:
    dom: tuple
    cod: tuple
    assign: dict

    def of(self, x):
        return self.assign[x]


def make_finset_map(dom, cod, assign) -> FinSetMap:
    dom, cod = tuple(dom), tuple(cod)
    table = dict(assign) if not callable(assign) else {x: assign(x) for x in dom}
    for x in dom:
        if x not in table:
            raise LimitError(f"map undefined on {x!r}")
        if table[x] not in cod:
            raise LimitError(f"image of {x!r} is outside the codomain")
    return FinSetMap(dom, cod, table)


def identity_finset(xs) -> FinSetMap:
    xs = tuple(xs)
    return FinSetMap(xs, xs, {x: x for x in xs})


def compose_finset(m2: FinSetMap, m1: FinSetMap) -> FinSetMap:
    return FinSetMap(m1.dom, m2.cod, {x: m2.assign[m1.assign[x]] for x in m1.dom})


@dataclass
class Square:
    """A commuting square: f . p = g . q, with p: W -> X, q: W -> Y,
    f: X -> Z, g: Y -> Z."""

    p: FinSetMap
    q: FinSetMap
    f: FinSetMap
    g: FinSetMap


def square_violation(s: Square) -> str | None:
    if s.p.dom != s.q.dom:
        return "p and q have different domains"
    if s.f.dom != s.p.cod or s.g.dom != s.q.cod:
        return "legs do not match the cospan"
    if s.f.cod != s.g.cod:
        return "cospan has no common codomain"
    for w in s.p.dom:
        if s.f.assign[s.p.assign[w]] != s.g.assign[s.q.assign[w]]:
            return f"square does not commute at {w!r}"
    return None


def pullback_sets(f: FinSetMap, g: FinSetMap):
    """Matching pairs {(x, y) | f(x) = g(y)} with the two projections."""
    if f.cod != g.cod:
        raise LimitError("pullback requires a common codomain")
    elems = tuple((x, y) for x in f.dom for y in g.dom
                  if f.assign[x] == g.assign[y])
    p1 = FinSetMap(elems, f.dom, {e: e[0] for e in elems})
    p2 = FinSetMap(elems, g.dom, {e: e[1] for e in elems})
    return elems, p1, p2


def _comparison(s: Square) -> dict:
    return {w: (s.p.assign[w], s.q.assign[w]) for w in s.p.dom}


def is_pullback(s: Square) -> bool:
    """True iff the canonical map to the pullback of the cospan is bijective."""
    bad = square_violation(s)
    if bad is not None:
        raise LimitError(bad)
    elems, _, _ = pullback_sets(s.f, s.g)
    cmp = _comparison(s)
    return len(cmp) == len(set(cmp.values())) and set(cmp.values()) == set(elems)


def is_weak_pullback(s: Square) -> tuple[bool, dict | None]:
    """True iff the canonical map is surjective; returns a chosen section."""
    bad = square_violation(s)
    if bad is not None:
        raise LimitError(bad)
    elems, _, _ = pullback_sets(s.f, s.g)
    cmp = _comparison(s)
    section: dict = {}
    for w in sorted(s.p.dom, key=repr):
        section.setdefault(cmp[w], w)
    if set(section) != set(elems):
        return False, None
    return True, section


# --- bounded endofunctors of Set ------------------------------------------------


@dataclass
class FunctorOnSets:
    name: str
    on_set: object  # tuple -> tuple
    on_map: object  # FinSetMap -> FinSetMap
    bound_note: str = ""


def identity_functor() -> FunctorOnSets:
    return FunctorOnSets("identity", lambda xs: tuple(xs), lambda m: m)


def list_functor(max_len: int) -> FunctorOnSets:
    """Words of length <= max_len: the free-monoid functor, truncated."""

    def on_set(xs):
        out = []
        for n in range(max_len + 1):
            out.extend(itertools.product(tuple(xs), repeat=n))
        return tuple(out)

    def on_map(m: FinSetMap) -> FinSetMap:
        return FinSetMap(on_set(m.dom), on_set(m.cod),
                         {w: tuple(m.assign[x] for x in w) for w in on_set(m.dom)})

    return FunctorOnSets("list", on_set, on_map, f"length <= {max_len}")


def multiset_functor(max_size: int) -> FunctorOnSets:
    """Multisets of size <= max_size: the free-commutative-monoid functor."""

    def on_set(xs):
        out = []
        for n in range(max_size + 1):
            out.extend(itertools.combinations_with_replacement(
                sorted(tuple(xs), key=repr), n))
        return tuple(out)

    def on_map(m: FinSetMap) -> FinSetMap:
        table = {w: tuple(sorted((m.assign[x] for x in w), key=repr))
                 for w in on_set(m.dom)}
        return FinSetMap(on_set(m.dom), on_set(m.cod), table)

    return FunctorOnSets("multiset", on_set, on_map, f"size <= {max_size}")


def functor_violation(F: FunctorOnSets, sample_sets) -> str | None:
    """Spot-check functoriality on identities and one composable pair."""
    for xs in sample_sets:
        fid = F.on_map(identity_finset(xs))
        if any(fid.assign[v] != v for v in fid.dom):
            return f"{F.name}: identity law fails on {xs!r}"
    xs = tuple(sample_sets[-1])
    if xs:
        m1 = make_finset_map(xs, xs, {x: xs[0] for x in xs})
        m2 = make_finset_map(xs, xs[:1], {x: xs[0] for x in xs})
        lhs = F.on_map(compose_finset(m2, m1))
        rhs = compose_finset(F.on_map(m2), F.on_map(m1))
        if lhs.assign != rhs.assign:
            return f"{F.name}: composition law fails"
    return None


# --- cartesian and weakly cartesian transformations ------------------------------


def naturality_square(F: FunctorOnSets, G: FunctorOnSets, component,
                      m: FinSetMap) -> Square:
    """The naturality square of a transformation F -> G at a map m.

    `component(xs)` must return the FinSetMap F(xs) -> G(xs)."""
    return Square(p=F.on_map(m), q=component(m.dom),
                  f=component(m.cod), g=G.on_map(m))


def is_cartesian_on(F, G, component, maps) -> bool:
    return all(is_pullback(naturality_square(F, G, component, m)) for m in maps)


def is_weakly_cartesian_on(F, G, component, maps) -> bool:
    return all(is_weak_pullback(naturality_square(F, G, component, m))[0]
               for m in maps)


# --- pullback-preservation experiments --------------------------------------------


@dataclass
class CospanResult:
    label: str
    pullback_ok: bool
    weak_ok: bool
    conflated: tuple | None = None  # two F(P)-elements with one image
    missing: tuple | None = None  # an unreached pullback element
    sizes: dict = field(default_factory=dict)


@dataclass
class ExperimentReport:
    functor: str
    bound_note: str
    results: list[CospanResult]
    all_pullback: bool
    all_weak: bool
    truncated: bool = False


def check_cospan(F: FunctorOnSets, f: FinSetMap, g: FinSetMap,
                 label: str = "") -> CospanResult:
    """Compare F(pullback) with the pullback of the F-images."""
    elems, p1, p2 = pullback_sets(f, g)
    sq = Square(F.on_map(p1), F.on_map(p2), F.on_map(f), F.on_map(g))
    cmp = _comparison(sq)
    target, _, _ = pullback_sets(sq.f, sq.g)
    conflated = None
    seen: dict = {}
    for w in sq.p.dom:
        other = seen.setdefault(cmp[w], w)
        if other != w and conflated is None:
            conflated = (other, w, cmp[w])
    missing = None
    hit = set(cmp.values())
    for t in target:
        if t not in hit:
            missing = t
            break
    return CospanResult(
        label=label or f"|X|={len(f.dom)} |Y|={len(g.dom)} |Z|={len(f.cod)}",
        pullback_ok=conflated is None and missing is None,
        weak_ok=missing is None,
        conflated=conflated,
        missing=missing,
        sizes={"P": len(elems), "FP": len(sq.p.dom), "target": len(target)},
    )


def preserves_pullbacks_experiment(F: FunctorOnSets, cospans,
                                   labels=None) -> ExperimentReport:
    results = []
    for i, (f, g) in enumerate(cospans):
        label = labels[i] if labels else ""
        results.append(check_cospan(F, f, g, label))
    return ExperimentReport(
        functor=F.name,
        bound_note=F.bound_note,
        results=results,
        all_pullback=all(r.pullback_ok for r in results),
        all_weak=all(r.weak_ok for r in results),
    )


def set_cospans(max_size: int):
    """Every cospan of sets {0..a-1} -> {0..c-1} <- {0..b-1} with sizes
    bounded by max_size (empty cospans included)."""
    out = []
    for c in range(max_size + 1):
        z = tuple(range(c))
        for a in range(max_size + 1):
            x = tuple(range(a))
            fs = [make_finset_map(x, z, dict(zip(x, img)))
                  for img in itertools.product(z, repeat=a)] if c or not a else []
            for b in range(max_size + 1):
                y = tuple(range(b))
                gs = [make_finset_map(y, z, dict(zip(y, img)))
                      for img in itertools.product(z, repeat=b)] if c or not b else []
                if not c:
                    if a or b:
                        continue
                    fs = [make_finset_map((), (), {})]
                    gs = [make_finset_map((), (), {})]
                for f in fs:
                    for g in gs:
                        out.append((f, g))
    return out


# --- graphs: computads of dimension 1 ---------------------------------------------


@dataclass(frozen=True)
class GraphData:
    nv: int
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class GraphMap:
    vmap: tuple[int, ...]
    emap: tuple[int, ...]


def canonical_graph(g: GraphData) -> GraphData:
    best = None
    for perm in itertools.permutations(range(g.nv)):
        relabeled = tuple(sorted((perm[s], perm[t]) for s, t in g.edges))
        if best is None or relabeled < best:
            best = relabeled
    return GraphData(g.nv, best if best is not None else ())


def enumerate_graphs(max_v: int, max_e: int) -> list[GraphData]:
    """Directed multigraphs with <= max_v vertices and <= max_e edges, one
    representative per isomorphism class, isolated vertices included."""
    seen = set()
    out = []
    for nv in range(max_v + 1):
        slots = [(s, t) for s in range(nv) for t in range(nv)]
        for ne in range(max_e + 1):
            for combo in itertools.combinations_with_replacement(slots, ne):
                g = canonical_graph(GraphData(nv, tuple(combo)))
                if g not in seen:
                    seen.add(g)
                    out.append(g)
    return out


def graph_automorphisms(g: GraphData) -> list[GraphMap]:
    return [m for m in graph_homs(g, g)
            if sorted(m.vmap) == list(range(g.nv)) and sorted(m.emap) == list(range(len(g.edges)))]


def graph_homs(x: GraphData, z: GraphData) -> list[GraphMap]:
    """All graph maps x -> z (edge instances mapped individually)."""
    by_pair: dict[tuple[int, int], list[int]] = {}
    for j, pair in enumerate(z.edges):
        by_pair.setdefault(pair, []).append(j)
    out = []
    for vm in itertools.product(range(z.nv), repeat=x.nv):
        choices = []
        ok = True
        for s, t in x.edges:
            cands = by_pair.get((vm[s], vm[t]))
            if not cands:
                ok = False
                break
            choices.append(cands)
        if not ok:
            continue
        for em in itertools.product(*choices):
            out.append(GraphMap(tuple(vm), tuple(em)))
    return out


def graph_pullback(f: GraphMap, g: GraphMap, x: GraphData, y: GraphData
                   ) -> tuple[GraphData, GraphMap, GraphMap]:
    vsel = [(i, j) for i in range(x.nv) for j in range(y.nv)
            if f.vmap[i] == g.vmap[j]]
    vidx = {p: n for n, p in enumerate(vsel)}
    esel = [(a, b) for a in range(len(x.edges)) for b in range(len(y.edges))
            if f.emap[a] == g.emap[b]]
    edges = []
    for a, b in esel:
        (sa, ta), (sb, tb) = x.edges[a], y.edges[b]
        edges.append((vidx[(sa, sb)], vidx[(ta, tb)]))
    p = GraphData(len(vsel), tuple(edges))
    p1 = GraphMap(tuple(i for i, _ in vsel), tuple(a for a, _ in esel))
    p2 = GraphMap(tuple(j for _, j in vsel), tuple(b for _, b in esel))
    return p, p1, p2


def graph_paths(g: GraphData, max_len: int) -> list[tuple[int, tuple[int, ...]]]:
    """Composable edge sequences with their start vertex, length <= max_len.

    These are exactly the cells of the free category on g, length 0 paths
    standing for the identities."""
    by_src: dict[int, list[int]] = {}
    for i, (s, _) in enumerate(g.edges):
        by_src.setdefault(s, []).append(i)
    frontier = [(v, ()) for v in range(g.nv)]
    out = list(frontier)
    for _ in range(max_len):
        nxt = []
        for start, es in frontier:
            at = g.edges[es[-1]][1] if es else start
            for e in by_src.get(at, ()):
                nxt.append((start, es + (e,)))
        out.extend(nxt)
        frontier = nxt
    return out


def path_image(m: GraphMap, path):
    start, es = path
    return m.vmap[start], tuple(m.emap[e] for e in es)


def path_fibers(x: GraphData, f: GraphMap, max_len: int) -> dict:
    fibers: dict = {}
    for path in graph_paths(x, max_len):
        fibers[path_image(f, path)] = fibers.get(path_image(f, path), 0) + 1
    return fibers


def check_path_cospan(x: GraphData, y: GraphData, f: GraphMap, g: GraphMap,
                      max_len: int, fibers_x=None, fibers_y=None) -> CospanResult:
    """Does the bounded free-category functor turn this graph cospan's
    pullback square into a pullback of path sets?"""
    p, p1, p2 = graph_pullback(f, g, x, y)
    fx = fibers_x if fibers_x is not None else path_fibers(x, f, max_len)
    fy = fibers_y if fibers_y is not None else path_fibers(y, g, max_len)
    expected = sum(n * fy.get(img, 0) for img, n in fx.items())
    seen: dict = {}
    conflated = None
    total = 0
    for path in graph_paths(p, max_len):
        total += 1
        key = (path_image(p1, path), path_image(p2, path))
        other = seen.setdefault(key, path)
        if other != path and conflated is None:
            conflated = (other, path, key)
    ok_surj = len(seen) == expected
    missing = None
    if not ok_surj:
        for px_ in graph_paths(x, max_len):
            for py_ in graph_paths(y, max_len):
                if (path_image(f, px_) == path_image(g, py_)
                        and (px_, py_) not in seen):
                    missing = (px_, py_)
                    break
            if missing:
                break
    return CospanResult(
        label=f"graph cospan |P|={p.nv}v/{len(p.edges)}e",
        pullback_ok=conflated is None and ok_surj,
        weak_ok=ok_surj,
        conflated=conflated,
        missing=missing,
        sizes={"paths_P": total, "pairs": expected},
    )


def _postcompose(a: GraphMap, m: GraphMap) -> GraphMap:
    return GraphMap(tuple(a.vmap[v] for v in m.vmap),
                    tuple(a.emap[e] for e in m.emap))


def _cospan_orbits(max_v: int, max_e: int, path_len: int):
    """Graph cospans X -> Z <- Y within the bounds, X, Y, Z ranging over
    isomorphism-class representatives, one per orbit of Aut(Z) acting by
    postcomposition.

    Double-coset enumeration: f is an Aut(Z)-orbit representative, g a
    representative under the stabilizer of f. Pullback comparisons are
    invariant under the action, so no outcome is lost. Yields
    `(z, x, y, f, g, fibers_f, fibers_g)`, the path fibers of each leg
    computed once per hom."""
    graphs = enumerate_graphs(max_v, max_e)
    key = lambda m: (m.vmap, m.emap)
    for z in graphs:
        auts = graph_automorphisms(z)
        side = []
        for x in graphs:
            homs = graph_homs(x, z)
            side.append((x, homs, [path_fibers(x, f, path_len) for f in homs]))
        for x, homs_x, fibs_x in side:
            for f, fx in zip(homs_x, fibs_x):
                kf = key(f)
                mapped = [key(_postcompose(a, f)) for a in auts]
                if min(mapped) != kf:
                    continue
                stab = [a for a, km in zip(auts, mapped) if km == kf][1:]
                for y, homs_y, fibs_y in side:
                    for g, fy in zip(homs_y, fibs_y):
                        if stab:
                            kg = key(g)
                            if any(key(_postcompose(a, g)) < kg for a in stab):
                                continue
                        yield z, x, y, f, g, fx, fy


@dataclass
class PathPreservationSummary:
    """Outcome of the exhaustive free-category pullback-preservation run."""

    max_v: int
    max_e: int
    path_len: int
    cospans: int
    matching_pairs: int
    count_failures: list
    generic_checked: int
    generic_failures: list

    @property
    def all_pullback(self) -> bool:
        return not self.count_failures and not self.generic_failures


def run_path_preservation(max_v: int, max_e: int, path_len: int,
                          generic_stride: int = 0) -> PathPreservationSummary:
    """Exhaustively test the bounded free-category functor on every graph
    cospan within the bounds (one representative per cospan orbit).

    Per cospan, the cells of F(pullback) are counted by dynamic programming
    on the pullback graph and compared with the matching-pair count from
    the two legs' path fibers, computed independently. A path of the
    pullback graph is a componentwise pair of paths, so it is determined by
    its two projections; the comparison map is therefore injective and the
    count identity decides `is_pullback`. The injectivity embedding itself
    is re-verified by the generic enumerating checker on every
    `generic_stride`-th cospan (0 disables the slice).

    This is the only pullback-preservation sweep: the topos gate at n = 1, 2
    runs it with `generic_stride=1`, acceptance criterion 5 with a stride.
    """
    cospans = 0
    pairs_total = 0
    count_failures: list = []
    generic_checked = 0
    generic_failures: list = []
    for z, x, y, f, g, fx, fy in _cospan_orbits(max_v, max_e, path_len):
        if len(fx) <= len(fy):
            expected = sum(n * fy[img] for img, n in fx.items() if img in fy)
        else:
            expected = sum(n * fx[img] for img, n in fy.items() if img in fx)
        fv, fe, gv, ge = f.vmap, f.emap, g.vmap, g.emap
        yn = y.nv
        # paths of the pullback graph, counted by DP
        dp = [1 if fv[i] == gv[j] else 0 for i in range(x.nv) for j in range(yn)]
        pedges = [(sa * yn + sb, ta * yn + tb)
                  for a, (sa, ta) in enumerate(x.edges)
                  for b, (sb, tb) in enumerate(y.edges)
                  if fe[a] == ge[b]]
        total = sum(dp)
        cur = dp
        for _ in range(path_len):
            nxt = [0] * len(dp)
            for s, t in pedges:
                nxt[t] += cur[s]
            total += sum(nxt)
            cur = nxt
        cospans += 1
        pairs_total += expected
        if total != expected:
            count_failures.append((z, x, y, f, g, {"F_P": total, "pairs": expected}))
        if generic_stride and cospans % generic_stride == 0:
            generic_checked += 1
            res = check_path_cospan(x, y, f, g, path_len, fx, fy)
            if not res.pullback_ok:
                generic_failures.append((z, x, y, f, g, res))
    return PathPreservationSummary(max_v, max_e, path_len, cospans,
                                   pairs_total, count_failures,
                                   generic_checked, generic_failures)


# --- the topos gate ----------------------------------------------------------------


@dataclass
class GateReport:
    n: int
    verdict: str  # 'pass-within-bounds' | 'counterexample'
    wording: str
    slice_checks: list[dict]
    experiments: list[dict]
    witness: dict | None
    bounds: dict


_PASS_WORDING = ("all tested squares are pullbacks; this is bounded evidence "
                 "consistent with a presheaf topos, not a proof")
_FAIL_WORDING = ("the exhibited square is not a pullback; the witness is a "
                 "complete finite counterexample")


def _slice_check(label: str, text: str) -> dict:
    verdict = operads.is_strongly_regular_presentation(
        operads.parse_presentation(text, label))
    return {
        "slice": label,
        "strongly_regular": verdict.strongly_regular,
        "violation": verdict.violation,
        "detail": verdict.detail,
    }


def _scalar_cospan_witness(bounds: Bounds) -> tuple[dict, list[dict]]:
    """Build the scalar 2-computad cospan {a,b} -> {*} <- {a,b}, push it
    through the free-algebra engine, and extract the conflated pair."""
    cx = operads.k_terminal_computad(2, ["a", "b"])
    cz = operads.k_terminal_computad(2, ["z"])
    fmap = cpd.make_computad_map(cx, cz, [{"o": "o"}, {}, {"a": "z", "b": "z"}],
                                 bounds)
    pb = cpd.pullback_computads(fmap, fmap, bounds)
    if pb.computad is None:
        raise LimitError("scalar pullback computad could not be built: "
                         + "; ".join(pb.failures))
    fa_p = pb.free
    fa_x = cpd.free_algebra(cx, bounds)
    ind1 = cpd.induced_class_map(fa_p, fa_x, pb.proj1, 2)
    ind2 = cpd.induced_class_map(fa_p, fa_x, pb.proj2, 2)
    lv = fa_p.levels[2]
    images: dict = {}
    conflated = None
    for cls in range(lv.n_classes):
        key = (ind1[cls], ind2[cls])
        other = images.setdefault(key, cls)
        if other != cls and conflated is None:
            conflated = (other, cls, key)
    if conflated is None:
        raise LimitError("expected a conflated pair in the scalar cospan")
    a, b, key = conflated
    lvx = fa_x.levels[2]
    witness = {
        "left_class": lv.reps[a],
        "left_multiset": list(lv.msets[a]),
        "right_class": lv.reps[b],
        "right_multiset": list(lv.msets[b]),
        "common_image": [lvx.reps[key[0]], lvx.reps[key[1]]],
        "pullback_generators": pb.computad.names(2),
    }
    # independent replay through the multiset functor on plain sets
    F = multiset_functor(bounds.size)
    f = make_finset_map(("a", "b"), ("z",), lambda _: "z")
    res = check_cospan(F, f, f, "multiset oracle replay")
    oracle = {
        "functor": "multiset",
        "is_pullback": res.pullback_ok,
        "is_weak_pullback": res.weak_ok,
        "conflated": [list(map(list, res.conflated[:2])), list(map(list, res.conflated[2]))]
        if res.conflated else None,
    }
    witness["oracle_replay_conflates"] = res.conflated is not None
    witness["oracle_replay_weak"] = res.weak_ok
    experiments = [
        {"experiment": "engine: free 2-category on the scalar pullback computad",
         "classes_in_F_P": lv.n_classes,
         "pairs_in_target": len({(ind1[c], ind2[c]) for c in range(lv.n_classes)}),
         "is_pullback": False},
        {"experiment": "oracle: multiset functor on the set cospan", **oracle},
    ]
    return witness, experiments


def _path_experiment(graph_bounds: tuple[int, int], path_len: int) -> dict:
    """The free-category functor on every graph cospan within the bounds,
    each one checked by both the path-count DP and the generic checker."""
    if path_len < 1:
        raise LimitError(f"path length {path_len} checks only identities; "
                         "the gate needs path length >= 1")
    summary = run_path_preservation(*graph_bounds, path_len, generic_stride=1)
    if summary.cospans == 0:
        raise LimitError(f"no graph cospans within graph bounds "
                         f"{tuple(graph_bounds)}; a pass over zero cases is "
                         "not evidence")
    return {
        "experiment": "free category (path) functor on graph cospans",
        "cospans": summary.cospans,
        "all_pullback": summary.all_pullback,
        "all_weak": all(res.weak_ok for *_, res in summary.generic_failures),
    }


def computad_topos_gate(n: int, bounds: Bounds = Bounds(),
                        graph_bounds: tuple[int, int] = (2, 2),
                        path_len: int = 3, witness_size: int = 2) -> GateReport:
    """The decisive finite experiments for the strict-category monad.

    n = 1, 2: the free category functor preserves the tested pullbacks
    (bounded evidence for the presheaf property). The graph cospans go
    through `run_path_preservation`, the same sweep acceptance criterion 5
    runs, here with the generic checker on every cospan. An empty graph family
    or `path_len < 1` raises `LimitError`: a pass over zero cases, or over
    identities only, is not evidence. n = 3: the multiset slice produces a
    complete finite counterexample; the witness has size 2, so
    `witness_size` only needs to grow to demonstrate persistence."""
    binfo = {"size": bounds.size, "rounds": bounds.rounds,
             "graph_bounds": list(graph_bounds), "path_len": path_len,
             "witness_size": witness_size}
    if n == 1:
        slice_checks = [_slice_check("P0 of the strict monad: trivial monoid",
                                     operads.MONOID_PRESENTATION)]
        exp = _path_experiment(graph_bounds, path_len)
        verdict = "pass-within-bounds" if exp["all_pullback"] else "counterexample"
        return GateReport(n, verdict, _PASS_WORDING, slice_checks, [exp], None, binfo)
    if n == 2:
        slice_checks = [
            _slice_check("P0 of the strict monad: trivial monoid",
                         operads.MONOID_PRESENTATION),
            _slice_check("P1 of the strict monad: free monoid",
                         operads.MONOID_PRESENTATION),
        ]
        list_report = preserves_pullbacks_experiment(
            list_functor(path_len), set_cospans(2))
        experiments = [
            {"experiment": "list functor (first slice) on set cospans",
             "cospans": len(list_report.results),
             "all_pullback": list_report.all_pullback,
             "all_weak": list_report.all_weak},
            _path_experiment(graph_bounds, path_len),
        ]
        ok = all(e["all_pullback"] for e in experiments)
        verdict = "pass-within-bounds" if ok else "counterexample"
        return GateReport(n, verdict, _PASS_WORDING, slice_checks, experiments,
                          None, binfo)
    if n == 3:
        slice_checks = [
            _slice_check("P1 of the strict monad: free monoid",
                         operads.MONOID_PRESENTATION),
            _slice_check("P2 of the strict monad: free commutative monoid",
                         operads.COMMUTATIVE_MONOID_PRESENTATION),
        ]
        wbounds = replace(bounds, size=max(witness_size, 2))
        witness, experiments = _scalar_cospan_witness(wbounds)
        return GateReport(n, "counterexample", _FAIL_WORDING, slice_checks,
                          experiments, witness, binfo)
    raise LimitError(f"unsupported gate dimension {n}; supported: 1, 2, 3")
