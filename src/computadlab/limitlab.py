"""Finite (weak) pullback machinery and the presheaf-topos gate experiments.

Squares of finite set maps are tested for being pullbacks (comparison map
bijective) or weak pullbacks (comparison map surjective, with a chosen
section). Bounded endofunctors of Set are run over families of cospans to
test pullback preservation; the gate assembles the decisive experiments
for the strict-category monad. A pass is bounded evidence only; a failure
ships a witness that replays outside the engine.

The graph-cospan sweep sorts every graph map X -> Z into buckets once: the
vertices of X over each vertex of Z and the edges of X over each edge of Z.
Each cospan's pullback graph is then built once, as the product of its two
legs' buckets, and both the path-count DP and the generic path checker read
that one pullback; `graph_pullback` is built from the same buckets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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


def _hom_buckets(x: GraphData, m: GraphMap, nv: int, ne: int) -> tuple[list, list]:
    """A graph map x -> z sorted by its image: for each of the `nv` vertices
    of z the vertices of x over it, for each of the `ne` edges of z the
    edges `(a, s, t)` of x over it (edge index, source, target)."""
    verts: list = [[] for _ in range(nv)]
    for i, k in enumerate(m.vmap):
        verts[k].append(i)
    edges: list = [[] for _ in range(ne)]
    for a, k in enumerate(m.emap):
        s, t = x.edges[a]
        edges[k].append((a, s, t))
    return verts, edges


def _bucket_pullback(yn: int, buckets_x, buckets_y) -> tuple[list, list]:
    """The pullback of x -> z <- y as a product of the legs' buckets.

    Vertices are the flat ids `i * yn + j` of the matching pairs (i, j),
    `yn` being the number of vertices of y; edges are `(u, w, a, b)`, the
    flat ids of their source and target and the matching edges a of x and
    b of y. No pair that lies over different elements of z is visited."""
    (vx, ex), (vy, ey) = buckets_x, buckets_y
    verts = [i * yn + j for xs, ys in zip(vx, vy) for i in xs for j in ys]
    edges = [(sa * yn + sb, ta * yn + tb, a, b)
             for xs, ys in zip(ex, ey) for a, sa, ta in xs for b, sb, tb in ys]
    return verts, edges


def _flat_pullback(f: GraphMap, g: GraphMap, x: GraphData, y: GraphData):
    """`_bucket_pullback` of a cospan given by its two legs alone."""
    nv = 1 + max(f.vmap + g.vmap, default=-1)
    ne = 1 + max(f.emap + g.emap, default=-1)
    return _bucket_pullback(y.nv, _hom_buckets(x, f, nv, ne),
                            _hom_buckets(y, g, nv, ne))


def graph_pullback(f: GraphMap, g: GraphMap, x: GraphData, y: GraphData
                   ) -> tuple[GraphData, GraphMap, GraphMap]:
    """The pullback graph of x -> z <- y with its two projections.

    Built from the same per-hom buckets as the sweep's shared pullback,
    then renumbered: vertices in the order of their pairs (i, j), edges in
    the order of their pairs (a, b)."""
    verts, pedges = _flat_pullback(f, g, x, y)
    verts.sort()
    pedges.sort(key=lambda e: (e[2], e[3]))
    vidx = {v: n for n, v in enumerate(verts)}
    p = GraphData(len(verts), tuple((vidx[u], vidx[w]) for u, w, _, _ in pedges))
    p1 = GraphMap(tuple(v // y.nv for v in verts), tuple(e[2] for e in pedges))
    p2 = GraphMap(tuple(v % y.nv for v in verts), tuple(e[3] for e in pedges))
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
        img = path_image(f, path)
        fibers[img] = fibers.get(img, 0) + 1
    return fibers


def _matching_pairs(fx: dict, fy: dict) -> int:
    """Pairs of paths of x and y with the same image: sum over the images."""
    if len(fx) > len(fy):
        fx, fy = fy, fx
    return sum(n * fy[img] for img, n in fx.items() if img in fy)


def check_path_cospan(x: GraphData, y: GraphData, f: GraphMap, g: GraphMap,
                      max_len: int, fibers_x=None, fibers_y=None,
                      pullback=None) -> CospanResult:
    """Does the bounded free-category functor turn this graph cospan's
    pullback square into a pullback of path sets?

    `pullback` is the cospan's pullback as `_bucket_pullback` builds it
    (flat vertex ids `i * |Y| + j`, edges `(u, w, a, b)`); the sweep passes
    the one it already built for its path-count DP, and without it the
    checker builds its own from the legs' buckets. Every path of the
    pullback is enumerated, and both of its projections are extended edge
    by edge along with it. Two paths with the same pair of projections are
    a `conflated` pair; fewer distinct pairs than the legs' matching pairs
    (counted from the path fibers) fail surjectivity, and a `missing`
    matching pair is then searched for by brute force."""
    fx = fibers_x if fibers_x is not None else path_fibers(x, f, max_len)
    fy = fibers_y if fibers_y is not None else path_fibers(y, g, max_len)
    expected = _matching_pairs(fx, fy)
    verts, pedges = pullback if pullback is not None else _flat_pullback(f, g, x, y)
    yn = y.nv
    out_of: dict = {}
    for n, (u, w, a, b) in enumerate(pedges):
        out_of.setdefault(u, []).append((n, w, a, b))
    seen: dict = {}
    conflated = None
    total = 0
    # (end vertex, path of P, its projection to x, its projection to y)
    frontier = [(v, (v, ()), (v // yn, ()), (v % yn, ())) for v in verts]
    for depth in range(max_len + 1):
        nxt = []
        for at, path, px, py in frontier:
            total += 1
            key = (px, py)
            other = seen.setdefault(key, path)
            # by identity: a vertex or edge listed twice makes a second path
            if other is not path and conflated is None:
                conflated = (other, path, key)
            if depth < max_len:
                for n, w, a, b in out_of.get(at, ()):
                    nxt.append((w, (path[0], path[1] + (n,)),
                                (px[0], px[1] + (a,)), (py[0], py[1] + (b,))))
        frontier = nxt
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
        label=f"graph cospan |P|={len(verts)}v/{len(pedges)}e",
        pullback_ok=conflated is None and ok_surj,
        weak_ok=ok_surj,
        conflated=conflated,
        missing=missing,
        sizes={"paths_P": total, "pairs": expected},
    )


def _postcompose_key(a: GraphMap, m: GraphMap) -> tuple:
    return (tuple(a.vmap[v] for v in m.vmap), tuple(a.emap[e] for e in m.emap))


class _Leg(NamedTuple):
    """What the sweep precomputes once per graph map x -> z."""

    buckets: tuple  # the vertices and edges of x over each of z's (_hom_buckets)
    fibers: dict  # path image in z -> number of paths of x over it


def _cospan_orbits(max_v: int, max_e: int, path_len: int):
    """Graph cospans X -> Z <- Y within the bounds, X, Y, Z ranging over
    isomorphism-class representatives, one per orbit of Aut(Z) acting by
    postcomposition.

    Double-coset enumeration: f is an Aut(Z)-orbit representative, g a
    representative under the stabilizer of f. Pullback comparisons are
    invariant under the action, so no outcome is lost. Yields
    `(z, x, y, f, g, leg_f, leg_g)`. Once per hom into Z it computes the
    hom's `_Leg` (its vertex and edge buckets over Z and its path fibers)
    and the keys of its postcompositions with every automorphism of Z."""
    graphs = enumerate_graphs(max_v, max_e)
    for z in graphs:
        auts = graph_automorphisms(z)
        side = []
        for x in graphs:
            homs = graph_homs(x, z)
            legs = [_Leg(_hom_buckets(x, m, z.nv, len(z.edges)),
                        path_fibers(x, m, path_len)) for m in homs]
            keys = [[_postcompose_key(a, m) for a in auts] for m in homs]
            side.append((x, homs, legs, keys))
        for x, homs_x, legs_x, keys_x in side:
            for f, leg_f, mapped in zip(homs_x, legs_x, keys_x):
                kf = (f.vmap, f.emap)
                if min(mapped) != kf:
                    continue
                stab = [n for n, km in enumerate(mapped) if km == kf][1:]
                for y, homs_y, legs_y, keys_y in side:
                    for g, leg_g, keys_g in zip(homs_y, legs_y, keys_y):
                        if stab:
                            kg = (g.vmap, g.emap)
                            if any(keys_g[n] < kg for n in stab):
                                continue
                        yield z, x, y, f, g, leg_f, leg_g


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

    Per cospan, the pullback graph is built once, as the product of the two
    legs' vertex and edge buckets over Z. Its cells are counted by dynamic
    programming and compared with the matching-pair count from the two
    legs' path fibers, computed independently. A path of the pullback graph
    is a componentwise pair of paths, so it is determined by its two
    projections; the comparison map is therefore injective and the count
    identity decides `is_pullback`. The injectivity embedding itself is
    re-verified by the generic enumerating checker, which reads the same
    pullback, on every `generic_stride`-th cospan (0 disables the slice).

    This is the only pullback-preservation sweep: the topos gate at n = 1, 2
    runs it with `generic_stride=1`, acceptance criterion 5 with a stride.
    """
    cospans = 0
    pairs_total = 0
    count_failures: list = []
    generic_checked = 0
    generic_failures: list = []
    for z, x, y, f, g, leg_f, leg_g in _cospan_orbits(max_v, max_e, path_len):
        expected = _matching_pairs(leg_f.fibers, leg_g.fibers)
        pullback = _bucket_pullback(y.nv, leg_f.buckets, leg_g.buckets)
        verts, pedges = pullback
        # paths of the pullback graph, counted by DP
        total = len(verts)
        if pedges:
            cur = [0] * (x.nv * y.nv)
            for v in verts:
                cur[v] = 1
            for _ in range(path_len):
                nxt = [0] * len(cur)
                for u, w, _a, _b in pedges:
                    nxt[w] += cur[u]
                level = sum(nxt)
                if not level:
                    break
                total += level
                cur = nxt
        cospans += 1
        pairs_total += expected
        if total != expected:
            count_failures.append((z, x, y, f, g, {"F_P": total, "pairs": expected}))
        if generic_stride and cospans % generic_stride == 0:
            generic_checked += 1
            res = check_path_cospan(x, y, f, g, path_len, leg_f.fibers,
                                    leg_g.fibers, pullback)
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
    fa_p, fa_x = pb.free, pb.free_dom
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
