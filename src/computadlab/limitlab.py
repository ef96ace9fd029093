"""Finite (weak) pullback machinery and the presheaf-topos gate experiments.

Squares of finite set maps are tested for being pullbacks (comparison map
bijective) or weak pullbacks (comparison map surjective, with a chosen
section). Bounded endofunctors of Set are run over families of cospans to
test pullback preservation; the gate assembles the decisive experiments
for the strict-category monad. A pass is bounded evidence only; a failure
ships a witness that replays outside the engine.

The graph-cospan sweep sorts every graph map X -> Z into buckets once: the
vertices of X over each vertex of Z and the edges of X over each edge of Z,
with the bucket sizes and the map's path fibers as a dense vector indexed
by the paths of Z. Per cospan, the matching-pair count is the dot product of
the two legs' fiber vectors, the pullback's vertex count the dot product of
their bucket sizes, and the pullback's edges are built once, as the product
of the legs' edge buckets; the path-count DP and the generic path checker
read those edges, and `graph_pullback` is built from the same buckets. The
cospans are dealt out in interleaved shares, one per CPU, each share but
the caller's in a forked child, and the shares' summaries are merged in
cospan order, so the result does not depend on the number of CPUs.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field, replace
from operator import itemgetter, mul
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


@dataclass(slots=True)
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


def preserves_pullbacks_experiment(F: FunctorOnSets, cospans) -> ExperimentReport:
    results = [check_cospan(F, f, g) for f, g in cospans]
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


def _pullback_vertices(yn: int, vx, vy) -> list:
    """The flat ids `i * yn + j` of the matching vertex pairs (i, j), from
    the legs' vertex buckets; `yn` is the number of vertices of y."""
    return [i * yn + j for xs, ys in zip(vx, vy) for i in xs for j in ys]


def _pullback_edges(yn: int, ex, ey) -> list:
    """The matching edge pairs as `(u, w, a, b)`, the flat ids of their
    source and target and the edges a of x and b of y, from the legs' edge
    buckets."""
    return [(sa * yn + sb, ta * yn + tb, a, b)
            for xs, ys in zip(ex, ey) for a, sa, ta in xs for b, sb, tb in ys]


def _bucket_pullback(yn: int, buckets_x, buckets_y) -> tuple[list, list]:
    """The pullback of x -> z <- y as a product of the legs' buckets: its
    `_pullback_vertices` and its `_pullback_edges`. No pair that lies over
    different elements of z is visited."""
    (vx, ex), (vy, ey) = buckets_x, buckets_y
    return _pullback_vertices(yn, vx, vy), _pullback_edges(yn, ex, ey)


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
                      max_len: int, pullback=None, expected=None) -> CospanResult:
    """Does the bounded free-category functor turn this graph cospan's
    pullback square into a pullback of path sets?

    `pullback` is the cospan's pullback as `_bucket_pullback` builds it
    (flat vertex ids `i * |Y| + j`, edges `(u, w, a, b)`), and `expected`
    the number of matching pairs of paths of x and y; the sweep passes
    both, and without them the checker builds the pullback from the legs'
    buckets and counts the pairs from the path fibers. Every path of the
    pullback is enumerated with the flat key `(start, a1, b1, ..., ak, bk)`
    of its pair of projections; keys of different lengths never collide,
    so two paths with one key are a `conflated` pair, found again in the
    enumeration order of `_first_conflation`. Fewer distinct keys than
    `expected` fail surjectivity, and a `missing` matching pair is then
    searched for by brute force."""
    if expected is None:
        expected = _matching_pairs(path_fibers(x, f, max_len),
                                   path_fibers(y, g, max_len))
    verts, pedges = pullback if pullback is not None else _flat_pullback(f, g, x, y)
    yn = y.nv
    out_of: dict = {}
    for u, w, a, b in pedges:
        out_of.setdefault(u, []).append((w, a, b))
    # (end vertex, key) for each path of the pullback, one length at a time
    level = [(v, (v,)) for v in verts]
    seen = {key for _, key in level}
    total = len(level)
    for _ in range(max_len):
        level = [(w, key + (a, b)) for at, key in level
                 for w, a, b in out_of.get(at, ())]
        if not level:
            break
        total += len(level)
        seen.update(map(itemgetter(1), level))
    conflated = None
    if len(seen) < total:
        conflated = _first_conflation(verts, pedges, yn, max_len)
    ok_surj = len(seen) == expected
    missing = None
    if not ok_surj:
        pairs = {((k[0] // yn, k[1::2]), (k[0] % yn, k[2::2])) for k in seen}
        for px_ in graph_paths(x, max_len):
            for py_ in graph_paths(y, max_len):
                if (path_image(f, px_) == path_image(g, py_)
                        and (px_, py_) not in pairs):
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


def _first_conflation(verts, pedges, yn: int, max_len: int) -> tuple:
    """The first two paths of the pullback, in enumeration order, with the
    same pair of projections: `(first, second, (px, py))`, a path being
    `(start, pullback edge indices)` and a projection `(start, edges)`."""
    out_of: dict = {}
    for n, (u, w, a, b) in enumerate(pedges):
        out_of.setdefault(u, []).append((n, w, a, b))
    seen: dict = {}
    # (end vertex, path of P, its projection to x, its projection to y)
    frontier = [(v, (v, ()), (v // yn, ()), (v % yn, ())) for v in verts]
    for depth in range(max_len + 1):
        nxt = []
        for at, path, px, py in frontier:
            key = (px, py)
            other = seen.setdefault(key, path)
            # by identity: a vertex or edge listed twice makes a second path
            if other is not path:
                return other, path, key
            if depth < max_len:
                for n, w, a, b in out_of.get(at, ()):
                    nxt.append((w, (path[0], path[1] + (n,)),
                                (px[0], px[1] + (a,)), (py[0], py[1] + (b,))))
        frontier = nxt
    raise LimitError("no two paths of the pullback share their projections")


def _postcompose_key(a: GraphMap, m: GraphMap) -> tuple:
    return (tuple(a.vmap[v] for v in m.vmap), tuple(a.emap[e] for e in m.emap))


class _Leg(NamedTuple):
    """What the sweep precomputes once per graph map x -> z."""

    verts: list  # per vertex of z, the vertices of x over it (_hom_buckets)
    edges: list  # per edge of z, the edges (a, s, t) of x over it
    sizes: list  # per vertex of z, the number of vertices of x over it
    fibers: list  # per path of z, the number of paths of x over it


def _leg(x: GraphData, m: GraphMap, z: GraphData, zpaths: list,
         path_len: int) -> _Leg:
    """The leg of m: x -> z. Its `fibers` are dense, indexed by the paths of
    z in `zpaths` order, and end at the last nonzero entry: a dot product
    of two legs' fibers stops at the shorter one."""
    verts, edges = _hom_buckets(x, m, z.nv, len(z.edges))
    counts = path_fibers(x, m, path_len)
    fibers = [counts.get(p, 0) for p in zpaths]
    while fibers and not fibers[-1]:
        fibers.pop()
    return _Leg(verts, edges, list(map(len, verts)), fibers)


def _cospan_orbits(max_v: int, max_e: int, path_len: int, share: int,
                   shares: int):
    """Graph cospans X -> Z <- Y within the bounds, X, Y, Z ranging over
    isomorphism-class representatives, one per orbit of Aut(Z) acting by
    postcomposition.

    Double-coset enumeration: f is an Aut(Z)-orbit representative, g a
    representative under the stabilizer of f. Pullback comparisons are
    invariant under the action, so no outcome is lost. The cospans are
    numbered from 1 in this order, and only those numbered c with
    `c % shares == share` are yielded, as `(c, z, x, y, f, g, leg_f,
    leg_g)`; the others are counted past without being built. Once per Z
    the paths of Z are listed, and once per hom into Z its `_Leg` (its
    vertex and edge buckets over Z, the bucket sizes and its dense path
    fibers) and the keys of its postcompositions with every automorphism
    of Z are computed."""
    graphs = enumerate_graphs(max_v, max_e)
    c = 0  # the number of the last cospan counted
    for z in graphs:
        auts = graph_automorphisms(z)
        zpaths = graph_paths(z, path_len)
        side = []
        for x in graphs:
            homs = graph_homs(x, z)
            legs = [_leg(x, m, z, zpaths, path_len) for m in homs]
            keys = [[_postcompose_key(a, m) for a in auts] for m in homs]
            side.append((x, homs, legs, keys))
        for x, homs_x, legs_x, keys_x in side:
            for f, leg_f, mapped in zip(homs_x, legs_x, keys_x):
                kf = (f.vmap, f.emap)
                if min(mapped) != kf:
                    continue
                stab = [n for n, km in enumerate(mapped) if km == kf][1:]
                for y, homs_y, legs_y, keys_y in side:
                    # the positions in homs_y of the representatives g
                    reps = range(len(homs_y)) if not stab else [
                        n for n, (g, keys_g) in enumerate(zip(homs_y, keys_y))
                        if not any(keys_g[a] < (g.vmap, g.emap) for a in stab)]
                    # the cospan at position p of reps is number c + 1 + p
                    for p in range((share - c - 1) % shares, len(reps), shares):
                        n = reps[p]
                        yield c + 1 + p, z, x, y, f, homs_y[n], leg_f, legs_y[n]
                    c += len(reps)


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


def _sweep_share(max_v: int, max_e: int, path_len: int, generic_stride: int,
                 share: int, shares: int) -> PathPreservationSummary:
    """`run_path_preservation` on the cospans of one share; each failure is
    listed as `(c, failure)`, c being the cospan's number."""
    cospans = 0
    pairs_total = 0
    count_failures: list = []
    generic_checked = 0
    generic_failures: list = []
    for c, z, x, y, f, g, leg_f, leg_g in _cospan_orbits(
            max_v, max_e, path_len, share, shares):
        expected = sum(map(mul, leg_f.fibers, leg_g.fibers))
        yn = y.nv
        pedges = _pullback_edges(yn, leg_f.edges, leg_g.edges)
        # paths of the pullback graph, counted by DP: the vertices from the
        # bucket sizes, then one pass over the edges per length; every edge
        # starts at a pullback vertex, so the first pass may read all ones
        total = sum(map(mul, leg_f.sizes, leg_g.sizes))
        if pedges:
            cur = [1] * (x.nv * yn)
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
            count_failures.append(
                (c, (z, x, y, f, g, {"F_P": total, "pairs": expected})))
        if generic_stride and c % generic_stride == 0:
            generic_checked += 1
            verts = _pullback_vertices(yn, leg_f.verts, leg_g.verts)
            res = check_path_cospan(x, y, f, g, path_len, (verts, pedges),
                                    expected)
            if not res.pullback_ok:
                generic_failures.append((c, (z, x, y, f, g, res)))
    return PathPreservationSummary(max_v, max_e, path_len, cospans,
                                   pairs_total, count_failures,
                                   generic_checked, generic_failures)


def _share_count() -> int:
    """One share per CPU this process may run on. One share where the
    platform cannot tell (it has no `os.sched_getaffinity`), and while
    other threads run: a forked child holds only the calling thread, and
    any lock another thread held stays locked in it."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _fork_share(run_share, share: int) -> tuple[int, int]:
    """`run_share(share)` in a forked child, which pickles `(True, result)`
    or `(False, exception)` into a pipe and exits; returns the child's pid
    and the read end of the pipe."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    # the child never returns into the caller's code; an outcome it cannot
    # pickle ends it with status 1, which the parent reports
    status = 1
    try:
        os.close(read)
        try:
            outcome = (True, run_share(share))
        except BaseException as exc:  # handed to the parent, which raises it
            outcome = (False, exc)
        with open(write, "wb") as fh:
            fh.write(pickle.dumps(outcome))
        status = 0
    finally:
        os._exit(status)


def _in_shares(run_share, shares: int) -> list:
    """`run_share(k)` for every share k: share 0 in the caller, each other
    one in a forked child. A child that raises or dies raises here, and
    every child is reaped, killed first when the caller's share fails."""
    children: list = []  # (pid, read end of its pipe)
    outputs: list = []
    try:
        for share in range(1, shares):
            children.append(_fork_share(run_share, share))
        parts = [run_share(0)]
        for _, read in children:
            with open(read, "rb", closefd=False) as fh:
                outputs.append(fh.read())
    finally:
        statuses = []
        for pid, read in children:
            os.close(read)
            if len(outputs) < len(children):
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for share, (data, status) in enumerate(zip(outputs, statuses), 1):
        if status or not data:
            raise LimitError(f"sweep share {share} ended with status {status} "
                             "before it reported")
        ok, payload = pickle.loads(data)
        if not ok:
            raise payload
        parts.append(payload)
    return parts


def run_path_preservation(max_v: int, max_e: int, path_len: int,
                          generic_stride: int = 0) -> PathPreservationSummary:
    """Exhaustively test the bounded free-category functor on every graph
    cospan within the bounds (one representative per cospan orbit).

    Per cospan, the pullback graph's edges are built once, as the product
    of the two legs' edge buckets over Z, and its vertices are counted from
    the legs' bucket sizes. Its cells are counted by dynamic programming
    and compared with the matching-pair count, the dot product of the two
    legs' dense path fibers (a vector indexed by the paths of Z), computed
    independently. A path of the pullback graph is a componentwise pair of
    paths, so it is determined by its two projections; the comparison map
    is therefore injective and the count identity decides `is_pullback`.
    The injectivity embedding itself is re-verified by the generic
    enumerating checker, which reads the same pullback edges, on every
    cospan whose number c (from 1, in orbit order) has
    `c % generic_stride == 0` (0 disables the slice).

    The cospans are dealt out in shares, one per CPU this process may run
    on: cospan c belongs to share `c % shares`. Share 0 runs in the caller,
    every other share in a forked child. The merge sums the counts and
    orders the failures by c, so the summary is identical to the one a
    single share gives; with one CPU the single share runs in the caller.

    This is the only pullback-preservation sweep: the topos gate at n = 1, 2
    runs it with `generic_stride=1`, acceptance criterion 5 with a stride.
    """
    shares = _share_count()
    parts = _in_shares(functools.partial(
        _sweep_share, max_v, max_e, path_len, generic_stride, shares=shares),
        shares)
    return PathPreservationSummary(
        max_v, max_e, path_len, sum(p.cospans for p in parts),
        sum(p.matching_pairs for p in parts),
        _by_number(p.count_failures for p in parts),
        sum(p.generic_checked for p in parts),
        _by_number(p.generic_failures for p in parts))


def _by_number(tagged_lists) -> list:
    """The failures of every share, `(c, failure)` each, ordered by c."""
    tagged = sorted(itertools.chain.from_iterable(tagged_lists), key=itemgetter(0))
    return [failure for _, failure in tagged]


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
    if min(graph_bounds) < 1:
        raise LimitError(f"graph bounds {tuple(graph_bounds)} admit no edge, "
                         "so every path is an identity; the gate needs at "
                         "least 1 vertex and 1 edge")
    summary = run_path_preservation(*graph_bounds, path_len, generic_stride=1)
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
    runs, here with the generic checker on every cospan. Graph bounds below
    1 vertex or 1 edge, or `path_len < 1`, raise `LimitError`: a pass over
    zero cases, or over identities only, is not evidence. n = 3: the multiset slice produces a
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
