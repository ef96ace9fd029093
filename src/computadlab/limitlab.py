"""Finite (weak) pullback machinery and the presheaf-topos gate experiments.

A commuting square of finite set maps is a pullback when its comparison
map to the pullback of its cospan is bijective, and a weak pullback when
that map is surjective; `check_square` is the one check that decides both,
naming a conflated pair or a missing element. A bounded endofunctor of Set
is its action on finite set maps, F(X) being the domain of F applied to a
map out of X; such functors are run over families of cospans to test
pullback preservation. The gate assembles the decisive experiments for the
strict-category monad. A pass is bounded evidence only; a failure ships a
witness that replays outside the engine.

The graph-cospan sweep sorts every graph map X -> Z into buckets once: the
vertices of X over each vertex of Z and the edges of X over each edge of Z,
with the index among the paths of Z of each path's image, found by walking
the path tree of X through the map (`_Leg`, `path_fibers`). The
cospans of one representative f, over every Y, form a row, whose right legs
g depend only on Z and the stabilizer of f; each such pair packs its row's
legs once (`_Row`), a column of 32-bit lanes per path of Z holding each g's
fiber over it, and a column of code lanes per vertex or edge of Z holding
each g's bits of the pullback code. For one f, the sum of the fiber columns
over f's paths holds in lane j the matching-pair count of the cospan (f, g_j),
the dot product of the two legs' path fibers, and the sum of the code
columns, each shifted by f's bit, holds in lane j its pullback's code: the
lane's bytes, which fix the pullback's vertex pairs and its edge pairs with
their endpoints. Every code lane has one width, so two codes are equal
exactly when those pairs are. No lane carries into the next, since
`_lane_widths` sizes the lanes from the bounds and refuses bounds whose
counts could overflow. The pullback itself is built only for a cospan that
no earlier cospan of the sweep settles (below): its vertices from the legs'
vertex buckets, its edges as the product of their edge buckets. These are
the only producers of a cospan's pullback and matching-pair count: the
path-count DP reads the edges on an unchecked cospan, and the generic path
checker checks the pullback and the count it is handed on a checked one,
whose paths it enumerates and counts once. A passing check stores its path
count under its code, and every later checked cospan with that code and that
matching-pair count reuses it; a failing verdict is never reused. The DP
runs once per distinct code in a sweep, and every other unchecked cospan
with that code reuses its count. A row whose every cospan is settled by
reuse costs a few operations on big integers and one lookup per cospan; the
sweep runs the rows in the calling process, in cospan order.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from dataclasses import dataclass, replace
from operator import itemgetter, ne
from struct import iter_unpack
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


# --- bounded endofunctors of Set ------------------------------------------------


def list_functor(max_len: int):
    """Words of length <= max_len: the free-monoid functor, truncated, as
    its action on maps."""

    def words(xs) -> tuple:
        return tuple(w for n in range(max_len + 1) for w in itertools.product(xs, repeat=n))

    def on_map(m: FinSetMap) -> FinSetMap:
        dom, cod = words(m.dom), words(m.cod)
        return FinSetMap(dom, cod, {w: tuple(m.assign[x] for x in w) for w in dom})

    return on_map


def multiset_functor(max_size: int):
    """Multisets of size <= max_size: the free-commutative-monoid functor,
    as its action on maps."""

    def bags(xs) -> tuple:
        xs = sorted(xs, key=repr)
        return tuple(w for n in range(max_size + 1)
                     for w in itertools.combinations_with_replacement(xs, n))

    def on_map(m: FinSetMap) -> FinSetMap:
        dom, cod = bags(m.dom), bags(m.cod)
        table = {w: tuple(sorted((m.assign[x] for x in w), key=repr)) for w in dom}
        return FinSetMap(dom, cod, table)

    return on_map


# --- pullback-preservation experiments --------------------------------------------


@dataclass(slots=True)
class CospanResult:
    pullback_ok: bool
    weak_ok: bool
    conflated: tuple | None = None  # two F(P)-elements with one image
    missing: tuple | None = None  # an unreached pullback element
    paths: int | None = None  # a graph cospan's number of pullback paths


def _first_collision(pairs) -> tuple | None:
    """The first two elements of `pairs`, an iterable of `(element, image)`,
    with one image: `(first, second, image)`, or None. Elements are told
    apart by identity, so an element listed twice as two objects collides
    with itself."""
    seen: dict = {}
    for elem, image in pairs:
        other = seen.setdefault(image, elem)
        if other is not elem:
            return other, elem, image
    return None


def check_square(s: Square) -> CospanResult:
    """Is the commuting square s a pullback (comparison map W -> X x_Z Y
    bijective) or a weak pullback (surjective)? Names the first two
    elements of W with one image as `conflated`, and the first pullback
    element that no element of W reaches as `missing`. A square that
    `square_violation` rejects raises `LimitError`."""
    bad = square_violation(s)
    if bad is not None:
        raise LimitError(bad)
    images = [(s.p.assign[w], s.q.assign[w]) for w in s.p.dom]
    conflated = _first_collision(zip(s.p.dom, images))
    hit = set(images)
    target, _, _ = pullback_sets(s.f, s.g)
    missing = next((t for t in target if t not in hit), None)
    return CospanResult(conflated is None and missing is None, missing is None,
                        conflated, missing)


def check_cospan(F, f: FinSetMap, g: FinSetMap) -> CospanResult:
    """Compare F(pullback) with the pullback of the F-images, F being a
    functor's action on maps: `check_square` on the F-image of the
    pullback square of f and g."""
    _, p1, p2 = pullback_sets(f, g)
    return check_square(Square(F(p1), F(p2), F(f), F(g)))


def set_cospans(max_size: int):
    """Every cospan of sets {0..a-1} -> {0..c-1} <- {0..b-1} with sizes
    bounded by max_size (empty cospans included)."""
    out = []
    for c in range(max_size + 1):
        z = tuple(range(c))
        for a in range(max_size + 1):
            x = tuple(range(a))
            fs = [make_finset_map(x, z, dict(zip(x, img)))
                  for img in itertools.product(z, repeat=a)]
            for b in range(max_size + 1):
                y = tuple(range(b))
                gs = [make_finset_map(y, z, dict(zip(y, img)))
                      for img in itertools.product(z, repeat=b)]
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
    """All graph maps x -> z (edge instances mapped individually), in
    increasing order of `(vmap, emap)`."""
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


def graph_paths(g: GraphData, max_len: int) -> list[tuple[int, tuple[int, ...]]]:
    """Composable edge sequences with their start vertex, length <= max_len,
    in the order of g's `path_tree`: shortest first, each path after the
    path it extends.

    These are exactly the cells of the free category on g, length 0 paths
    standing for the identities."""
    paths = [(v, ()) for v in range(g.nv)]
    for parent, edge in path_tree(g, max_len).steps:
        start, es = paths[parent]
        paths.append((start, es + (edge,)))
    return paths


def path_image(m: GraphMap, path):
    start, es = path
    return m.vmap[start], tuple(m.emap[e] for e in es)


class PathTree(NamedTuple):
    """The paths of a graph, shortest first, as a tree: the path of
    length 0 at vertex v is path v, and each longer path extends an
    earlier one by its last edge. `graph_paths` lists them in this order."""

    steps: list  # per path of length >= 1, in order: (parent path, last edge)
    ext: list  # per path, {edge: the index of the path extended by it}


def path_tree(g: GraphData, max_len: int) -> PathTree:
    """The `PathTree` of the paths of g of length <= max_len."""
    by_src: dict[int, list[int]] = {}
    for e, (s, _) in enumerate(g.edges):
        by_src.setdefault(s, []).append(e)
    steps: list = []
    ext: list = [{} for _ in range(g.nv)]
    frontier = [(v, v) for v in range(g.nv)]  # (path, its end vertex)
    for _ in range(max_len):
        nxt = []
        for p, at in frontier:
            for e in by_src.get(at, ()):
                steps.append((p, e))
                ext[p][e] = len(ext)
                nxt.append((len(ext), g.edges[e][1]))
                ext.append({})
        frontier = nxt
    return PathTree(steps, ext)


def path_fibers(tree_x: PathTree, m: GraphMap, tree_z: PathTree) -> list:
    """For each path of x, the index of its image under m: x -> z among
    the paths of z, `tree_x` and `tree_z` being their path trees. The
    image of a path is the image of its parent extended by the image of
    its last edge, so the walk reads one extension per path of x, parents
    first."""
    ext, emap = tree_z.ext, m.emap
    fibers = list(m.vmap)
    for parent, edge in tree_x.steps:
        fibers.append(ext[fibers[parent]][emap[edge]])
    return fibers


def check_path_cospan(x: GraphData, y: GraphData, f: GraphMap, g: GraphMap,
                      max_len: int, pullback, expected: int) -> CospanResult:
    """Does the bounded free-category functor turn this graph cospan's
    pullback square into a pullback of path sets?

    The checker checks what it is handed. `pullback` is the cospan's
    pullback as `_pullback_vertices` and `_pullback_edges` build it (flat
    vertex ids `i * |Y| + j`, edges `(u, w, a, b)`), and `expected` the number of matching pairs of
    paths of x and y; the sweep builds both from its legs. A passing
    result depends only on `pullback`, `expected` and `max_len`, since x,
    y, f and g are read only to find a failure's witness, and it is
    invariant under an injective relabeling of the pullback's vertices. So
    a sweep stores a passing check's path count under its pullback code,
    which names the pullback up to such a relabeling, and every other
    checked cospan with that code and that count reuses the passing
    verdict.

    Every path of the pullback is enumerated once by `_path_keys`, keyed
    by its pair of projections; the number of paths it finds is `paths`,
    which the sweep takes as the cospan's path count instead of counting
    again. Only a failure enumerates the paths again, by `_pullback_paths`,
    to find its witness: two paths with one key are a `conflated` pair, and
    fewer distinct keys than `expected` fail surjectivity, a `missing`
    matching pair then being searched for by brute force among those whose
    projections no path has."""
    verts, pedges = pullback
    total, seen = _path_keys(verts, pedges, max_len)
    conflated = None
    if len(seen) < total:
        conflated = _first_conflation(verts, pedges, y.nv, max_len)
    ok_surj = len(seen) == expected
    missing = None if ok_surj else _first_missing(
        x, y, f, g, max_len,
        {pair for _, pair in _pullback_paths(verts, pedges, y.nv, max_len)})
    return CospanResult(conflated is None and ok_surj, ok_surj, conflated,
                        missing, total)


def _path_keys(verts, pedges, max_len: int) -> tuple[int, set]:
    """The number of paths of length <= max_len of the pullback with
    vertices `verts` and edges `pedges`, and the set of their flat keys.
    A path of length 0 is keyed by its vertex id, a longer one by
    `(start, a1, b1, ..., ak, bk)`, its start and the edges of its two
    projections. An int never equals a tuple, and tuples of different
    lengths never do, so two paths share a key only if they share their
    projections."""
    total = len(verts)
    seen = set(verts)
    if not pedges or not max_len:
        return total, seen
    out_of: dict = {}
    for u, w, a, b in pedges:
        out_of.setdefault(u, []).append((w, a, b))
    # (end vertex, key) for each path of length >= 1, one length at a time
    level = [(w, (v, a, b)) for v in verts if v in out_of
             for w, a, b in out_of[v]]
    length = 1
    while level:
        total += len(level)
        seen.update(map(itemgetter(1), level))
        if length == max_len:
            break
        length += 1
        level = [(w, key + (a, b)) for at, key in level if at in out_of
                 for w, a, b in out_of[at]]
    return total, seen


def _first_missing(x: GraphData, y: GraphData, f: GraphMap, g: GraphMap,
                   max_len: int, pairs: set) -> tuple | None:
    """The first matching pair of paths of x and y, by brute force, that is
    not in `pairs`, the projection pairs of the pullback's paths."""
    for px_ in graph_paths(x, max_len):
        for py_ in graph_paths(y, max_len):
            if (path_image(f, px_) == path_image(g, py_)
                    and (px_, py_) not in pairs):
                return px_, py_
    return None


def _pullback_paths(verts, pedges, yn: int, max_len: int):
    """Each path of length <= max_len of the pullback with vertices `verts`
    and edges `pedges` (flat vertex ids `i * yn + j`), shortest first, as
    `(path, (px, py))`: the path as `(start, pullback edge indices)`, its
    projections to x and y as `(start, edges)`. A vertex or edge listed
    twice makes a second path object."""
    out_of: dict = {}
    for n, (u, w, a, b) in enumerate(pedges):
        out_of.setdefault(u, []).append((n, w, a, b))
    # (end vertex, path of P, its projection to x, its projection to y)
    level = [(v, (v, ()), (v // yn, ()), (v % yn, ())) for v in verts]
    for _ in range(max_len + 1):
        for _, path, px, py in level:
            yield path, (px, py)
        level = [(w, (path[0], path[1] + (n,)), (px[0], px[1] + (a,)),
                  (py[0], py[1] + (b,)))
                 for at, path, px, py in level for n, w, a, b in out_of.get(at, ())]


def _first_conflation(verts, pedges, yn: int, max_len: int) -> tuple:
    """The first two paths of the pullback, in the order `_pullback_paths`
    yields them, with the same pair of projections: `(first, second, (px,
    py))`. A vertex or edge listed twice makes a second path object, which
    `_first_collision` tells apart by identity."""
    found = _first_collision(_pullback_paths(verts, pedges, yn, max_len))
    if found is None:
        raise LimitError("no two paths of the pullback share their projections")
    return found


def _hom_key(m: GraphMap, nv: int) -> tuple:
    """A graph map m: x -> z as one tuple, `nv` being the number of
    vertices of z: the images of the vertices of x, then `nv` plus the
    images of its edges. The keys of the maps out of one x compare as
    their `(vmap, emap)` pairs do, and for an automorphism a of z the key
    of a . m is `key(a)` read at each entry of `key(m)`."""
    return m.vmap + tuple([nv + e for e in m.emap])


# A fiber lane holds one matching-pair count. `_FIBER_TYPE` is an unsigned
# array type of that width, looked up by its itemsize, which C leaves open.
_FIBER_BITS = 32
_FIBER_TYPE = next(t for t in "IL" if array(t).itemsize * 8 == _FIBER_BITS)


def _lane_widths(max_v: int, max_e: int, path_len: int) -> tuple[int, int]:
    """The widths in bytes of a fiber lane and of a code lane of the sweep
    within these bounds.

    A graph within the bounds has at most `max_v + max_e + ... +
    max_e ** path_len` paths, reached by `max_e` loops at one vertex, so
    a matching-pair count, at most the product of two legs' path counts,
    stays below that bound squared. `LimitError` when the square does not
    fit `_FIBER_BITS`. A code sets bits below `V * V + S * S` (see `_Leg`)."""
    most = max_v + sum(max_e ** k for k in range(1, path_len + 1)) if max_v else 0
    if most * most >> _FIBER_BITS:
        raise LimitError(f"graph bounds ({max_v}, {max_e}) at path length "
                         f"{path_len} allow {most} paths in one graph, so up to "
                         f"{most * most} matching pairs, which do not fit in "
                         f"{_FIBER_BITS} bits")
    span = max_v * max_v * max_e
    return _FIBER_BITS // 8, (max_v * max_v + span * span + 7) // 8 or 1


class _Leg(NamedTuple):
    """What the sweep precomputes once per graph map x -> z.

    `fibers` lists, for each path of x, the index of its image among the
    paths of z (`path_fibers`), so a path of z appears once per path of x
    over it; summing any per-path-of-z values over `fibers` weighs each by
    the fiber.

    A cospan's pullback code is laid out from the buckets. With V = max_v,
    E = max_e and S = V * V * E, a vertex pair (i, j) is bit `i * V + j`,
    and an edge pair (a, b) is bit `V * V + code(a) * S + code(b)`, where
    `code(e) = (s * V + t) * E + e` for an edge e: s -> t. As the right
    leg g, a vertex k of z contributes the bits `1 << j` of the vertices j
    over k, and an edge k the bits `1 << code(b)` of the edges b over k;
    as the left leg f, a vertex i over k shifts that contribution by
    `i * V`, and an edge a over k by `V * V + code(a) * S`. Two pairs over
    different elements of z never share a bit, so the code is exactly the
    set of the pullback's vertex pairs and of its edge pairs with their
    endpoints, below bit `V * V + S * S`. `bits` holds the leg's
    contribution as g, per vertex, then edge, of z, built once per leg for
    every row that packs it (`_pack_row`)."""

    verts: list  # per vertex of z, the vertices of x over it
    edges: list  # per edge of z, the edges (a, s, t) of x over it (index, ends)
    fibers: list  # per path of x, the index of its image among z's paths
    bits: list  # per vertex, then edge, of z, its code bits as the right leg


def _leg(x: GraphData, tree_x: PathTree, m: GraphMap, z: GraphData,
         tree_z: PathTree, max_v: int, max_e: int) -> _Leg:
    """The leg of m: x -> z, `tree_x` and `tree_z` being the path trees
    of x and z, and (`max_v`, `max_e`) the sweep's graph bounds."""
    nv = z.nv
    verts: list = [[] for _ in range(nv)]
    bits = [0] * (nv + len(z.edges))
    for j, k in enumerate(m.vmap):
        verts[k].append(j)
        bits[k] |= 1 << j
    edges: list = [[] for _ in z.edges]
    for b, k in enumerate(m.emap):
        s, t = x.edges[b]
        edges[k].append((b, s, t))
        bits[nv + k] |= 1 << ((s * max_v + t) * max_e + b)
    return _Leg(verts, edges, path_fibers(tree_x, m, tree_z), bits)


class _Row(NamedTuple):
    """The right legs of one row of cospans, packed into lanes.

    `lanes` lists `(y, g, leg_g)` in cospan order; lane j is its j-th g.
    Each path p of z has a fiber column, an int whose 32-bit lane j holds
    g_j's fiber over p. Each vertex, then edge, of z has a code column,
    whose lane j holds g_j's code bits (see `_Leg`)."""

    lanes: list
    fibers: list  # per path of z, its fiber column
    codes: list  # per vertex, then edge, of z, its code column


def _pack_row(lanes: list, npaths: int, fiber_bytes: int, code_bytes: int) -> _Row:
    """The `_Row` of the legs in `lanes`, among `npaths` paths of z."""
    legs = [leg for _, _, leg in lanes]
    n = len(legs)
    counts = array(_FIBER_TYPE, bytes(fiber_bytes * n * npaths))
    for j, leg in enumerate(legs):
        for p in leg.fibers:
            counts[p * n + j] += 1
    order = sys.byteorder
    fibers = [int.from_bytes(counts[p * n:(p + 1) * n].tobytes(), order)
              for p in range(npaths)]
    codes = [int.from_bytes(b"".join(c.to_bytes(code_bytes, order) for c in column),
                            order) for column in zip(*(leg.bits for leg in legs))]
    return _Row(lanes, fibers, codes)


def _row_lanes(leg_f: _Leg, row: _Row, max_v: int, max_e: int,
               lane_bytes: tuple[int, int]) -> tuple[list, list]:
    """The matching-pair count and the pullback code of each cospan of f's
    row, `lane_bytes` being the lane widths. Lane j of the sum of the
    fiber columns over f's `fibers` is the dot product of f's and g_j's
    path fibers; lane j of the sum of the code columns, each shifted by
    f's bit for a vertex or edge over it (see `_Leg`), is g_j's code with
    f, returned as that lane's bytes, `code_bytes` of them, in the
    machine's byte order. A lane's terms are nonnegative and their sum fits
    the lane (`_lane_widths`), so no lane carries into the next."""
    fiber_bytes, code_bytes = lane_bytes
    order = sys.byteorder
    n = len(row.lanes)
    counts = sum(map(row.fibers.__getitem__, leg_f.fibers))
    counts = array(_FIBER_TYPE, counts.to_bytes(fiber_bytes * n, order)).tolist()
    square, span = max_v * max_v, max_v * max_v * max_e
    nv = len(leg_f.verts)
    codes = (sum(row.codes[k] << (i * max_v)
                 for k, vs in enumerate(leg_f.verts) for i in vs)
             + sum(row.codes[nv + k] << (square + ((s * max_v + t) * max_e + a) * span)
                   for k, es in enumerate(leg_f.edges) for a, s, t in es))
    raw = codes.to_bytes(code_bytes * n, order)
    return counts, list(map(itemgetter(0), iter_unpack(f"{code_bytes}s", raw)))


def _cospan_orbits(max_v: int, max_e: int, path_len: int):
    """Graph cospans X -> Z <- Y within the bounds, X, Y, Z ranging over
    isomorphism-class representatives, one per orbit of Aut(Z) acting by
    postcomposition, in one row per Z and representative f.

    Double-coset enumeration: f is an Aut(Z)-orbit representative, g a
    representative under the stabilizer of f. Pullback comparisons are
    invariant under the action, so no outcome is lost. Each (Z, X, f) is
    yielded once, as `(z, x, f, leg_f, row)`, `row` a `_Row` holding every
    cospan of f over every Y in order; numbered from 1 in this order, they
    are the sweep's cospans c.

    The path tree of each graph is built once, and once per hom into Z its
    `_Leg`. A representative f is the least hom of its orbit by
    `_hom_key`, and `graph_homs` lists the homs out of each X in that
    order, so the first hom met of each orbit is its representative: only
    a representative's key is postcomposed with every automorphism of Z,
    which lists its orbit (the homs met later are skipped) and its
    stabilizer. Within one Z, the representatives g depend on f only
    through its stabilizer, so each stabilizer packs its row once and
    every f with that stabilizer shares it; a trivial stabilizer's row
    lists every hom g into Z."""
    lane_bytes = _lane_widths(max_v, max_e, path_len)
    graphs = enumerate_graphs(max_v, max_e)
    trees = [path_tree(x, path_len) for x in graphs]
    for z, tree_z in zip(graphs, trees):
        auts = [_hom_key(a, z.nv) for a in graph_automorphisms(z)]  # identity first
        side = []  # per X: its homs into z as (hom, leg, key)
        for x, tree_x in zip(graphs, trees):
            side.append((x, [(m, _leg(x, tree_x, m, z, tree_z, max_v, max_e),
                              _hom_key(m, z.nv))
                             for m in graph_homs(x, z)]))
        rows: dict = {}  # stabilizer -> its row
        for x, members in side:
            met: set = set()  # the keys of the orbits met so far
            for f, leg_f, kf in members:
                if kf in met:
                    continue
                orbit = [tuple([a[i] for i in kf]) for a in auts]
                met.update(orbit)
                stab = tuple(n for n, k in enumerate(orbit) if k == kf)[1:]
                row = rows.get(stab)
                if row is None:
                    lanes = [(y, g, leg_g) for y, members_y in side
                             for g, leg_g, kg in members_y
                             if all(kg <= tuple([auts[n][i] for i in kg]) for n in stab)]
                    row = rows[stab] = _pack_row(lanes, len(tree_z.ext), *lane_bytes)
                yield z, x, f, leg_f, row


@dataclass
class PathPreservationSummary:
    """Outcome of the exhaustive free-category pullback-preservation run."""

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

    Each cospan's pullback graph has its cells counted and compared with
    the matching-pair count, the dot product of the two legs' path fibers,
    computed independently. A path of the pullback graph is a componentwise
    pair of paths, so it is determined by its two projections; the
    comparison map is therefore injective and the count identity decides
    the pullback. The injectivity embedding itself is re-verified by the
    generic enumerating checker on every cospan whose number c (from 1, in
    orbit order) has `c % generic_stride == 0` (0 disables the slice). On
    such a checked cospan the cells are counted by the checker's
    enumeration (`paths`); on every other cospan by dynamic programming,
    the vertices from the legs' vertex buckets and then one pass over the
    pullback's edges, the product of the legs' edge buckets, per length.
    Either count goes into `count_failures` the same way.

    Each cospan's pullback is named by its code (see `_Leg`), the bytes of
    its code lane, all of one width, which key the reuse dicts. The code
    fixes the pullback's vertex pairs and its edge pairs with their
    endpoints, so it names the flat pullback up to the injective
    relabeling (i, j) -> i * |Y| + j. The checker's passing verdict and its
    path count are invariant under such a relabeling, and so is the DP's
    count. Hence:

    - a passing check stores its path count, equal to its matching-pair
      count, under its code, and a checked cospan with that code is
      settled when its own matching-pair count equals the stored one; any
      other gets its own checker call. The checker reads x, y, f, g and
      `y.nv` only to find a failure's witness, and a failing result is
      never reused: every failing cospan gets its own checker call and its
      own witness;
    - an unchecked cospan whose code has already been counted reuses the
      DP's count.

    The sweep takes one row of cospans, every cospan of one f, at a time,
    and `_row_lanes` gives the counts and codes of the whole row at once,
    a count still the dot product of that cospan's own path fibers,
    independent of the DP and of the code. A row whose every cospan finds
    its count reused and equal to its matching-pair count is settled
    without further work. Any other row is walked a cospan at a time,
    reading the reuse dicts again, so a cospan reuses what an earlier one
    of its row found. Both dicts live for one call only. The sweep runs in
    the caller, in cospan order, so the failures are listed in cospan
    order. Bounds whose matching-pair counts could overflow a lane raise
    `LimitError`.

    This is the only pullback-preservation sweep: the topos gate at n = 1, 2
    runs it with `generic_stride=1`, acceptance criterion 5 with a stride.
    """
    lane_bytes = _lane_widths(max_v, max_e, path_len)
    stride = generic_stride
    cospans = 0
    pairs_total = 0
    count_failures: list = []
    generic_checked = 0
    generic_failures: list = []
    passed: dict = {}  # code -> paths, of each passing check
    counted: dict = {}  # code -> paths, of each DP count
    for z, x, f, leg_f, row in _cospan_orbits(max_v, max_e, path_len):
        counts, codes = _row_lanes(leg_f, row, max_v, max_e, lane_bytes)
        n = len(counts)
        # the lanes j of the checked cospans c = cospans + 1 + j
        checked = slice((-cospans - 1) % stride, None, stride) if stride else slice(0)
        totals = list(map(counted.get, codes))
        totals[checked] = map(passed.get, codes[checked])
        # only the lanes that missed or disagree; the others stay settled
        for j in itertools.compress(range(n), map(ne, totals, counts)):
            y, g, leg_g = row.lanes[j]
            expected, code = counts[j], codes[j]
            if stride and (cospans + 1 + j) % stride == 0:
                # the checker enumerates every path of the pullback;
                # its count stands in for the DP's
                total = passed.get(code)
                if total != expected:
                    res = check_path_cospan(
                        x, y, f, g, path_len,
                        (_pullback_vertices(y.nv, leg_f.verts, leg_g.verts),
                         _pullback_edges(y.nv, leg_f.edges, leg_g.edges)),
                        expected)
                    if res.pullback_ok:
                        passed[code] = res.paths
                    else:
                        generic_failures.append((z, x, y, f, g, res))
                    total = res.paths
            else:
                total = counted.get(code)
                if total is None:
                    total = counted[code] = _dp_paths(x, y, leg_f, leg_g, path_len)
            if total != expected:
                count_failures.append(
                    (z, x, y, f, g, {"F_P": total, "pairs": expected}))
        cospans += n
        pairs_total += sum(counts)
        generic_checked += len(range(n)[checked])
    return PathPreservationSummary(cospans, pairs_total, count_failures,
                                   generic_checked, generic_failures)


def _dp_paths(x: GraphData, y: GraphData, leg_f: _Leg, leg_g: _Leg,
              path_len: int) -> int:
    """The paths of the pullback graph, counted by DP: the vertices from
    the legs' vertex buckets, then one pass over the edges per length;
    every edge starts at a pullback vertex, so the first pass may read all
    ones."""
    pedges = _pullback_edges(y.nv, leg_f.edges, leg_g.edges)
    total = sum(len(vx) * len(vy) for vx, vy in zip(leg_f.verts, leg_g.verts))
    if pedges:
        cur = [1] * (x.nv * y.nv)
        for _ in range(path_len):
            nxt = [0] * len(cur)
            for u, w, _a, _b in pedges:
                nxt[w] += cur[u]
            level = sum(nxt)
            if not level:
                break
            total += level
            cur = nxt
    return total


# --- the topos gate ----------------------------------------------------------------


@dataclass
class GateReport:
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


def _slice_row(k: int, bounds: Bounds) -> dict:
    """Slice k of the strict monad on three generators at size 3, within
    the term budget of `bounds`: its arities 0..3 as `operads.slice_arities`
    reads them, and whether Sigma_n acts freely at every one."""
    arities = operads.slice_arities(
        operads.slice_of_strict(k, ["x0", "x1", "x2"], replace(bounds, size=3)))
    return {"k": k, "arities": arities, "free": all(a["free"] for a in arities)}


def _class_map(fa_dom: cpd.FreeAlgebra, fa_cod: cpd.FreeAlgebra,
               m: cpd.ComputadMap, r: int) -> FinSetMap:
    """The free functor's action of m on r-cells, as a set map between the
    class indices of the two algebras."""
    return make_finset_map(range(fa_dom.levels[r].n_classes),
                           range(fa_cod.levels[r].n_classes),
                           dict(enumerate(cpd.induced_class_map(fa_dom, fa_cod, m, r))))


def _scalar_cospan_experiment(k: int, bounds: Bounds) -> tuple[list[dict], dict | None]:
    """Push the pullback square of the scalar k-computad cospan {a,b} ->
    {z} <- {a,b} through the free-algebra engine and decide it on
    k-classes by `check_square`: its first conflated pair of classes of
    F(P), or its first pair of classes of F(X) over one class of F(Z) that
    no class of F(P) reaches, is the witness, and the cospan is replayed
    through the multiset functor on plain sets."""
    cx = operads.k_terminal_computad(k, ["a", "b"])
    cz = operads.k_terminal_computad(k, ["z"])
    fa_z = cpd.free_algebra(cz, bounds)
    fmap = cpd.ComputadMap(cx, cz, {"o": "o", "a": "z", "b": "z"})
    pb = cpd.pullback_computads(fmap, fmap, bounds)
    fa_p, fa_x = pb.free, pb.free_dom
    ff = _class_map(fa_x, fa_z, fmap, k)
    res = check_square(Square(_class_map(fa_p, fa_x, pb.proj1, k),
                              _class_map(fa_p, fa_x, pb.proj2, k), ff, ff))
    lv, reps_x = fa_p.levels[k], fa_x.levels[k].reps
    records = [{"experiment": f"engine: free {k}-category on the scalar pullback computad",
                "classes_in_F_P": lv.n_classes,
                "pairs_in_target": len(pullback_sets(ff, ff)[0]),
                "is_pullback": res.pullback_ok,
                "is_weak_pullback": res.weak_ok}]
    if res.pullback_ok:
        return records, None
    # independent replay through the multiset functor on plain sets
    f = make_finset_map(("a", "b"), ("z",), lambda _: "z")
    replay = check_cospan(multiset_functor(bounds.size), f, f)
    records.append(
        {"experiment": "oracle: multiset functor on the set cospan",
         "functor": "multiset",
         "is_pullback": replay.pullback_ok,
         "is_weak_pullback": replay.weak_ok,
         "conflated": [list(map(list, replay.conflated[:2])),
                       list(map(list, replay.conflated[2]))]
         if replay.conflated else None})
    if res.conflated is None:
        pair = {"missing": [reps_x[c] for c in res.missing]}
    else:
        a, b, key = res.conflated
        pair = {"left_class": lv.reps[a], "left_multiset": list(lv.msets[a]),
                "right_class": lv.reps[b], "right_multiset": list(lv.msets[b]),
                "common_image": [reps_x[c] for c in key]}
    return records, {
        **pair,
        "pullback_generators": pb.computad.names(k),
        "oracle_replay_conflates": replay.conflated is not None,
        "oracle_replay_weak": replay.weak_ok,
    }


def _jsonable(x):
    """Tuples as lists, all the way down, for a JSON report."""
    return [_jsonable(y) for y in x] if isinstance(x, (tuple, list)) else x


def _set_witness(experiment: str, f: FinSetMap, g: FinSetMap,
                 res: CospanResult) -> dict:
    """A failing set cospan {0..a-1} -> {0..c-1} <- {0..b-1}: the legs as
    lists of images, and the functor's conflated pair or missing element."""
    return {"experiment": experiment, "z": len(f.cod),
            "f": [f.assign[v] for v in f.dom], "g": [g.assign[v] for v in g.dom],
            "conflated": _jsonable(res.conflated), "missing": _jsonable(res.missing)}


def _graph_witness(experiment: str, summary: PathPreservationSummary) -> dict:
    """The first cospan the checker failed, in a sweep that checked every
    cospan: the graphs z, x and y, the legs f and g as vertex and edge
    maps, its path count F_P against the matching pairs when those differ,
    and the checker's conflated pair or missing matching pair."""
    first = summary.generic_failures[0]
    z, x, y, f, g, res = first
    witness = {"experiment": experiment}
    witness.update((name, {"vertices": gr.nv, "edges": _jsonable(gr.edges)})
                   for name, gr in (("z", z), ("x", x), ("y", y)))
    witness.update((name, {"vertices": list(m.vmap), "edges": list(m.emap)})
                   for name, m in (("f", f), ("g", g)))
    witness.update(next((counts for *cospan, counts in summary.count_failures
                         if tuple(cospan) == first[:5]), {}))
    witness.update(conflated=_jsonable(res.conflated), missing=_jsonable(res.missing))
    return witness


def _list_experiment(max_len: int) -> tuple[list[dict], dict | None]:
    """The list functor on every set cospan of sets of size <= 2; with the
    witness of the first failing cospan, if any."""
    F = list_functor(max_len)
    name = "list functor (first slice) on set cospans"
    cospans = set_cospans(2)
    results = [check_cospan(F, f, g) for f, g in cospans]
    witness = next((_set_witness(name, f, g, r) for (f, g), r in zip(cospans, results)
                    if not r.pullback_ok), None)
    return [{"experiment": name, "cospans": len(results),
             "all_pullback": all(r.pullback_ok for r in results),
             "all_weak": all(r.weak_ok for r in results)}], witness


# the largest number of vertices plus edges the gate's graph bounds may
# allow, since the cospan count grows fast in both: at path length 3, (5, 1)
# took 6.3 s, (4, 2) 4.1 s, (3, 3) 10.9 s, (2, 4) 20.6 s and (1, 5) 9.7 s,
# while (4, 3) had not finished after 7.5 minutes at path length 1 (2-core
# VM, Python 3.11)
MAX_GRAPH_SIZE = 6


def _path_experiment(graph_bounds: tuple[int, int],
                     path_len: int) -> tuple[list[dict], dict | None]:
    """The free-category functor on every graph cospan within the bounds,
    each one checked by the generic checker, whose path count stands in for
    the path-count DP's; with the witness of the first failing cospan, if
    any. Every cospan is checked, so every cospan whose count fails is
    among the checker's failures too."""
    if path_len < 1:
        raise LimitError(f"path length {path_len} checks only identities; "
                         "the gate needs path length >= 1")
    if min(graph_bounds) < 1:
        raise LimitError(f"graph bounds {tuple(graph_bounds)} admit no edge, "
                         "so every path is an identity; the gate needs at "
                         "least 1 vertex and 1 edge")
    if sum(graph_bounds) > MAX_GRAPH_SIZE:
        raise LimitError(f"graph bounds {tuple(graph_bounds)} allow more than "
                         f"{MAX_GRAPH_SIZE} vertices and edges together")
    summary = run_path_preservation(*graph_bounds, path_len, generic_stride=1)
    name = "free category (path) functor on graph cospans"
    return [{
        "experiment": name,
        "cospans": summary.cospans,
        "all_pullback": summary.all_pullback,
        "all_weak": all(res.weak_ok for *_, res in summary.generic_failures),
    }], _graph_witness(name, summary) if summary.generic_failures else None


# the largest dimension the gate answers: the engine square at k = n - 1
# saturates k + 1 levels of each algebra, and the report has n - 1 slice
# rows, so the cost grows with n; at the default size 4, n = 4 took 0.05 s,
# n = 5 0.13 s, n = 13 0.76 s (0.29 s at size 2) and n = 16 1.6 s (2-core VM,
# Python 3.11)
MAX_GATE_N = 13


def computad_topos_gate(n: int, bounds: Bounds = Bounds(),
                        graph_bounds: tuple[int, int] = (2, 2),
                        path_len: int = 3) -> GateReport:
    """The decisive finite experiments for the strict-category monad.

    Each experiment returns its records and the witness of its first
    failure, or None; the verdict is a counterexample with the first
    witness found, and a pass within the bounds (bounded evidence for the
    presheaf property) when there is none. n = 1, 2: the free category
    functor on graph cospans, through `run_path_preservation`, the same
    sweep acceptance criterion 5 runs, here with the generic checker on
    every cospan; at n = 2 the list functor on set cospans first. Graph
    bounds below 1 vertex or 1 edge, or `path_len < 1`, raise `LimitError`:
    a pass over zero cases, or over identities only, is not evidence.
    n >= 3: the engine's square on the k-classes, k = n - 1, of the scalar
    pullback computad, decided by `check_square`; the map {a, b} -> {z} is
    the same at every k. The expected witness has size 2, so the engine
    runs at `max(bounds.size, 2)`, the size the report gives, and a larger
    size shows that it persists. n outside 1..`MAX_GATE_N` raises
    `LimitError`.

    The slice rows are computed, one per slice k = 1..n-1 of the strict
    monad, each from one saturation at size 3 within the term budget of
    `bounds`: at each arity, the slice's elements, its Sigma_n-orbits, and
    whether Sigma_n acts freely, the condition for its analytic functor to
    preserve pullbacks. The 0-th slice is the identity monad's collection,
    one element at arity 1, so it needs no row.

    The report's `bounds` names only what the experiments of this n read:
    `graph_bounds` and `path_len` at n = 1, 2, and `size` at n >= 3."""
    if not 1 <= n <= MAX_GATE_N:
        raise LimitError(f"unsupported gate dimension {n}; supported: 1 to {MAX_GATE_N}")
    if n >= 3:
        bounds = replace(bounds, size=max(bounds.size, 2))
        runs = [_scalar_cospan_experiment(n - 1, bounds)]
    else:
        runs = ([_list_experiment(path_len)] if n == 2 else []) + [
            _path_experiment(graph_bounds, path_len)]
    experiments = [record for records, _ in runs for record in records]
    witness = next((w for _, w in runs if w is not None), None)
    verdict, wording = (("pass-within-bounds", _PASS_WORDING) if witness is None
                        else ("counterexample", _FAIL_WORDING))
    read = ({"size": bounds.size} if n >= 3
            else {"graph_bounds": list(graph_bounds), "path_len": path_len})
    return GateReport(verdict, wording, [_slice_row(k, bounds) for k in range(1, n)],
                      experiments, witness, read)
