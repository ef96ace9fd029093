import dataclasses
import gc
import itertools
import json
import math
import random
import sys
import tracemalloc
from importlib import resources
from operator import itemgetter, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from computadlab import computads, limitlab
from computadlab.freecat import Bounds, Gen
from computadlab.limitlab import (
    CospanResult, FinSetMap, GraphData, GraphMap, LimitError, Square,
    _cospan_orbits, canonical_graph, check_cospan, check_path_cospan, check_square,
    computad_topos_gate, enumerate_graphs, graph_automorphisms,
    graph_homs, graph_paths, list_functor, make_finset_map,
    multiset_functor, path_fibers, path_image, path_tree,
    pullback_sets, run_path_preservation,
    set_cospans,
)
from computadlab.operads import is_strongly_regular_presentation, parse_presentation
from oracles import map_violation, path_image_counts

# --- pullbacks of finite sets -----------------------------------------------------


def test_pullback_of_identities_is_diagonal():
    i = make_finset_map(("a", "b"), ("a", "b"), {"a": "a", "b": "b"})
    elems, _, _ = pullback_sets(i, i)
    assert set(elems) == {("a", "a"), ("b", "b")}


def test_pullback_over_point_is_product():
    f = make_finset_map(("a", "b"), ("*",), lambda _: "*")
    g = make_finset_map(("c", "d"), ("*",), lambda _: "*")
    elems, _, _ = pullback_sets(f, g)
    assert len(elems) == 4


def test_pullback_disjoint_images_empty():
    f = make_finset_map(("a",), ("0", "1"), {"a": "0"})
    g = make_finset_map(("b",), ("0", "1"), {"b": "1"})
    elems, _, _ = pullback_sets(f, g)
    assert elems == ()


def _pullback_square(f, g):
    elems, p1, p2 = pullback_sets(f, g)
    return Square(p1, p2, f, g)


def test_is_pullback_on_constructed_square():
    f = make_finset_map(("a", "b"), ("*",), lambda _: "*")
    assert check_square(_pullback_square(f, f)) == CospanResult(True, True)


def test_is_pullback_fails_on_proper_subset():
    f = make_finset_map(("a", "b"), ("*",), lambda _: "*")
    elems, p1, p2 = pullback_sets(f, f)
    sub = elems[:-1]
    s = Square(FinSetMap(sub, f.dom, {e: e[0] for e in sub}),
               FinSetMap(sub, f.dom, {e: e[1] for e in sub}), f, f)
    res = check_square(s)
    assert not res.pullback_ok and not res.weak_ok and res.conflated is None
    assert res.missing == elems[-1]


def test_weak_but_not_pullback_with_junk():
    f = make_finset_map(("a", "b"), ("*",), lambda _: "*")
    elems, _, _ = pullback_sets(f, f)
    fat = elems + (("extra", "extra"),)
    assign1 = {e: e[0] for e in elems} | {("extra", "extra"): "a"}
    assign2 = {e: e[1] for e in elems} | {("extra", "extra"): "a"}
    s = Square(FinSetMap(fat, f.dom, assign1), FinSetMap(fat, f.dom, assign2),
               f, f)
    res = check_square(s)
    assert res.weak_ok and not res.pullback_ok and res.missing is None
    # the junk element lands on the first pullback element
    assert res.conflated == (("a", "a"), ("extra", "extra"), ("a", "a"))


def test_noncommuting_square_rejected():
    f = make_finset_map(("a",), ("0", "1"), {"a": "0"})
    g = make_finset_map(("a",), ("0", "1"), {"a": "1"})
    i = make_finset_map(("a",), ("a",), {"a": "a"})
    s = Square(i, i, f, g)
    with pytest.raises(LimitError, match="does not commute"):
        check_square(s)


@pytest.mark.parametrize("assign, phrase", [
    ({"a": "z"}, "map undefined on 'b'"),
    ({"a": "z", "b": "w"}, "image of 'b' is outside the codomain"),
], ids=["undefined", "outside"])
def test_a_finset_map_that_is_not_total_is_refused(assign, phrase):
    with pytest.raises(LimitError, match=phrase):
        make_finset_map(("a", "b"), ("z",), assign)


def test_squares_of_the_wrong_shape_are_refused():
    i = make_finset_map(("a",), ("a",), {"a": "a"})
    j = make_finset_map(("b",), ("a",), {"b": "a"})
    f = make_finset_map(("a",), ("z",), {"a": "z"})
    g = make_finset_map(("c",), ("z",), {"c": "z"})
    h = make_finset_map(("a",), ("y",), {"a": "y"})
    for square, phrase in [(Square(i, j, f, f), "p and q have different domains"),
                           (Square(i, i, g, f), "legs do not match the cospan"),
                           (Square(i, i, f, h), "cospan has no common codomain")]:
        with pytest.raises(LimitError, match=phrase):
            check_square(square)


def test_pullback_implies_weak_on_random_squares():
    """The pullback square passes; a square through a random map h from W
    to the pullback is a pullback iff h is bijective, and a weak one iff
    h is surjective, with the first repeated and the first missed element
    of h as its witnesses."""
    rng = random.Random(13)
    for _ in range(25):
        nz = rng.randint(1, 3)
        z = tuple(range(nz))
        x = tuple(range(rng.randint(0, 3)))
        y = tuple(range(rng.randint(0, 3)))
        f = make_finset_map(x, z, {i: rng.randrange(nz) for i in x})
        g = make_finset_map(y, z, {j: rng.randrange(nz) for j in y})
        assert check_square(_pullback_square(f, g)) == CospanResult(True, True)
        elems, _, _ = pullback_sets(f, g)
        h = [rng.choice(elems) for _ in range(rng.randint(0, 4))] if elems else []
        w = tuple(range(len(h)))
        res = check_square(Square(FinSetMap(w, x, {n: e[0] for n, e in enumerate(h)}),
                                  FinSetMap(w, y, {n: e[1] for n, e in enumerate(h)}),
                                  f, g))
        repeat = next((n for n in w if h[n] in h[:n]), None)
        assert res.conflated == (None if repeat is None else
                                 (h.index(h[repeat]), repeat, h[repeat]))
        assert res.missing == next((e for e in elems if e not in h), None)
        assert res.weak_ok == (set(h) == set(elems))
        assert res.pullback_ok == (res.weak_ok and len(set(h)) == len(h))


def test_pullback_universal_property_exhaustive():
    """Every cone over the cospan with apex of size <= 4 factors uniquely."""
    f = make_finset_map(("a", "b"), ("z", "w"), {"a": "z", "b": "w"})
    g = make_finset_map(("c", "d", "e"), ("z", "w"),
                        {"c": "z", "d": "z", "e": "w"})
    elems, p1, p2 = pullback_sets(f, g)
    for size in range(5):
        apex = tuple(range(size))
        for to_x in itertools.product(f.dom, repeat=size):
            qx = dict(zip(apex, to_x))
            for to_y in itertools.product(g.dom, repeat=size):
                qy = dict(zip(apex, to_y))
                if any(f.assign[qx[w]] != g.assign[qy[w]] for w in apex):
                    continue
                factorizations = [
                    h for h in itertools.product(elems, repeat=size)
                    if all(p1.assign[h[i]] == qx[i] and p2.assign[h[i]] == qy[i]
                           for i in apex)
                ]
                assert len(factorizations) == 1


# --- functors ----------------------------------------------------------------------


def test_list_functor_passes_all_small_cospans():
    F = list_functor(3)
    results = [check_cospan(F, f, g) for f, g in set_cospans(3)]
    assert all(r.pullback_ok and r.weak_ok for r in results)
    assert len(results) > 400


def test_list_preservation_matches_zip_oracle():
    # lists of pairs correspond to pairs of equal-length lists with equal image
    F = list_functor(3)
    f = make_finset_map(("a", "b"), ("*",), lambda _: "*")
    _, p1, _ = pullback_sets(f, f)
    lists_of_pairs = F(p1).dom
    pairs_of_lists = [
        (u, v) for u in F(f).dom for v in F(f).dom
        if len(u) == len(v)
    ]
    assert len(lists_of_pairs) == len(pairs_of_lists)
    zipped = {tuple(zip(u, v)) for u, v in pairs_of_lists}
    assert zipped == set(lists_of_pairs)


def test_multiset_functor_fails_with_reported_witness():
    F = multiset_functor(2)
    f = make_finset_map(("a", "b"), ("*",), lambda _: "*")
    res = check_cospan(F, f, f)
    assert not res.pullback_ok and res.weak_ok
    left, right, image = res.conflated
    assert {left, right} == {(("a", "a"), ("b", "b")), (("a", "b"), ("b", "a"))}
    # replay the witness by hand through the functor maps
    _, p1, p2 = pullback_sets(f, f)
    fp1, fp2 = F(p1), F(p2)
    assert (fp1.assign[left], fp2.assign[left]) == image
    assert (fp1.assign[right], fp2.assign[right]) == image
    assert left != right


# --- graphs ------------------------------------------------------------------------


def test_enumerate_graphs_counts_and_canonical():
    graphs = enumerate_graphs(2, 2)
    assert len({g for g in graphs}) == len(graphs)
    assert all(canonical_graph(g) == g for g in graphs)
    assert GraphData(0, ()) in graphs
    assert GraphData(1, ((0, 0),)) in graphs
    # brute-force count: labeled graphs quotiented via canonical forms
    seen = set()
    for nv in range(3):
        slots = [(s, t) for s in range(nv) for t in range(nv)]
        for ne in range(3):
            for combo in itertools.combinations_with_replacement(slots, ne):
                seen.add(canonical_graph(GraphData(nv, tuple(combo))))
    assert len(seen) == len(graphs)


def test_graph_homs_against_hand_counts():
    loop = GraphData(1, ((0, 0),))
    assert len(graph_homs(loop, loop)) == 1
    two_loops = GraphData(1, ((0, 0), (0, 0)))
    assert len(graph_homs(loop, two_loops)) == 2
    edge = GraphData(2, ((0, 1),))
    assert len(graph_homs(edge, loop)) == 1
    assert len(graph_homs(loop, edge)) == 0
    assert len(graph_homs(edge, edge)) == 1  # must hit the edge


def test_graph_automorphisms():
    swap = GraphData(2, ((0, 1), (1, 0)))
    assert len(graph_automorphisms(swap)) == 2
    parallel = GraphData(2, ((0, 1), (0, 1)))
    assert len(graph_automorphisms(parallel)) == 2  # swaps the parallel edges


def test_graph_paths_loop():
    loop = GraphData(1, ((0, 0),))
    assert len(graph_paths(loop, 3)) == 4


def _buckets(x, m, nv, ne):
    """The graph map m out of x sorted by its image, as a `_Leg` holds it:
    for each of the `nv` vertices of its codomain the vertices of x over
    it, for each of the `ne` edges the edges `(a, s, t)` of x over it."""
    verts = [[i for i, k in enumerate(m.vmap) if k == v] for v in range(nv)]
    edges = [[(a, *x.edges[a]) for a, k in enumerate(m.emap) if k == e]
             for e in range(ne)]
    return verts, edges


def _flat_pullback(f, g, x, y):
    """The pullback of x -> z <- y, given by its two legs, as the sweep
    builds it: the `_pullback_vertices` and `_pullback_edges` of the legs'
    buckets over z."""
    nv = 1 + max(f.vmap + g.vmap, default=-1)
    ne = 1 + max(f.emap + g.emap, default=-1)
    vx, ex = _buckets(x, f, nv, ne)
    vy, ey = _buckets(y, g, nv, ne)
    return (limitlab._pullback_vertices(y.nv, vx, vy),
            limitlab._pullback_edges(y.nv, ex, ey))


def _matching_pairs(x, y, f, g, max_len) -> int:
    """Pairs of paths of x and y with the same image, from the number of
    paths over each image: the `expected` count a direct caller of
    `check_path_cospan` hands it."""
    fx = path_image_counts(graph_paths(x, max_len), f)
    fy = path_image_counts(graph_paths(y, max_len), g)
    return sum(n * fy.get(img, 0) for img, n in fx.items())


def test_check_path_cospan_parallel_edges():
    z = GraphData(2, ((0, 1),))
    x = GraphData(2, ((0, 1), (0, 1)))
    f = graph_homs(x, z)[0]
    res = check_path_cospan(x, x, f, f, 3, _flat_pullback(f, f, x, x),
                            _matching_pairs(x, x, f, f, 3))
    assert res.pullback_ok


def test_path_fibers_consistency():
    g = GraphData(2, ((0, 1), (1, 0)))
    z = GraphData(1, ((0, 0),))
    f = graph_homs(g, z)[0]
    fibers = path_fibers(path_tree(g, 3), f, path_tree(z, 3))
    # the 2 + 2 + 2 + 2 paths of g all lie over the loop's 4, 2 over each
    assert len(fibers) == len(graph_paths(g, 3)) == 8
    assert sorted(fibers) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_path_fibers_name_each_path_image():
    """Element by element, against images built as tuples: for every hom
    x -> z between the graphs within the bounds, path i of x lies over
    path `fibers[i]` of z."""
    compared = 0
    for bounds in ((3, 2), (2, 3)):
        graphs = enumerate_graphs(*bounds)
        for length in (1, 3):
            paths = [graph_paths(gr, length) for gr in graphs]
            trees = [path_tree(gr, length) for gr in graphs]
            for (x, px, tx), (z, pz, tz) in itertools.product(
                    zip(graphs, paths, trees), repeat=2):
                for m in graph_homs(x, z):
                    fibers = path_fibers(tx, m, tz)
                    assert len(fibers) == len(px)
                    assert [pz[k] for k in fibers] == [path_image(m, p) for p in px]
                    compared += 1
    assert compared == 2 * (1868 + 2090)


def test_run_path_preservation_small_family_all_generic():
    summary = run_path_preservation(2, 2, 3, generic_stride=1)
    assert summary.all_pullback
    assert summary.generic_checked == summary.cospans > 4000
    assert not summary.count_failures and not summary.generic_failures


def _cospans(max_v, max_e, path_len):
    """The rows of `_cospan_orbits`, flattened one cospan at a time and
    numbered from 1: `(c, z, x, y, f, g, leg_f, leg_g, count, code)`, with
    the matching-pair count and the pullback code read from the row's
    lanes as the sweep reads them."""
    lane_bytes = limitlab._lane_widths(max_v, max_e, path_len)
    c = 0
    for z, x, f, leg_f, row in _cospan_orbits(max_v, max_e, path_len):
        counts, codes = limitlab._row_lanes(leg_f, row, max_v, max_e, lane_bytes)
        assert len(row.lanes) == len(counts) == len(codes)
        for (y, g, leg_g), count, code in zip(row.lanes, counts, codes):
            c += 1
            yield c, z, x, y, f, g, leg_f, leg_g, count, code


def _reference_code(z, x, y, f, g, max_v, max_e):
    """The pullback code of x -> z <- y as a dot product: f's bits as the
    left leg (`rows`) against g's as the right leg (`cols`), per vertex,
    then edge, of z, laid out from `_buckets`."""
    square, span = max_v * max_v, max_v * max_v * max_e

    def bits(dom, m, left):
        verts, edges = _buckets(dom, m, z.nv, len(z.edges))
        codes = [[(s * max_v + t) * max_e + a for a, s, t in es] for es in edges]
        if left:
            return ([sum(1 << (i * max_v) for i in vs) for vs in verts]
                    + [sum(1 << (square + k * span) for k in ks) for ks in codes])
        return ([sum(1 << j for j in vs) for vs in verts]
                + [sum(1 << k for k in ks) for ks in codes])

    return sum(map(mul, bits(x, f, True), bits(y, g, False)))


def test_cospan_orbits_one_member_per_orbit():
    # brute-force reference: every (x, y, f, g) into each z, grouped into
    # orbits of Aut(Z) acting on both legs by postcomposition
    def post(a, m):
        return (tuple(a.vmap[v] for v in m.vmap), tuple(a.emap[e] for e in m.emap))

    for bounds in ((2, 1), (2, 2)):
        code_bytes = limitlab._lane_widths(*bounds, 2)[1]
        graphs = enumerate_graphs(*bounds)
        orbit_of = {}
        for z in graphs:
            auts = graph_automorphisms(z)
            for x, y in itertools.product(graphs, repeat=2):
                for f, g in itertools.product(graph_homs(x, z), graph_homs(y, z)):
                    orbit = frozenset((post(a, f), post(a, g)) for a in auts)
                    orbit_of[(z, x, y, f, g)] = (z, x, y, orbit)
        yielded = []
        for c, z, x, y, f, g, _, _, count, code in _cospans(*bounds, 2):
            yielded.append(orbit_of[(z, x, y, f, g)])
            assert c == len(yielded)
            # f is the least of its orbit under Aut(Z)
            assert post(graph_automorphisms(z)[0], f) == (f.vmap, f.emap) == min(
                post(a, f) for a in graph_automorphisms(z))
            # each lane against values built here: the dot product of two
            # path-fiber dicts, and the rows . cols code in lane form
            assert count == _matching_pairs(x, y, f, g, 2)
            assert type(code) is bytes and len(code) == code_bytes
            assert code == _reference_code(z, x, y, f, g, *bounds).to_bytes(
                code_bytes, sys.byteorder)
            assert check_path_cospan(x, y, f, g, 2, _flat_pullback(f, g, x, y),
                                     count).pullback_ok
        assert len(yielded) == len(set(yielded)) < len(orbit_of)
        assert set(yielded) == set(orbit_of.values())


def test_lane_widths_guard_the_fiber_lane(monkeypatch):
    # the largest path count within the bounds is max_v + max_e + ... +
    # max_e ** path_len, reached by max_e loops at one vertex
    for v, e, length in ((1, 1, 3), (2, 2, 3), (3, 2, 2), (2, 3, 1)):
        most = max(len(graph_paths(gr, length)) for gr in enumerate_graphs(v, e))
        assert most == v + sum(e ** k for k in range(1, length + 1))
    # a count fits an 8-bit lane while 15 * 15 < 2**8, and 16 * 16 does not
    with monkeypatch.context() as m:
        m.setattr(limitlab, "_FIBER_BITS", 8)
        assert limitlab._lane_widths(1, 1, 14) == (1, 1)
        with pytest.raises(LimitError, match="16 paths"):
            limitlab._lane_widths(1, 1, 15)
    # the real lane: 60,880 paths fit 32 bits, and 65,641 overflow them
    assert limitlab._lane_widths(1, 39, 3)[0] == 4
    with pytest.raises(LimitError, match="65641 paths"):
        limitlab._lane_widths(1, 40, 3)
    # a code sets bits below V * V + S * S, S = V * V * E, whole bytes
    assert limitlab._lane_widths(3, 3, 3) == (4, 93)  # 9 + 27 ** 2 = 738 bits
    assert limitlab._lane_widths(3, 2, 3) == (4, 42)  # 9 + 18 ** 2 = 333 bits
    assert limitlab._lane_widths(0, 0, 3) == (4, 1)


def test_shared_pullback_matches_brute_force():
    checked = 0
    for _, z, x, y, f, g, leg_f, leg_g, _, _ in _cospans(2, 2, 2):
        verts = limitlab._pullback_vertices(y.nv, leg_f.verts, leg_g.verts)
        edges = limitlab._pullback_edges(y.nv, leg_f.edges, leg_g.edges)
        assert len(verts) == sum(len(vx) * len(vy)
                                 for vx, vy in zip(leg_f.verts, leg_g.verts))
        vpairs = [divmod(v, y.nv) for v in verts]
        assert len(vpairs) == len(set(vpairs))
        assert set(vpairs) == {(i, j) for i in range(x.nv) for j in range(y.nv)
                               if f.vmap[i] == g.vmap[j]}
        epairs = [(a, b) for _, _, a, b in edges]
        assert len(epairs) == len(set(epairs))
        assert set(epairs) == {(a, b) for a in range(len(x.edges))
                               for b in range(len(y.edges)) if f.emap[a] == g.emap[b]}
        for u, w, a, b in edges:
            (sa, ta), (sb, tb) = x.edges[a], y.edges[b]
            assert (u, w) == (sa * y.nv + sb, ta * y.nv + tb)
        checked += 1
    assert checked > 4000


def _parallel_cospan():
    z = GraphData(2, ((0, 1),))
    x = GraphData(2, ((0, 1), (0, 1)))
    f = graph_homs(x, z)[0]
    return x, f, _flat_pullback(f, f, x, x)


def test_check_path_cospan_supplied_pullback_missing_edge():
    x, f, (verts, edges) = _parallel_cospan()
    pairs = _matching_pairs(x, x, f, f, 3)
    assert check_path_cospan(x, x, f, f, 3, (verts, edges), pairs).pullback_ok
    u, w, a, b = edges[-1]
    res = check_path_cospan(x, x, f, f, 3, (verts, edges[:-1]), pairs)
    assert not res.weak_ok and not res.pullback_ok and res.conflated is None
    assert res.missing == ((0, (a,)), (0, (b,)))


def test_check_path_cospan_supplied_pullback_duplicate_edge():
    x, f, (verts, edges) = _parallel_cospan()
    res = check_path_cospan(x, x, f, f, 3, (verts, edges + edges[:1]),
                            _matching_pairs(x, x, f, f, 3))
    assert res.weak_ok and not res.pullback_ok and res.missing is None
    first, second, key = res.conflated
    _, _, a, b = edges[0]
    assert first != second and key == ((0, (a,)), (0, (b,)))


def _reference_check(x, y, f, g, max_len, pullback, expected):
    """`check_path_cospan` written plainly, as the reference: every path of
    the pullback as `(end vertex, key)`, the key `(start, a1, b1, ...)` a
    tuple at every length, the identities `(v,)` included."""
    verts, pedges = pullback
    yn = y.nv
    out_of = {}
    for u, w, a, b in pedges:
        out_of.setdefault(u, []).append((w, a, b))
    level = [(v, (v,)) for v in verts]
    seen = {key for _, key in level}
    total = len(level)
    for _ in range(max_len):
        level = [(w, key + (a, b)) for at, key in level
                 for w, a, b in out_of.get(at, ())]
        total += len(level)
        seen.update(key for _, key in level)
    conflated = None
    if len(seen) < total:
        conflated = limitlab._first_conflation(verts, pedges, yn, max_len)
    missing = None
    if len(seen) != expected:
        pairs = {((k[0] // yn, k[1::2]), (k[0] % yn, k[2::2])) for k in seen}
        missing = next(((px, py) for px in graph_paths(x, max_len)
                        for py in graph_paths(y, max_len)
                        if path_image(f, px) == path_image(g, py)
                        and (px, py) not in pairs), None)
    return CospanResult(
        pullback_ok=conflated is None and len(seen) == expected,
        weak_ok=len(seen) == expected,
        conflated=conflated,
        missing=missing,
        paths=total,
    )


def _corrupt(rng, kind, x, y, verts, pedges):
    """A copy of the pullback `(verts, pedges)` with one corruption, or
    None when this pullback has nothing to corrupt that way."""
    verts, pedges = list(verts), list(pedges)
    if kind == "duplicate vertex" and verts:
        verts.insert(rng.randrange(len(verts) + 1), rng.choice(verts))
    elif kind == "duplicate edge" and pedges:
        pedges.insert(rng.randrange(len(pedges) + 1), rng.choice(pedges))
    elif kind == "drop edge" and pedges:
        del pedges[rng.randrange(len(pedges))]
    elif kind == "edge from outside" and pedges:
        outside = [v for v in range(x.nv * y.nv) if v not in verts]
        if not outside:
            return None
        _, w, a, b = rng.choice(pedges)
        pedges.insert(rng.randrange(len(pedges) + 1), (rng.choice(outside), w, a, b))
    elif kind == "relabel edge" and pedges:
        n = rng.randrange(len(pedges))
        u, w, a, b = pedges[n]
        others_a = [e for e in range(len(x.edges)) if e != a]
        others_b = [e for e in range(len(y.edges)) if e != b]
        if not others_a and not others_b:
            return None
        if others_a and (not others_b or rng.random() < 0.5):
            pedges[n] = (u, w, rng.choice(others_a), b)
        else:
            pedges[n] = (u, w, a, rng.choice(others_b))
    else:
        return None
    return verts, pedges


@pytest.mark.parametrize("path_len", [1, 3])
def test_checker_matches_reference_on_corrupted_pullbacks(path_len):
    rng = random.Random(20261018 + path_len)
    kinds = ("duplicate vertex", "duplicate edge", "drop edge",
             "edge from outside", "relabel edge")
    compared = dict.fromkeys(kinds, 0)
    failed = dict.fromkeys(kinds, False)
    for _, _, x, y, f, g, _, _, expected, _ in _cospans(2, 2, path_len):
        if rng.random() > 0.15:
            continue
        pullback = _flat_pullback(f, g, x, y)
        for kind in kinds:
            corrupted = _corrupt(rng, kind, x, y, *pullback)
            if corrupted is None:
                continue
            res = check_path_cospan(x, y, f, g, path_len, corrupted, expected)
            ref = _reference_check(x, y, f, g, path_len, corrupted, expected)
            assert res == ref, (kind, x, y, f, g, corrupted)
            failed[kind] |= not res.pullback_ok
            compared[kind] += 1
    assert min(compared.values()) > 50, compared
    # an edge from outside the pullback lies on no path; the others break some
    assert failed == {kind: kind != "edge from outside" for kind in kinds}


def _drop_one_of_two_edges(monkeypatch):
    """A pullback with two edges loses the one with the larger pair (a, b).
    Which edge goes is a function of the pullback's edge pairs, not of the
    order the producer lists them in, so every cospan with one pullback
    loses the same edge."""
    original = limitlab._pullback_edges

    def drop_one(yn, ex, ey):
        edges = original(yn, ex, ey)
        if len(edges) == 2:
            edges.remove(max(edges, key=itemgetter(2, 3)))
        return edges

    monkeypatch.setattr(limitlab, "_pullback_edges", drop_one)


def test_count_failures_caught_on_checked_cospans(monkeypatch):
    plain = {stride: run_path_preservation(2, 2, 3, generic_stride=stride)
             for stride in (0, 1)}
    assert plain[0].cospans == plain[1].cospans
    assert plain[0].matching_pairs == plain[1].matching_pairs
    assert plain[0].count_failures == plain[1].count_failures == []
    _drop_one_of_two_edges(monkeypatch)
    broken = {stride: run_path_preservation(2, 2, 3, generic_stride=stride)
              for stride in (0, 1)}
    # the DP counts every cospan at stride 0, the checker every one at 1
    assert broken[0].count_failures == broken[1].count_failures
    assert len(broken[0].count_failures) > 20
    for *_, counts in broken[0].count_failures:
        assert set(counts) == {"F_P", "pairs"} and counts["F_P"] < counts["pairs"]
    assert not broken[0].generic_failures
    assert ([tuple(entry[:5]) for entry in broken[1].generic_failures]
            == [tuple(entry[:5]) for entry in broken[1].count_failures])


def test_a_count_unlike_its_codes_passing_count_gets_its_own_check(monkeypatch):
    """A checked cospan is settled by its code's passing check only when
    its own matching-pair count equals the count that check stored. With
    the last count of every row one too high, each such cospan gets its
    own checker call, which fails it, so at stride 1 the count failures
    and the checker's failures are the same cospans."""
    original = limitlab._row_lanes

    def bump_last(*args):
        counts, codes = original(*args)
        counts[-1] += 1
        return counts, codes

    monkeypatch.setattr(limitlab, "_row_lanes", bump_last)
    summary = run_path_preservation(2, 2, 3, generic_stride=1)
    assert len(summary.count_failures) > 20
    assert ([tuple(entry[:5]) for entry in summary.generic_failures]
            == [tuple(entry[:5]) for entry in summary.count_failures])


def _patch_checker(monkeypatch, act):
    """check_path_cospan runs `act(x, y, f, g, result)` after each check."""
    original = limitlab.check_path_cospan

    def checker(x, y, f, g, *args):
        res = original(x, y, f, g, *args)
        act(x, y, f, g, res)
        return res

    monkeypatch.setattr(limitlab, "check_path_cospan", checker)


def _invariant_pullback(x, y, verts, pedges):
    """The pullback `(verts, pedges)` of x -> z <- y, as the two producers
    build it, with its flat vertex ids undone: its vertex pairs (i, j) and
    its edge pairs with their endpoints, `(a, x.edges[a], b, y.edges[b])`.
    Any injective relabeling of the flat ids gives the same form."""
    return (frozenset(divmod(v, y.nv) for v in verts),
            frozenset((a, x.edges[a], b, y.edges[b]) for _, _, a, b in pedges))


def _fail_pullbacks(monkeypatch, chosen) -> list:
    """check_path_cospan fails every pullback `(verts, pedges)` of x and y
    for which `chosen(x, y, verts, pedges)` holds; returns the list, filled
    as the checker runs in this process, of `(x, y, expected, pullback)`
    for each call."""
    original = limitlab.check_path_cospan
    calls = []

    def checker(x, y, f, g, max_len, pullback, expected):
        res = original(x, y, f, g, max_len, pullback, expected)
        calls.append((x, y, expected, pullback))
        if chosen(x, y, *pullback):
            res.pullback_ok = False
        return res

    monkeypatch.setattr(limitlab, "check_path_cospan", checker)
    return calls


def _checked_pullbacks(bounds, stride):
    """`((z, x, y, f, g), (verts, pedges))` for every cospan numbered a
    multiple of `stride`, in cospan order, its pullback built by the two
    producers from the legs."""
    for c, z, x, y, f, g, leg_f, leg_g, _, _ in _cospans(*bounds):
        if c % stride == 0:
            yield (z, x, y, f, g), (
                limitlab._pullback_vertices(y.nv, leg_f.verts, leg_g.verts),
                limitlab._pullback_edges(y.nv, leg_f.edges, leg_g.edges))


def _assert_generic_failures(bounds, stride, expected):
    """The sweep lists as generic failures exactly the cospans `expected`,
    in that order."""
    summary = run_path_preservation(*bounds, generic_stride=stride)
    assert [tuple(entry[:5]) for entry in summary.generic_failures] == expected


def test_generic_failures_in_cospan_order(monkeypatch):
    def chosen(x, y, verts, pedges):
        return len(verts) == 2 and len(pedges) == 2

    _fail_pullbacks(monkeypatch, chosen)
    expected = [cospan for cospan, pullback in _checked_pullbacks((2, 2, 2), 3)
                if chosen(cospan[1], cospan[2], *pullback)]
    assert len(expected) > 20
    _assert_generic_failures((2, 2, 2), 3, expected)


def test_every_cospan_of_a_failing_pullback_is_listed(monkeypatch):
    """A failing verdict is never reused: every checked cospan whose
    pullback fails gets its own checker call and its own entry."""
    checked = list(_checked_pullbacks((2, 2, 2), 1))
    counts: dict = {}
    for (_, x, y, _, _), (verts, pedges) in checked:
        if pedges:
            key = _invariant_pullback(x, y, verts, pedges)
            counts[key] = counts.get(key, 0) + 1
    target = max(counts, key=counts.get)  # the most frequent, first on ties

    def chosen(x, y, verts, pedges):
        return _invariant_pullback(x, y, verts, pedges) == target

    _fail_pullbacks(monkeypatch, chosen)
    expected = [cospan for cospan, pullback in checked
                if chosen(cospan[1], cospan[2], *pullback)]
    assert len(expected) == counts[target] > 10
    _assert_generic_failures((2, 2, 2), 1, expected)


def _reference_sweep(max_v, max_e, path_len, stride):
    """`run_path_preservation` without verdict reuse: the checker on every
    cospan, its count compared with the matching pairs from the path
    fibers, and only each `stride`-th cospan's verdict kept."""
    cospans = pairs = checked = 0
    count_failures, generic_failures = [], []
    for c, z, x, y, f, g, *_ in _cospans(max_v, max_e, path_len):
        expected = _matching_pairs(x, y, f, g, path_len)
        res = check_path_cospan(x, y, f, g, path_len, _flat_pullback(f, g, x, y),
                                expected)
        cospans += 1
        pairs += expected
        if c % stride == 0:
            checked += 1
            if not res.pullback_ok:
                generic_failures.append((z, x, y, f, g, res))
        if res.paths != expected:
            count_failures.append((z, x, y, f, g, {"F_P": res.paths, "pairs": expected}))
    return limitlab.PathPreservationSummary(cospans, pairs, count_failures,
                                            checked, generic_failures)


@pytest.mark.parametrize("fault", [None, "drop edge"])
@pytest.mark.parametrize("bounds, stride", [((2, 2, 3), 1), ((2, 2, 2), 3)])
def test_reused_verdicts_match_a_checker_call_per_cospan(monkeypatch, bounds,
                                                         stride, fault):
    if fault:
        _drop_one_of_two_edges(monkeypatch)  # so some cospans fail
    reference = _reference_sweep(*bounds, stride)
    summary = run_path_preservation(*bounds, generic_stride=stride)
    for field in dataclasses.fields(summary):
        assert getattr(summary, field.name) == getattr(reference, field.name), field.name
    assert bool(summary.generic_failures) == bool(fault)


def test_checker_runs_once_per_distinct_pullback_and_count(monkeypatch):
    calls = _fail_pullbacks(monkeypatch, lambda x, y, verts, pedges: False)
    summary = run_path_preservation(2, 2, 3, generic_stride=1)
    distinct = {(_matching_pairs(x, y, f, g, 3), _invariant_pullback(
                    x, y, limitlab._pullback_vertices(y.nv, leg_f.verts, leg_g.verts),
                    limitlab._pullback_edges(y.nv, leg_f.edges, leg_g.edges)))
                for _, _, x, y, f, g, leg_f, leg_g, _, _ in _cospans(2, 2, 3)}
    assert len(calls) == len(distinct) == 363
    # and each of them once
    assert len({(expected, _invariant_pullback(x, y, *pullback))
                for x, y, expected, pullback in calls}) == 363
    assert summary.generic_checked == summary.cospans == 4171


@pytest.mark.parametrize("bounds", [(2, 2, 3), (2, 3, 2)])
def test_two_cospans_share_a_code_exactly_when_their_pullbacks_agree(bounds):
    owner: dict = {}  # code -> invariant pullback
    code_of: dict = {}  # invariant pullback -> code
    cospans = 0
    for _, _, x, y, f, g, _, _, _, code in _cospans(*bounds):
        form = _invariant_pullback(x, y, *_flat_pullback(f, g, x, y))
        assert owner.setdefault(code, form) == form
        assert code_of.setdefault(form, code) == code
        cospans += 1
    assert len(owner) == len(code_of) < cospans // 10


def _reference_dp_sweep(max_v, max_e, path_len):
    """`run_path_preservation` at `generic_stride=0` without count reuse:
    on every cospan, the paths of its own pullback counted by a DP over its
    own edges, and compared with the matching pairs from the path fibers."""
    cospans = pairs = 0
    count_failures = []
    fibers = {}  # (graph, map) -> paths per image, as _matching_pairs has them

    def fibers_of(x, f):
        if (x, f) not in fibers:
            fibers[x, f] = path_image_counts(graph_paths(x, path_len), f)
        return fibers[x, f]

    for _, z, x, y, f, g, *_ in _cospans(max_v, max_e, path_len):
        fy = fibers_of(y, g)
        expected = sum(n * fy.get(img, 0) for img, n in fibers_of(x, f).items())
        verts, pedges = _flat_pullback(f, g, x, y)
        ends = dict.fromkeys(verts, 1)  # paths of the current length, by end
        total = len(verts)
        for _ in range(path_len):
            nxt: dict = {}
            for u, w, _, _ in pedges:
                nxt[w] = nxt.get(w, 0) + ends.get(u, 0)
            ends = nxt
            total += sum(ends.values())
        cospans += 1
        pairs += expected
        if total != expected:
            count_failures.append((z, x, y, f, g, {"F_P": total, "pairs": expected}))
    return limitlab.PathPreservationSummary(cospans, pairs, count_failures, 0, [])


@pytest.mark.parametrize("bounds, fault", [((2, 2, 3), None), ((2, 2, 3), "drop edge"),
                                           ((2, 3, 2), "drop edge")])
def test_reused_counts_match_a_dp_per_cospan(monkeypatch, bounds, fault):
    if fault:
        _drop_one_of_two_edges(monkeypatch)  # so some counts fail
    reference = _reference_dp_sweep(*bounds)
    summary = run_path_preservation(*bounds, generic_stride=0)
    for field in dataclasses.fields(summary):
        assert getattr(summary, field.name) == getattr(reference, field.name), field.name
    assert bool(summary.count_failures) == bool(fault)


def _traced_sweep(max_v, max_e, path_len, stride):
    """A sweep and the peak of the memory it traced, in bytes."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        summary = run_path_preservation(max_v, max_e, path_len, generic_stride=stride)
        return summary, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_verdict_reuse_memory_is_bounded():
    """The traced peak of a sweep at (3, 2, 3), every cospan checked, on
    Python 3.11: 0.71 MiB without verdict reuse, 2.23 MiB with the reused
    verdicts keyed by 4,826 distinct flat pullbacks, and 1.21 MiB keyed by
    3,712 (matching-pair count, pullback code) pairs. Run in one process,
    with each Y's `(g, leg_g)` pairs listed once per Z, it read 1.30 MiB.
    With packed rows and one int per verdict key it reads 1.318, 1.263
    and 1.261 MiB on Python 3.10, 3.11 and 3.12 (1.346, 1.303 and 1.297
    before), and takes 0.9 to 2.3 s traced, the most on 3.12. Later on 3.11
    it read 0.953 MiB with int keys and 1.077 MiB with each key its code
    lane's bytes, whose leading zero bytes an int drops. The bound
    sits about 12% above 1.21 MiB, so a key or a stored value that grows
    fails."""
    summary, peak = _traced_sweep(3, 2, 3, 1)
    assert summary.generic_checked == summary.cospans == 115_989
    assert peak < 1.36 * 2**20


def test_count_reuse_memory_is_bounded():
    """The traced peak of a sweep at (2, 3, 3) with stride 25, where the
    DP counts 123,846 of the 129,006 cospans, on Python 3.11: 2.26 MiB
    without reused counts and 2.42 MiB with them, keyed by pullback codes.
    Run in one process, with each Y's `(g, leg_g)` pairs listed once per
    Z, it read 2.44 MiB. With packed rows it reads 2.461, 2.426 and 2.423
    MiB on Python 3.10, 3.11 and 3.12 (2.462, 2.438 and 2.428 before), and
    takes 1.4 to 3.0 s traced, the most on 3.12. Later on 3.11 it read
    1.953 MiB with int keys and 2.113 MiB with lane-byte keys. The bound
    sits about 12% above 2.42 MiB, so a DP key that grows fails."""
    summary, peak = _traced_sweep(2, 3, 3, 25)
    assert summary.cospans == 129_006 and summary.generic_checked == 5_160
    assert peak < 2.71 * 2**20


# --- the gate ----------------------------------------------------------------------


def test_gate_one_passes():
    report = computad_topos_gate(1, Bounds(size=3))
    assert report.verdict == "pass-within-bounds"
    assert "bounded evidence" in report.wording
    # the 0-th slice is the identity monad's collection: no row
    assert report.slice_checks == []


def test_gate_two_passes():
    report = computad_topos_gate(2, Bounds(size=3))
    assert report.verdict == "pass-within-bounds"
    assert all(e["all_pullback"] for e in report.experiments)
    [first] = report.slice_checks
    assert first["k"] == 1 and first["free"]


def test_gate_slice_rows_are_read_from_the_engine():
    """Slice 1 acts freely at arities 0..3, with 3! elements at arity 3;
    slice 2 has one element at every arity, so Sigma_n fixes it from 2 on."""
    first, second = computad_topos_gate(3, Bounds(size=2)).slice_checks
    assert first == {"k": 1, "free": True, "arities": [
        {"arity": n, "elements": math.factorial(n), "orbits": 1, "free": True}
        for n in range(4)]}
    assert second == {"k": 2, "free": False, "arities": [
        {"arity": n, "elements": 1, "orbits": 1, "free": n < 2} for n in range(4)]}


def test_gate_slice_freeness_is_strong_regularity():
    """Slices 1 and 2 are the free monoid and the free commutative monoid,
    and Sigma_n acts freely on a slice exactly when the presentation of its
    theory is strongly regular."""
    rows = computad_topos_gate(3, Bounds(size=2)).slice_checks
    for row, name in zip(rows, ("monoid.thy", "commutative_monoid.thy")):
        text = resources.files("computadlab").joinpath("data", name).read_text()
        verdict = is_strongly_regular_presentation(parse_presentation(text))
        assert row["free"] == verdict.strongly_regular


LOOP = GraphData(1, ((0, 0),))
ON_LOOP = GraphMap((0,), (0,))
LOOP_COSPAN = {"z": {"vertices": 1, "edges": [[0, 0]]},
               "x": {"vertices": 1, "edges": [[0, 0]]},
               "y": {"vertices": 1, "edges": [[0, 0]]},
               "f": {"vertices": [0], "edges": [0]},
               "g": {"vertices": [0], "edges": [0]}}


@pytest.mark.parametrize("fault", ["checker", "pullback edges"])
def test_gate_one_failure_says_so_with_a_witness(monkeypatch, fault):
    if fault == "checker":
        def fail_loops(x, y, f, g, res):
            if x == y == LOOP and f == g == ON_LOOP:
                res.pullback_ok = False
                res.conflated = ((0, (0,)), (0, (0,)), ((0, (0,)), (0, (0,))))

        _patch_checker(monkeypatch, fail_loops)
        found = {"conflated": [[0, [0]], [0, [0]], [[0, [0]], [0, [0]]]],
                 "missing": None}
    else:
        # the loop over the loop is the only pullback edge within (1, 1)
        monkeypatch.setattr(limitlab, "_pullback_edges", lambda yn, ex, ey: [])
        found = {"F_P": 1, "pairs": 2, "conflated": None,
                 "missing": [[0, [0]], [0, [0]]]}
    report = computad_topos_gate(1, graph_bounds=(1, 1), path_len=1)
    assert report.verdict == "counterexample"
    assert report.wording == limitlab._FAIL_WORDING
    assert not report.experiments[0]["all_pullback"]
    assert report.witness == {
        "experiment": "free category (path) functor on graph cospans",
        **LOOP_COSPAN, **found}
    assert json.loads(json.dumps(report.witness)) == report.witness


@pytest.mark.parametrize("n, graph_bounds", [(1, (4, 3)), (2, (5, 2)), (1, (1, 6))])
def test_gate_refuses_graph_bounds_above_the_cap_before_sweeping(monkeypatch, n,
                                                                 graph_bounds):
    def sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(limitlab, "run_path_preservation", sweep)
    with pytest.raises(LimitError, match=f"more than {limitlab.MAX_GRAPH_SIZE} vertices"):
        computad_topos_gate(n, graph_bounds=graph_bounds, path_len=3)
    with pytest.raises(AssertionError, match="the sweep ran"):  # at the cap, it sweeps
        computad_topos_gate(n, graph_bounds=(graph_bounds[0], 6 - graph_bounds[0]),
                            path_len=3)


def test_gate_two_failure_names_the_set_cospan(monkeypatch):
    original = limitlab.check_cospan

    def fail_pairs(F, f, g):
        res = original(F, f, g)
        if len(f.dom) == len(g.dom) == len(f.cod) == 2:
            res.pullback_ok, res.missing = False, ((0, 1),)
        return res

    monkeypatch.setattr(limitlab, "check_cospan", fail_pairs)
    report = computad_topos_gate(2, graph_bounds=(1, 1), path_len=1)
    assert report.verdict == "counterexample"
    assert [e["all_pullback"] for e in report.experiments] == [False, True]
    assert report.witness == {
        "experiment": "list functor (first slice) on set cospans",
        "z": 2, "f": [0, 0], "g": [0, 0], "conflated": None, "missing": [[0, 1]]}


def test_gate_three_counterexample_with_replay():
    report = computad_topos_gate(3, Bounds(size=2))
    assert report.verdict == "counterexample"
    assert "complete finite counterexample" in report.wording
    w = report.witness
    assert sorted([w["left_multiset"], w["right_multiset"]]) == [
        ["(a|a)", "(b|b)"], ["(a|b)", "(b|a)"]]
    assert w["oracle_replay_conflates"] and w["oracle_replay_weak"]
    assert [c["free"] for c in report.slice_checks] == [True, False]


def test_gate_three_failure_persists_at_larger_bounds():
    report = computad_topos_gate(3, Bounds(size=3))
    assert report.verdict == "counterexample"
    assert report.witness["oracle_replay_conflates"]


def test_the_gate_fails_exactly_when_a_slice_is_not_free():
    """The strict theory's half of the paper's relation, at every n the
    gate answers: the verdict is a counterexample exactly when some slice
    k < n is not free. From n = 3 up the engine square at k = n - 1 fails
    on the n = 3 pair, with the same counts at every k, and every slice
    k >= 2 has one element at each arity."""
    for n in range(1, limitlab.MAX_GATE_N + 1):
        report = computad_topos_gate(n, Bounds(size=2))
        assert len(report.slice_checks) == n - 1
        assert (report.verdict == "counterexample") == any(
            not row["free"] for row in report.slice_checks), n
        for row in report.slice_checks[1:]:
            assert [a["elements"] for a in row["arities"]] == [1, 1, 1, 1], (n, row["k"])
        if n >= 3:
            assert (report.witness["left_class"], report.witness["right_class"]) == (
                "comp_0(gen((a|a)),gen((b|b)))", "comp_0(gen((a|b)),gen((b|a)))"), n
            engine = report.experiments[0]
            assert engine["experiment"] == (
                f"engine: free {n - 1}-category on the scalar pullback computad")
            assert (engine["classes_in_F_P"], engine["pairs_in_target"]) == (15, 14), n
            assert engine["is_weak_pullback"] is True, n


def _plant_first_square(monkeypatch, plant):
    """Hand the gate's first `check_square` call, the class square of the
    n = 3 experiment, the square `plant` builds from its cospan."""
    original, calls = limitlab.check_square, []

    def planted(s):
        calls.append(s)
        return original(plant(s.f, s.g) if len(calls) == 1 else s)

    monkeypatch.setattr(limitlab, "check_square", planted)


def test_gate_three_verdict_is_read_from_the_engine(monkeypatch):
    # the genuine pullback of the class cospan in place of the F-image of
    # the computad pullback: the check passes, and there is nothing to replay
    _plant_first_square(monkeypatch, _pullback_square)
    report = computad_topos_gate(3, Bounds(size=2))
    assert report.verdict == "pass-within-bounds"
    assert report.wording == limitlab._PASS_WORDING
    assert report.witness is None
    [engine] = report.experiments
    assert engine["is_pullback"] is True and engine["is_weak_pullback"] is True


def test_gate_three_names_a_missed_pair(monkeypatch):
    # the pullback of the class cospan without its first pair, the empty
    # cells: injective, so only surjectivity fails
    def missing_first(f, g):
        elems, p1, p2 = pullback_sets(f, g)
        w = elems[1:]
        return Square(FinSetMap(w, p1.cod, p1.assign), FinSetMap(w, p2.cod, p2.assign), f, g)

    _plant_first_square(monkeypatch, missing_first)
    report = computad_topos_gate(3, Bounds(size=2))
    assert report.verdict == "counterexample"
    engine, replay = report.experiments
    assert engine["is_pullback"] is False and engine["is_weak_pullback"] is False
    assert engine["pairs_in_target"] == 14
    assert replay["is_weak_pullback"] is True
    empty = "id1(id1(gen(o)))"
    assert report.witness["missing"] == [empty, empty]
    assert "left_class" not in report.witness


def _gate_three_squares(monkeypatch, k, size):
    """Run the engine experiment at dimension k and `size`: each square
    `check_square` decided, with its result, and the free algebras of P, X
    and Z, keyed by the names of their k-generators."""
    squares, algebras = [], {}
    check, induced = limitlab.check_square, computads.induced_class_map

    def recording_check(s):
        squares.append((s, check(s)))
        return squares[-1][1]

    def recording_induced(fa_dom, fa_cod, m, r):
        if r == k:  # the pullback's construction reads dimensions below k
            for fa in (fa_dom, fa_cod):
                algebras[tuple(fa.computad.names(k))] = fa
        return induced(fa_dom, fa_cod, m, r)

    monkeypatch.setattr(limitlab, "check_square", recording_check)
    monkeypatch.setattr(computads, "induced_class_map", recording_induced)
    limitlab._scalar_cospan_experiment(k, Bounds(size=size))
    return squares, algebras


@pytest.mark.parametrize("size", [2, 3, 4])
@pytest.mark.parametrize("k", [2, 3])
def test_the_class_square_is_the_multiset_square_element_by_element(monkeypatch, k, size):
    """The engine's square on k-classes is the multiset functor's image of
    the set pullback square, once each class is read as its multiset:
    the pair (x|y) as the element (x, y) of the set pullback."""
    [(square, res), (msquare, mres)], algebras = _gate_three_squares(monkeypatch, k, size)

    def multisets(*names):
        """Each k-class of the algebra on `names` as its multiset of
        elements, sorted as the multiset functor sorts them."""
        return [tuple(sorted((tuple(g[1:-1].split("|")) if "|" in g else g for g in m),
                             key=repr))
                for m in algebras[names].levels[k].msets]

    fp = multisets("(a|a)", "(a|b)", "(b|a)", "(b|b)")
    fx, fz = multisets("a", "b"), multisets("z")
    for classes, elements in ((fp, msquare.p.dom), (fx, msquare.f.dom), (fz, msquare.f.cod)):
        assert sorted(classes, key=repr) == sorted(elements, key=repr)
    assert square.g == square.f and msquare.g == msquare.f
    for leg, mleg, dom, cod in ((square.p, msquare.p, fp, fx),
                                (square.q, msquare.q, fp, fx),
                                (square.f, msquare.f, fx, fz)):
        assert {dom[c]: cod[leg.assign[c]] for c in leg.dom} == mleg.assign
    assert (res.pullback_ok, res.weak_ok) == (mres.pullback_ok, mres.weak_ok) == (False, True)
    a, b, (x, y) = res.conflated
    assert (fp[a], fp[b], (fx[x], fx[y])) == mres.conflated


@pytest.mark.parametrize("k", [2, 3])
def test_the_gate_cospan_is_a_computad_map(monkeypatch, k):
    legs = []
    original = computads.pullback_computads

    def recording(f, g, bounds):
        legs.append((f, g, bounds))
        return original(f, g, bounds)

    monkeypatch.setattr(computads, "pullback_computads", recording)
    limitlab._scalar_cospan_experiment(k, Bounds(size=2))
    [(f, g, bounds)] = legs
    assert f is g and map_violation(f, bounds) is None


def test_gate_rejects_unsupported_dimension():
    for n in (0, limitlab.MAX_GATE_N + 1):
        with pytest.raises(LimitError, match=f"^unsupported gate dimension {n}; "
                                             "supported: 1 to 13$"):
            computad_topos_gate(n)
    assert computad_topos_gate(limitlab.MAX_GATE_N, Bounds(size=2)).verdict == "counterexample"


# --- the engine against the path sweep --------------------------------------------


def _graph_computad(g: GraphData) -> computads.Computad:
    """g as a 1-computad: vertex i is the 0-generator v{i}, and edge a the
    1-generator e{a} between the generators of its ends."""
    return computads.build_computad(
        [[f"v{i}" for i in range(g.nv)],
         [(f"e{a}", Gen(f"v{s}", 0), Gen(f"v{t}", 0)) for a, (s, t) in enumerate(g.edges)]])


def _computad_map(m: GraphMap, dom: computads.Computad, cod: computads.Computad):
    return computads.ComputadMap(dom, cod, {f"v{i}": f"v{j}" for i, j in enumerate(m.vmap)}
                                 | {f"e{a}": f"e{b}" for a, b in enumerate(m.emap)})


GRAPHS_2_2 = enumerate_graphs(2, 2)


@st.composite
def graph_cospans(draw):
    """A graph cospan x -> z <- y within graph bounds (2, 2), with a path
    length from 1 to 3."""
    z = draw(st.sampled_from(GRAPHS_2_2))
    legs = []
    for _ in range(2):
        x = draw(st.sampled_from([g for g in GRAPHS_2_2 if graph_homs(g, z)]))
        legs.append((x, draw(st.sampled_from(graph_homs(x, z)))))
    return z, legs, draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cospan=graph_cospans())
def test_the_engine_counts_the_pullback_paths_the_sweep_counts(cospan):
    """Each graph of the cospan as a 1-computad: the pullback computad's
    free algebra at size L has as many 1-classes of size <= L as
    `check_path_cospan` counts paths of length <= L in the graph pullback,
    and the free functor's square on 1-classes is a pullback."""
    z, [(x, f), (y, g)], size = cospan
    bounds = Bounds(size=size)
    cz = _graph_computad(z)
    mf = _computad_map(f, _graph_computad(x), cz)
    mg = _computad_map(g, _graph_computad(y), cz)
    pb = computads.pullback_computads(mf, mg, bounds)
    res = check_path_cospan(x, y, f, g, size, _flat_pullback(f, g, x, y),
                            _matching_pairs(x, y, f, g, size))
    assert res.pullback_ok
    assert sum(len(m) <= size for m in pb.free.levels[1].msets) == res.paths
    fa_y, fa_z = computads.free_algebra(mg.dom, bounds), computads.free_algebra(cz, bounds)
    square = Square(limitlab._class_map(pb.free, pb.free_dom, pb.proj1, 1),
                    limitlab._class_map(pb.free, fa_y, pb.proj2, 1),
                    limitlab._class_map(pb.free_dom, fa_z, mf, 1),
                    limitlab._class_map(fa_y, fa_z, mg, 1))
    assert check_square(square).pullback_ok
