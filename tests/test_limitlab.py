import itertools
import os
from operator import mul

import pytest

from computadlab import limitlab
from computadlab.freecat import Bounds
from computadlab.limitlab import (
    CospanResult, FinSetMap, GraphData, GraphMap, LimitError, Square,
    _bucket_pullback, _cospan_orbits, _flat_pullback, canonical_graph, check_cospan, check_path_cospan,
    computad_topos_gate, enumerate_graphs, graph_automorphisms,
    graph_homs, graph_paths, graph_pullback,
    identity_finset, identity_functor, is_cartesian_on, is_pullback,
    is_weak_pullback, is_weakly_cartesian_on, list_functor, make_finset_map,
    multiset_functor, naturality_square, path_fibers, path_image,
    preserves_pullbacks_experiment, pullback_sets, run_path_preservation,
    set_cospans, square_violation,
)

# --- pullbacks of finite sets -----------------------------------------------------


def test_pullback_of_identities_is_diagonal():
    i = identity_finset(("a", "b"))
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
    s = _pullback_square(f, f)
    assert is_pullback(s)
    ok, section = is_weak_pullback(s)
    assert ok and len(section) == 4


def test_is_pullback_fails_on_proper_subset():
    f = make_finset_map(("a", "b"), ("*",), lambda _: "*")
    elems, p1, p2 = pullback_sets(f, f)
    sub = elems[:-1]
    s = Square(FinSetMap(sub, f.dom, {e: e[0] for e in sub}),
               FinSetMap(sub, f.dom, {e: e[1] for e in sub}), f, f)
    assert not is_pullback(s)
    ok, _ = is_weak_pullback(s)
    assert not ok


def test_weak_but_not_pullback_with_junk():
    f = make_finset_map(("a", "b"), ("*",), lambda _: "*")
    elems, _, _ = pullback_sets(f, f)
    fat = elems + (("extra", "extra"),)
    assign1 = {e: e[0] for e in elems} | {("extra", "extra"): "a"}
    assign2 = {e: e[1] for e in elems} | {("extra", "extra"): "a"}
    s = Square(FinSetMap(fat, f.dom, assign1), FinSetMap(fat, f.dom, assign2),
               f, f)
    ok, section = is_weak_pullback(s)
    assert ok and not is_pullback(s)
    # the section picks one preimage per pullback element
    assert set(section.keys()) == set(elems)


def test_noncommuting_square_rejected():
    f = make_finset_map(("a",), ("0", "1"), {"a": "0"})
    g = make_finset_map(("a",), ("0", "1"), {"a": "1"})
    s = Square(identity_finset(("a",)), identity_finset(("a",)), f, g)
    with pytest.raises(LimitError):
        is_pullback(s)


def test_pullback_implies_weak_on_random_squares():
    import random

    rng = random.Random(13)
    for _ in range(25):
        nz = rng.randint(1, 3)
        z = tuple(range(nz))
        x = tuple(range(rng.randint(0, 3)))
        y = tuple(range(rng.randint(0, 3)))
        f = make_finset_map(x, z, {i: rng.randrange(nz) for i in x})
        g = make_finset_map(y, z, {j: rng.randrange(nz) for j in y})
        s = _pullback_square(f, g)
        assert is_pullback(s)
        ok, section = is_weak_pullback(s)
        assert ok
        cmp = {w: (s.p.assign[w], s.q.assign[w]) for w in s.p.dom}
        for elem, w in section.items():
            assert cmp[w] == elem


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
    report = preserves_pullbacks_experiment(list_functor(3), set_cospans(3))
    assert report.all_pullback and report.all_weak
    assert len(report.results) > 400


def test_list_preservation_matches_zip_oracle():
    # lists of pairs correspond to pairs of equal-length lists with equal image
    F = list_functor(3)
    f = make_finset_map(("a", "b"), ("*",), lambda _: "*")
    elems, _, _ = pullback_sets(f, f)
    lists_of_pairs = F.on_set(elems)
    pairs_of_lists = [
        (u, v) for u in F.on_set(f.dom) for v in F.on_set(f.dom)
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
    fp1, fp2 = F.on_map(p1), F.on_map(p2)
    assert (fp1.assign[left], fp2.assign[left]) == image
    assert (fp1.assign[right], fp2.assign[right]) == image
    assert left != right


def test_identity_functor_passes():
    report = preserves_pullbacks_experiment(identity_functor(), set_cospans(2))
    assert report.all_pullback


# --- cartesian transformation predicates ---------------------------------------------


def _sample_maps():
    maps = []
    for a, b in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        dom = tuple(range(a))
        cod = tuple(range(b))
        for img in itertools.product(cod, repeat=a):
            maps.append(make_finset_map(dom, cod, dict(zip(dom, img))))
    return maps


def test_singleton_inclusion_is_cartesian():
    Id_, L = identity_functor(), list_functor(2)

    def unit(xs):
        return make_finset_map(tuple(xs), L.on_set(xs), lambda x: (x,))

    maps = _sample_maps()
    assert is_cartesian_on(Id_, L, unit, maps)
    assert is_weakly_cartesian_on(Id_, L, unit, maps)


def test_collapse_to_point_is_not_cartesian():
    Id_ = identity_functor()
    const = identity_functor()
    const = type(const)("const", lambda xs: ("*",),
                        lambda m: make_finset_map(("*",), ("*",), {"*": "*"}))

    def bang(xs):
        return make_finset_map(tuple(xs), ("*",), lambda _: "*")

    merge = make_finset_map((0, 1), (0,), {0: 0, 1: 0})
    sq = naturality_square(Id_, const, bang, merge)
    assert square_violation(sq) is None
    assert not is_pullback(sq)
    ok, _ = is_weak_pullback(sq)
    assert ok  # surjective components keep it weakly cartesian
    empty_to_point = make_finset_map((), (0,), {})
    sq2 = naturality_square(Id_, const, bang, empty_to_point)
    ok2, _ = is_weak_pullback(sq2)
    assert not ok2


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


def test_graph_pullback_matches_brute_force():
    z = GraphData(1, ((0, 0),))
    x = GraphData(1, ((0, 0), (0, 0)))
    f = graph_homs(x, z)[0]
    p, p1, p2 = graph_pullback(f, f, x, x)
    assert p.nv == 1 and len(p.edges) == 4


def test_graph_paths_loop():
    loop = GraphData(1, ((0, 0),))
    assert len(graph_paths(loop, 3)) == 4


def test_check_path_cospan_parallel_edges():
    z = GraphData(2, ((0, 1),))
    x = GraphData(2, ((0, 1), (0, 1)))
    f = graph_homs(x, z)[0]
    res = check_path_cospan(x, x, f, f, 3)
    assert res.pullback_ok


def test_path_fibers_consistency():
    g = GraphData(2, ((0, 1), (1, 0)))
    z = GraphData(1, ((0, 0),))
    f = graph_homs(g, z)[0]
    fibers = path_fibers(g, f, 3)
    assert sum(fibers.values()) == len(graph_paths(g, 3))


def test_run_path_preservation_small_family_all_generic():
    summary = run_path_preservation(2, 2, 3, generic_stride=1)
    assert summary.all_pullback
    assert summary.generic_checked == summary.cospans > 4000
    assert not summary.count_failures and not summary.generic_failures


def test_cospan_orbits_one_member_per_orbit():
    # brute-force reference: every (x, y, f, g) into each z, grouped into
    # orbits of Aut(Z) acting on both legs by postcomposition
    def post(a, m):
        return (tuple(a.vmap[v] for v in m.vmap), tuple(a.emap[e] for e in m.emap))

    for bounds in ((2, 1), (2, 2)):
        graphs = enumerate_graphs(*bounds)
        orbit_of = {}
        for z in graphs:
            auts = graph_automorphisms(z)
            for x, y in itertools.product(graphs, repeat=2):
                for f, g in itertools.product(graph_homs(x, z), graph_homs(y, z)):
                    orbit = frozenset((post(a, f), post(a, g)) for a in auts)
                    orbit_of[(z, x, y, f, g)] = (z, x, y, orbit)
        yielded = []
        for c, z, x, y, f, g, leg_f, leg_g in _cospan_orbits(*bounds, 2, 0, 1):
            yielded.append(orbit_of[(z, x, y, f, g)])
            assert c == len(yielded)
            zpaths = graph_paths(z, 2)
            for leg, dom, m in ((leg_f, x, f), (leg_g, y, g)):
                # the dense vector ends at its last nonzero entry
                assert len(leg.fibers) <= len(zpaths)
                assert not leg.fibers or leg.fibers[-1]
                fibers = path_fibers(dom, m, 2)
                for n, p in enumerate(zpaths):
                    assert (leg.fibers[n] if n < len(leg.fibers) else 0) == fibers.get(p, 0)
                assert sum(leg.fibers) == sum(fibers.values())
            assert check_path_cospan(x, y, f, g, 2).pullback_ok
        assert len(yielded) == len(set(yielded)) < len(orbit_of)
        assert set(yielded) == set(orbit_of.values())


def test_shared_pullback_matches_brute_force():
    checked = 0
    for _, z, x, y, f, g, leg_f, leg_g in _cospan_orbits(2, 2, 2, 0, 1):
        verts, edges = _bucket_pullback(y.nv, (leg_f.verts, leg_f.edges),
                                        (leg_g.verts, leg_g.edges))
        assert len(verts) == sum(map(mul, leg_f.sizes, leg_g.sizes))
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
        # graph_pullback renumbers the same pullback in pair order
        p, p1, p2 = graph_pullback(f, g, x, y)
        assert list(zip(p1.vmap, p2.vmap)) == sorted(vpairs)
        assert list(zip(p1.emap, p2.emap)) == sorted(epairs)
        vidx = {pair: n for n, pair in enumerate(sorted(vpairs))}
        assert p.edges == tuple(
            (vidx[(x.edges[a][0], y.edges[b][0])], vidx[(x.edges[a][1], y.edges[b][1])])
            for a, b in sorted(epairs))
        checked += 1
    assert checked > 4000


def _parallel_cospan():
    z = GraphData(2, ((0, 1),))
    x = GraphData(2, ((0, 1), (0, 1)))
    f = graph_homs(x, z)[0]
    return x, f, _flat_pullback(f, f, x, x)


def test_check_path_cospan_supplied_pullback_missing_edge():
    x, f, (verts, edges) = _parallel_cospan()
    assert check_path_cospan(x, x, f, f, 3, pullback=(verts, edges)).pullback_ok
    u, w, a, b = edges[-1]
    res = check_path_cospan(x, x, f, f, 3, pullback=(verts, edges[:-1]))
    assert not res.weak_ok and not res.pullback_ok and res.conflated is None
    assert res.missing == ((0, (a,)), (0, (b,)))


def test_check_path_cospan_supplied_pullback_duplicate_edge():
    x, f, (verts, edges) = _parallel_cospan()
    res = check_path_cospan(x, x, f, f, 3, pullback=(verts, edges + edges[:1]))
    assert res.weak_ok and not res.pullback_ok and res.missing is None
    first, second, key = res.conflated
    _, _, a, b = edges[0]
    assert first != second and key == ((0, (a,)), (0, (b,)))


@pytest.mark.parametrize("bounds, stride", [((2, 2, 3), 1), ((2, 2, 2), 7)])
def test_one_cpu_gives_the_same_summary(monkeypatch, bounds, stride):
    default = run_path_preservation(*bounds, generic_stride=stride)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    single = run_path_preservation(*bounds, generic_stride=stride)
    assert single == default  # every field of the dataclass
    assert single.generic_checked == single.cospans // stride


def _patch_checker(monkeypatch, act):
    """check_path_cospan runs `act(x, y, f, g, result)` after each check."""
    original = limitlab.check_path_cospan

    def checker(x, y, f, g, *args):
        res = original(x, y, f, g, *args)
        act(x, y, f, g, res)
        return res

    monkeypatch.setattr(limitlab, "check_path_cospan", checker)


def _count_forks(monkeypatch) -> list:
    """The pids of the children forked from now on."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def _reaped(pid) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_generic_failures_in_cospan_order(monkeypatch):
    def chosen(x, y, f, g):
        return x.nv == 2 and len(y.edges) == 2

    def fail_chosen(x, y, f, g, res):
        if chosen(x, y, f, g):
            res.pullback_ok = False

    _patch_checker(monkeypatch, fail_chosen)
    expected = [(z, x, y, f, g)
                for c, z, x, y, f, g, _, _ in limitlab._cospan_orbits(2, 2, 2, 0, 1)
                if c % 3 == 0 and chosen(x, y, f, g)]
    assert len(expected) > 20
    failures = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        forks = _count_forks(monkeypatch)
        summary = run_path_preservation(2, 2, 2, generic_stride=3)
        assert len(forks) == len(cpus) - 1
        assert [tuple(entry[:5]) for entry in summary.generic_failures] == expected
        failures[len(cpus)] = summary.generic_failures
    assert failures[1] == failures[2]


@pytest.mark.parametrize("where", ["child", "caller"])
def test_failing_share_raises_and_children_are_reaped(monkeypatch, where):
    caller = os.getpid()

    def boom(x, y, f, g, res):
        if (os.getpid() == caller) == (where == "caller"):
            raise ValueError(f"boom in the {where}")

    _patch_checker(monkeypatch, boom)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = _count_forks(monkeypatch)
    with pytest.raises(ValueError, match=f"boom in the {where}"):
        run_path_preservation(2, 1, 2, generic_stride=1)
    assert len(forks) == 1 and _reaped(forks[0])


def test_dead_child_share_raises(monkeypatch):
    caller = os.getpid()

    def die(x, y, f, g, res):
        if os.getpid() != caller:
            os._exit(3)

    _patch_checker(monkeypatch, die)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = _count_forks(monkeypatch)
    with pytest.raises(LimitError, match="status 3"):
        run_path_preservation(2, 1, 2, generic_stride=1)
    assert len(forks) == 1 and _reaped(forks[0])


# --- the gate ----------------------------------------------------------------------


def test_gate_one_passes():
    report = computad_topos_gate(1, Bounds(size=3))
    assert report.verdict == "pass-within-bounds"
    assert "bounded evidence" in report.wording
    assert all(c["strongly_regular"] for c in report.slice_checks)


def test_gate_two_passes():
    report = computad_topos_gate(2, Bounds(size=3))
    assert report.verdict == "pass-within-bounds"
    assert all(e["all_pullback"] for e in report.experiments)


def test_gate_three_counterexample_with_replay():
    report = computad_topos_gate(3, Bounds(size=2))
    assert report.verdict == "counterexample"
    assert "complete finite counterexample" in report.wording
    w = report.witness
    assert sorted([w["left_multiset"], w["right_multiset"]]) == [
        ["(a|a)", "(b|b)"], ["(a|b)", "(b|a)"]]
    assert w["oracle_replay_conflates"] and w["oracle_replay_weak"]
    p2 = [c for c in report.slice_checks if "P2" in c["slice"]][0]
    assert not p2["strongly_regular"] and p2["violation"] == "permutation"


def test_gate_three_failure_persists_at_larger_bounds():
    report = computad_topos_gate(3, Bounds(size=3), witness_size=3)
    assert report.verdict == "counterexample"
    assert report.witness["oracle_replay_conflates"]


def test_gate_rejects_unsupported_dimension():
    with pytest.raises(LimitError):
        computad_topos_gate(4)
