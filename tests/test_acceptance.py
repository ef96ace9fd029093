"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion, with elapsed times.
"""

import json
import time
from importlib import resources

from computadlab.cli import main as cli_main
from computadlab.computads import free_algebra, theta_computad
from computadlab.freecat import (
    Bounds, Comp, EQUAL, Gen, equal_cells, verify_certificate,
)
from computadlab.limitlab import (
    check_cospan, make_finset_map, multiset_functor, pullback_sets,
    run_path_preservation,
)
from computadlab.operads import (
    NonSymCollection, eval_analytic, eval_strongly_analytic, free_sym_collection,
    is_strongly_regular_presentation, parse_presentation, slice_of_strict,
    strong_analytic_bijection,
)
from oracles import dfs_paths


def _report(number, label, limit, fn):
    start = time.perf_counter()
    try:
        payload = fn()
    except BaseException:
        print(f"CRITERION {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    line = f"CRITERION {number} ({label}): PASS [{elapsed:.2f}s"
    line += f" < {limit}s]" if limit else "]"
    print(line)
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s"
    return payload


def test_criterion_1_theta_collapse():
    def run():
        for k in range(5):
            fa = free_algebra(theta_computad(k), Bounds(size=3))
            assert [fa.levels[r].n_classes for r in range(k + 1)] == [1] * (k + 1)
            assert fa.fixed_point
    _report(1, "theta collapse k=0..4", 1.0, run)


def test_criterion_2_slice_identification():
    def run():
        first = slice_of_strict(1, ["a", "b"], Bounds(size=4))
        assert first.counts == {0: 1, 1: 2, 2: 4, 3: 8, 4: 16}
        assert first.fixed_point
        second = slice_of_strict(2, ["a", "b"], Bounds(size=4))
        assert second.counts == {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
        assert second.fixed_point
        return first, second
    _report(2, "slices: free monoid / free commutative monoid", 60.0, run)


def test_criterion_3_eckmann_hilton():
    def run():
        pt = Gen("p", 0)
        from computadlab.computads import build_computad
        from computadlab.freecat import Id
        c = build_computad(
            [["p"], [], [("al", Id(pt), Id(pt)), ("be", Id(pt), Id(pt))]])
        fa = free_algebra(c, Bounds(size=2))
        e = fa.engines[2]
        al, be = Gen("al", 2), Gen("be", 2)
        pairs = [
            (Comp(0, al, be), Comp(1, al, be)),
            (Comp(1, al, be), Comp(1, be, al)),
            (Comp(0, al, be), Comp(1, be, al)),
        ]
        for t1, t2 in pairs:
            verdict, cert = equal_cells(e, t1, t2)
            assert verdict == EQUAL
            assert cert.steps, "certificate must be nontrivial"
            assert verify_certificate(e, cert)
        return fa
    _report(3, "Eckmann-Hilton with replayable certificates", 10.0, run)


def test_criterion_4_strong_regularity_catalog():
    def run():
        def verdict(name):
            return is_strongly_regular_presentation(parse_presentation(
                resources.files("computadlab").joinpath("data", name).read_text()))
        assert verdict("monoid.thy").strongly_regular
        commutative = verdict("commutative_monoid.thy")
        assert not commutative.strongly_regular
        assert commutative.violation == "permutation"
        assert commutative.detail
        assert verdict("gray_slice2.thy").strongly_regular
    _report(4, "strong-regularity catalog", None, run)


def test_criterion_5_topos_gate_positive_exhaustive():
    def run():
        summary = run_path_preservation(3, 3, 3, generic_stride=25)
        assert summary.cospans > 6_000_000
        assert not summary.count_failures
        assert summary.generic_checked > 200_000
        assert not summary.generic_failures
        # the generic enumerating checker also runs on every smaller cospan
        small = run_path_preservation(3, 2, 3, generic_stride=1)
        assert small.all_pullback
        assert small.generic_checked == small.cospans
        return summary
    _report(5, "free category functor preserves pullbacks (exhaustive)",
            300.0, run)


def test_criterion_6_topos_gate_negative(capsys):
    def run():
        code = cli_main(["gate", "--n", "3", "--bound", "2",
                         "--format", "structured"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "counterexample"
        w = doc["witness"]
        assert sorted([w["left_multiset"], w["right_multiset"]]) == [
            ["(a|a)", "(b|b)"], ["(a|b)", "(b|a)"]]
        assert len(w["pullback_generators"]) == 4
        assert w["oracle_replay_conflates"] and w["oracle_replay_weak"]
        # replay independently through the brute-force multiset oracle
        F = multiset_functor(2)
        f = make_finset_map(("a", "b"), ("*",), lambda _: "*")
        res = check_cospan(F, f, f)
        assert not res.pullback_ok and res.weak_ok
        left, right, image = res.conflated
        _, p1, p2 = pullback_sets(f, f)
        fp = (F(p1), F(p2))
        assert (fp[0].assign[left], fp[1].assign[left]) == image
        assert (fp[0].assign[right], fp[1].assign[right]) == image
    _report(6, "multiset counterexample via the gate at n=3", 1.0, run)


def test_criterion_7_engine_soundness():
    def run():
        runs = [
            free_algebra(theta_computad(4), Bounds(size=3)),
            slice_of_strict(1, ["a", "b"], Bounds(size=4)).free,
            slice_of_strict(2, ["a", "b"], Bounds(size=4)).free,
            _scalar_free_algebra(),
        ]
        # a merge or round that breaks an invariant raises SoundnessError,
        # which fails the criterion
        total_instances = sum(fa.soundness_report()["axiom_instances"] for fa in runs)
        assert total_instances > 1000
        return total_instances
    _report(7, "engine soundness: no SoundnessError, > 1000 axiom instances", None, run)


def _scalar_free_algebra():
    from computadlab.computads import build_computad
    from computadlab.freecat import Id
    pt = Gen("p", 0)
    c = build_computad(
        [["p"], [], [("al", Id(pt), Id(pt)), ("be", Id(pt), Id(pt))]])
    return free_algebra(c, Bounds(size=2))


def test_criterion_8_oracle_equivalences():
    import random

    def run():
        from computadlab.computads import build_computad
        from computadlab.freecat import term_from_str

        rng = random.Random(20250809)
        for _ in range(20):
            nv = rng.randint(1, 4)
            vertices = [f"v{i}" for i in range(nv)]
            edges = [(f"e{i}", rng.choice(vertices), rng.choice(vertices))
                     for i in range(rng.randint(0, 5))]
            c = build_computad(
                [vertices, [(n, Gen(s, 0), Gen(t, 0)) for n, s, t in edges]])
            fa = free_algebra(c, Bounds(size=3))
            rows = fa.enumerate_cells(1)
            dims = {v: 0 for v in vertices} | {n: 1 for n, _, _ in edges}
            got = set()
            for rep, _ in rows:
                cls = fa.class_of_term(term_from_str(rep, dims))
                start = fa.levels[0].reps[fa.levels[1].src[cls]][4:-1]
                t = term_from_str(rep, dims)

                def leaves(u):
                    from computadlab.freecat import Comp as C, Gen as G
                    if isinstance(u, G):
                        return (u.name,)
                    if isinstance(u, C):
                        return leaves(u.left) + leaves(u.right)
                    return ()

                got.add((start, leaves(t)))
            assert got == set(dfs_paths(vertices, edges, 3))

        # analytic vs strongly analytic, bijectively
        nonsym = NonSymCollection({0: ["u"], 1: ["a"], 2: ["m", "w"], 3: ["t"]})
        for size in range(4):
            xs = [f"x{i}" for i in range(size)]
            orbits = eval_analytic(free_sym_collection(nonsym), xs, 3)
            plain = eval_strongly_analytic(nonsym, xs, 3)
            pairing = strong_analytic_bijection(nonsym, xs, 3)
            assert len(orbits) == len(plain) == len(pairing)
            assert len(set(pairing.values())) == len(pairing)
            assert sorted(map(repr, pairing.values())) == sorted(map(repr, plain))
    _report(8, "path and analytic-functor oracle equivalences", None, run)
