import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest

from computadlab.freecat import Bounds, Gen, Id
from computadlab.operads import (
    NonSymCollection, OperadError, Presentation, SymCollection, all_perms,
    collection_violation, eval_analytic, eval_strongly_analytic,
    free_sym_collection, is_strongly_regular_presentation, parse_presentation,
    perm_compose, slice_arities, slice_of_strict, strong_analytic_bijection,
    transpose_values,
)
from oracles import (
    free_commutative_monoid_elements, free_monoid_elements, regular_sym_collection,
    slice_matches_oracle, trivial_sym_collection,
)

# --- independent oracles -------------------------------------------------------


def brute_orbit_count(a: SymCollection, xs, arity_bound):
    """Orbit counting by building every orbit as a frozenset."""
    orbits = set()
    for n in a.arities():
        if n > arity_bound:
            continue
        for e in a.sets[n]:
            for v in itertools.product(xs, repeat=n):
                orbit = frozenset(
                    (n, repr(a.act(n, p, e)), _place(p, v)) for p in all_perms(n))
                orbits.add(orbit)
    return len(orbits)


def _place(p, v):
    out = [None] * len(v)
    for i, x in enumerate(v):
        out[p[i]] = x
    return tuple(out)


# --- analytic evaluation --------------------------------------------------------


def test_commutative_collection_gives_multisets():
    a = trivial_sym_collection({0: ["*"], 1: ["*"], 2: ["*"]})
    out = eval_analytic(a, ["x", "y"], 2)
    assert len(out) == 6  # multisets of size <= 2 over two elements
    assert len(out) == brute_orbit_count(a, ["x", "y"], 2)


def test_regular_collection_gives_lists():
    a = regular_sym_collection(2)
    out = eval_analytic(a, ["x", "y"], 2)
    assert len(out) == 7  # 1 + 2 + 4
    assert len(out) == brute_orbit_count(a, ["x", "y"], 2)


def test_eval_analytic_empty_set_keeps_constants():
    a = trivial_sym_collection({0: ["c"], 2: ["m"]})
    out = eval_analytic(a, [], 3)
    assert len(out) == 1 and out[0][1] == "c"


def test_eval_strongly_analytic_counts():
    a = NonSymCollection({n: ["*"] for n in range(4)})
    assert len(eval_strongly_analytic(a, ["x", "y"], 3)) == 15
    only_constant = NonSymCollection({0: ["c"]})
    assert len(eval_strongly_analytic(only_constant, ["x", "y"], 3)) == 1
    empty = NonSymCollection({})
    assert eval_strongly_analytic(empty, ["x"], 3) == []


def test_collection_violation_catches_broken_action():
    a = trivial_sym_collection({2: ["m", "w"]})
    a.action[2][(1, 0)]["m"] = "w"  # transposition no longer an involution map pair
    a.action[2][(1, 0)]["w"] = "w"
    assert collection_violation(a) is not None


def _all_pairs_violation(a: SymCollection) -> str | None:
    """The reference for `collection_violation`: the same laws, composition
    checked on every pair of permutations."""
    for n, elems in a.sets.items():
        perms = all_perms(n)
        tables = a.action.get(n)
        if tables is None or set(tables) != set(perms):
            return f"arity {n}: action tables missing"
        for p in perms:
            for e in elems:
                if e not in tables[p] or tables[p][e] not in elems:
                    return f"arity {n}: action of {p} not a map on the set"
        for e in elems:
            if tables[tuple(range(n))][e] != e:
                return f"arity {n}: identity permutation acts nontrivially"
        for p in perms:
            for q in perms:
                pq = tuple(p[q[i]] for i in range(n))
                for e in elems:
                    if tables[pq][e] != tables[p][tables[q][e]]:
                        return f"arity {n}: action not compatible with composition"
    return None


def _sign(p) -> int:
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))) % 2


def _random_action(rng: random.Random, n: int) -> SymCollection:
    """Tables of a Sigma_n-action on a few orbits of words over {a, b},
    twisted by the sign on a second copy, then broken in one of six ways
    (or not at all)."""
    perms = all_perms(n)
    words = {tuple(rng.choice("ab") for _ in range(n)) for _ in range(rng.randint(1, 2))}
    orbit = sorted({_place(p, w) for w in words for p in perms})
    twisted = rng.random() < 0.5
    elems = [(w, b) for w in orbit for b in ((0, 1) if twisted else (0,))]
    tables = {p: {(w, b): (_place(p, w), (b + _sign(p)) % 2 if twisted else b)
                  for w, b in elems} for p in perms}
    others = [p for p in perms if p != tuple(range(n))]
    kind = rng.randrange(7)
    if kind == 1 and others:  # one entry moved to another element
        tables[rng.choice(others)][rng.choice(elems)] = rng.choice(elems)
    elif kind == 2 and len(others) > 1:  # one permutation acts as another
        p, q = rng.sample(others, 2)
        tables[p] = dict(tables[q])
    elif kind == 3:  # the identity moves an element
        tables[tuple(range(n))][rng.choice(elems)] = rng.choice(elems)
    elif kind == 4:  # an image outside the set
        tables[rng.choice(perms)][rng.choice(elems)] = ("z", 0)
    elif kind == 5 and others:  # a permutation without a table
        del tables[rng.choice(others)]
    elif kind == 6 and others and twisted:  # one permutation loses its twist
        p = rng.choice(others)
        tables[p] = {(w, b): (_place(p, w), b) for w, b in elems}
    return SymCollection({n: elems}, {n: tables})


LAWS = ("tables missing", "not a map", "identity", "composition")


def test_generator_check_agrees_with_all_pairs():
    rng = random.Random(12)
    verdicts = Counter()
    for _ in range(3000):
        a = _random_action(rng, rng.randint(0, 4))
        verdict = collection_violation(a)
        assert verdict == _all_pairs_violation(a), a
        verdicts[verdict and next(law for law in LAWS if law in verdict)] += 1
    # every outcome occurs often enough to be compared
    assert set(verdicts) == {None, *LAWS}, verdicts
    assert min(verdicts.values()) > 100, verdicts


def test_transposing_values_is_composing_with_the_transposition():
    for n in range(2, 7):
        perms = all_perms(n)
        for i in range(n - 1):
            t = tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n))
            for q in perms:
                assert transpose_values(q, i) == perm_compose(t, q)


def test_free_symmetric_agrees_with_strongly_analytic():
    nonsym = NonSymCollection({0: ["u"], 1: ["a", "b"], 2: ["m"], 3: ["t", "s"]})
    for size in range(4):
        xs = [f"x{i}" for i in range(size)]
        free = free_sym_collection(nonsym)
        orbits = eval_analytic(free, xs, 3)
        plain = eval_strongly_analytic(nonsym, xs, 3)
        assert len(orbits) == len(plain)
        pairing = strong_analytic_bijection(nonsym, xs, 3)
        assert sorted(map(repr, pairing.values())) == sorted(map(repr, plain))
        assert len(set(pairing.values())) == len(pairing)


def test_eval_monotone_in_bounds():
    a = trivial_sym_collection({n: ["*"] for n in range(4)})
    sizes = [len(eval_analytic(a, ["x", "y"], b)) for b in range(4)]
    assert sizes == sorted(sizes)
    grow = [len(eval_analytic(a, [f"x{i}" for i in range(m)], 2))
            for m in range(4)]
    assert grow == sorted(grow)


# --- strong regularity ------------------------------------------------------------


def theory(name: str) -> str:
    return resources.files("computadlab").joinpath("data", name).read_text()


def test_monoid_is_strongly_regular():
    p = parse_presentation(theory("monoid.thy"))
    assert is_strongly_regular_presentation(p).strongly_regular


def test_commutative_monoid_fails_with_permutation():
    p = parse_presentation(theory("commutative_monoid.thy"))
    verdict = is_strongly_regular_presentation(p)
    assert not verdict.strongly_regular
    assert verdict.violation == "permutation"
    assert verdict.equation_index == 3


def test_double_monoid_shared_unit_is_strongly_regular():
    p = parse_presentation(theory("gray_slice2.thy"))
    assert is_strongly_regular_presentation(p).strongly_regular


def test_repetition_and_deletion_witnesses():
    p = parse_presentation("op m : 2\neq m(x,x) = x\n")
    v = is_strongly_regular_presentation(p)
    assert v.violation == "repetition"
    p = parse_presentation("op m : 2\nop e : 0\neq m(x,y) = x\n")
    v = is_strongly_regular_presentation(p)
    assert v.violation == "deletion"


def test_regularity_invariant_under_renaming_and_reordering():
    base = parse_presentation(theory("monoid.thy"))
    renamed = parse_presentation(
        theory("monoid.thy").replace("x", "alpha").replace("y", "beta")
        .replace("z", "gamma"))
    reordered = Presentation(base.ops, list(reversed(base.equations)))
    for p in (base, renamed, reordered):
        assert is_strongly_regular_presentation(p).strongly_regular
    commutative = parse_presentation(
        theory("commutative_monoid.thy").replace("x", "u").replace("y", "w"))
    assert is_strongly_regular_presentation(commutative).violation == "permutation"


def test_op_lines_may_follow_their_use():
    p = parse_presentation("op m : 2\neq m(x,e) = x\nop e : 0\n")
    assert p.ops == {"m": 2, "e": 0} and p.equations == [(["x"], ["x"])]
    assert is_strongly_regular_presentation(p).strongly_regular


def test_parser_rejects_bad_input():
    with pytest.raises(OperadError):
        parse_presentation("op m : two\n")
    with pytest.raises(OperadError):
        parse_presentation("op m : 2\neq m(x) = x\n")
    with pytest.raises(OperadError):
        parse_presentation("eq f(x) = x\n")


# --- slices -------------------------------------------------------------------------


def test_first_slice_is_free_monoid():
    res = slice_of_strict(1, ["a", "b"], Bounds(size=3))
    assert res.counts == {0: 1, 1: 2, 2: 4, 3: 8}
    ok, expected, name = slice_matches_oracle(res)
    assert ok and expected == res.counts and name == "free-monoid"
    assert res.fixed_point


def test_second_slice_is_free_commutative_monoid():
    res = slice_of_strict(2, ["a", "b"], Bounds(size=3))
    assert res.counts == {0: 1, 1: 2, 2: 3, 3: 4}
    ok, _, name = slice_matches_oracle(res)
    assert ok and name == "free-commutative-monoid"
    assert res.fixed_point


@pytest.mark.parametrize("k,keep,lose", [
    (1, ("a", "b"), ("b", "a")),
    (2, ("a", "a"), ("a", "b")),
], ids=["k1-word", "k2-multiset"])
def test_slice_oracle_rejects_two_classes_on_one_element(k, keep, lose):
    res = slice_of_strict(k, ["a", "b"], Bounds(size=2))
    assert slice_matches_oracle(res)[0]
    lv = res.free.levels[k]
    # one class takes another's representative: the counts by size stay right,
    # but two classes now share an element and `lose` has no class
    elems = [tuple(sorted(g.name for g in _leaves(t))) if k > 1
             else tuple(g.name for g in _leaves(t)) for t in lv.rep_terms]
    lv.rep_terms[elems.index(lose)] = lv.rep_terms[elems.index(keep)]
    ok, expected, _ = slice_matches_oracle(res)
    assert not ok and expected == res.counts


def _leaves(t):
    if isinstance(t, Gen):
        return [t]
    if isinstance(t, Id):
        return []
    return _leaves(t.left) + _leaves(t.right)


def test_free_monoid_on_no_generators_is_the_empty_word():
    assert free_monoid_elements([], 10**6) == [()]


def test_slice_on_empty_set_is_the_unit():
    res = slice_of_strict(1, [], Bounds(size=3))
    assert res.counts == {0: 1}


@pytest.mark.parametrize("k,n", [(1, 3), (2, 2), (3, 2)])
def test_slice_at_size_zero_is_the_unit(k, n):
    """At size 0 the generators' classes lie above the bound: the oracle
    reads only the identity class, as the counts do."""
    res = slice_of_strict(k, [f"x{i}" for i in range(n)], Bounds(size=0))
    assert res.counts == {0: 1}
    ok, expected, _ = slice_matches_oracle(res)
    assert ok and expected == {0: 1}


@pytest.mark.parametrize("k,n", [(1, 1), (1, 3), (2, 1), (2, 3)])
def test_slice_oracle_agreement_across_sizes(k, n):
    size = 4
    res = slice_of_strict(k, [f"g{i}" for i in range(n)], Bounds(size=size))
    expected = ({s: n**s for s in range(size + 1)} if k == 1 else
                {s: len(list(itertools.combinations_with_replacement(range(n), s)))
                 for s in range(size + 1)})
    assert res.counts == expected


def test_slice_three_matches_commutative_oracle():
    res = slice_of_strict(3, ["a", "b"], Bounds(size=2, rounds=30))
    assert res.counts == {0: 1, 1: 2, 2: 3}


def test_slice_three_on_three_generators_is_a_bijection():
    gens = ["a", "b", "c"]
    res = slice_of_strict(3, gens, Bounds(size=4))
    msets = res.free.levels[3].msets
    assert len(set(msets)) == len(msets)
    assert set(msets) == set(free_commutative_monoid_elements(gens, 4))
    assert res.fixed_point
    assert set(res.free.soundness_report()) == {"axiom_instances", "merges",
                                                "unknown_verdicts"}


# --- the slices' arities ------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_slice_arities_count_elements_and_orbits(k):
    """|A_1[n]| = n! in one orbit, so Sigma_n acts freely; for k >= 2,
    |A_k[n]| = 1, fixed by all of Sigma_n, so it does not from n = 2. Each
    orbit count is the number of size-n classes on one generator."""
    top = 4
    arities = slice_arities(slice_of_strict(k, [f"x{i}" for i in range(top)], Bounds(size=top)))
    one = slice_of_strict(k, ["x0"], Bounds(size=top)).counts
    assert [a["arity"] for a in arities] == list(range(top + 1))
    for a in arities:
        n = a["arity"]
        assert a["orbits"] == one[n] == 1
        assert a["elements"] == (math.factorial(n) if k == 1 else 1)
        assert a["free"] == (k == 1 or n < 2)


def test_slice_arities_stop_at_the_generators_and_the_size():
    assert [a["arity"] for a in slice_arities(slice_of_strict(1, [], Bounds(size=3)))] == [0]
    assert [a["arity"] for a in slice_arities(
        slice_of_strict(2, ["a", "b", "c"], Bounds(size=2)))] == [0, 1, 2]


def interpolate(values) -> list[Fraction]:
    """The coefficients, lowest degree first, of the polynomial of degree
    below len(values) that takes values[m] at m = 0, 1, ...: Lagrange's
    formula in exact arithmetic."""
    coeffs = [Fraction(0)] * len(values)
    for i, y in enumerate(values):
        basis, scale = [Fraction(1)], Fraction(y)
        for j in range(len(values)):
            if j != i:  # basis * (m - j)
                basis = [(basis[d - 1] if d else 0) - j * (basis[d] if d < len(basis) else 0)
                         for d in range(len(basis) + 1)]
                scale /= i - j
        coeffs = [c + scale * b for c, b in zip(coeffs, basis)]
    return coeffs


@pytest.mark.parametrize("k", [1, 2, 3])
def test_freeness_is_a_monomial_cycle_index(k):
    """On m generators, the size-n classes of slice k are the orbits of
    A_k[n] x m^n: a polynomial P_n(m), the sum over sigma in Sigma_n of
    |Fix(sigma)| m^(cycles of sigma) / n!. Every coefficient is at least 0;
    the identity gives the top one, |A_k[n]| / n!, and any other sigma with
    a fixed point a lower one. So P_n is a monomial exactly when Sigma_n
    acts freely. P_n is read from the counts on 0..n generators, and the
    count on n + 1 generators must fit it."""
    top = 4
    runs = [slice_of_strict(k, [f"x{i}" for i in range(m)], Bounds(size=top))
            for m in range(top + 2)]
    arities = slice_arities(runs[top])
    for n in range(top + 1):
        counts = [run.counts.get(n, 0) for run in runs]
        poly = interpolate(counts[:n + 1])
        assert sum(c * (n + 1) ** d for d, c in enumerate(poly)) == counts[n + 1]
        assert poly[n] == Fraction(arities[n]["elements"], math.factorial(n))
        assert arities[n]["free"] == (sum(c != 0 for c in poly) == 1)
