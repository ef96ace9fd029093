"""Collections, analytic functor evaluation, strong regularity, and slices.

A symmetric collection is an arity-graded family of finite sets with
symmetric-group actions; its analytic functor sends X to the orbits of
A[n] x X^n under the diagonal action. Dropping the action gives the
strongly analytic case. `slice_of_strict` computes the slice operads of
the strict-category monad by running the free-algebra engine on a
k-terminal computad, and the free (commutative) monoid cross-checks it.

Strong regularity is decided for a *presentation*; the property of a
theory (existence of some strongly regular presentation) is out of reach
and never claimed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .computads import Computad, FreeAlgebra, GeneratorDecl, free_algebra
from .freecat import Bounds, Gen, Id, Term


class OperadError(Exception):
    pass


# --- collections ---------------------------------------------------------------


def perm_identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def perm_compose(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """Apply t, then s."""
    return tuple(s[t[i]] for i in range(len(s)))


def perm_inverse(s: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(s)
    for i, v in enumerate(s):
        out[v] = i
    return tuple(out)


def all_perms(n: int):
    return [tuple(p) for p in itertools.permutations(range(n))]


def act_on_tuple(s: tuple[int, ...], v: tuple) -> tuple:
    """Left place-permutation: entry i moves to position s[i]."""
    out = [None] * len(v)
    for i, x in enumerate(v):
        out[s[i]] = x
    return tuple(out)


@dataclass
class NonSymCollection:
    """Arity-graded finite sets with no group action."""

    sets: dict[int, list]

    def arities(self) -> list[int]:
        return sorted(self.sets)


# the largest arity a symmetric collection may have, since it carries an
# action table for each of the n! permutations of each arity, and the laws
# are checked on each: `eval` on one element takes 0.26 s and 20 MB at arity
# 7 and 1.0 s and 32 MB at arity 8, where the unlisted permutations share
# one identity table (2-core VM, Python 3.11, process start included), and
# each further arity multiplies the cost by about n
MAX_ARITY = 8


@dataclass
class SymCollection:
    """Arity-graded finite sets with a left symmetric-group action."""

    sets: dict[int, list]
    action: dict[int, dict[tuple[int, ...], dict]]  # arity -> perm -> element map

    def arities(self) -> list[int]:
        return sorted(self.sets)

    def act(self, n: int, perm: tuple[int, ...], elem):
        return self.action[n][perm][elem]


def collection_violation(a: SymCollection) -> str | None:
    """Check the left-action laws at every arity: each permutation acts by a
    map on the set, the identity trivially, and p.q as p after q.

    Composition is checked only for p an adjacent transposition, which is
    enough: these generate Sigma_n, and if the law holds for p' and for a
    transposition t, it holds for t.p', since act(t.p'.q) = act(t) act(p'.q)
    = act(t) act(p') act(q) = act(t.p') act(q). The identity satisfies it
    by the identity law, so by induction on the length of p as a word in
    the transpositions, every p does."""
    for n, elems in a.sets.items():
        perms = all_perms(n)
        tables = a.action.get(n)
        if tables is None or set(tables) != set(perms):
            return f"arity {n}: action tables missing"
        for p in perms:
            tab = tables[p]
            for e in elems:
                if e not in tab or tab[e] not in elems:
                    return f"arity {n}: action of {p} not a map on the set"
        ident = tables[perm_identity(n)]
        for e in elems:
            if ident[e] != e:
                return f"arity {n}: identity permutation acts nontrivially"
        for i in range(n - 1):
            t = perm_identity(i) + (i + 1, i) + tuple(range(i + 2, n))
            for q in perms:
                tq, tab_t, tab_q = tables[perm_compose(t, q)], tables[t], tables[q]
                for e in elems:
                    if tq[e] != tab_t[tab_q[e]]:
                        return f"arity {n}: action not compatible with composition"
    return None


def trivial_sym_collection(sets: dict[int, list]) -> SymCollection:
    action = {n: {p: {e: e for e in elems} for p in all_perms(n)}
              for n, elems in sets.items()}
    return SymCollection({n: list(v) for n, v in sets.items()}, action)


def regular_sym_collection(max_arity: int) -> SymCollection:
    """A[n] = the symmetric group itself, acted on by left multiplication."""
    sets = {n: all_perms(n) for n in range(max_arity + 1)}
    action = {n: {p: {e: perm_compose(p, e) for e in sets[n]} for p in all_perms(n)}
              for n in sets}
    return SymCollection(sets, action)


def free_sym_collection(a: NonSymCollection) -> SymCollection:
    """A[n] = a[n] x Sigma_n with the left action on the second factor."""
    sets = {n: [(e, p) for e in elems for p in all_perms(n)]
            for n, elems in a.sets.items()}
    action = {
        n: {q: {(e, p): (e, perm_compose(q, p)) for (e, p) in sets[n]}
            for q in all_perms(n)}
        for n in sets
    }
    return SymCollection(sets, action)


def eval_strongly_analytic(a: NonSymCollection, x, arity_bound: int) -> list:
    """Sum over n <= arity_bound of a[n] x X^n."""
    x = list(x)
    out = []
    for n in a.arities():
        if n > arity_bound:
            continue
        for e in a.sets[n]:
            for v in itertools.product(x, repeat=n):
                out.append((n, e, v))
    return out


def eval_analytic(a: SymCollection, x, arity_bound: int) -> list:
    """Sum over n <= arity_bound of the orbits of A[n] x X^n under the
    diagonal action; orbits are returned by their least representative."""
    bad = collection_violation(a)
    if bad is not None:
        raise OperadError(bad)
    x = sorted(x, key=repr)
    out = []
    seen = set()
    for n in a.arities():
        if n > arity_bound:
            continue
        perms = all_perms(n)
        for e in a.sets[n]:
            for v in itertools.product(x, repeat=n):
                images = ((a.act(n, p, e), act_on_tuple(p, v)) for p in perms)
                rep = (n,) + min((repr(img), img) for img in images)[1]
                if rep not in seen:
                    seen.add(rep)
                    out.append(rep)
    return out


def strong_analytic_bijection(a: NonSymCollection, x, arity_bound: int):
    """Explicit bijection between the analytic functor of the free symmetric
    collection on `a` and the strongly analytic functor of `a`: normalize an
    orbit to the representative whose permutation component is the identity."""
    orbits = eval_analytic(free_sym_collection(a), x, arity_bound)
    pairing = {}
    for n, (e, p), v in orbits:
        w = act_on_tuple(perm_inverse(p), v)
        pairing[(n, (e, p), v)] = (n, e, w)
    return pairing


# --- presentations and strong regularity ----------------------------------------


@dataclass(frozen=True)
class PTerm:
    head: str
    args: tuple["PTerm", ...] = ()


@dataclass
class Presentation:
    ops: dict[str, int]  # symbol -> arity
    equations: list[tuple[PTerm, PTerm]]


def _parse_pterm(s: str, ops: dict[str, int]) -> PTerm:
    s = s.strip()

    def parse(i: int) -> tuple[PTerm, int]:
        j = i
        while j < len(s) and (s[j].isalnum() or s[j] == "_"):
            j += 1
        if j == i:
            raise OperadError(f"expected a symbol at position {i} in {s!r}")
        head = s[i:j]
        if j < len(s) and s[j] == "(":
            args = []
            j += 1
            while True:
                arg, j = parse(j)
                args.append(arg)
                if j < len(s) and s[j] == ",":
                    j += 1
                    continue
                if j < len(s) and s[j] == ")":
                    return PTerm(head, tuple(args)), j + 1
                raise OperadError(f"expected ',' or ')' at position {j} in {s!r}")
        return PTerm(head), j

    try:
        t, end = parse(0)
        if end != len(s):
            raise OperadError(f"trailing input in term {s!r}")
        _check_pterm(t, ops)
    except RecursionError:
        raise OperadError("term nested too deeply") from None
    return t


def _check_pterm(t: PTerm, ops: dict[str, int]):
    if t.head in ops:
        if len(t.args) != ops[t.head]:
            raise OperadError(
                f"operation {t.head!r} has arity {ops[t.head]}, got {len(t.args)}")
    elif t.args:
        raise OperadError(f"undeclared symbol {t.head!r} used with arguments")
    for a in t.args:
        _check_pterm(a, ops)


def parse_presentation(text: str) -> Presentation:
    """Parse lines 'op m : 2' and 'eq m(x,y) = m(y,x)'."""
    ops: dict[str, int] = {}
    equations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("op "):
            head, _, arity = line[3:].partition(":")
            sym = head.strip()
            if not arity.strip().isdecimal():
                raise OperadError(f"line {lineno}: bad arity")
            try:
                ops[sym] = int(arity.strip())
            except ValueError:  # more digits than int() converts
                raise OperadError(f"line {lineno}: arity has too many digits") from None
        elif line.startswith("eq "):
            lhs, sep, rhs = line[3:].partition("=")
            if not sep:
                raise OperadError(f"line {lineno}: equation needs '='")
            equations.append((_parse_pterm(lhs, ops), _parse_pterm(rhs, ops)))
        else:
            raise OperadError(f"line {lineno}: expected 'op' or 'eq'")
    return Presentation(ops, equations)


def variable_sequence(t: PTerm, ops: dict[str, int]) -> list[str]:
    """Left-to-right variable occurrences; declared constants do not count."""
    if t.head not in ops:
        return [t.head]
    out = []
    for a in t.args:
        out.extend(variable_sequence(a, ops))
    return out


@dataclass
class RegularityVerdict:
    strongly_regular: bool
    equation_index: int | None = None
    violation: str | None = None  # 'repetition' | 'deletion' | 'permutation'
    detail: str = ""


def is_strongly_regular_presentation(p: Presentation) -> RegularityVerdict:
    """True iff every equation has the same variables on both sides, each
    exactly once, in the same left-to-right order."""
    for i, (lhs, rhs) in enumerate(p.equations):
        sl = variable_sequence(lhs, p.ops)
        sr = variable_sequence(rhs, p.ops)
        for side, seq in (("left", sl), ("right", sr)):
            dup = {v for v in seq if seq.count(v) > 1}
            if dup:
                return RegularityVerdict(
                    False, i, "repetition",
                    f"variable {sorted(dup)[0]!r} repeats on the {side} side")
        if set(sl) != set(sr):
            missing = sorted(set(sl) ^ set(sr))[0]
            return RegularityVerdict(
                False, i, "deletion",
                f"variable {missing!r} appears on one side only")
        if sl != sr:
            return RegularityVerdict(
                False, i, "permutation",
                f"variables occur as {sl} on the left but {sr} on the right")
    return RegularityVerdict(True)


# --- slices of the strict-category monad ------------------------------------------


@dataclass
class SliceResult:
    k: int
    generators: list[str]
    counts: dict[int, int]  # cell size -> number of classes
    free: FreeAlgebra
    fixed_point: bool
    unknown_verdicts: int
    partial: bool
    marker: str


def k_terminal_computad(k: int, generators) -> Computad:
    """theta_{k-1} with the given names as k-generators on the unique
    parallel pair: the slice of the strict monad evaluated on a set."""
    if k < 1:
        raise OperadError("slices start at k = 1")
    pad: Term = Gen("o", 0)
    for _ in range(k - 1):
        pad = Id(pad)
    layers: list[list] = [[GeneratorDecl("o")]]
    layers.extend([] for _ in range(k - 1))
    layers.append([GeneratorDecl(str(x), pad, pad) for x in generators])
    return Computad(k, layers)


def slice_of_strict(k: int, generators, bounds: Bounds = Bounds()) -> SliceResult:
    c = k_terminal_computad(k, generators)
    fa = free_algebra(c, bounds)
    counts: dict[int, int] = {}
    for _, mset in fa.enumerate_cells(k):
        counts[len(mset)] = counts.get(len(mset), 0) + 1
    report = fa.soundness_report()
    return SliceResult(
        k=k,
        generators=[str(x) for x in generators],
        counts=counts,
        free=fa,
        fixed_point=fa.fixed_point,
        unknown_verdicts=report["unknown_verdicts"],
        partial=fa.partial,
        marker=fa.partiality_marker(),
    )


def free_monoid_elements(generators, size: int) -> list[tuple]:
    gens = list(generators)
    out = []
    for n in range(size + 1):
        out.extend(itertools.product(gens, repeat=n))
    return out


def free_commutative_monoid_elements(generators, size: int) -> list[tuple]:
    gens = sorted(generators, key=repr)
    out = []
    for n in range(size + 1):
        out.extend(itertools.combinations_with_replacement(gens, n))
    return out


MONOID_PRESENTATION = """\
op m : 2
op e : 0
eq m(m(x,y),z) = m(x,m(y,z))
eq m(e,x) = x
eq m(x,e) = x
"""

COMMUTATIVE_MONOID_PRESENTATION = MONOID_PRESENTATION + "eq m(x,y) = m(y,x)\n"

def _top_generators(t: Term) -> tuple[str, ...]:
    """The top-dimensional generator occurrences of a term, left to right;
    an identity contributes none."""
    if isinstance(t, Gen):
        return (t.name,)
    if isinstance(t, Id):
        return ()
    return _top_generators(t.left) + _top_generators(t.right)


def slice_matches_oracle(result: SliceResult) -> tuple[bool, dict[int, int], str]:
    """Compare a computed slice against the oracle for its k: the free
    monoid for k = 1, the free commutative monoid for k >= 2.

    Each class representative maps to its generator word (k = 1) or its
    sorted generator multiset (k >= 2). The slice matches when this map is a
    bijection onto the oracle's elements within the size bound: its image is
    exactly those elements and no two classes share one. Also returns the
    number of the oracle's elements of each size 0..bound, and the oracle's
    name."""
    first = result.k == 1
    name, oracle = (("free-monoid", free_monoid_elements) if first else
                    ("free-commutative-monoid", free_commutative_monoid_elements))
    size = result.free.bounds.size
    elements = oracle(result.generators, size)
    image = [word if first else tuple(sorted(word, key=repr))
             for word in map(_top_generators, result.free.levels[result.k].rep_terms)]
    ok = len(set(image)) == len(image) and set(image) == set(elements)
    counts = dict.fromkeys(range(size + 1), 0)
    for element in elements:
        counts[len(element)] += 1
    return ok, counts, name
