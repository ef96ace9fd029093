"""Collections, analytic functor evaluation, strong regularity, and slices.

A symmetric collection is an arity-graded family of finite sets with
symmetric-group actions; its analytic functor sends X to the orbits of
A[n] x X^n under the diagonal action. Dropping the action gives the
strongly analytic case. `slice_of_strict` computes the slice operads of
the strict-category monad by running the free-algebra engine on a
k-terminal computad, and `slice_arities` reads from that one run each
arity's size, its number of Sigma_n-orbits, and whether Sigma_n acts
freely, which for an analytic functor is pullback preservation.

Strong regularity is decided for a *presentation*; the property of a
theory (existence of some strongly regular presentation) is out of reach
and never claimed. The verdict compares only each equation's variable
sequences, so a presentation is read straight into them: every op line
first, then each side of each equation in one pass that checks its syntax
and arities.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .computads import (
    MAX_DIM, Computad, FreeAlgebra, GeneratorDecl, free_algebra, theta_computad,
)
from .freecat import LARGEST, Bounds, Gen, Id, Term, natural


class OperadError(Exception):
    pass


# --- collections ---------------------------------------------------------------


def perm_identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def perm_compose(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """Apply t, then s."""
    return tuple(s[t[i]] for i in range(len(s)))


def transpose_values(q: tuple[int, ...], i: int) -> tuple[int, ...]:
    """t.q for the adjacent transposition t of i and i + 1: q with the
    values i and i + 1 swapped."""
    out = list(q)
    out[q.index(i)], out[q.index(i + 1)] = i + 1, i
    return tuple(out)


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
# action table for each of the n! permutations of each arity, built before
# `eval_count` is read, and the laws are checked on each: `eval` on one
# element takes 0.26 s and 20 MB at arity 7 (2-core VM, Python 3.11, process
# start included), where the unlisted permutations share one identity table.
# At arity 8 the laws' check alone reads 8 * 8! table entries per element,
# more than MAX_EVAL, so `eval` refuses it; each further arity would
# multiply the cost of building the tables by about n
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
        members = set(elems)
        for p in perms:
            tab = tables[p]
            for e in elems:
                if e not in tab or tab[e] not in members:
                    return f"arity {n}: action of {p} not a map on the set"
        ident = tables[perm_identity(n)]
        for e in elems:
            if ident[e] != e:
                return f"arity {n}: identity permutation acts nontrivially"
        for i in range(n - 1):
            tab_t = tables[perm_identity(i) + (i + 1, i) + tuple(range(i + 2, n))]
            for q in perms:
                tq, tab_q = tables[transpose_values(q, i)], tables[q]
                for e in elems:
                    if tq[e] != tab_t[tab_q[e]]:
                        return f"arity {n}: action not compatible with composition"
    return None


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


# the most values `eval` visits, counted by `eval_count`: at this count 200
# elements of arity 1 on a set of 500 took 1.0 s in a symmetric collection
# and 0.5 s in a non-symmetric one, and three times the count 2.2 s and 0.9 s
# (2-core VM, Python 3.11, process start and report included)
MAX_EVAL = 100_000


def eval_count(a: NonSymCollection | SymCollection, n_x: int, arity_bound: int) -> int:
    """How many values the evaluation of `a` on a set of n_x elements visits:
    |a[n]| * n_x^n at each arity n <= arity_bound, times the n! permutations
    tried on each when `a` is symmetric, plus n per element for the n-fold
    product, which is set up even when the set is empty. A huge arity key
    costs one step: n_x^n is counted as n_x^min(n, cap), which equals n_x^n
    when n_x <= 1 and exceeds MAX_EVAL at n >= cap when n_x >= 2. A
    symmetric `a` also costs the n * n! + 1 table reads per element with
    which `collection_violation` checks the action laws at every arity n,
    within the bound or not."""
    cap = (MAX_EVAL + 1).bit_length()
    sym = isinstance(a, SymCollection)
    perms = math.factorial if sym else (lambda n: 1)
    laws = sum(len(elems) * (n * perms(n) + 1) for n, elems in a.sets.items()) if sym else 0
    return laws + sum(len(elems) * (n_x ** min(n, cap) * perms(n) + n)
                      for n, elems in a.sets.items() if n <= arity_bound)


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


@dataclass
class Presentation:
    ops: dict[str, int]  # symbol -> arity
    # each equation as its (left, right) variable occurrences, left to right
    equations: list[tuple[list[str], list[str]]]


def _variables(s: str, ops: dict[str, int]) -> list[str]:
    """Read one side of an equation in a single pass: check its syntax and
    each symbol's number of arguments, and return its variable occurrences
    from left to right. A declared symbol is an operation (a constant when
    nullary) and takes exactly its arity in arguments, none written as a
    bare symbol; an undeclared one is a variable and takes none."""
    s = s.strip()
    out: list[str] = []

    def read(i: int) -> int:
        j = i
        while j < len(s) and (s[j].isalnum() or s[j] == "_"):
            j += 1
        if j == i:
            raise OperadError(f"expected a symbol at position {i} in {s!r}")
        head, n = s[i:j], 0
        if j < len(s) and s[j] == "(":
            while True:
                j = read(j + 1)
                n += 1
                if j < len(s) and s[j] == ")":
                    j += 1
                    break
                if j == len(s) or s[j] != ",":
                    raise OperadError(f"expected ',' or ')' at position {j} in {s!r}")
        if head in ops:
            if n != ops[head]:
                raise OperadError(f"operation {head!r} has arity {ops[head]}, got {n}")
        elif n:
            raise OperadError(f"undeclared symbol {head!r} used with arguments")
        else:
            out.append(head)
        return j

    try:
        if read(0) != len(s):
            raise OperadError(f"trailing input in term {s!r}")
    except RecursionError:
        raise OperadError("term nested too deeply") from None
    return out


def parse_presentation(text: str) -> Presentation:
    """Parse lines 'op m : 2' and 'eq m(x,y) = m(y,x)'. Every op line is
    read before any equation, so an op line may come anywhere in the file."""
    ops: dict[str, int] = {}
    sides = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("op "):
            head, _, arity = line[3:].partition(":")
            sym, arity = head.strip(), arity.strip()
            if sym in ops:
                raise OperadError(f"line {lineno}: op {sym!r} is declared twice")
            ops[sym] = natural(arity, LARGEST)
            if ops[sym] is None:
                raise OperadError(f"line {lineno}: an arity must be a number from 0 to "
                                  f"{LARGEST:,} in digits 0-9")
        elif line.startswith("eq "):
            lhs, sep, rhs = line[3:].partition("=")
            if not sep:
                raise OperadError(f"line {lineno}: equation needs '='")
            sides.append((lineno, lhs, rhs))
        else:
            raise OperadError(f"line {lineno}: expected 'op' or 'eq'")
    equations = []
    for lineno, lhs, rhs in sides:
        try:
            equations.append((_variables(lhs, ops), _variables(rhs, ops)))
        except OperadError as exc:
            raise OperadError(f"line {lineno}: {exc}") from None
    return Presentation(ops, equations)


@dataclass
class RegularityVerdict:
    strongly_regular: bool
    equation_index: int | None = None
    violation: str | None = None  # 'repetition' | 'deletion' | 'permutation'
    detail: str = ""


def is_strongly_regular_presentation(p: Presentation) -> RegularityVerdict:
    """True iff every equation has the same variables on both sides, each
    exactly once, in the same left-to-right order."""
    for i, (sl, sr) in enumerate(p.equations):
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


def k_terminal_computad(k: int, generators) -> Computad:
    """theta_{k-1} with the given names as k-generators on the unique
    parallel pair: the slice of the strict monad evaluated on a set. Its
    dimension is k, so k is capped as a computad file caps `dim`."""
    if k < 1:
        raise OperadError("slices start at k = 1")
    if k > MAX_DIM:
        raise OperadError(f"slice k = {k} above the largest supported k {MAX_DIM}")
    pad: Term = Gen("o", 0)
    for _ in range(k - 1):
        pad = Id(pad)
    layers = theta_computad(k - 1).layers
    layers.append([GeneratorDecl(str(x), pad, pad) for x in generators])
    return Computad(k, layers)


def slice_of_strict(k: int, generators, bounds: Bounds = Bounds()) -> SliceResult:
    c = k_terminal_computad(k, generators)
    fa = free_algebra(c, bounds)
    counts: dict[int, int] = {}
    for _, mset in fa.enumerate_cells(k):
        counts[len(mset)] = counts.get(len(mset), 0) + 1
    return SliceResult(
        k=k,
        generators=[str(x) for x in generators],
        counts=counts,
        free=fa,
        fixed_point=fa.fixed_point,
    )


def slice_arities(result: SliceResult) -> list[dict]:
    """Each arity n <= min(#generators, size) of the slice's symmetric
    collection A_k, read from the classes the slice's one saturation made.
    Multisets never mix, so the classes whose multiset uses each of the
    first n generators once are A_k[n] itself, and those whose multiset is
    the first generator n times are its Sigma_n-orbits, as on one generator.
    The action is free exactly when |A_k[n]| = n! * #orbits."""
    gens = result.generators
    count = Counter(result.free.levels[result.k].msets)
    out = []
    for n in range(min(len(gens), result.free.bounds.size) + 1):
        elements = count[tuple(sorted(gens[:n]))]
        orbits = count[tuple(gens[:1] * n)]
        out.append({"arity": n, "elements": elements, "orbits": orbits,
                    "free": elements == math.factorial(n) * orbits})
    return out
