"""Relations the free algebra must satisfy, checked on random small computads
without an oracle.

* Renaming the generators and reordering the declarations within each
  dimension keeps the class histogram per dimension and size and
  `fixed_point`, and each renamed representative resolves to a class of the
  renamed algebra, one class each.
* Reordering the declarations within each dimension, with no renaming,
  gives the same frozen levels: representatives, multisets, boundaries,
  composition and identity tables and generator classes. It is checked on
  random computads and on every declaration order of the benchmark's
  slices and of `scalar2.cpd`.
* The histograms of a disjoint union are the sums of its parts'.
* `equal_cells` is symmetric, and every `equal` verdict's certificate
  verifies. The pairs are, in each dimension, each class root with the last
  term of its member list, and each class root with the next one.
* Duality: for each nonempty J of {1..n}, D_J reverses the j-cells with j
  in J, swapping the attachment of each j-generator and the arguments of
  each comp_(j-1). F(D_J X) = D_J F(X): the duals of the representatives
  are the classes of F(D_J X), one each, with their multisets and the
  (swapped) duals of their boundaries.
* Suspension: ΣX has two 0-cells, and each r-generator of X becomes an
  (r+1)-generator, comp_k becoming comp_(k+1). F(ΣX)_(r+1) is F(X)_r plus
  the iterated identities of the two 0-cells, boundaries included.
  Duality and suspension hold for the strict ω-category monad (Ara and
  Maltsiniotis, "Joint et tranches pour les ∞-catégories strictes", 2020).
  Both run on the random computads, where suspension lifts the 2-computads
  to dimension 3, and on fixed computads up to dimension 3 whose cells have
  distinct sources and targets.
* A full round after saturation changes nothing. Saturation runs one
  generator count at a time and matches an e-node on two non-identity
  children once per stratum; one more round of every stratum afterwards,
  with no watermark, together every pair of roots composed and every
  e-node matched, must add no term and no merge. It is checked on the
  benchmark's slices, on other fixed computads and on the random ones.
  There, too, no stratum takes more than 4 rounds: saturation has no
  round cap, so a schedule that needs more rounds shows here.
* Queries read, saturation writes. For each entry of each frozen
  composition table, `term_node` of the composite of the two
  representatives is the e-node `make_comp` finds on theirs, with the
  entry's class; queries within the bound, beyond it and malformed leave
  the engine's terms, root list and signature table as they were.
* The frozen composition tables are complete up to the size cut: two
  r-classes that compose along k < r into at most `size` generators have
  their composite in the table, unless k < r - 1, the k-composite of their
  sources or of their targets is missing one dimension down, and the size
  bound cut a cell off in some dimension below r. So the size cuts alone
  say whether the algebra is partial.

Limits: these relations catch faults that depend on generator names, on the
order of declarations or of terms, or on other components of the computad,
and that change the classes of a small computad: unit instances that skip a
class root, or generation that skips a root, or a generator by its name.
Duality and suspension also catch a fault that is one-sided, or that shows
in one dimension only: a unit pad that reads the wrong end of a cell in
dimension 3 changes the classes of a suspended 2-computad, or of the dual of
a 3-computad, and not those of the original. None of them can catch an axiom
that is missing or wrong the same way in every dimension and on both sides:
the renamed, reordered, disjoint, dual or suspended copy runs the same rule
and agrees with the original. The oracles in `test_freecat.py` and
`test_operads.py` catch that. Nor do they see a fault that the engine
repairs elsewhere: assoc matching that skips the first e-node of each left
class changes no class, because the mirrored match meets the same
instances, and interchange matching that skips one order of two indices in
dimension 3 changes no class they see, only the engine's work, which
`test_engine_work_is_pinned` pins. The random computads have at
most 2 vertices, 3 edges and 3 2-cells, saturated at size 3 (1-computads)
or 2 (2-computads), so a fault that shows only at larger sizes goes unseen:
interchange matching that skips the first e-node of a class first shows on
a 2-computad at size 3.
"""

import itertools
from collections import Counter
from contextlib import contextmanager
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from computadlab.computads import (
    Computad, GeneratorDecl, build_computad, free_algebra, loads_computad, theta_computad,
)
from computadlab.freecat import (
    EQUAL, GEN, IDA, UNKNOWN, Bounds, Comp, Engine, FreecatError, Gen, Id, _descend_src,
    _descend_tgt, equal_cells, rename_gens, verify_certificate,
)
from computadlab.operads import k_terminal_computad


def saturate(layers):
    """The free algebra at size 3 for a 1-computad, and at size 2 for a
    2-computad: at size 3, two 2-cells on an identity whiskered by two loops
    already make about 30,000 terms. No drawn computad needs more than about
    6,000 terms, so the budget turns a blow-up into a failure, not a hang."""
    return free_algebra(build_computad(layers),
                        Bounds(size=3 if len(layers) == 2 else 2, max_terms=20_000))


@st.composite
def computads(draw, prefix=""):
    """Layers of a 1- or 2-computad: vertices, edges between them, and
    2-cells between parallel 1-cells (an edge, an identity, or a composite
    of two edges)."""
    vertices = [f"{prefix}v{i}" for i in range(draw(st.integers(1, 2)))]
    edges = [(f"{prefix}e{i}", draw(st.sampled_from(vertices)),
              draw(st.sampled_from(vertices))) for i in range(draw(st.integers(0, 3)))]
    # 1-cells with their endpoints, to attach 2-cells to
    ones = [(Id(Gen(v, 0)), v, v) for v in vertices]
    ones += [(Gen(n, 1), s, t) for n, s, t in edges]
    ones += [(Comp(0, Gen(n, 1), Gen(m, 1)), s, u)
             for n, s, t in edges for m, t2, u in edges if t == t2]
    layers = [vertices, [(n, Gen(s, 0), Gen(t, 0)) for n, s, t in edges]]
    if draw(st.booleans()):
        cells = []
        for i in range(draw(st.integers(0, 3))):
            src, s, t = draw(st.sampled_from(ones))
            tgt = draw(st.sampled_from([o for o, s2, t2 in ones if (s2, t2) == (s, t)]))
            cells.append((f"{prefix}c{i}", src, tgt))
        layers.append(cells)
    return layers


def histogram(fa):
    """The number of classes of each dimension and size."""
    return Counter((r, len(mset)) for r, lv in enumerate(fa.levels) for mset in lv.msets)


def node_term(e, t):
    """The term that an engine's term id t stands for."""
    n = e.nodes[t]
    if n.kind == GEN:
        return Gen(n.name, e.dim)
    if n.kind == IDA:
        return Id(e.levels[e.dim - 1].rep_terms[n.lower])
    return Comp(n.k, node_term(e, n.a), node_term(e, n.b))


def assert_verdicts_symmetric_and_certified(fa):
    for e in fa.engines[1:]:
        roots = e.classes()
        pairs = [(r, e._class_terms[r][-1]) for r in roots]
        pairs += list(zip(roots, roots[1:]))
        for u, v in pairs:
            t, s = node_term(e, u), node_term(e, v)
            (kind, why), (back, why_back) = equal_cells(e, t, s), equal_cells(e, s, t)
            assert kind == back
            if kind == EQUAL:
                assert verify_certificate(e, why) and verify_certificate(e, why_back)
            else:
                assert why == why_back


def rename_layers(layers, names, orders):
    out = [[names[n] for n in (layers[0][i] for i in orders[0])]]
    for r in range(1, len(layers)):
        out.append([(names[n], rename_gens(s, names), rename_gens(t, names))
                    for n, s, t in (layers[r][i] for i in orders[r])])
    return out


@st.composite
def renamed(draw):
    layers = draw(computads())
    names = {}
    for layer in layers:
        old = [n if isinstance(n, str) else n[0] for n in layer]
        names.update(zip(old, draw(st.permutations(old))))
    orders = [draw(st.permutations(range(len(layer)))) for layer in layers]
    return layers, names, rename_layers(layers, names, orders)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=renamed())
def test_renaming_and_reordering_keep_the_classes(case):
    layers, names, other = case
    fa, fb = saturate(layers), saturate(other)
    assert fa.fixed_point == fb.fixed_point
    assert histogram(fa) == histogram(fb)
    for r, lv in enumerate(fa.levels):
        image = [fb.class_of_term(rename_gens(t, names)) for t in lv.rep_terms]
        assert None not in image and sorted(image) == list(range(lv.n_classes))
        for mset, c in zip(lv.msets, image):
            assert tuple(sorted(names[n] for n in mset)) == fb.levels[r].msets[c]
    assert_verdicts_symmetric_and_certified(fa)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(a=computads(prefix="a"), b=computads(prefix="b"))
def test_disjoint_union_histograms_add(a, b):
    # both parts padded to the union's dimension
    top = max(len(a), len(b))
    a, b = (parts + [[]] * (top - len(parts)) for parts in (a, b))
    union = [x + y for x, y in zip(a, b)]
    fa, fb, fu = (saturate(layers) for layers in (a, b, union))
    assert histogram(fu) == histogram(fa) + histogram(fb)


def frozen_levels(fa):
    return [(lv.reps, lv.msets, lv.src, lv.tgt, lv.comp, lv.ids, lv.gen_class)
            for lv in fa.levels]


@st.composite
def reordered(draw):
    layers = draw(computads())
    names = [n if isinstance(n, str) else n[0] for layer in layers for n in layer]
    orders = [draw(st.permutations(range(len(layer)))) for layer in layers]
    return layers, rename_layers(layers, dict(zip(names, names)), orders)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=reordered())
def test_reordering_keeps_the_frozen_levels(case):
    layers, other = case
    assert frozen_levels(saturate(layers)) == frozen_levels(saturate(other))


def scalar2():
    return loads_computad(resources.files("computadlab")
                          .joinpath("data", "scalar2.cpd").read_text())


def loop():
    return loads_computad(resources.files("computadlab")
                          .joinpath("data", "loop.cpd").read_text())


@pytest.mark.parametrize("make,size", [
    (lambda: k_terminal_computad(1, ["x0", "x1", "x2"]), 6),
    (lambda: k_terminal_computad(2, ["x0", "x1", "x2"]), 4),
    (lambda: k_terminal_computad(2, ["x0", "x1", "x2"]), 6),
    (lambda: k_terminal_computad(3, ["x0", "x1"]), 4),
    (scalar2, 5),
], ids=["slice-k1-g3-size6", "slice-k2-g3-size4", "slice-k2-g3-size6", "slice-k3-g2-size4",
        "scalar2-size5"])
def test_every_declaration_order_gives_the_same_levels(make, size):
    """The benchmark's slices and `scalar2.cpd`, in every order of the
    declarations within each dimension."""
    c = make()
    want = frozen_levels(free_algebra(c, Bounds(size=size)))
    for orders in itertools.product(*(itertools.permutations(range(len(layer)))
                                      for layer in c.layers)):
        other = Computad(c.dim, [[layer[i] for i in order]
                                 for layer, order in zip(c.layers, orders)])
        assert frozen_levels(free_algebra(other, Bounds(size=size))) == want, orders


# --- duality and suspension ----------------------------------------------------


def dual_term(t, flip):
    """D_J on a term, J = `flip`: comp_(j-1) takes its arguments in the
    other order for each j in J."""
    if isinstance(t, Gen):
        return t
    if isinstance(t, Id):
        return Id(dual_term(t.body, flip))
    left, right = dual_term(t.left, flip), dual_term(t.right, flip)
    return Comp(t.k, right, left) if t.k + 1 in flip else Comp(t.k, left, right)


def dual_computad(c, flip):
    """D_J X, J = `flip`: every j-generator with j in J runs backwards, and
    every attachment is read through D_J."""
    layers = [list(c.layers[0])]
    for r in range(1, c.dim + 1):
        layer = []
        for g in c.layers[r]:
            src, tgt = dual_term(g.src, flip), dual_term(g.tgt, flip)
            layer.append(GeneratorDecl(g.name, *((tgt, src) if r in flip else (src, tgt))))
        layers.append(layer)
    return Computad(c.dim, layers)


BOTTOM, TOP = Gen("bottom", 0), Gen("top", 0)


def suspend_term(t):
    """The term one dimension up: comp_k becomes comp_(k+1)."""
    if isinstance(t, Gen):
        return Gen(t.name, t.dim + 1)
    if isinstance(t, Id):
        return Id(suspend_term(t.body))
    return Comp(t.k + 1, suspend_term(t.left), suspend_term(t.right))


def suspend(c):
    """ΣX: two 0-cells, each r-generator of X an (r+1)-generator, the
    0-generators running from `BOTTOM` to `TOP`."""
    layers = [[GeneratorDecl(BOTTOM.name), GeneratorDecl(TOP.name)],
              [GeneratorDecl(name, BOTTOM, TOP) for name in c.names(0)]]
    layers += [[GeneratorDecl(g.name, suspend_term(g.src), suspend_term(g.tgt))
                for g in layer] for layer in c.layers[1:]]
    return Computad(c.dim + 1, layers)


def assert_dual(fa, fd, flip):
    """F(D_J X) = D_J F(X): the dual of each representative resolves to a
    class of F(D_J X), one class each, with its multiset, and the boundaries
    of each dual class are the duals of the boundaries, swapped in each
    dimension of J."""
    below = None
    for r, (lv, dv) in enumerate(zip(fa.levels, fd.levels)):
        image = [fd.class_of_term(dual_term(t, flip)) for t in lv.rep_terms]
        assert None not in image and sorted(image) == list(range(dv.n_classes)), r
        assert [dv.msets[c] for c in image] == lv.msets
        if r:
            src, tgt = (lv.tgt, lv.src) if r in flip else (lv.src, lv.tgt)
            assert [dv.src[c] for c in image] == [below[s] for s in src], r
            assert [dv.tgt[c] for c in image] == [below[t] for t in tgt], r
        below = image


def assert_suspended(fa, fs):
    """F(ΣX)_(r+1) = F(X)_r plus the iterated identities of the two 0-cells:
    the suspension of each representative resolves to a class, one class
    each, with its multiset and the suspended boundaries, and the two
    identities are the only classes it misses."""
    points = fa.levels[0].n_classes
    srcs, tgts = [fs.class_of_term(BOTTOM)] * points, [fs.class_of_term(TOP)] * points
    pads = [BOTTOM, TOP]
    image = None
    for r, lv in enumerate(fa.levels):
        sv = fs.levels[r + 1]
        pads = [Id(p) for p in pads]
        if r:
            srcs, tgts = [image[s] for s in lv.src], [image[t] for t in lv.tgt]
        image = [fs.class_of_term(suspend_term(t)) for t in lv.rep_terms]
        rest = [fs.class_of_term(p) for p in pads]
        assert None not in image + rest, r
        assert sorted(image + rest) == list(range(sv.n_classes)), r
        assert [sv.msets[c] for c in image] == lv.msets
        assert [sv.src[c] for c in image] == srcs, r
        assert [sv.tgt[c] for c in image] == tgts, r


def flips(dim):
    """Every nonempty J of {1..dim}."""
    return [set(j) for n in range(1, dim + 1)
            for j in itertools.combinations(range(1, dim + 1), n)]


def whiskers():
    """{p; e: p -> p; u, v: e => e}: 2-cells whiskered by a loop."""
    e = Gen("e", 1)
    return build_computad([["p"], [("e", Gen("p", 0), Gen("p", 0))],
                           [("u", e, e), ("v", e, e)]])


def three_cell(dim=3):
    """{p, q; e, e2: p -> q; u: e => e2; m: u => u}, truncated to `dim`: its
    1- and 2-cells have distinct sources and targets."""
    e, e2, u = Gen("e", 1), Gen("e2", 1), Gen("u", 2)
    layers = [["p", "q"], [("e", Gen("p", 0), Gen("q", 0)), ("e2", Gen("p", 0), Gen("q", 0))],
              [("u", e, e2)], [("m", u, u)]]
    return build_computad(layers[:dim + 1])


def chain():
    """{p, q, r; e: p -> q; f: q -> r; u: e => e; w: f => f}: 2-cells that
    compose along comp_0 only across distinct 0-cells."""
    e, f = Gen("e", 1), Gen("f", 1)
    p, q, r = (Gen(n, 0) for n in "pqr")
    return build_computad([["p", "q", "r"], [("e", p, q), ("f", q, r)],
                           [("u", e, e), ("w", f, f)]])


FIXED = {
    "loop-size4": (loop, 4),
    "scalar2-size4": (scalar2, 4),
    "theta2-size3": (lambda: theta_computad(2), 3),
    "slice-k1-g2-size4": (lambda: k_terminal_computad(1, ["x0", "x1"]), 4),
    "slice-k2-g2-size3": (lambda: k_terminal_computad(2, ["x0", "x1"]), 3),
    "slice-k3-g2-size3": (lambda: k_terminal_computad(3, ["x0", "x1"]), 3),
    "whiskers-size2": (whiskers, 2),
    "chain-size2": (chain, 2),
    "three-cell2-size3": (lambda: three_cell(2), 3),
    "three-cell3-size3": (three_cell, 3),
}


@pytest.mark.parametrize("case", FIXED)
def test_duality_on_fixed_computads(case):
    make, size = FIXED[case]
    c = make()
    fa = free_algebra(c, Bounds(size=size))
    for flip in flips(c.dim):
        assert_dual(fa, free_algebra(dual_computad(c, flip), Bounds(size=size)), flip)


@pytest.mark.parametrize("case", [name for name, (make, _) in FIXED.items()
                                  if make().dim <= 2])
def test_suspension_on_fixed_computads(case):
    make, size = FIXED[case]
    c = make()
    assert_suspended(free_algebra(c, Bounds(size=size)),
                     free_algebra(suspend(c), Bounds(size=size)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(layers=computads())
def test_duality_and_suspension_on_random_computads(layers):
    """Suspension lifts the drawn 2-computads to dimension 3."""
    c = build_computad(layers)
    fa = saturate(layers)
    for flip in flips(c.dim):
        assert_dual(fa, free_algebra(dual_computad(c, flip), fa.bounds), flip)
    assert_suspended(fa, free_algebra(suspend(c), fa.bounds))


# --- the fixed point ---------------------------------------------------------------


def theta2():
    return loads_computad(resources.files("computadlab")
                          .joinpath("data", "theta2.cpd").read_text())


def two_loops():
    """{p; e, f: p -> p; u, v: id1(p) => id1(p)}: 2-cells on an identity,
    whiskered by words in two loops."""
    p = Gen("p", 0)
    return build_computad([["p"], [("e", p, p), ("f", p, p)],
                           [("u", Id(p), Id(p)), ("v", Id(p), Id(p))]])


CONFIRMED = {
    "slice-k1-g3-size6": (lambda: k_terminal_computad(1, ["x0", "x1", "x2"]), 6),
    "slice-k2-g3-size4": (lambda: k_terminal_computad(2, ["x0", "x1", "x2"]), 4),
    "slice-k2-g3-size6": (lambda: k_terminal_computad(2, ["x0", "x1", "x2"]), 6),
    "slice-k3-g2-size4": (lambda: k_terminal_computad(3, ["x0", "x1"]), 4),
    "slice-k1-g2-size7": (lambda: k_terminal_computad(1, ["x0", "x1"]), 7),
    "slice-k3-g3-size4": (lambda: k_terminal_computad(3, ["x0", "x1", "x2"]), 4),
    "scalar2-size5": (scalar2, 5),
    "loop-size12": (loop, 12),
    "theta2-size4": (theta2, 4),
    "two-loops-size2": (two_loops, 2),
}


def assert_a_full_round_changes_nothing(fa):
    """One more round of every stratum 0..size after saturation, with no
    watermark, so that together every pair of roots within the bound is
    composed and every e-node of every class matched, adds no term and no
    merge in any dimension: `fixed_point` holds on all the materialized
    terms, not only on each stratum's own."""
    for e in fa.engines[1:]:
        before = len(e.nodes), e.counters["merges"]
        for size in range(fa.bounds.size + 1):
            e.extend_composites(size)
            e.saturation_round(size, 0)
        assert (len(e.nodes), e.counters["merges"]) == before, e.dim


MAX_ROUNDS = 4  # the most any stratum took, over 400 drawn computads as well


@contextmanager
def counting_rounds():
    """Count the rounds of each (engine, stratum) that saturation runs."""
    counts = Counter()
    original = Engine.saturation_round

    def counted(self, size, mark):
        counts[self, size] += 1
        return original(self, size, mark)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "saturation_round", counted)
        yield counts


@pytest.mark.parametrize("case", CONFIRMED)
def test_a_full_round_after_saturation_changes_nothing(case):
    make, size = CONFIRMED[case]
    with counting_rounds() as rounds:
        fa = free_algebra(make(), Bounds(size=size))
    assert fa.fixed_point and max(rounds.values()) <= MAX_ROUNDS
    assert_a_full_round_changes_nothing(fa)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(layers=computads())
def test_a_full_round_after_saturating_a_random_computad_changes_nothing(layers):
    with counting_rounds() as rounds:
        fa = saturate(layers)
    assert max(rounds.values()) <= MAX_ROUNDS
    assert_a_full_round_changes_nothing(fa)


# --- complete up to the size cut ---------------------------------------------------


def complete_up_to_the_cut(fa):
    """Check every pair of r-classes that compose along some k < r into at
    most `size` generators: its composite is in the table, or a boundary
    composite is missing one dimension down and a size cut below r explains
    it. Returns how many pairs each case took."""
    counts = Counter()
    levels, size = fa.levels, fa.bounds.size
    for r in range(1, fa.dim + 1):
        lv, below = levels[r], levels[r - 1].comp
        cut_below = any(e.saw_size_cut for e in fa.engines[1:r])
        for k in range(r):
            on_source: dict[int, list[int]] = {}
            for b in range(lv.n_classes):
                on_source.setdefault(_descend_src(levels, b, r, k), []).append(b)
            for a in range(lv.n_classes):
                room = size - len(lv.msets[a])
                for b in on_source.get(_descend_tgt(levels, a, r, k), ()):
                    if len(lv.msets[b]) > room:
                        continue
                    if (k, a, b) in lv.comp:
                        counts["in the table"] += 1
                        continue
                    assert k < r - 1 and cut_below and (
                        (k, lv.src[a], lv.src[b]) not in below
                        or (k, lv.tgt[a], lv.tgt[b]) not in below), (r, k, a, b)
                    counts["cut below"] += 1
    return counts


def test_composition_tables_are_complete_up_to_the_size_cut():
    """`loop`, `scalar2` and `theta2` at sizes 0-5 have 584 composable pairs
    within the bound, all in the table. The 100 drawn computads, saturated
    as `saturate` does, have 8,022 in the table and 15,151 explained by a
    cut below; a relation that held over no such pair would show nothing."""
    counts = Counter()
    for make in (loop, scalar2, theta2):
        for size in range(6):
            counts += complete_up_to_the_cut(free_algebra(make(), Bounds(size=size)))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(layers=computads())
    def check(layers):
        counts.update(complete_up_to_the_cut(saturate(layers)))

    check()
    assert counts["cut below"] >= 10_000, counts


# --- queries read, saturation writes -------------------------------------------------


def engine_state(e):
    """What a query must leave as it found it: the terms, the root list and
    the signature table."""
    return len(e.nodes), list(e._root), len(e._sig)


def queries_read_the_frozen_level(fa):
    """For each entry (k, a, b) -> c of each engine's frozen composition
    table, the query of comp_k(rep a, rep b) gives the e-node that
    `make_comp` finds on the queried e-nodes of rep a and rep b, the route
    queries took before they became lookups, and that e-node's term has
    class c. A composite of the largest class with each class it composes
    with beyond the bound is None (Unknown to `equal_cells`), one that does
    not compose raises, and so does an index out of range. No query
    changes the engine. Returns how many queries each case took."""
    counts = Counter()
    for e in fa.engines[1:]:
        r, lv = e.dim, fa.levels[e.dim]
        reps = lv.rep_terms
        before = engine_state(e)
        for (k, a, b), c in lv.comp.items():
            t = e.term_node(Comp(k, reps[a], reps[b]))
            assert t == e.make_comp(k, e.term_node(reps[a]), e.term_node(reps[b]))
            assert fa.class_of_term(node_term(e, t)) == c
            counts["in the table"] += 1
        a = max(range(lv.n_classes), key=lambda x: len(lv.msets[x]))
        for k in range(r):
            for b in range(lv.n_classes):
                if len(lv.msets[a]) + len(lv.msets[b]) <= fa.bounds.size:
                    continue
                query = Comp(k, reps[a], reps[b])
                if _descend_tgt(fa.levels, a, r, k) == _descend_src(fa.levels, b, r, k):
                    assert e.term_node(query) is None
                    assert equal_cells(e, query, query)[0] == UNKNOWN
                    counts["beyond the bound"] += 1
                else:
                    with pytest.raises(FreecatError, match="do not compose"):
                        e.term_node(query)
                    counts["malformed"] += 1
        with pytest.raises(FreecatError, match=f"composition index {r} out of range"):
            e.term_node(Comp(r, reps[a], reps[a]))
        assert engine_state(e) == before
    return counts


def test_queries_read_the_frozen_level_and_build_nothing():
    """On `loop`, `scalar2` and `theta2` at sizes 2-4, the slices k/gens/size
    1/3/4, 2/3/3 and 3/2/3 and 30 drawn computads, each query agrees with
    the builder's route element by element and leaves the engine as it was:
    5,486 table entries, 961 queries beyond the bound and 490 that do not
    compose. A relation that saw no query of some kind would show nothing."""
    counts = Counter()
    for make in (loop, scalar2, theta2):
        for size in (2, 3, 4):
            counts += queries_read_the_frozen_level(free_algebra(make(), Bounds(size=size)))
    for k, gens, size in ((1, 3, 4), (2, 3, 3), (3, 2, 3)):
        c = k_terminal_computad(k, [f"x{i}" for i in range(gens)])
        counts += queries_read_the_frozen_level(free_algebra(c, Bounds(size=size)))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(layers=computads())
    def check(layers):
        counts.update(queries_read_the_frozen_level(saturate(layers)))

    check()
    assert min(counts[case] for case in ("in the table", "beyond the bound", "malformed")) > 0
