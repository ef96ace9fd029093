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

Limits: these relations catch faults that depend on generator names, on the
order of declarations or of terms, or on other components of the computad,
and that change the classes of a small computad: unit instances that skip a
class root, or generation that skips a root, or a generator by its name. They
cannot catch an axiom that is missing or wrong everywhere: the renamed,
reordered or disjoint copy runs the same rule and agrees with the original.
The oracles in `test_freecat.py` and `test_operads.py` catch that. Nor do
they see a fault that the engine repairs elsewhere: assoc matching that skips
the first e-node of each left class changes no class, because the mirrored
match meets the same instances. The computads have at most 2 vertices, 3
edges and 3 2-cells, saturated at size 3 (1-computads) or 2 (2-computads),
so a fault that shows only at larger sizes or in dimension 3 goes unseen:
interchange matching that skips the first e-node of a class first shows on a
2-computad at size 3.
"""

import itertools
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from computadlab.computads import Computad, build_computad, free_algebra, loads_computad
from computadlab.freecat import (
    EQUAL, GEN, IDA, Bounds, Comp, Gen, Id, equal_cells, rename_gens, verify_certificate,
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
