import itertools

import pytest

from computadlab import computads
from computadlab.computads import (
    Computad, ComputadError, GeneratorDecl, NonParallelAttachment,
    build_computad, dumps_computad, free_algebra, induced_class_map,
    loads_computad, pullback_computads, theta_computad,
)
from computadlab.freecat import Bounds, Comp, Gen, Id
from computadlab.operads import k_terminal_computad
from oracles import make_computad_map, map_violation


def scalar_computad(names):
    pt = Gen("p", 0)
    return build_computad([["p"], [], [(n, Id(pt), Id(pt)) for n in names]])


# --- construction and validation ---------------------------------------------------


def test_zero_computad():
    c = build_computad([["a"]])
    assert c.dim == 0 and c.names(0) == ["a"]


def test_scalar_two_cell_valid():
    c = build_computad([["a"], [], [("s", Id(Gen("a", 0)), Id(Gen("a", 0)))]])
    assert c.names(2) == ["s"]


def test_nonparallel_attachment_rejected():
    f, h = Gen("f", 1), Gen("h", 1)
    with pytest.raises(NonParallelAttachment) as err:
        free_algebra(build_computad(
            [["a", "b", "c"],
             [("f", Gen("a", 0), Gen("b", 0)), ("h", Gen("b", 0), Gen("c", 0))],
             [("m", f, h)]]))
    assert "m" in str(err.value)


@pytest.mark.parametrize("side", ["source", "target"])
def test_a_generator_with_one_boundary_missing_is_refused(side):
    """A declaration with exactly one boundary None is refused by name, before
    either boundary is read."""
    a = Gen("a", 0)
    s, t = (None, a) if side == "source" else (a, None)
    with pytest.raises(NonParallelAttachment, match="^generator 'f': missing boundary terms$"):
        free_algebra(build_computad([["a"], [("f", s, t)]]))


def test_duplicate_names_rejected():
    with pytest.raises(ComputadError):
        build_computad([["a", "a"]])


def test_an_attachment_beyond_the_bound_is_refused():
    """A 2-cell on comp_0(f,f) over a loop f needs size 2 below it."""
    text = ("dim 2\n0 a\n1 f : gen(a) => gen(a)\n"
            "2 al : comp_0(gen(f),gen(f)) => comp_0(gen(f),gen(f))\n")
    with pytest.raises(NonParallelAttachment,
                       match="'al': boundary term not materialized within the bounds"):
        free_algebra(loads_computad(text), Bounds(size=1))
    assert "al" in free_algebra(loads_computad(text), Bounds(size=2)).levels[2].gen_class


# --- free algebras -----------------------------------------------------------------


def test_free_algebra_graph_is_path_category():
    c = build_computad(
        [["a", "b"], [("f", Gen("a", 0), Gen("b", 0)),
                      ("g", Gen("a", 0), Gen("b", 0))]])
    fa = free_algebra(c, Bounds(size=3))
    # two vertices, two parallel edges, nothing composable
    assert fa.levels[0].n_classes == 2
    assert fa.levels[1].n_classes == 4


def test_free_algebra_theta_collapses():
    for k in range(5):
        fa = free_algebra(theta_computad(k), Bounds(size=3))
        assert [fa.levels[r].n_classes for r in range(k + 1)] == [1] * (k + 1)
        assert fa.fixed_point


def test_free_algebra_scalar_multisets():
    fa = free_algebra(scalar_computad(["u", "v"]), Bounds(size=3))
    rows = fa.enumerate_cells(2)
    expected = list(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(["u", "v"], n) for n in range(4)))
    assert sorted(m for _, m in rows) == sorted(expected)


# --- theta ---------------------------------------------------------------------------


def test_theta_shapes():
    assert theta_computad(0).dim == 0
    t2 = theta_computad(2)
    assert [len(t2.layers[r]) for r in range(3)] == [1, 0, 0]


# --- computad maps and pullbacks -------------------------------------------------------


def test_identity_map_validates():
    c = scalar_computad(["u", "v"])
    identity = {n: n for r in range(c.dim + 1) for n in c.names(r)}
    assert map_violation(make_computad_map(c, c, identity)) is None


def test_map_boundary_naturality_enforced():
    c = build_computad(
        [["a", "b"], [("f", Gen("a", 0), Gen("b", 0)),
                      ("g", Gen("b", 0), Gen("a", 0))]])
    with pytest.raises(ComputadError):
        make_computad_map(c, c, {"a": "a", "b": "b", "f": "g", "g": "f"})
    flip = make_computad_map(c, c, {"a": "b", "b": "a", "f": "g", "g": "f"})
    assert map_violation(flip) is None


LOOP = build_computad([["a"], [("x", Gen("a", 0), Gen("a", 0))]])
LOOP_E = build_computad([["o"], [("e", Gen("o", 0), Gen("o", 0))]])


@pytest.mark.parametrize("cod, rename, phrase", [
    (build_computad([["o"]]), {"a": "o"}, "dimension mismatch"),
    (LOOP_E, {"a": "o"}, "dim 1: map undefined on 'x'"),
    (LOOP_E, {"a": "o", "x": "o"}, "dim 1: image of 'x' is not a 1-generator"),
], ids=["dimension", "undefined", "wrong-dimension-image"])
def test_a_malformed_computad_map_is_refused(cod, rename, phrase):
    with pytest.raises(ComputadError, match=phrase):
        make_computad_map(LOOP, cod, rename)


def test_pullback_of_identities_is_diagonal():
    c = scalar_computad(["u", "v"])
    i = make_computad_map(c, c, {n: n for r in range(c.dim + 1) for n in c.names(r)})
    rep = pullback_computads(i, i, Bounds(size=3))
    assert len(rep.computad.names(2)) == 2  # (u|u) and (v|v)
    assert len(rep.computad.names(0)) == 1


def test_pullback_of_scalars_is_generator_product():
    cx = scalar_computad(["u", "v"])
    cz = scalar_computad(["w"])
    f = make_computad_map(cx, cz, {"p": "p", "u": "w", "v": "w"})
    rep = pullback_computads(f, f, Bounds(size=3))
    assert sorted(rep.computad.names(2)) == ["(u|u)", "(u|v)", "(v|u)", "(v|v)"]


def test_pullback_with_empty_fiber():
    cx = scalar_computad(["u"])
    cz = scalar_computad(["w", "w2"])
    f = make_computad_map(cx, cz, {"p": "p", "u": "w"})
    g = make_computad_map(cx, cz, {"p": "p", "u": "w2"})
    rep = pullback_computads(f, g, Bounds(size=3))
    assert rep.computad.names(2) == []


def test_pullback_commutes_with_truncation():
    cx = scalar_computad(["u", "v"])
    cz = scalar_computad(["w"])
    f = make_computad_map(cx, cz, {"p": "p", "u": "w", "v": "w"})
    rep = pullback_computads(f, f, Bounds(size=3))
    # the 1-truncations of cx and cz are both the one point p
    point = build_computad([["p"], []])
    ft = make_computad_map(point, point, {"p": "p"})
    rep_t = pullback_computads(ft, ft, Bounds(size=3))
    assert (dumps_computad(Computad(1, rep.computad.layers[:2]))
            == dumps_computad(rep_t.computad))


def test_pullback_without_an_induced_attachment_is_refused(monkeypatch):
    # no class of the pullback-so-far lies over any pair of cells
    monkeypatch.setattr(computads, "induced_class_map",
                        lambda fa_dom, fa_cod, m, r: [None] * fa_dom.levels[r].n_classes)
    cx = scalar_computad(["u"])
    cz = scalar_computad(["w"])
    f = make_computad_map(cx, cz, {"p": "p", "u": "w"})
    with pytest.raises(ComputadError, match=r"dim 2: no induced attachment for \(u,u\)"):
        pullback_computads(f, f, Bounds(size=3))


def _arrows_over_loop():
    """Two parallel arrows with a 2-cell between them, sent onto one loop
    with one 2-cell: a pullback with cells in every dimension."""
    a, b, o = Gen("a", 0), Gen("b", 0), Gen("o", 0)
    cx = build_computad([["a", "b"], [("f", a, b), ("g", a, b)],
                         [("alpha", Gen("f", 1), Gen("g", 1))]])
    cz = build_computad([["o"], [("e", o, o)], [("m", Gen("e", 1), Gen("e", 1))]])
    f = make_computad_map(cx, cz, {"a": "o", "b": "o", "f": "e", "g": "e",
                                   "alpha": "m"})
    return f, f


def _pullback_cases():
    uv, w = scalar_computad(["u", "v"]), scalar_computad(["w"])
    u, w2 = scalar_computad(["u"]), scalar_computad(["w", "w2"])
    ident = make_computad_map(uv, uv, {"p": "p", "u": "u", "v": "v"})
    onto = make_computad_map(uv, w, {"p": "p", "u": "w", "v": "w"})
    return {
        "identities": (ident, ident),
        "scalars": (onto, onto),
        "empty-fiber": (make_computad_map(u, w2, {"p": "p", "u": "w"}),
                        make_computad_map(u, w2, {"p": "p", "u": "w2"})),
        "arrows": _arrows_over_loop(),
    }


@pytest.mark.parametrize("case", ["identities", "scalars", "empty-fiber", "arrows"])
def test_pullback_algebra_climb_matches_fresh_saturation(case):
    f, g = _pullback_cases()[case]
    rep = pullback_computads(f, g, Bounds(size=3))
    fresh = free_algebra(rep.computad, Bounds(size=3))
    assert len(rep.free.levels) == len(fresh.levels) == rep.computad.dim + 1
    for climbed, ref in zip(rep.free.levels, fresh.levels):
        for table in ("reps", "msets", "src", "tgt", "comp", "gen_class", "ids"):
            assert getattr(climbed, table) == getattr(ref, table), table


def test_induced_class_map_renames_cells():
    cx = scalar_computad(["u", "v"])
    cz = scalar_computad(["w"])
    f = make_computad_map(cx, cz, {"p": "p", "u": "w", "v": "w"},
                          Bounds(size=2))
    fa_x = free_algebra(cx, Bounds(size=2))
    fa_z = free_algebra(cz, Bounds(size=2))
    ind = induced_class_map(fa_x, fa_z, f, 2)
    # classes of the same size land on the same target class
    for cls in range(fa_x.levels[2].n_classes):
        size = len(fa_x.levels[2].msets[cls])
        assert len(fa_z.levels[2].msets[ind[cls]]) == size


# --- text format -------------------------------------------------------------------------


def test_computad_format_round_trip():
    c = scalar_computad(["u", "v"])
    text = dumps_computad(c)
    c2 = loads_computad(text)
    assert dumps_computad(c2) == text


def test_pair_names_survive_the_text_format():
    """The gate's scalar pullback names its generators (x|y), so its text
    nests parentheses inside gen(...)."""
    cx, cz = k_terminal_computad(2, ["a", "b"]), k_terminal_computad(2, ["z"])
    f = make_computad_map(cx, cz, {"o": "o", "a": "z", "b": "z"})
    text = dumps_computad(pullback_computads(f, f, Bounds(size=2)).computad)
    assert "2 (a|b) : id1(gen((o|o))) => id1(gen((o|o)))" in text
    assert dumps_computad(loads_computad(text)) == text


def test_loader_rejects_bad_attachments():
    with pytest.raises(ComputadError):
        loads_computad("dim 1\n0 a\n1 f : gen(a) -> gen(a)\n")  # wrong arrow
    with pytest.raises(ComputadError):
        free_algebra(loads_computad("dim 2\n0 a\n2 s : gen(a) => gen(a)\n"))  # wrong dim
