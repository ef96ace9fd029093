import gc
import hashlib
import itertools
import pickle
import random
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError
from importlib import resources

import pytest

from computadlab.computads import (
    Computad, GeneratorDecl, build_computad, free_algebra, loads_computad, theta_computad,
)
from computadlab.freecat import (
    CMP, COUNTERS, GEN, IDA, Bounds, Certificate, Comp, DISTINCT, EQUAL, Engine, EngineLimit,
    FreecatError, Gen, Id, SoundnessError, UNKNOWN, _STEPS, certificate,
    equal_cells, term_dim, term_from_str, term_to_str, verify_certificate,
)
from computadlab.operads import k_terminal_computad, slice_of_strict
from oracles import dfs_paths, pasting_cells


def scalar2():
    return loads_computad(resources.files("computadlab")
                          .joinpath("data", "scalar2.cpd").read_text())


def contract3():
    return loads_computad(resources.files("computadlab")
                          .joinpath("data", "contract3.cpd").read_text())


def vert3():
    """{v; e: v -> v; a, b: e => e; d: a => a}. At size 4 it runs for minutes
    before the term budget stops it, so it is no data file: every data file
    is saturated at --bound 4 in tier-1."""
    return loads_computad("dim 3\n0 v\n1 e : gen(v) => gen(v)\n2 a : gen(e) => gen(e)\n"
                          "2 b : gen(e) => gen(e)\n3 d : gen(a) => gen(a)\n")


def points(*names):
    """Level 0 on the 0-generators `names`, from a saturated and frozen
    dimension-0 engine, as `free_algebra` builds it."""
    e = Engine(0, [], [(n, -1, -1) for n in names], Bounds())
    e.saturate()
    return e.freeze()

# --- independent oracles ---------------------------------------------------------


def multisets(gens, size):
    import itertools
    out = []
    for n in range(size + 1):
        out.extend(itertools.combinations_with_replacement(sorted(gens), n))
    return out


def graph_computad(vertices, edges):
    layers = [list(vertices),
              [(n, Gen(s, 0), Gen(t, 0)) for n, s, t in edges]]
    return build_computad(layers)


def path_computad(dim):
    """w -> x -> y -> z with f, g, h, and nothing above up to `dim`."""
    return build_computad([["w", "x", "y", "z"],
                           [("f", Gen("w", 0), Gen("x", 0)), ("g", Gen("x", 0), Gen("y", 0)),
                            ("h", Gen("y", 0), Gen("z", 0))]] + [[]] * (dim - 1))


def scalar_computad(names):
    pt = Gen("p", 0)
    return build_computad([["p"], [], [(n, Id(pt), Id(pt)) for n in names]])


def random_graph(rng, max_v=4, max_e=5):
    nv = rng.randint(1, max_v)
    vertices = [f"v{i}" for i in range(nv)]
    ne = rng.randint(0, max_e)
    edges = [(f"e{i}", rng.choice(vertices), rng.choice(vertices))
             for i in range(ne)]
    return vertices, edges


def gen_dims(c) -> dict[str, int]:
    """Each generator name of computad c -> its dimension."""
    return {name: r for r in range(c.dim + 1) for name in c.names(r)}


def decode_word(rep: str, c) -> tuple:
    """Generator leaves of a dimension-1 representative of computad c, left
    to right."""
    t = term_from_str(rep, gen_dims(c))

    def leaves(u):
        if isinstance(u, Gen):
            return (u.name,)
        if isinstance(u, Id):
            return ()
        return leaves(u.left) + leaves(u.right)

    return leaves(t)


# --- term syntax -----------------------------------------------------------------


def test_term_syntax_round_trip():
    dims = {"p": 0, "f": 1, "al": 2}
    terms = [
        Gen("p", 0),
        Id(Gen("p", 0)),
        Comp(0, Gen("f", 1), Gen("f", 1)),
        Comp(1, Comp(0, Id(Gen("f", 1)), Gen("al", 2)), Gen("al", 2)),
    ]
    for t in terms:
        assert term_from_str(term_to_str(t), dims) == t
    assert term_dim(terms[-1]) == 2


def test_term_syntax_rejects_garbage():
    for bad in ["gen(", "comp_x(gen(a),gen(b))", "id1(gen(a)) extra", "foo(a)"]:
        with pytest.raises(FreecatError):
            term_from_str(bad, {"a": 0, "b": 0})


def test_a_term_opening_with_a_parenthesis_has_an_empty_head():
    """The '(' at position 0 ends an empty head; it is not a missing '('."""
    for text in ("(gen(a))", "(", "  (gen(a))"):
        with pytest.raises(FreecatError, match="^unknown term head ''$"):
            term_from_str(text, {"a": 0})
    with pytest.raises(FreecatError, match=r"^expected '\(' after position 0$"):
        term_from_str("gen", {"a": 0})


# --- generation ------------------------------------------------------------------


def test_point_generates_only_identities():
    fa = free_algebra(theta_computad(2), Bounds(size=3))
    for r in (1, 2):
        assert fa.levels[r].n_classes == 1
        rows = fa.enumerate_cells(r)
        assert rows[0][1] == ()  # no generator occurrences anywhere


def test_two_loops_generate_paths():
    c = graph_computad(["a", "b"], [("f", "a", "b"), ("g", "b", "a")])
    fa = free_algebra(c, Bounds(size=2))
    rows = fa.enumerate_cells(1)
    words = {decode_word(rep, c) for rep, _ in rows}
    assert words == {(), ("f",), ("g",), ("f", "g"), ("g", "f")}
    # two identity classes share the empty word but have different endpoints
    assert fa.levels[1].n_classes == 6


def test_boundary_checks_on_terms():
    c = graph_computad(["a", "b"], [("f", "a", "b")])
    fa = free_algebra(c, Bounds(size=3))
    e = fa.engines[1]
    with pytest.raises(FreecatError, match="do not compose"):  # b != a
        e.term_node(Comp(0, Gen("f", 1), Gen("f", 1)))
    assert e.term_node(Comp(0, Id(Gen("a", 0)), Gen("f", 1))) is not None


def test_each_level_holds_its_identity_table_when_frozen():
    """Level d sends each class one dimension down to its identity's class,
    whose least term here is id1 of that class's representative. A frozen
    level takes no later write."""
    for c in (scalar_computad(["al", "be"]), path_computad(2)):
        levels = free_algebra(c, Bounds(size=3)).levels
        assert levels[0].ids == []
        for below, lv in zip(levels, levels[1:]):
            assert [lv.reps[i] for i in lv.ids] == [f"id1({rep})" for rep in below.reps]
            assert all(lv.msets[i] == () for i in lv.ids)
        with pytest.raises(FrozenInstanceError):
            levels[-1].ids = []


# --- saturation ------------------------------------------------------------------


def test_saturation_round_fixed_point_when_nothing_applies():
    fa = free_algebra(theta_computad(1), Bounds(size=2))
    e = fa.engines[1]
    before = (len(e.nodes), e.counters["merges"])
    for size in range(3):
        e.saturation_round(size, 0)
    assert (len(e.nodes), e.counters["merges"]) == before


def test_associativity_merges_in_one_round():
    c = graph_computad(["a", "b", "c", "d"],
                       [("f", "a", "b"), ("g", "b", "c"), ("h", "c", "d")])
    fa = free_algebra(c, Bounds(size=3))
    e = fa.engines[1]
    f, g, h = Gen("f", 1), Gen("g", 1), Gen("h", 1)
    left = e.term_node(Comp(0, Comp(0, f, g), h))
    right = e.term_node(Comp(0, f, Comp(0, g, h)))
    assert e.find(left) == e.find(right)


def test_pending_users_merge_by_congruence():
    """An axiom merge moves the users of the losing class; `_process_pending`
    merges each with the user of the same shape on the winning class, by a
    congruence step that rests on the axiom step."""
    e = Engine(1, [points("o")], [(n, 0, 0) for n in "abc"], Bounds(size=4))
    a, b, c = (e.gen_atoms[n] for n in "abc")
    left = e.make_comp(0, e.make_comp(0, a, b), c)
    right = e.make_comp(0, a, e.make_comp(0, b, c))
    # two users on each side, so that a pass that stops after one user fails
    users = [(e.make_comp(0, left, x), e.make_comp(0, right, x)) for x in (a, b)]
    e._matched_instances(left)
    assert e.find(left) == e.find(right) == left  # the later class lost
    assert all(e.find(u) != e.find(v) for u, v in users)
    e._process_pending()
    for u, v in users:
        assert e.find(u) == e.find(v)
        cert = certificate(e, u, v)
        assert verify_certificate(e, cert)
        assert [reason[0] for _, _, reason in cert.steps] == ["assoc", "cong"]


def test_a_repeated_generator_name_is_refused():
    """A name given twice would make one atom, and a slice that counts too
    few cells would still match its oracle."""
    with pytest.raises(FreecatError, match="named twice"):
        slice_of_strict(1, ["x", "x"], Bounds(size=2))
    a, b = Gen("a", 0), Gen("b", 0)
    c = Computad(1, [[GeneratorDecl("a"), GeneratorDecl("b")],
                     [GeneratorDecl("f", a, b), GeneratorDecl("f", b, a)]])
    with pytest.raises(FreecatError, match="named twice"):
        free_algebra(c)
    with pytest.raises(FreecatError, match="generator 'a' is named twice in dimension 0"):
        free_algebra(Computad(0, [[GeneratorDecl("b"), GeneratorDecl("a"), GeneratorDecl("a")]]))
    # the same name in two dimensions: both print as gen(a)
    with pytest.raises(FreecatError, match="named twice"):
        free_algebra(Computad(1, [[GeneratorDecl("a")], [GeneratorDecl("a", a, a)]]))
    with pytest.raises(FreecatError, match="named twice"):
        slice_of_strict(1, ["o", "x"], Bounds(size=2))


def test_eckmann_hilton_within_two_rounds():
    from computadlab.freecat import Engine
    fa1 = free_algebra(theta_computad(1), Bounds(size=2))
    e = Engine(2, fa1.levels, [("al", 0, 0), ("be", 0, 0)], Bounds(size=2))
    for size in range(3):
        for _ in range(2):
            e.extend_composites(size)
            e.saturation_round(size, 0)
    # the engine is never frozen, so its e-nodes are read by `make_comp`
    al, be = e.gen_atoms["al"], e.gen_atoms["be"]
    assert e.find(e.make_comp(0, al, be)) == e.find(e.make_comp(1, al, be))


def test_saturate_acyclic_graph_classes_are_paths():
    rng = random.Random(5)
    for _ in range(10):
        nv = rng.randint(2, 4)
        vertices = [f"v{i}" for i in range(nv)]
        edges = []
        for i in range(rng.randint(0, 5)):
            s = rng.randint(0, nv - 2)
            t = rng.randint(s + 1, nv - 1)
            edges.append((f"e{i}", f"v{s}", f"v{t}"))
        c = graph_computad(vertices, edges)
        fa = free_algebra(c, Bounds(size=6))
        assert fa.fixed_point
        oracle = dfs_paths(vertices, edges, 6)
        assert fa.levels[1].n_classes == len(oracle)


def test_scalar_classes_are_multisets():
    fa = free_algebra(scalar_computad(["al", "be"]), Bounds(size=4))
    rows = fa.enumerate_cells(2)
    assert sorted(m for _, m in rows) == sorted(multisets(["al", "be"], 4))


# --- equality verdicts -----------------------------------------------------------


def test_equal_cells_reflexive_and_distinct():
    fa = free_algebra(scalar_computad(["al", "be"]), Bounds(size=2))
    e = fa.engines[2]
    al, be = Gen("al", 2), Gen("be", 2)
    verdict, cert = equal_cells(e, al, al)
    assert verdict == EQUAL and verify_certificate(e, cert)
    verdict, why = equal_cells(e, al, be)
    assert verdict == DISTINCT and "multiset" in why


def test_equal_cells_eckmann_hilton_certified():
    fa = free_algebra(scalar_computad(["al", "be"]), Bounds(size=2))
    e = fa.engines[2]
    al, be = Gen("al", 2), Gen("be", 2)
    for t1, t2 in [(Comp(0, al, be), Comp(1, al, be)),
                   (Comp(1, al, be), Comp(1, be, al))]:
        verdict, cert = equal_cells(e, t1, t2)
        assert verdict == EQUAL
        assert verify_certificate(e, cert)
        assert cert.steps


def test_term_budget_guard():
    lv = points("p")
    with pytest.raises(EngineLimit):
        e = Engine(1, [lv], [(f"g{i}", 0, 0) for i in range(4)],
                   Bounds(size=4, max_terms=8))
        for size in range(5):
            e.extend_composites(size)
            e.saturation_round(size, 0)


def test_certificate_tampering_is_caught():
    fa = free_algebra(scalar_computad(["al", "be"]), Bounds(size=2))
    e = fa.engines[2]
    al, be = Gen("al", 2), Gen("be", 2)
    verdict, cert = equal_cells(e, Comp(0, al, be), Comp(1, be, al))
    assert verdict == EQUAL and verify_certificate(e, cert)
    # claim an axiom step between two inequivalent terms
    u = e.term_node(al)
    v = e.term_node(be)
    cert.steps.append((u, v, ("assoc", u, v, v)))
    cert.left, cert.right = u, v
    assert not verify_certificate(e, cert)
    # a congruence step whose premises hold (each side's children are al
    # and be) but whose sides compose along different indices
    u, v = e.term_node(Comp(0, al, be)), e.term_node(Comp(1, al, be))
    assert not verify_certificate(e, Certificate(u, v, [(u, v, ("cong",))]))


def test_interchange_step_needs_two_indices():
    # comp_0(comp_0(a,b), comp_0(c,d)) = comp_0(comp_0(a,c), comp_0(b,d))
    # has the literal shape of an interchange step with j = k, but it is
    # not a law: the two sides spell different words. Its row refuses its
    # shape, so it has no premises to prove
    e = free_algebra(k_terminal_computad(1, ["x0", "x1"]), Bounds(size=4)).engines[1]
    x0, x1 = Gen("x0", 1), Gen("x1", 1)
    p, q, lr = _terms(e, Comp(0, x0, x0), Comp(0, x1, x1), Comp(0, x0, x1))
    u = e.term_node(Comp(0, Comp(0, x0, x0), Comp(0, x1, x1)))
    v = e.term_node(Comp(0, Comp(0, x0, x1), Comp(0, x0, x1)))
    assert e.verdict(u, v)[0] == DISTINCT
    cert, unproved = explained(e, (u, v, ("interchange", p, q, lr, lr)))
    assert unproved is None and not verify_certificate(e, cert)


def eckmann_hilton_certificate(size):
    """The dimension-2 engine of scalar2.cpd and its certificate for
    comp_0(alpha,beta) = comp_1(beta,alpha)."""
    e = free_algebra(scalar2(), Bounds(size=size)).engines[2]
    al, be = Gen("alpha", 2), Gen("beta", 2)
    verdict, cert = equal_cells(e, Comp(0, al, be), Comp(1, be, al))
    assert verdict == EQUAL and verify_certificate(e, cert)
    return e, cert


def test_eckmann_hilton_certificate_size_does_not_grow():
    lengths = [len(eckmann_hilton_certificate(size)[1].steps) for size in (2, 3, 4, 5)]
    assert len(set(lengths)) == 1 and 0 < lengths[0] <= 10


def rests_on_others(e, step):
    """A step with some premise between two different terms, so replay
    must join them first."""
    u, v, reason = step
    return any(x != y for x, y in _STEPS[reason[0]].premises(e, u, v, reason[1:]))


@pytest.mark.parametrize("make,size", [
    (scalar2, 4),
    (lambda: k_terminal_computad(1, ["x0", "x1", "x2"]), 5),
    (lambda: k_terminal_computad(2, ["x0", "x1", "x2"]), 4),
], ids=["scalar2-size4", "slice-k1-g3-size5", "slice-k2-g3-size4"])
def test_certificates_hold_exactly_their_proof(make, size, monkeypatch):
    recorded = {}
    merge = Engine._merge

    def recording(self, u, v, reason):
        if merge(self, u, v, reason):
            recorded.setdefault(self, set()).add((u, v, reason))
            return True
        return False

    monkeypatch.setattr(Engine, "_merge", recording)
    fa = free_algebra(make(), Bounds(size=size))
    e = fa.engines[fa.dim]
    members = {}
    for t in range(len(e.nodes)):
        members.setdefault(e.find(t), []).append(t)
    multi = [terms for terms in members.values() if len(terms) > 1]
    rng = random.Random(6)
    for _ in range(500):
        u, v = rng.sample(rng.choice(multi), 2)
        steps = certificate(e, u, v).steps
        assert steps and verify_certificate(e, Certificate(u, v, steps))
        assert len(set(steps)) == len(steps)
        assert set(steps) <= recorded[e]
        for i, step in enumerate(steps):
            # the steps form a forest, so each one is needed, and a step
            # whose premises join two different terms needs the steps
            # explaining them first
            assert not verify_certificate(e, Certificate(u, v, steps[:i] + steps[i + 1:]))
            if rests_on_others(e, step):
                moved = [step] + steps[:i] + steps[i + 1:]
                assert not verify_certificate(e, Certificate(u, v, moved))


def congruent():
    """{v0; e0: v0 -> v0; c0: id1(v0) => e0; c1: comp_0(e0,e0) => id1(v0)}:
    at size 3 a merge of its top engine moves composites that then merge
    by congruence, which no slice and no other fixed input does once
    `make_comp` reuses e-nodes."""
    v0, e0 = Gen("v0", 0), Gen("e0", 1)
    return build_computad([["v0"], [("e0", v0, v0)],
                           [("c0", Id(v0), e0), ("c1", Comp(0, e0, e0), Id(v0))]])


@pytest.mark.parametrize("make,size", [
    (lambda: k_terminal_computad(2, ["x0", "x1", "x2"]), 4),
    (scalar2, 5),
    (congruent, 3),
    *((contract3, size) for size in range(4)),
    *((vert3, size) for size in range(3)),
], ids=["slice-k2-g3-size4", "scalar2-size5", "congruent-size3",
        *(f"contract3-size{size}" for size in range(4)),
        *(f"vert3-size{size}" for size in range(3))])
def test_every_forest_edge_replays(make, size):
    """The certificate between the two ends of each proof-forest edge
    verifies, whatever the edge's reason. Every row of the step table has
    edges on `congruent`; the other inputs merge nothing by congruence, and
    from size 2 on have edges of every other family."""
    fa = free_algebra(make(), Bounds(size=size))
    e = fa.engines[fa.dim]
    edges = [label for label in e._why if label is not None]
    assert len(edges) == e.counters["merges"]
    expected = set(_STEPS) if make is congruent else set(_STEPS) - {"cong"}
    families = {reason[0] for _, _, reason in edges}
    assert families == expected if size >= 2 else families <= expected
    for u, v, reason in edges:
        cert = certificate(e, u, v)
        assert (u, v, reason) in cert.steps and verify_certificate(e, cert)


def _replace_step(steps, pick, change):
    i = next(i for i, step in enumerate(steps) if pick(step))
    return steps[:i] + [change(steps[i])] + steps[i + 1:]


def _relabel(name, reason):
    """Give the first step of family `name` the reason `reason(old reason)`."""
    return lambda c, e: (c.left, c.right, _replace_step(
        c.steps, lambda s: s[2][0] == name, lambda s: (s[0], s[1], reason(s[2]))))


def _with_ax_tag(c, e):
    """The interchange step behind an "ax" tag, with the two indices its
    terms already carry: ("ax", "interchange", j, k, p, q, l, r). A reason
    is its family's name and e-nodes alone, so this shape is refused."""
    def old(s):
        u, v, (name, *nodes) = s
        return u, v, ("ax", name, e.nodes[u].k, e.nodes[v].k, *nodes)
    return c.left, c.right, _replace_step(c.steps, lambda s: s[2][0] == "interchange", old)


MALFORMED = {
    "id-past-the-end": lambda c, e: (c.left, c.right, c.steps + [(len(e.nodes), 0, ("cong",))]),
    "id-negative-alias": lambda c, e: (c.left, c.right, _replace_step(
        c.steps, lambda s: True, lambda s: (s[0] - len(e.nodes), s[1], s[2]))),
    "id-not-an-int": lambda c, e: (c.left, c.right, c.steps + [("0", 1, ("cong",))]),
    "left-past-the-end": lambda c, e: (len(e.nodes), c.right, c.steps),
    "right-negative-alias": lambda c, e: (c.left, c.right - len(e.nodes), c.steps),
    "both-ends-negative": lambda c, e: (-1, -1, []),
    "step-not-a-triple": lambda c, e: (c.left, c.right, c.steps + [(0, 1)]),
    "reason-empty": lambda c, e: (c.left, c.right, c.steps + [(0, 1, ())]),
    "reason-not-a-tuple": lambda c, e: (c.left, c.right, c.steps + [(0, 1, "cong")]),
    "reason-unknown-head": lambda c, e: (c.left, c.right, c.steps + [(0, 1, ("rw",))]),
    "unknown-family": lambda c, e: (c.left, c.right, c.steps + [(0, 1, ("comm", 0, 1))]),
    "assoc-no-pattern": lambda c, e: (c.left, c.right, c.steps + [(0, 1, ("assoc",))]),
    "assoc-short-pattern": lambda c, e: (c.left, c.right,
                                         c.steps + [(0, 1, ("assoc", 0, 1))]),
    "interchange-one-term": lambda c, e: (c.left, c.right,
                                          c.steps + [(0, 1, ("interchange", 0))]),
    "interchange-no-pattern": _relabel("interchange", lambda r: r[:1]),
    "pattern-not-an-int": _relabel("interchange", lambda r: r[:-1] + ("0",)),
    "assoc-pattern-past-the-end": lambda c, e: (c.left, c.right, c.steps + [
        (0, 1, ("assoc", len(e.nodes), 0, 1))]),
    "interchange-pattern-negative-alias": lambda c, e: _relabel(
        "interchange", lambda r: (r[0], r[1] - len(e.nodes), *r[2:]))(c, e),
    # terms 0 and 1 are the generators alpha and beta
    "cong-between-generators": lambda c, e: (0, 1, [(0, 1, ("cong",))]),
    # a real step under another family's name, with as many terms as that
    # family takes: its check or its premises must refuse it (the first
    # unit_l step is comp_1(id1(id1(gen(p))),gen(alpha)) = gen(alpha), and
    # as unit_r its premise would join id1(id1(gen(p))) to gen(alpha))
    "unit-l-relabelled-unit-r": _relabel("unit_l", lambda r: ("unit_r",)),
    "unit-r-relabelled-unit-l": _relabel("unit_r", lambda r: ("unit_l",)),
    "unit-l-relabelled-idfun": _relabel("unit_l", lambda r: ("idfun", 0, 1)),
    "interchange-relabelled-assoc": _relabel("interchange", lambda r: ("assoc",) + r[1:4]),
    # a real step behind an "ax" tag or with an extra pattern, refused for
    # its shape alone
    "interchange-with-ax-tag": _with_ax_tag,
    "unit-l-with-pattern": _relabel("unit_l", lambda r: r + (0, 1)),
    # both ends the interchange step's comp_1 side, so both terms share
    # one index, j = k
    "interchange-one-index": lambda c, e: (c.left, c.right, _replace_step(
        c.steps, lambda s: s[2][0] == "interchange", lambda s: (s[1], s[1], s[2]))),
    # the first step is a unit_l premise of the interchange step; the steps
    # left still join left to right, but that step's premise is unproved
    "first-step-dropped": lambda c, e: (c.left, c.right, c.steps[1:]),
}


def one_step_certificate(family):
    """On `path_computad`, a certificate of one step of `family`:
    comp_0(comp_0(f,g),h) = comp_0(f,comp_0(g,h)) in dimension 1 for assoc,
    id1(comp_0(f,g)) = comp_0(id1(f),id1(g)) in dimension 2 for idfun."""
    f, g, h = Gen("f", 1), Gen("g", 1), Gen("h", 1)
    if family == "assoc":
        dim, t1, t2 = 1, Comp(0, Comp(0, f, g), h), Comp(0, f, Comp(0, g, h))
    else:
        dim, t1, t2 = 2, Id(Comp(0, f, g)), Comp(0, Id(f), Id(g))
    e = free_algebra(path_computad(dim), Bounds(size=3)).engines[dim]
    verdict, cert = equal_cells(e, t1, t2)
    assert verdict == EQUAL and verify_certificate(e, cert)
    assert [step[2][0] for step in cert.steps] == [family]
    return e, cert


def _mirrored_assoc(c, e):
    """The one assoc step read from its right-nested side u = comp(p, comp(q1,
    q2)), with u's own children as the pattern and r = v's left child: the
    mirror of the form the engine matches, which no engine step produces."""
    [(u, v, _)] = c.steps
    u, v = (u, v) if e.nodes[e.nodes[u].b].kind == CMP else (v, u)
    return c.left, c.right, [(u, v, ("assoc", e.nodes[u].a, e.nodes[u].b, e.nodes[v].a))]


def _idfun_as_assoc(c, e):
    """The one idfun step named assoc, with v's children and v as its
    e-nodes."""
    [(u, v, _)] = c.steps
    return c.left, c.right, [(u, v, ("assoc", e.nodes[v].a, e.nodes[v].b, v))]


# a real assoc or idfun step under another family's name, or an assoc step
# read from its other side, each on the one-step certificate of its own
# family: that family's check or premises must refuse it
RELABELLED = {
    "assoc-mirrored": ("assoc", _mirrored_assoc),
    "assoc-relabelled-interchange": ("assoc", _relabel(
        "assoc", lambda r: ("interchange",) + r[1:] + r[-1:])),
    "assoc-relabelled-unit-l": ("assoc", _relabel("assoc", lambda r: ("unit_l",))),
    "assoc-relabelled-cong": ("assoc", _relabel("assoc", lambda r: ("cong",))),
    "assoc-relabelled-idfun": ("assoc", _relabel("assoc", lambda r: ("idfun",) + r[1:3])),
    "idfun-relabelled-unit-l": ("idfun", _relabel("idfun", lambda r: ("unit_l",))),
    "idfun-relabelled-unit-r": ("idfun", _relabel("idfun", lambda r: ("unit_r",))),
    "idfun-relabelled-cong": ("idfun", _relabel("idfun", lambda r: ("cong",))),
    "idfun-relabelled-assoc": ("idfun", _idfun_as_assoc),
}


def congruence_certificate():
    """The top engine of `congruent` at size 3 and the certificate of its
    first `cong` edge."""
    e = free_algebra(congruent(), Bounds(size=3)).engines[2]
    u, v, _ = next(label for label in e._why if label is not None and label[2] == ("cong",))
    cert = certificate(e, u, v)
    assert verify_certificate(e, cert)
    return e, cert


@pytest.mark.parametrize("base, tamper", [
    pytest.param(lambda: eckmann_hilton_certificate(2), tamper, id=name)
    for name, tamper in MALFORMED.items()] + [
    pytest.param(lambda family=family: one_step_certificate(family), tamper, id=name)
    for name, (family, tamper) in RELABELLED.items()] + [
    pytest.param(congruence_certificate, _relabel("cong", lambda r: ("cong", 0)),
                 id="cong-with-argument")])
def test_malformed_certificate_is_rejected_without_raising(base, tamper):
    e, cert = base()
    left, right, steps = tamper(cert, e)
    assert verify_certificate(e, Certificate(left, right, steps)) is False


def test_an_idfun_step_needs_its_identities_to_compose_to_u():
    # id1(comp_0(f,g)) and comp_0(id1(g),id1(h)) have the shapes of an
    # idfun step, but comp_0(g,h) is not comp_0(f,g)
    e = free_algebra(path_computad(2), Bounds(size=3)).engines[2]
    f, g, h = Gen("f", 1), Gen("g", 1), Gen("h", 1)
    u = e.term_node(Id(Comp(0, f, g)))
    good, bad = e.term_node(Comp(0, Id(f), Id(g))), e.term_node(Comp(0, Id(g), Id(h)))
    assert e.verdict(u, bad)[0] == DISTINCT
    for v, verdict in ((good, True), (bad, False)):
        step = (u, v, ("idfun", e.nodes[v].a, e.nodes[v].b))
        assert verify_certificate(e, Certificate(u, v, [step])) is verdict


def explained(e, step):
    """`step` after the engine's own proofs of those of its premises that
    hold, and the premises that do not hold: None when the step's row
    refuses its shape."""
    u, v, (name, *args) = step
    premises = _STEPS[name].premises(e, u, v, tuple(args))
    if premises is None:
        return Certificate(u, v, [step]), None
    steps, unproved = [], []
    for x, y in premises:
        if e.find(x) != e.find(y):
            unproved.append((x, y))
            continue
        steps += [s for s in certificate(e, x, y).steps if s not in steps]
    return Certificate(u, v, steps + [step]), unproved


def _terms(e, *terms):
    return [e.term_node(t) for t in terms]


AL, BE = Gen("alpha", 2), Gen("beta", 2)


def _assoc_r_along_another_index():
    """comp_1(comp_1(a,b),a) = comp_1(a,comp_1(b,a)) on scalar2, with r =
    comp_0(b,a) in place of comp_1(b,a): Eckmann-Hilton puts them in one
    class, so each premise would hold, and only the row's index check
    refuses the step."""
    e = free_algebra(scalar2(), Bounds(size=3)).engines[2]
    u, v, p, q, r, r0 = _terms(e, Comp(1, Comp(1, AL, BE), AL), Comp(1, AL, Comp(1, BE, AL)),
                               Comp(1, AL, BE), AL, Comp(1, BE, AL), Comp(0, BE, AL))
    return e, (u, v, ("assoc", p, q, r)), (u, v, ("assoc", p, q, r0)), None


def _assoc_r_right_child_elsewhere():
    """(x0 x1) x2 = x0 (x1 x2), forged into (x0 x1) x2 = x0 (x1 x0) with r =
    x1 x0: every premise but r.b ~ q holds."""
    e = free_algebra(k_terminal_computad(1, ["x0", "x1", "x2"]), Bounds(size=3)).engines[1]
    x0, x1, x2 = (Gen(n, 1) for n in ("x0", "x1", "x2"))
    u, v, p, q, r, v0, r0 = _terms(e, Comp(0, Comp(0, x0, x1), x2), Comp(0, x0, Comp(0, x1, x2)),
                                   Comp(0, x0, x1), x2, Comp(0, x1, x2),
                                   Comp(0, x0, Comp(0, x1, x0)), Comp(0, x1, x0))
    return (e, (u, v, ("assoc", p, q, r)), (u, v0, ("assoc", p, q, r0)),
            [(e.nodes[r0].b, q)])


def _interchange_l_and_r_swapped():
    """comp_0(comp_1(a,b),comp_1(a,b)) = comp_1(comp_0(a,a),comp_0(b,b)) on
    scalar2, with l and r swapped: v's children and the swapped halves
    no longer match."""
    e = free_algebra(scalar2(), Bounds(size=4)).engines[2]
    u, v, p, l, r = _terms(e, Comp(0, Comp(1, AL, BE), Comp(1, AL, BE)),
                           Comp(1, Comp(0, AL, AL), Comp(0, BE, BE)), Comp(1, AL, BE),
                           Comp(0, AL, AL), Comp(0, BE, BE))
    n = e.nodes
    return (e, (u, v, ("interchange", p, p, l, r)), (u, v, ("interchange", p, p, r, l)),
            [(n[v].a, r), (n[v].b, l), (n[r].a, n[p].a), (n[r].b, n[p].a),
             (n[l].a, n[p].b), (n[l].b, n[p].b)])


def _idfun_atoms_compose_elsewhere():
    """id1(comp_0(f,g)) = comp_0(id1(f),id1(g)), forged with u =
    id1(comp_0(g,h)): the premises would hold, and only the row's lower
    composite check refuses the step."""
    e = free_algebra(path_computad(2), Bounds(size=3)).engines[2]
    f, g, h = Gen("f", 1), Gen("g", 1), Gen("h", 1)
    u, u0, v, p, q = _terms(e, Id(Comp(0, f, g)), Id(Comp(0, g, h)), Comp(0, Id(f), Id(g)),
                            Id(f), Id(g))
    return e, (u, v, ("idfun", p, q)), (u0, v, ("idfun", p, q)), None


@pytest.mark.parametrize("forge", [
    _assoc_r_along_another_index, _assoc_r_right_child_elsewhere,
    _interchange_l_and_r_swapped, _idfun_atoms_compose_elsewhere,
], ids=["assoc-r-along-another-index", "assoc-r-right-child-elsewhere",
        "interchange-l-and-r-swapped", "idfun-atoms-compose-elsewhere"])
def test_a_forged_step_fails_verification(forge):
    """Each forged step changes one e-node or one side of a genuine step.
    With every premise that holds explained first, the genuine step
    verifies and the forged one does not; the forged step's premises that
    do not hold are exactly the ones listed, None when its row refuses its
    shape."""
    e, genuine, forged, unproved = forge()
    cert, missing = explained(e, genuine)
    assert missing == [] and verify_certificate(e, cert)
    cert, missing = explained(e, forged)
    assert missing == unproved
    assert not verify_certificate(e, cert)


def test_certificate_raises_on_an_engine_edge_its_row_refuses():
    """An assoc edge of the proof forest with r along another index, planted
    into the engine: `certificate` reads the edge's premises from the row
    `verify_certificate` reads, so it raises rather than return a
    certificate that cannot verify."""
    e = free_algebra(scalar2(), Bounds(size=3)).engines[2]
    t = next(t for t, label in enumerate(e._why)
             if label is not None and label[2][0] == "assoc")
    u, v, (_, p, q, r) = e._why[t]
    r0 = next(x for x, n in enumerate(e.nodes) if n.kind == CMP and n.k != e.nodes[r].k)
    assert verify_certificate(e, certificate(e, u, v))
    e._why[t] = (u, v, ("assoc", p, q, r0))
    with pytest.raises(SoundnessError, match="shape of its family"):
        certificate(e, u, v)


def test_a_unit_step_needs_v_as_its_body():
    # on one vertex p with loops f and g, comp_0(id1(p),f) pads g's source
    # too, but its body is f, not g
    e = free_algebra(graph_computad(["p"], [("f", "p", "p"), ("g", "p", "p")]),
                     Bounds(size=2)).engines[1]
    f, g = Gen("f", 1), Gen("g", 1)
    u = e.term_node(Comp(0, Id(Gen("p", 0)), f))
    good, bad = e.term_node(f), e.term_node(g)
    assert e.verdict(u, bad)[0] == DISTINCT
    assert verify_certificate(e, Certificate(u, good, [(u, good, ("unit_l",))]))
    assert not verify_certificate(e, Certificate(u, bad, [(u, bad, ("unit_l",))]))


def test_unknown_is_honest_for_parallel_nonscalar_squares():
    # two 2-cells on a genuine arrow: no room for Eckmann-Hilton, so the
    # vertical composites in the two orders stay apart and the engine
    # must not claim either verdict
    f = Gen("f", 1)
    c = build_computad(
        [["a", "b"],
         [("f", Gen("a", 0), Gen("b", 0))],
         [("u", f, f), ("v", f, f)]])
    fa = free_algebra(c, Bounds(size=2))
    e = fa.engines[2]
    u, v = Gen("u", 2), Gen("v", 2)
    verdict, _ = equal_cells(e, Comp(1, u, v), Comp(1, v, u))
    assert verdict == UNKNOWN
    assert e.counters["unknown_verdicts"] == 1


def test_word_invariant_separates_dim1():
    c = graph_computad(["a"], [("f", "a", "a"), ("g", "a", "a")])
    fa = free_algebra(c, Bounds(size=2))
    e = fa.engines[1]
    f, g = Gen("f", 1), Gen("g", 1)
    verdict, why = equal_cells(e, Comp(0, f, g), Comp(0, g, f))
    assert verdict == DISTINCT and "word" in why


def test_a_query_needs_the_level_its_engine_froze():
    """An engine answers a query only from the level it froze. With that
    level missing from its `levels`, or another algebra's level in its
    place, `equal_cells` raises one FreecatError line: no IndexError, and
    no answer read from classes the engine never froze."""
    al, be = Gen("al", 2), Gen("be", 2)
    fa = free_algebra(scalar_computad(["al", "be"]), Bounds(size=2))
    e = fa.engines[2]
    assert equal_cells(e, Comp(0, al, be), Comp(1, al, be))[0] == EQUAL
    unfrozen = Engine(2, fa.levels[:2], [("al", 0, 0), ("be", 0, 0)], Bounds(size=2))
    unfrozen.saturate()
    e.levels[2] = free_algebra(scalar_computad(["al", "be"]), Bounds(size=3)).levels[2]
    for engine in (unfrozen, e):
        with pytest.raises(FreecatError) as err:
            equal_cells(engine, Comp(0, al, be), Comp(1, al, be))
        assert str(err.value) == "dimension-2 queries need the level this engine froze"


def test_dimension_mismatch_rejected():
    fa = free_algebra(scalar_computad(["al"]), Bounds(size=2))
    with pytest.raises(FreecatError):
        equal_cells(fa.engines[2], Gen("al", 2), Id(Gen("p", 0)))


F, G = Gen("f", 1), Gen("g", 1)
G3 = Comp(0, G, Comp(0, G, G))  # a loop composite beyond size 2


@pytest.mark.parametrize("make, term, phrase", [
    (lambda: graph_computad(["a", "b"], [("f", "a", "b")]), Comp(0, F, F),
     "do not compose"),
    (lambda: graph_computad(["a", "b"], [("f", "a", "b")]), Comp(3, F, F),
     "composition index 3 out of range"),
    (lambda: graph_computad(["a", "b"], [("f", "a", "b"), ("g", "a", "a")]),
     Comp(0, F, G3), "do not compose"),
    (lambda: path_computad(2), Comp(0, Id(F), Id(Gen("h", 1))), "do not compose"),
    (lambda: path_computad(2), Comp(1, Id(F), Id(G)), "do not compose"),
    (lambda: graph_computad(["a"], [("f", "a", "a")]), Comp(0, F, Gen("a", 0)),
     "generator a has dim 0, expected 1"),
], ids=["f-after-f", "index-3", "right-beyond-the-bound", "dim2-along-0",
        "dim2-along-1", "right-operand-of-dim-0"])
def test_a_malformed_composite_is_an_error(make, term, phrase):
    """`class_of_term` and `equal_cells` refuse a composite that is not well
    formed, also when an operand lies beyond the bound, instead of calling
    it out of bounds or unknown."""
    fa = free_algebra(make(), Bounds(size=2))
    with pytest.raises(FreecatError, match=phrase):
        fa.class_of_term(term)
    e = fa.engines[term_dim(term)]
    with pytest.raises(FreecatError, match=phrase):
        equal_cells(e, term, term)
    assert e.counters["unknown_verdicts"] == 0


def test_a_well_formed_composite_beyond_the_bound_has_no_class():
    fa = free_algebra(graph_computad(["a", "b"], [("f", "a", "b"), ("g", "a", "a")]),
                      Bounds(size=2))
    assert fa.class_of_term(Comp(0, G3, F)) is None
    assert fa.class_of_term(Comp(0, G, F)) is not None
    assert equal_cells(fa.engines[1], Comp(0, G3, F), Comp(0, G, F))[0] == UNKNOWN


def test_a_composite_beyond_the_bound_has_its_operands_boundaries():
    """At size 0 saturation composes identities alone, so comp_0(f, g) on
    w -> x -> y lies beyond the bound. A query reads its source w and its
    target y from its operands, by the rule saturation builds by, so it
    composes with id1(w) on the left and with h: y -> z on the right, and
    not with g."""
    fa = free_algebra(path_computad(1), Bounds(size=0))
    fg = Comp(0, F, G)
    for term in (fg, Comp(0, fg, Gen("h", 1)), Comp(0, Id(Gen("w", 0)), fg)):
        assert fa.class_of_term(term) is None
    with pytest.raises(FreecatError, match="do not compose"):
        fa.class_of_term(Comp(0, fg, G))


# --- enumeration ------------------------------------------------------------------


def test_enumerate_loop_lengths():
    c = graph_computad(["a"], [("f", "a", "a")])
    fa = free_algebra(c, Bounds(size=3))
    rows = fa.enumerate_cells(1)
    assert sorted(mset for _, mset in rows) == [(), ("f",), ("f", "f"), ("f", "f", "f")]


def test_enumerate_scalar_pairs():
    fa = free_algebra(scalar_computad(["al", "be"]), Bounds(size=2))
    rows = fa.enumerate_cells(2)
    assert len(rows) == 6


def test_enumerate_no_generators():
    fa = free_algebra(theta_computad(3), Bounds(size=2))
    for r in range(4):
        rows = fa.enumerate_cells(r)
        assert len(rows) == 1


# --- soundness and monotonicity ----------------------------------------------------


def test_soundness_counters_stay_clean():
    for mk in (lambda: free_algebra(scalar_computad(["al", "be"]), Bounds(size=3)),
               lambda: free_algebra(theta_computad(4), Bounds(size=3))):
        assert mk().soundness_report()["axiom_instances"] > 0


def _planted_pair(invariant: str):
    """An engine and two of its terms that only `invariant` tells apart:
    two loops f and g, the identities on two points, and comp_0(f,g)
    against comp_0(g,f)."""
    if invariant == "boundary":
        e = Engine(1, [points("a", "b")], [], Bounds(size=2))
        return e, *e.id_atoms
    e = Engine(1, [points("o")], [("f", 0, 0), ("g", 0, 0)], Bounds(size=2))
    f, g = e.gen_atoms["f"], e.gen_atoms["g"]
    if invariant == "multiset":
        return e, f, g
    return e, e.make_comp(0, f, g), e.make_comp(0, g, f)


@pytest.mark.parametrize("invariant", ["multiset", "boundary", "word"])
def test_a_planted_bad_merge_raises_its_own_guard(invariant):
    """Each invariant that `_merge` guards refuses a merge that breaks it
    alone, names the reason `verdict` gives, and counts nothing."""
    e, u, v = _planted_pair(invariant)
    verdict, reason = e.verdict(u, v)
    assert verdict == DISTINCT and invariant in reason
    with pytest.raises(SoundnessError, match=reason):
        e._merge(u, v, ("planted",))
    assert e.counters == dict.fromkeys(COUNTERS, 0)
    assert e.find(u) != e.find(v)


def test_a_planted_split_raises_the_round_guard(monkeypatch):
    """A round whose congruence closure moves one member of a class out of
    it raises, because classes may only coarsen."""
    e = Engine(1, [points("o")], [("f", 0, 0)], Bounds(size=3))
    e.saturate()
    process = Engine._process_pending

    def splitting(self):
        process(self)
        members = next(ts for ts in self._class_terms.values() if len(ts) > 1)
        self._root[max(members)] = max(members)

    monkeypatch.setattr(Engine, "_process_pending", splitting)
    with pytest.raises(SoundnessError, match="saturation split a congruence class"):
        e.saturation_round(0, 0)


def fresh_enodes(e, root):
    """A class's e-nodes read from its members with no cache: the first
    composite member, in member-list order, of each child-class pattern."""
    first = {}
    for t in e._class_terms[root]:
        n = e.nodes[t]
        if n.kind == CMP:
            first.setdefault((n.k, e.find(n.a), e.find(n.b)), t)
    return list(first.values())


def assert_enode_index(e):
    """Every e-node list still cached, and then each class's list as
    `enodes` gives it, equals a fresh read from the members."""
    cached = dict(e._enodes)
    assert set(cached) <= set(e._class_terms)
    for root, listed in cached.items():
        assert listed == fresh_enodes(e, root)
    for root in e.classes():
        listed = e.enodes(root)
        assert listed == fresh_enodes(e, root)
        assert all(e.find(t) == root for t in listed)


def assert_users(e):
    """Each root's user list holds exactly the composites with a child in
    its class, one entry per child position, and no other key is kept."""
    users = {r: [] for r in e.classes()}
    for t, n in enumerate(e.nodes):
        if n.kind == CMP:
            users[e.find(n.a)].append(t)
            users[e.find(n.b)].append(t)
    assert set(e._uses) <= set(users)
    for r, expected in users.items():
        assert sorted(e._uses.get(r, ())) == expected


def assert_root_list(e):
    """The member lists partition the terms, and every member of class r
    has r as its root, r being the least term id of the class."""
    members = sorted(t for ts in e._class_terms.values() for t in ts)
    assert members == list(range(len(e.nodes)))
    for root, ts in e._class_terms.items():
        assert root == min(ts)
        assert all(e.find(t) == root for t in ts)


def planted_eckmann_hilton():
    """An engine with p = comp_0(alpha,beta), p2 = comp_1(alpha,beta),
    which Eckmann-Hilton equates, and x = comp_0(p,alpha) and y =
    comp_0(p2,alpha), each its own class, as (e, p, p2, x, y)."""
    levels = free_algebra(theta_computad(1), Bounds(size=2)).levels
    e = Engine(2, levels, [("alpha", 0, 0), ("beta", 0, 0)], Bounds(size=3))
    al, be = e.gen_atoms["alpha"], e.gen_atoms["beta"]
    p, p2 = e.make_comp(0, al, be), e.make_comp(1, al, be)
    return e, p, p2, e.make_comp(0, p, al), e.make_comp(0, p2, al)


def test_a_merge_keeps_the_winners_enode_for_a_shared_key():
    """Between a merge and the congruence closure at the end of its round,
    two congruent e-nodes may sit in two classes whose e-node lists name
    the same key. `make_comp` never builds such a pair, so this one is
    planted by merging p with p2 first. Merging the two classes puts the
    winner's members first, so its e-node, the earlier term, stands for
    the key."""
    e, p, p2, x, y = planted_eckmann_hilton()
    e._merge(p, p2, ("planted",))
    assert e.enodes(e.find(x)) == [x] and e.enodes(e.find(y)) == [y]
    e._merge(y, x, ("planted",))
    assert e.enodes(e.find(x)) == [x]
    assert_enode_index(e)
    assert_users(e)


def test_a_list_of_the_stratum_in_progress_is_read_afresh():
    """x and y hold 3 generators, the stratum in progress here, so the
    list of their class is never kept: it is read again after each merge.
    Merging x with y adds y's key; merging p with p2 then gives the two
    one key, since p2, a child of y, joins p's class."""
    e, p, p2, x, y = planted_eckmann_hilton()
    e._running = 3
    assert e.enodes(e.find(x)) == [x]
    e._merge(x, y, ("planted",))
    assert e.enodes(e.find(x)) == [x, y]
    e._merge(p, p2, ("planted",))
    assert e.enodes(e.find(x)) == [x]
    assert_enode_index(e)
    assert_users(e)


def test_enode_lists_are_kept_once_their_stratum_is_done(monkeypatch):
    """Through stratum s, `enodes` keeps the lists it reads of the classes
    below s, which are final, and no list of a class of s; every stratum
    above 0 reads and keeps some."""
    kept = {}  # stratum -> the multiset sizes of the kept lists
    match = Engine.saturation_round

    def recording(self, size, mark):
        out = match(self, size, mark)
        kept.setdefault(size, set()).update(len(self.nodes[r].mset) for r in self._enodes)
        return out

    monkeypatch.setattr(Engine, "saturation_round", recording)
    free_algebra(k_terminal_computad(1, ["x0", "x1"]), Bounds(size=4))
    assert kept == {s: set(range(s)) for s in range(5)}


@pytest.mark.parametrize("make", [
    lambda: k_terminal_computad(2, ["x0", "x1", "x2"]),
    scalar2,
    congruent,
], ids=["slice-k2", "scalar2", "congruent"])
def test_enode_index_after_every_step(make, monkeypatch):
    checked = []

    def checking(step):
        def run(self, *args):
            out = step(self, *args)
            assert_enode_index(self)
            assert_users(self)
            assert_root_list(self)
            checked.append(self.dim)
            return out
        return run

    for name in ("extend_composites", "saturation_round"):
        monkeypatch.setattr(Engine, name, checking(getattr(Engine, name)))
    fa = free_algebra(make(), Bounds(size=4))
    assert fa.fixed_point and 2 in checked


def random_bracketing(rng, word, dim, unit):
    """A term of dimension dim composing the generators of word in order,
    with random composition indices and, now and then, a unit."""
    if len(word) == 1:
        t = Gen(word[0], dim)
    else:
        cut = rng.randint(1, len(word) - 1)
        t = Comp(rng.randrange(dim), random_bracketing(rng, word[:cut], dim, unit),
                 random_bracketing(rng, word[cut:], dim, unit))
    return Comp(dim - 1, unit, t) if rng.random() < 0.2 else t


def test_root_list_exact_after_queries_on_a_reloaded_algebra():
    """Queries on an unpickled algebra read the level its engine froze,
    which unpickles as the same object as the algebra's level: they add no
    term and merge nothing, and the root list stays exact after each."""
    rng = random.Random(11)
    cases = [(free_algebra(scalar2(), Bounds(size=4)), ["alpha", "beta"],
              Id(Id(Gen("p", 0)))),
             (free_algebra(k_terminal_computad(1, ["x0", "x1", "x2"]), Bounds(size=5)),
              ["x0", "x1", "x2"], Id(Gen("o", 0)))]
    for fa, gens, unit in cases:
        fa = pickle.loads(pickle.dumps(fa, pickle.HIGHEST_PROTOCOL))
        e = fa.engines[fa.dim]
        assert_root_list(e)
        before = len(e.nodes), e.counters["merges"]
        for _ in range(60):
            word = [rng.choice(gens) for _ in range(rng.randint(1, 4))]
            t1 = random_bracketing(rng, word, fa.dim, unit)
            t2 = random_bracketing(rng, word, fa.dim, unit)
            assert fa.class_of_term(t1) is not None
            assert fa.class_of_term(t1) == fa.class_of_term(t2)
            verdict, cert = equal_cells(e, t1, t2)
            assert verdict == EQUAL and verify_certificate(e, cert)
            assert_root_list(e)
        assert (len(e.nodes), e.counters["merges"]) == before


def engine_work(e):
    """What an engine did: terms, classes, merges, axiom instances, rounds,
    the size-cut flag, and a digest of its proof forest and term DAG."""
    # the fifth entry is a generator's name, "" for every other node, and
    # the sixth an identity atom's lower class, its src, -1 for every other
    # node: the pinned digests hash this tuple
    nodes = [(n.kind, n.k, n.a, n.b, n.mset[0] if n.kind == GEN else "",
              n.src if n.kind == IDA else -1, n.mset, n.word, n.src, n.tgt) for n in e.nodes]
    digest = hashlib.sha256(repr((e._why, nodes)).encode()).hexdigest()
    return (len(e.nodes), len(e.classes()), e.counters["merges"],
            e.counters["axiom_instances"], e.round, e.saw_size_cut, digest)


def identity_only(dim=1):
    """The work of the dimension-1 or dimension-2 engine under a single
    0-cell and no generators above it, at any size: stratum 0 takes two
    rounds, one that merges its unit instances and one that confirms, and
    no stratum above it runs, since no class holds a generator."""
    terms, merges, instances, digest = {
        1: (2, 1, 5, "ac439a9ecfc3f1534fb927d78a340090a1164a559e2bf6396415b907e36762b5"),
        2: (3, 2, 14, "f5751aec2d7824af0fa7cd04ac13b54f2f068bcc438811294a0519ff4b7abd8b"),
    }[dim]
    return (terms, 1, merges, instances, 2, False, digest)


@pytest.mark.parametrize("make,size,work", [
    (lambda: k_terminal_computad(1, ["x0", "x1", "x2"]), 6, [
        (7115, 1093, 6022, 31451, 14, True,
         "25f00c4cce34ef4447a3ce22b1fe44b7c42efed0a60c6a50ff2f3a0dda73a8fe")]),
    (lambda: k_terminal_computad(2, ["x0", "x1", "x2"]), 4, [
        identity_only(),
        (430, 35, 395, 5406, 10, True,
         "ec6613747398130220165a2cfae41bce4034a1793f297c8212a272ee2d3b363b")]),
    (lambda: k_terminal_computad(2, ["x0", "x1", "x2"]), 6, [
        identity_only(),
        (1858, 84, 1774, 47866, 14, True,
         "013452d13a3a1e8a704f47813331ed0eb66d90e4979a534db1596d4d6098be6b")]),
    (lambda: k_terminal_computad(3, ["x0", "x1"]), 4, [
        identity_only(),
        identity_only(dim=2),
        (219, 15, 204, 3862, 10, True,
         "9aad139ed52053b54efeb1d40b08a6a3fedf3a07500d096455566ced063ad980")]),
    (scalar2, 5, [
        identity_only(),
        (259, 21, 238, 3704, 12, True,
         "b3e205e92383377660e2d91f59a612ee1eda3258680eba8d8597f0f2c89073f7")]),
    (contract3, 2, [
        (9, 3, 6, 27, 6, True,
         "f4ff9941005d86dd48babb4ac31a214bc5e52a259a4992d53b05c46bebbf74d0"),
        (37, 7, 30, 248, 6, True,
         "ffa68e2c724a6ed744fddf76db252d25047e55994f89af048b1e54588940970a"),
        (508, 37, 471, 10326, 7, True,
         "72392c1dea923bd08d07ca87dae24124fea67bcc11441128a4a506ec742e27f7")]),
    (contract3, 3, [
        (13, 4, 9, 41, 8, True,
         "25bc0debac84624b06ff4814dfea63dd9d20b2e99442c4731a8946da33dea050"),
        (98, 15, 83, 1094, 9, True,
         "be93d44278222f2afd42e3444d143ff23e9faaa8d0a9730a20c525a372c8f4c8"),
        (4591, 191, 4400, 179715, 10, True,
         "f258c036d726521a24ae0acb3223dd9372dc2f9fd6aa8c014b802041988c7b75")]),
], ids=["slice-k1-g3-size6", "slice-k2-g3-size4", "slice-k2-g3-size6", "slice-k3-g2-size4",
        "scalar2-size5", "contract3-size2", "contract3-size3"])
def test_engine_work_is_pinned(make, size, work):
    """Speed-ups to generation and matching must build the same terms in
    the same order, with the same merges and proof-forest labels. The rows
    cover every slice the `engine` benchmark times. The `contract3` rows
    pin the matcher's lookup-only rule in dimension 3: building the missing
    interchange e-nodes mid-round gave 2,064 terms and 2,027 merges at
    size 2, not 508 and 471, and building the missing assoc ones gave 4,623
    terms at size 3, not 4,591."""
    fa = free_algebra(make(), Bounds(size=size))
    assert [engine_work(e) for e in fa.engines[1:]] == work


def test_saturation_climbs_no_empty_stratum():
    """theta2.cpd has no generator above dimension 0, so no class of its
    engines holds a generator and each stops after the two rounds of
    stratum 0, whatever the size bound. With one round for each empty
    stratum, each would take 1,002 rounds here, and `--bound 1000000000`
    would never finish."""
    fa = free_algebra(theta2(), Bounds(size=1000))
    assert fa.fixed_point and [e.round for e in fa.engines[1:]] == [2, 2]
    assert [lv.n_classes for lv in fa.levels] == [1, 1, 1]


@pytest.mark.parametrize("k,gens,size", [(1, 3, 6), (2, 3, 4), (2, 3, 6), (3, 2, 4)],
                         ids=["k1-g3-size6", "k2-g3-size4", "k2-g3-size6", "k3-g2-size4"])
def test_two_rounds_reach_each_stratum_fixed_point(k, gens, size):
    """On the benchmark's slices every stratum takes one round that works
    and one that confirms."""
    c = k_terminal_computad(k, [f"x{i}" for i in range(gens)])
    fa = free_algebra(c, Bounds(size=size))
    assert fa.fixed_point
    assert all(e.round == 2 * (size + 1) for e in fa.engines[1:] if e.gen_atoms)


@pytest.mark.parametrize("k,gens,size,terms", [(2, 3, 4, 430), (3, 2, 4, 219)],
                         ids=["k2-g3-size4", "k3-g2-size4"])
def test_a_budget_of_the_pinned_terms_saturates(k, gens, size, terms):
    """The top engine of each slice builds exactly the terms that
    `test_engine_work_is_pinned` counts, so a term budget of that count
    saturates the slice and one term less does not. With no round cap, a
    stratum that never reaches its fixed point ends only at the term
    budget, one O(terms) round at a time: a lookup that rebuilds existing
    composites adds two terms a round in stratum 0, and had built 28,230
    of the default 200,000 after 60 s; this budget ends it at once."""
    c = k_terminal_computad(k, [f"x{i}" for i in range(gens)])
    assert free_algebra(c, Bounds(size=size, max_terms=terms)).fixed_point
    with pytest.raises(EngineLimit, match=f"term budget {terms - 1} exhausted"):
        free_algebra(c, Bounds(size=size, max_terms=terms - 1))


def _saturate_with_a_delayed_round(monkeypatch, held):
    """Saturate the slice k = 2 on two generators at size 4 with the Engine
    methods named in `held` held back in the first round of each stratum
    whose generation adds terms, and the next round matching every e-node
    again. The levels must come out as without the delay, and the last
    round of each stratum must add no term and no merge. Returns the
    (dimension, stratum, terms added, merges made) of each round."""
    c = k_terminal_computad(2, ["x0", "x1"])
    plain = free_algebra(c, Bounds(size=4)).levels
    rounds = []
    hold = [False]
    extend, match = Engine.extend_composites, Engine.saturation_round

    def counting(self, size):
        rounds.append((self.dim, size, len(self.nodes), self.counters["merges"]))
        extend(self, size)

    def delayed(self, size, mark):
        dim, _, terms, merges = rounds[-1]
        hold[0] = len(self.nodes) > terms and all(r[:2] != (dim, size) for r in rounds[:-1])
        next_mark = match(self, size, mark)
        rounds[-1] = (dim, size, len(self.nodes) - terms, self.counters["merges"] - merges)
        return mark if hold[0] else next_mark

    def holding(method):
        def run(self, *args):
            if not hold[0]:
                method(self, *args)
        return run

    monkeypatch.setattr(Engine, "extend_composites", counting)
    monkeypatch.setattr(Engine, "saturation_round", delayed)
    for name in held:
        monkeypatch.setattr(Engine, name, holding(getattr(Engine, name)))
    assert free_algebra(c, Bounds(size=4)).levels == plain
    last = {(dim, size): (terms, merges) for dim, size, terms, merges in rounds}
    assert set(last.values()) == {(0, 0)}
    return rounds


def test_a_round_that_only_merges_does_not_end_its_stratum(monkeypatch):
    """A stratum ends on a round that adds no term and no merge, not on one
    that only merges. Here the first round of each stratum that generates
    terms holds back its associativity and interchange matches, and the
    next round matches every e-node, so it merges without adding a term;
    `saturate` must go on to a round that confirms."""
    rounds = _saturate_with_a_delayed_round(monkeypatch, ["_matched_instances"])
    assert any(terms == 0 and merges > 0 for _, _, terms, merges in rounds)


def test_a_round_that_only_adds_terms_does_not_end_its_stratum(monkeypatch):
    """Nor does a stratum end on a round that adds terms and merges
    nothing. Here the first round of each stratum that generates terms
    asserts no axiom instance at all, so it only adds the composites that
    generation built; `saturate` must go on to the rounds that merge them."""
    rounds = _saturate_with_a_delayed_round(
        monkeypatch, ["_matched_instances", "_unit_instances"])
    assert any(terms > 0 and merges == 0 for _, _, terms, merges in rounds)


def _subterms(t, seen):
    """Every subterm object of t once, by identity."""
    if id(t) in seen:
        return
    seen[id(t)] = t
    for child in (t.left, t.right) if isinstance(t, Comp) else ():
        _subterms(child, seen)


def test_engine_shares_immutable_term_data():
    """Equal multisets and dimension-1 words are one object per engine, and
    a level's representatives share their subterms. The slice's traced
    peak was 9.47 MiB before that sharing and 6.00 MiB with it. It rose to
    6.35 MiB when associativity came to be matched from one side only,
    which built 9,137 terms where matching from both sides built 8,408.
    Saturating one generator count at a time built 9,869 terms and peaked
    at 6.32 MiB. Hash-consing composites builds 7,115 and peaked at 4.98
    MiB. Keeping users per class and reading each class's e-nodes from its
    members peaks at 4.81 MiB; the bound stays, about 35% above that, so a
    change that adds a few terms does not trip it while the sharing it
    guards is intact."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()  # empties the free lists, so earlier tests do not count
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = slice_of_strict(1, ["x0", "x1", "x2"], Bounds(size=6))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 6.5 * 2**20
    e = result.free.engines[1]
    assert len({id(n.mset) for n in e.nodes}) == len({n.mset for n in e.nodes}) == 84
    assert len({id(n.word) for n in e.nodes}) == len({n.word for n in e.nodes}) == 1093
    seen = {}
    for t in result.free.levels[1].rep_terms:
        _subterms(t, seen)
    objects = list(seen.values())
    assert len(objects) == len(set(objects))


def test_monotonicity_partition_only_coarsens():
    from computadlab.freecat import Engine
    fa1 = free_algebra(theta_computad(1), Bounds(size=3))
    e = Engine(2, fa1.levels, [("al", 0, 0), ("be", 0, 0)], Bounds(size=3))
    previous = None
    for size in (0, 0, 1, 1, 2, 2, 3, 3):
        e.extend_composites(size)
        e.saturation_round(size, 0)
        part = {t: e.find(t) for t in range(len(e.nodes))}
        if previous is not None:
            merged = {}
            for t, old_root in previous.items():
                assert merged.setdefault(old_root, part[t]) == part[t]
        previous = part


def test_dim1_completeness_random_graphs():
    rng = random.Random(20250809)
    for _ in range(20):
        vertices, edges = random_graph(rng)
        c = graph_computad(vertices, edges)
        fa = free_algebra(c, Bounds(size=3))
        rows = fa.enumerate_cells(1)
        got = set()
        for rep, _ in rows:
            word = decode_word(rep, c)
            lv = fa.levels[1]
            cls = fa.class_of_term(term_from_str(rep, gen_dims(c)))
            start = fa.levels[0].reps[lv.src[cls]][4:-1]
            got.add((start, word))
        oracle = set(dfs_paths(vertices, edges, 3))
        assert got == oracle


def loop():
    return loads_computad(resources.files("computadlab")
                          .joinpath("data", "loop.cpd").read_text())


def theta2():
    return loads_computad(resources.files("computadlab")
                          .joinpath("data", "theta2.cpd").read_text())


def composites(leaves, indices, size):
    """Every composite of at most `size` leaves, along every index."""
    by_count = [[], list(leaves)]
    for n in range(2, size + 1):
        by_count.append([Comp(k, left, right) for i in range(1, n)
                         for left in by_count[i] for right in by_count[n - i]
                         for k in indices])
    return [t for ts in by_count for t in ts]


def whiskers(cells=("u", "v")):
    """{p; e: p -> p; u, v: e => e}: 2-cells whiskered by non-trivial
    1-cells, such as comp_0(id1(gen(e)),gen(u)). With `cells` one name,
    the terminal 2-globular computad."""
    e = Gen("e", 1)
    return build_computad([["p"], [("e", Gen("p", 0), Gen("p", 0))],
                           [(name, e, e) for name in cells]])


def rows_of_stacks(size, labels):
    """How many 2-cells `whiskers` has within `size`, with `labels`
    2-generators: a horizontal row of at most `size` e-columns, each a
    vertical stack of 2-generators, with at most `size` of them in all.
    Two 2-generators at size 3 give 176."""
    return sum(labels ** sum(js)
               for m in range(size + 1)
               for js in itertools.product(range(size + 1), repeat=m)
               if sum(js) <= size)


@pytest.mark.parametrize("make,size,total", [
    *((loop, b, b + 1) for b in range(1, 6)),
    (theta2, 3, 1),
    (lambda: whiskers(["u"]), 3, rows_of_stacks(3, 1)),
    (whiskers, 2, rows_of_stacks(2, 2)),
    (whiskers, 3, rows_of_stacks(3, 2)),
], ids=[*(f"loop-size{b}" for b in range(1, 6)),
        "theta2-size3", "terminal2-size3", "whiskers-size2", "whiskers-size3"])
def test_classes_match_pasting_diagram_oracle(make, size, total):
    """One globular computad goes to the engine and to the decorated-tree
    oracle, with width bound = size: the classes of each size and the
    diagrams with that many top-dimensional labels are equally many, and in
    dimension 1 each class's (start vertex, generator word) is some
    diagram's (root label, child labels)."""
    c = make()
    n = c.dim
    levels = free_algebra(c, Bounds(size=size)).levels
    lv = levels[n]
    classes = [cls for cls, mset in enumerate(lv.msets) if len(mset) <= size]
    diagrams = pasting_cells(c, n, size)
    by_size = Counter(len(lv.msets[cls]) for cls in classes)
    by_labels = Counter(sum(len(path) == n for path, _ in dt.labels) for dt in diagrams)
    assert by_size == {k: m for k, m in by_labels.items() if k <= size}
    assert len(classes) == total
    if n == 1:
        words = {(levels[0].reps[lv.src[cls]][4:-1], decode_word(lv.reps[cls], c))
                 for cls in classes}
        paths = {(labels[()], tuple(labels[(i,)] for i in range(len(labels) - 1)))
                 for labels in (dict(dt.labels) for dt in diagrams)}
        assert len(words) == len(classes) and words == paths


@pytest.mark.parametrize("make,size,leaves", [
    (loop, 5, 5),
    (scalar2, 4, 4),
    (lambda: k_terminal_computad(1, ["x0", "x1"]), 5, 5),
    (whiskers, 2, 3),
], ids=["loop-size5", "scalar2-size4", "slice-k1-g2-size5", "whiskers-size2"])
def test_each_representative_is_its_class_least_term(make, size, leaves):
    """Every term with at most `leaves` leaves, resolved by `class_of_term`
    in the algebra at `size`: each class's representative is the least
    (length, string) of the terms that resolve to it, and it prints its own
    tree. The leaves are the generators, plus from dimension 2 up the
    identity atoms, so that whiskerings such as comp_0(id1(gen(e)),gen(u))
    are among the terms; in dimension 1 an identity atom is a term on its
    own. Every class must be reached."""
    fa = free_algebra(make(), Bounds(size=size))
    order = lambda s: (len(s), s)
    for d, lv in enumerate(fa.levels):
        assert lv.reps == [term_to_str(t) for t in lv.rep_terms]
        gens = [Gen(name, d) for name in fa.computad.names(d)]
        atoms = [Id(t) for t in fa.levels[d - 1].rep_terms] if d else []
        least: dict[int, str] = {}
        terms = (composites(gens + atoms, range(d), leaves) if d >= 2
                 else composites(gens, range(d), leaves) + atoms)
        for t in terms:
            try:
                c, s = fa.class_of_term(t), term_to_str(t)
            except FreecatError:  # operands that do not compose
                continue
            if c is not None:
                least[c] = min(least.get(c, s), s, key=order)
        assert [least.get(c) for c in range(lv.n_classes)] == lv.reps, d


def test_partiality_marker_reflects_size_cut():
    c = graph_computad(["a"], [("f", "a", "a")])
    fa = free_algebra(c, Bounds(size=2))
    assert fa.partial  # f.f.f exists beyond the bound
    assert "partial" in fa.partiality_marker()
    fa_free = free_algebra(theta_computad(2), Bounds(size=2))
    assert not fa_free.partial
    # one arrow f: a -> b does not compose with itself, so its free category
    # is its 3 cells from size 1 on; at size 0, f itself is beyond the bound
    arrow = graph_computad(["a", "b"], [("f", "a", "b")])
    assert [free_algebra(arrow, Bounds(size=size)).partial
            for size in (0, 1, 2)] == [True, False, False]
    assert "complete" in free_algebra(arrow, Bounds(size=1)).partiality_marker()


# f => f.f and f.f => f.f.f on one loop f: a 2-cell whose boundary composite
# passes the bound in dimension 1 is not built, and dimension 1's size cut,
# not one of dimension 2, marks the algebra partial
CUT_BELOW = {
    "whisker": ("dim 2\n0 p\n1 f : gen(p) => gen(p)\n"
                "2 u : gen(f) => comp_0(gen(f),gen(f))\n", {2: 4}),
    "longer-whisker": ("dim 2\n0 p\n1 f : gen(p) => gen(p)\n"
                       "2 u : comp_0(gen(f),gen(f)) => comp_0(gen(f),comp_0(gen(f),gen(f)))\n",
                       {3: 5, 4: 10}),
}


@pytest.mark.parametrize("case", CUT_BELOW)
def test_a_size_cut_one_dimension_down_marks_the_algebra_partial(case):
    text, classes = CUT_BELOW[case]
    for size, n in classes.items():
        fa = free_algebra(loads_computad(text), Bounds(size=size))
        assert fa.partial and fa.partiality_marker() == f"partial up to size {size}"
        assert fa.levels[2].n_classes == n
        assert [e.saw_size_cut for e in fa.engines[1:]] == [True, False]
