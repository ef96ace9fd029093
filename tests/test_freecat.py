import gc
import hashlib
import pickle
import random
import tracemalloc
from importlib import resources

import pytest

from computadlab.computads import (
    Computad, GeneratorDecl, build_computad, free_algebra, loads_computad, theta_computad,
)
from computadlab.freecat import (
    CMP, Bounds, Certificate, Comp, DISTINCT, EQUAL, Engine, FreecatError, Gen, Id,
    UNKNOWN, _STEPS, _family, certificate, equal_cells, level_zero,
    term_dim, term_from_str, term_to_str, verify_certificate,
)
from computadlab.operads import k_terminal_computad, slice_of_strict


def scalar2():
    return loads_computad(resources.files("computadlab")
                          .joinpath("data", "scalar2.cpd").read_text())

# --- independent oracles ---------------------------------------------------------


def dfs_paths(vertices, edges, max_len):
    """Composable edge sequences (start, names) by depth-first extension;
    edges is a list of (name, src, tgt)."""
    out = [(v, ()) for v in vertices]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for start, word in frontier:
            at = next(t for n, s, t in edges if n == word[-1]) if word else start
            for name, s, t in edges:
                if s == at:
                    nxt.append((start, word + (name,)))
        out.extend(nxt)
        frontier = nxt
    return out


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


def decode_word(rep: str) -> tuple:
    """Generator leaves of a dimension-1 representative, left to right."""
    t = term_from_str(rep)

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
            term_from_str(bad)


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
    words = {decode_word(rep) for rep, _ in rows}
    assert words == {(), ("f",), ("g",), ("f", "g"), ("g", "f")}
    # two identity classes share the empty word but have different endpoints
    assert fa.levels[1].n_classes == 6


def test_boundary_checks_on_terms():
    c = graph_computad(["a", "b"], [("f", "a", "b")])
    fa = free_algebra(c, Bounds(size=3))
    e = fa.engines[1]
    assert e.term_node(Comp(0, Gen("f", 1), Gen("f", 1))) is None  # b != a
    assert e.term_node(Comp(0, Id(Gen("a", 0)), Gen("f", 1))) is not None


# --- saturation ------------------------------------------------------------------


def test_saturation_round_fixed_point_when_nothing_applies():
    fa = free_algebra(theta_computad(1), Bounds(size=2))
    e = fa.engines[1]
    before = (len(e.nodes), e.counters["merges"])
    e.saturation_round()
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
    e = Engine(1, [level_zero(["o"])], [(n, 0, 0) for n in "abc"], Bounds(size=4))
    a, b, c = (e.gen_atoms[n] for n in "abc")
    left = e.make_comp(0, e.make_comp(0, a, b), c)
    right = e.make_comp(0, a, e.make_comp(0, b, c))
    # two users on each side, so that a pass that stops after one user fails
    users = [(e.make_comp(0, left, x), e.make_comp(0, right, x)) for x in (a, b)]
    e._assoc_instances(left)
    assert e.find(left) == e.find(right) == left  # the later class lost
    assert all(e.find(u) != e.find(v) for u, v in users)
    e._process_pending()
    for u, v in users:
        assert e.find(u) == e.find(v)
        cert = certificate(e, u, v)
        assert verify_certificate(e, cert)
        assert [reason[:2] for _, _, reason in cert.steps] == [("ax", "assoc"), ("cong",)]


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
    with pytest.raises(FreecatError, match="named twice"):
        free_algebra(Computad(0, [[GeneratorDecl("a"), GeneratorDecl("a")]]))


def test_eckmann_hilton_within_two_rounds():
    from computadlab.freecat import Engine
    fa1 = free_algebra(theta_computad(1), Bounds(size=2))
    e = Engine(2, fa1.levels, [("al", 0, 0), ("be", 0, 0)], Bounds(size=2))
    for _ in range(2):
        e.extend_composites()
        e.saturation_round()
    a = e.term_node(Comp(0, Gen("al", 2), Gen("be", 2)))
    b = e.term_node(Comp(1, Gen("al", 2), Gen("be", 2)))
    assert e.find(a) == e.find(b)


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
    from computadlab.freecat import Engine, EngineLimit, level_zero
    lv = level_zero(["p"])
    with pytest.raises(EngineLimit):
        e = Engine(1, [lv], [(f"g{i}", 0, 0) for i in range(4)],
                   Bounds(size=4, max_terms=8))
        for _ in range(6):
            e.extend_composites()
            e.saturation_round()


def test_certificate_tampering_is_caught():
    fa = free_algebra(scalar_computad(["al", "be"]), Bounds(size=2))
    e = fa.engines[2]
    al, be = Gen("al", 2), Gen("be", 2)
    verdict, cert = equal_cells(e, Comp(0, al, be), Comp(1, be, al))
    assert verdict == EQUAL and verify_certificate(e, cert)
    # claim an axiom step between two inequivalent terms
    u = e.term_node(al)
    v = e.term_node(be)
    cert.steps.append((u, v, ("ax", "assoc", 0, u, v)))
    cert.left, cert.right = u, v
    assert not verify_certificate(e, cert)


def test_interchange_step_needs_two_indices():
    # comp_0(comp_0(a,b), comp_0(c,d)) = comp_0(comp_0(a,c), comp_0(b,d))
    # has the literal shape of an interchange step with j = k, but it is
    # not a law: the two sides spell different words
    e = free_algebra(k_terminal_computad(1, ["x0", "x1"]), Bounds(size=4)).engines[1]
    x0, x1 = Gen("x0", 1), Gen("x1", 1)
    p, q = e.term_node(Comp(0, x0, x0)), e.term_node(Comp(0, x1, x1))
    u = e.term_node(Comp(0, Comp(0, x0, x0), Comp(0, x1, x1)))
    v = e.term_node(Comp(0, Comp(0, x0, x1), Comp(0, x0, x1)))
    assert e.verdict(u, v)[0] == DISTINCT
    step = (u, v, ("ax", "interchange", 0, 0, p, q))
    assert not verify_certificate(e, Certificate(u, v, [step]))


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


def matched_elsewhere(e, step):
    """An assoc or interchange step whose pattern is not the literal
    children of its pattern side, so replay must join them first."""
    u, _, reason = step
    return (reason[0] == "ax" and reason[1] in ("assoc", "interchange")
            and (e.nodes[u].a, e.nodes[u].b) != reason[-2:])


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
            # the steps form a forest, so each one is needed, and a
            # congruence step, like an axiom step matched up to congruence,
            # needs the steps explaining its children first
            assert not verify_certificate(e, Certificate(u, v, steps[:i] + steps[i + 1:]))
            if step[2] == ("cong",) or matched_elsewhere(e, step):
                moved = [step] + steps[:i] + steps[i + 1:]
                assert not verify_certificate(e, Certificate(u, v, moved))


@pytest.mark.parametrize("make,size", [
    (lambda: k_terminal_computad(2, ["x0", "x1", "x2"]), 4),
    (scalar2, 5),
], ids=["slice-k2-g3-size4", "scalar2-size5"])
def test_every_forest_edge_replays(make, size):
    """The certificate between the two ends of each proof-forest edge
    verifies, whatever the edge's reason, and every row of the step table
    has edges here."""
    fa = free_algebra(make(), Bounds(size=size))
    e = fa.engines[fa.dim]
    edges = [label for label in e._why if label is not None]
    assert len(edges) == e.counters["merges"]
    assert {_family(reason)[0] for _, _, reason in edges} == set(_STEPS)
    for u, v, reason in edges:
        cert = certificate(e, u, v)
        assert (u, v, reason) in cert.steps and verify_certificate(e, cert)


def _replace_step(steps, pick, change):
    i = next(i for i, step in enumerate(steps) if pick(step))
    return steps[:i] + [change(steps[i])] + steps[i + 1:]


def _relabel(name, reason):
    """Give the first step of family `name` the reason `reason(old reason)`."""
    return lambda c, n: (c.left, c.right, _replace_step(
        c.steps, lambda s: s[2][:2] == ("ax", name), lambda s: (s[0], s[1], reason(s[2]))))


MALFORMED = {
    "id-past-the-end": lambda c, n: (c.left, c.right, c.steps + [(n, 0, ("cong",))]),
    "id-negative-alias": lambda c, n: (c.left, c.right, _replace_step(
        c.steps, lambda s: True, lambda s: (s[0] - n, s[1], s[2]))),
    "id-not-an-int": lambda c, n: (c.left, c.right, c.steps + [("0", 1, ("cong",))]),
    "left-past-the-end": lambda c, n: (n, c.right, c.steps),
    "right-negative-alias": lambda c, n: (c.left, c.right - n, c.steps),
    "both-ends-negative": lambda c, n: (-1, -1, []),
    "step-not-a-triple": lambda c, n: (c.left, c.right, c.steps + [(0, 1)]),
    "reason-empty": lambda c, n: (c.left, c.right, c.steps + [(0, 1, ())]),
    "reason-not-a-tuple": lambda c, n: (c.left, c.right, c.steps + [(0, 1, "cong")]),
    "reason-unknown-head": lambda c, n: (c.left, c.right, c.steps + [(0, 1, ("rw",))]),
    "cong-with-argument": lambda c, n: (c.left, c.right, _replace_step(
        c.steps, lambda s: s[2] == ("cong",), lambda s: (s[0], s[1], ("cong", 0)))),
    "ax-without-family": lambda c, n: (c.left, c.right, c.steps + [(0, 1, ("ax",))]),
    "ax-unknown-family": lambda c, n: (c.left, c.right, c.steps + [(0, 1, ("ax", "comm", 0))]),
    "ax-without-index": lambda c, n: (c.left, c.right, c.steps + [(0, 1, ("ax", "assoc"))]),
    "interchange-one-index": lambda c, n: (c.left, c.right,
                                           c.steps + [(0, 1, ("ax", "interchange", 0))]),
    "ax-index-not-an-int": lambda c, n: (c.left, c.right, _replace_step(
        c.steps, lambda s: s[2][0] == "ax", lambda s: (s[0], s[1], s[2][:-1] + ("0",)))),
    "assoc-pattern-past-the-end": lambda c, n: (c.left, c.right,
                                                c.steps + [(0, 1, ("ax", "assoc", 0, n, 0))]),
    "interchange-pattern-negative-alias": lambda c, n: (c.left, c.right, _replace_step(
        c.steps, lambda s: s[2][:2] == ("ax", "interchange"),
        lambda s: (s[0], s[1], s[2][:4] + (s[2][4] - n, s[2][5])))),
    "assoc-old-shape": lambda c, n: (c.left, c.right, c.steps + [(0, 1, ("ax", "assoc", 0))]),
    "interchange-old-shape": lambda c, n: (c.left, c.right, _replace_step(
        c.steps, lambda s: s[2][:2] == ("ax", "interchange"),
        lambda s: (s[0], s[1], s[2][:4]))),
    "ax-cong": lambda c, n: (c.left, c.right, c.steps + [(0, 1, ("ax", "cong"))]),
    # terms 0 and 1 are the generators alpha and beta
    "cong-between-generators": lambda c, n: (0, 1, [(0, 1, ("cong",))]),
    # a real step under another family's name: that family's check must
    # refuse it (the first unit_l step is comp_1(id1(id1(gen(p))),gen(alpha))
    # = gen(alpha), whose body is no identity atom)
    "unit-l-relabelled-unit-r": _relabel("unit_l", lambda r: ("ax", "unit_r") + r[2:]),
    "unit-r-relabelled-unit-l": _relabel("unit_r", lambda r: ("ax", "unit_l") + r[2:]),
    "unit-l-relabelled-idfun": _relabel("unit_l", lambda r: ("ax", "idfun") + r[2:]),
    "interchange-relabelled-assoc": _relabel(
        "interchange", lambda r: ("ax", "assoc", r[2]) + r[4:]),
}


@pytest.mark.parametrize("tamper", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_certificate_is_rejected_without_raising(tamper):
    e, cert = eckmann_hilton_certificate(2)
    left, right, steps = tamper(cert, len(e.nodes))
    assert verify_certificate(e, Certificate(left, right, steps)) is False


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


def test_dimension_mismatch_rejected():
    fa = free_algebra(scalar_computad(["al"]), Bounds(size=2))
    with pytest.raises(FreecatError):
        equal_cells(fa.engines[2], Gen("al", 2), Id(Gen("p", 0)))


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
        fa = mk()
        report = fa.soundness_report()
        assert report["multiset_violations"] == 0
        assert report["boundary_violations"] == 0
        assert report["word_violations"] == 0
        assert report["split_violations"] == 0
        assert report["axiom_instances"] > 0


def assert_enode_index(e):
    """Each class's re-keyed e-node table holds exactly the child-class
    patterns of its composite members, each under its earliest member."""
    for root in e.classes():
        table = e.enodes(root)
        first = {}
        for t in e._class_terms[root]:
            n = e.nodes[t]
            if n.kind == CMP:
                first.setdefault((n.k, e.find(n.a), e.find(n.b)), t)
        assert table == first
        assert all(e.find(t) == root for t in table.values())


def assert_root_list(e):
    """The member lists partition the terms, and every member of class r
    has r as its root, r being the least term id of the class."""
    members = sorted(t for ts in e._class_terms.values() for t in ts)
    assert members == list(range(len(e.nodes)))
    for root, ts in e._class_terms.items():
        assert root == min(ts)
        assert all(e.find(t) == root for t in ts)


@pytest.mark.parametrize("make", [
    lambda: k_terminal_computad(2, ["x0", "x1", "x2"]),
    scalar2,
], ids=["slice-k2", "scalar2"])
def test_enode_index_after_every_step(make, monkeypatch):
    checked = []

    def checking(step):
        def run(self):
            out = step(self)
            assert_enode_index(self)
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
    """Queries on an unpickled algebra intern new terms and may merge
    classes; the root list stays exact after each one."""
    rng = random.Random(11)
    cases = [(free_algebra(scalar2(), Bounds(size=4)), ["alpha", "beta"],
              Id(Id(Gen("p", 0)))),
             (free_algebra(k_terminal_computad(1, ["x0", "x1", "x2"]), Bounds(size=5)),
              ["x0", "x1", "x2"], Id(Gen("o", 0)))]
    for fa, gens, unit in cases:
        fa = pickle.loads(pickle.dumps(fa, pickle.HIGHEST_PROTOCOL))
        e = fa.engines[fa.dim]
        assert_root_list(e)
        before = len(e.nodes)
        for _ in range(60):
            word = [rng.choice(gens) for _ in range(rng.randint(1, 4))]
            t1 = random_bracketing(rng, word, fa.dim, unit)
            t2 = random_bracketing(rng, word, fa.dim, unit)
            assert fa.class_of_term(t1) is not None
            assert fa.class_of_term(t1) == fa.class_of_term(t2)
            verdict, cert = equal_cells(e, t1, t2)
            assert verdict == EQUAL and verify_certificate(e, cert)
            assert_root_list(e)
        assert len(e.nodes) > before


def engine_work(e):
    """What an engine did: terms, classes, merges, axiom instances, rounds,
    the size-cut flag, and a digest of its proof forest and term DAG."""
    nodes = [(n.kind, n.k, n.a, n.b, n.name, n.lower, n.mset, n.word, n.src, n.tgt)
             for n in e.nodes]
    digest = hashlib.sha256(repr((e._why, nodes)).encode()).hexdigest()
    return (len(e.nodes), len(e.classes()), e.counters["merges"],
            e.counters["axiom_instances"], e.round, e.saw_size_cut, digest)


# the dimension-1 and dimension-2 engines under a single 0-cell and no
# generators above it
IDENTITY_ONLY = (2, 1, 1, 6, 2, False,
                 "82719f025f2cea2274d3492d1212597e1d37d8f2246d052349f6f2bfc77d4e46")
IDENTITY_ONLY_2 = (3, 1, 2, 16, 2, False,
                   "6e6d5bf80d0fdf93d05846b51e08e5cc084d4afb55e1f85a62e4593c2b2f67a6")


@pytest.mark.parametrize("make,size,work", [
    (lambda: k_terminal_computad(1, ["x0", "x1", "x2"]), 6, [
        (8408, 1093, 7315, 87062, 4, True,
         "e4c8394d305ce91ef9135b61af4cddb0a225a8ccd20055213d6236c4668c2e31")]),
    (lambda: k_terminal_computad(2, ["x0", "x1", "x2"]), 4, [
        IDENTITY_ONLY,
        (1735, 35, 1700, 23995, 3, True,
         "2237b850db76129aab1595ba58f6e829eb30599ab820b69f61457c333f97e2c1")]),
    (lambda: k_terminal_computad(2, ["x0", "x1", "x2"]), 6, [
        IDENTITY_ONLY,
        (4153, 84, 4069, 116840, 4, True,
         "88ddeebe81b296e250c3bf172337310491b42f9cdef6f69178f16e52218c4535")]),
    (lambda: k_terminal_computad(3, ["x0", "x1"]), 4, [
        IDENTITY_ONLY,
        IDENTITY_ONLY_2,
        (1120, 15, 1105, 22064, 3, True,
         "967878c1e4f051f0e10cc6c8e1062e099a4c849590be9af5584c68f3361848fc")]),
    (scalar2, 5, [
        IDENTITY_ONLY,
        (660, 21, 639, 12310, 4, True,
         "46ef5a51143aef0915502cbe2da016ea2a0cc64746b86a345193a042ac2a1bcd")]),
], ids=["slice-k1-g3-size6", "slice-k2-g3-size4", "slice-k2-g3-size6", "slice-k3-g2-size4",
        "scalar2-size5"])
def test_engine_work_is_pinned(make, size, work):
    """Speed-ups to generation and matching must build the same terms in
    the same order, with the same merges and proof-forest labels. The rows
    cover every slice the `engine` benchmark times."""
    fa = free_algebra(make(), Bounds(size=size))
    assert [engine_work(e) for e in fa.engines[1:]] == work


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
    peak was 9.47 MiB before that sharing and 6.00 MiB with it; the bound
    sits about 8% above the latter."""
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
    for _ in range(6):
        e.extend_composites()
        e.saturation_round()
        part = {t: e.find(t) for t in range(len(e.nodes))}
        if previous is not None:
            merged = {}
            for t, old_root in previous.items():
                assert merged.setdefault(old_root, part[t]) == part[t]
        previous = part
    assert e.counters["split_violations"] == 0


def test_dim1_completeness_random_graphs():
    rng = random.Random(20250809)
    for _ in range(20):
        vertices, edges = random_graph(rng)
        c = graph_computad(vertices, edges)
        fa = free_algebra(c, Bounds(size=3))
        rows = fa.enumerate_cells(1)
        got = set()
        for rep, _ in rows:
            word = decode_word(rep)
            lv = fa.levels[1]
            cls = fa.class_of_term(term_from_str(rep, {v: 0 for v in vertices}
                                                 | {n: 1 for n, _, _ in edges}))
            start = fa.levels[0].reps[lv.src[cls]][4:-1]
            got.add((start, word))
        oracle = set(dfs_paths(vertices, edges, 3))
        assert got == oracle


def test_dim2_classes_match_pasting_diagram_oracle():
    """Engine cells of the free 2-category on {p; e: p->p; u,v: e => e}
    agree with the decorated-tree count: a 2-cell is a horizontal row of
    vertical stacks of 2-cells over e-columns, so both routes (and a
    closed form) must give the same number."""
    from computadlab.globular import make_globular
    from computadlab.pasting import pasting_cells

    e = Gen("e", 1)
    c = build_computad([["p"], [("e", Gen("p", 0), Gen("p", 0))],
                        [("u", e, e), ("v", e, e)]])
    fa = free_algebra(c, Bounds(size=3))
    rows = fa.enumerate_cells(2)

    x = make_globular(2, [["p"], ["e"], ["u", "v"]],
                      [{}, {"e": "p"}, {"u": "e", "v": "e"}],
                      [{}, {"e": "p"}, {"u": "e", "v": "e"}])
    diagrams = [dt for dt in pasting_cells(x, 2, 3)
                if sum(1 for path, _ in dt.labels if len(path) == 2) <= 3]

    import itertools
    closed_form = sum(
        2 ** sum(js)
        for m in range(4)
        for js in itertools.product(range(4), repeat=m)
        if sum(js) <= 3)
    assert len(rows) == len(diagrams) == closed_form == 176


def test_partiality_marker_reflects_size_cut():
    c = graph_computad(["a"], [("f", "a", "a")])
    fa = free_algebra(c, Bounds(size=2))
    assert fa.partial  # f.f.f exists beyond the bound
    assert "partial" in fa.partiality_marker()
    fa_free = free_algebra(theta_computad(2), Bounds(size=2))
    assert not fa_free.partial
