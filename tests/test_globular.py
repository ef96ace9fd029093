import random

import pytest

from computadlab.globular import (
    GlobularError, GlobularSet, ParallelPair,
    find_violation, make_globular, make_map, map_violation,
    parallel_pairs, pullback_glob, terminal_globular, truncate, validate,
)


def two_cell_example():
    return make_globular(
        2,
        [["a", "b"], ["f", "g"], ["m"]],
        [{}, {"f": "a", "g": "a"}, {"m": "f"}],
        [{}, {"f": "b", "g": "b"}, {"m": "g"}],
    )


def random_globular(rng, dim=2, width=3):
    cells = [[f"c0_{i}" for i in range(rng.randint(1, width))]]
    src = [{}]
    tgt = [{}]
    for r in range(1, dim + 1):
        level = [f"c{r}_{i}" for i in range(rng.randint(0, width))]
        s, t = {}, {}
        ok_level = []
        for x in level:
            if r == 1:
                s[x] = rng.choice(cells[0])
                t[x] = rng.choice(cells[0])
                ok_level.append(x)
            else:
                lower = cells[r - 1]
                if not lower:
                    continue
                a = rng.choice(lower)
                parallel = [y for y in lower
                            if src[r - 1][y] == src[r - 1][a]
                            and tgt[r - 1][y] == tgt[r - 1][a]]
                s[x] = a
                t[x] = rng.choice(parallel)
                ok_level.append(x)
        cells.append(ok_level)
        src.append(s)
        tgt.append(t)
    return make_globular(dim, cells, src, tgt)


def test_validate_single_point():
    g = make_globular(0, [["a"]])
    assert validate(g)


def test_validate_single_edge():
    g = make_globular(1, [["a", "b"], ["f"]], [{}, {"f": "a"}], [{}, {"f": "b"}])
    assert validate(g)


def test_validate_rejects_nonglobular_two_cell():
    g = GlobularSet(
        2,
        [["a", "b", "c"], ["f", "g"], ["m"]],
        [{}, {"f": "a", "g": "b"}, {"m": "f"}],
        [{}, {"f": "b", "g": "c"}, {"m": "g"}],
    )
    bad = find_violation(g)
    assert bad is not None and "m" in bad


def test_truncate_identity_and_drop():
    g = two_cell_example()
    same = truncate(g, 2)
    assert same.cells == g.cells
    t1 = truncate(g, 1)
    assert t1.dim == 1
    assert [len(level) for level in t1.cells] == [2, 2]
    t0 = truncate(g, 0)
    assert t0.cells == [["a", "b"]]
    with pytest.raises(GlobularError):
        truncate(g, 3)


def test_parallel_pairs_dim0_all_pairs():
    g = make_globular(0, [["a", "b"]])
    assert len(parallel_pairs(g, 0)) == 4


def test_parallel_pairs_parallel_edges():
    g = two_cell_example()
    pairs = parallel_pairs(g, 1)
    names = {(p.left, p.right) for p in pairs}
    assert names == {("f", "f"), ("f", "g"), ("g", "f"), ("g", "g")}


def test_parallel_pairs_chain_excluded():
    g = make_globular(
        1, [["a", "b", "c"], ["f", "h"]],
        [{}, {"f": "a", "h": "b"}], [{}, {"f": "b", "h": "c"}],
    )
    pairs = parallel_pairs(g, 1)
    assert {(p.left, p.right) for p in pairs} == {("f", "f"), ("h", "h")}


def test_parallel_pairs_diagonal_and_symmetry():
    rng = random.Random(11)
    for _ in range(10):
        g = random_globular(rng)
        for r in range(g.dim + 1):
            pairs = parallel_pairs(g, r)
            for x in g.cells[r]:
                assert ParallelPair(r, x, x) in pairs
            for p in pairs:
                assert ParallelPair(r, p.right, p.left) in pairs


def brute_pullback_counts(f, g):
    return [
        sum(1 for x in f.dom.cells[r] for y in g.dom.cells[r]
            if f.comp[r][x] == g.comp[r][y])
        for r in range(f.dom.dim + 1)
    ]


def test_pullback_identity_diagonal():
    g = two_cell_example()
    i = make_map(g, g, [{x: x for x in level} for level in g.cells])
    p, p1, p2 = pullback_glob(i, i)
    assert [len(level) for level in p.cells] == [2, 2, 1]
    assert map_violation(p1) is None and map_violation(p2) is None


def test_pullback_over_terminal_is_product():
    g = two_cell_example()
    t = terminal_globular(2)
    bang = make_map(g, t, [{x: f"*{r}" for x in g.cells[r]} for r in range(3)])
    p, _, _ = pullback_glob(bang, bang)
    assert [len(level) for level in p.cells] == [4, 4, 1]


def test_pullback_dim0_product():
    x = make_globular(0, [["a", "b"]])
    y = make_globular(0, [["c"]])
    t = terminal_globular(0)
    f = make_map(x, t, [{"a": "*0", "b": "*0"}])
    g = make_map(y, t, [{"c": "*0"}])
    p, _, _ = pullback_glob(f, g)
    assert len(p.cells[0]) == 2


def test_pullback_matches_brute_force_oracle():
    rng = random.Random(23)
    for _ in range(15):
        z = random_globular(rng)
        x = random_globular(rng)
        # a random map is built by landing every cell on a compatible target
        def random_map_into(dom, cod):
            comp = [dict() for _ in range(dom.dim + 1)]
            for c in dom.cells[0]:
                comp[0][c] = rng.choice(cod.cells[0])
            for r in range(1, dom.dim + 1):
                for c in dom.cells[r]:
                    candidates = [
                        d for d in cod.cells[r]
                        if cod.src[r][d] == comp[r - 1][dom.src[r][c]]
                        and cod.tgt[r][d] == comp[r - 1][dom.tgt[r][c]]
                    ]
                    if not candidates:
                        return None
                    comp[r][c] = rng.choice(candidates)
            return make_map(dom, cod, comp)

        f = random_map_into(x, z)
        g = random_map_into(x, z)
        if f is None or g is None:
            continue
        p, p1, p2 = pullback_glob(f, g)
        assert find_violation(p) is None
        assert [len(level) for level in p.cells] == brute_pullback_counts(f, g)
        # projections commute with the cospan
        for r in range(p.dim + 1):
            for c in p.cells[r]:
                assert f.comp[r][p1.comp[r][c]] == g.comp[r][p2.comp[r][c]]


def test_map_validation_rejects_boundary_break():
    g = two_cell_example()
    h = make_globular(1, [["a", "b"], ["f"]], [{}, {"f": "a"}], [{}, {"f": "b"}])
    m = make_map(truncate(g, 1), h, [{"a": "a", "b": "b"}, {"f": "f", "g": "f"}])
    assert map_violation(m) is None
    swapped = {"a": "b", "b": "a"}
    with pytest.raises(GlobularError):
        make_map(truncate(g, 1), h, [swapped, {"f": "f", "g": "f"}])


