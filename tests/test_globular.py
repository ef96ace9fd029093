from computadlab.globular import GlobularSet, find_violation, make_globular, validate


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
