from importlib import resources

import pytest

from computadlab.computads import build_computad, loads_computad
from computadlab.freecat import Gen
from computadlab.pasting import LEAF, MAX_TREES, Tree, enumerate_trees, tree_count, tree_to_str
from oracles import (
    PastingError, dfs_paths, height, pasting_cells, tree_from_str, truncate_tree,
)

# --- independent oracles ------------------------------------------------------


def brute_trees_by_nodes(max_nodes, width):
    """All plane trees with <= max_nodes nodes and branching <= width, by
    direct recursion on the number of nodes (children partitions of n-1)."""
    by_n = {1: [Tree()]}
    for n in range(2, max_nodes + 1):
        def splits(total, slots):
            if total == 0:
                yield ()
                return
            if slots == 0:
                return
            for first in range(1, total + 1):
                for child in by_n.get(first, []):
                    for rest in splits(total - first, slots - 1):
                        yield (child,) + rest
        by_n[n] = [Tree(c) for c in splits(n - 1, width)]
    out = []
    for n in range(1, max_nodes + 1):
        out.extend(by_n[n])
    return out


def oracle_trees(max_height, width):
    cap = sum(width**i for i in range(max_height + 1)) if width else 1
    return [t for t in brute_trees_by_nodes(cap, width)
            if height(t) <= max_height]


def globular(points, *layers):
    """A computad whose every attachment is a generator: `layers[r - 1]`
    lists the r-generators as (name, source name, target name)."""
    return build_computad([points] + [
        [(name, Gen(s, r), Gen(t, r)) for name, s, t in layer]
        for r, layer in enumerate(layers)])


def loop_graph():
    return globular(["a"], [("f", "a", "a")])


# --- tests ---------------------------------------------------------------------


def test_height_examples():
    assert height(LEAF) == 0
    assert height(Tree((LEAF, LEAF, LEAF))) == 1
    assert height(Tree((Tree((LEAF,)),))) == 2


def test_truncate_tree_examples():
    chain2 = Tree((Tree((LEAF,)),))
    assert truncate_tree(chain2, height(chain2)) == chain2
    assert truncate_tree(chain2, 0) == LEAF
    assert truncate_tree(chain2, 1) == Tree((LEAF,))


def test_truncate_tree_min_composition():
    for t in enumerate_trees(3, 2):
        for j in range(4):
            for k in range(4):
                assert (truncate_tree(truncate_tree(t, j), k)
                        == truncate_tree(t, min(j, k)))


def test_truncate_tree_height_bound():
    for t in enumerate_trees(3, 2):
        for k in range(4):
            cut = truncate_tree(t, k)
            assert height(cut) <= k
            assert (cut == t) == (height(t) <= k)


def test_enumerate_trees_base_cases():
    assert enumerate_trees(0, 5) == [LEAF]
    assert len(enumerate_trees(1, 3)) == 4


def test_enumerate_trees_against_node_count_oracle():
    # two independent enumerations must agree
    for h, w in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        mine = enumerate_trees(h, w)
        other = oracle_trees(h, w)
        assert sorted(map(tree_to_str, mine)) == sorted(map(tree_to_str, other))
    assert len(enumerate_trees(2, 2)) == len(oracle_trees(2, 2)) == 13


def test_tree_count_follows_the_enumeration_and_saturates():
    for h in range(4):
        for w in range(4 if h < 3 else 3):
            assert tree_count(h, w) == len(enumerate_trees(h, w))
    assert tree_count(3, 3) == 621_436 <= MAX_TREES
    # N_3 at width 4 is about 3.7e11; bounds of any size stay a few steps
    for h, w in [(3, 4), (2, 2000), (1, 10**9), (10**9, 1), (10**9, 10**9)]:
        assert tree_count(h, w) == MAX_TREES + 1
    assert tree_count(10**9, 0) == tree_count(0, 10**9) == 1
    assert tree_count(5, 1) == len(enumerate_trees(5, 1)) == 6
    assert tree_count(10**6, 1) == tree_count(60, 2) == MAX_TREES + 1


def test_enumerate_trees_no_duplicates_and_truncation_closed():
    trees = enumerate_trees(2, 3)
    strs = [tree_to_str(t) for t in trees]
    assert len(strs) == len(set(strs))
    pool = set(strs)
    for t in trees:
        for k in range(3):
            assert tree_to_str(truncate_tree(t, k)) in pool


def test_serialization_round_trip():
    for t in enumerate_trees(3, 2):
        assert tree_from_str(tree_to_str(t)) == t
    assert tree_to_str(LEAF) == "()"


def test_serialization_rejects_bad_input():
    for bad in ["", "(", "(()", "())", "()()", "x"]:
        with pytest.raises(PastingError):
            tree_from_str(bad)


def test_pasting_cells_terminal_bijects_with_trees():
    one = globular(["*0"], [("*1", "*0", "*0")], [("*2", "*1", "*1")])
    for width in (1, 2, 3):
        cells = pasting_cells(one, 2, width)
        assert len(cells) == len(enumerate_trees(2, width))
        assert len({(tree_to_str(c.shape), c.labels) for c in cells}) == len(cells)


def test_pasting_cells_loop_paths():
    cells = pasting_cells(loop_graph(), 1, 3)
    assert len(cells) == 4  # f^0 .. f^3


def test_pasting_cells_respects_endpoints():
    g = globular(["a", "b", "c"], [("f", "a", "b"), ("h", "b", "c")])
    cells = pasting_cells(g, 1, 2)
    words = set()
    for c in cells:
        labels = dict(c.labels)
        word = tuple(labels[(i,)] for i in range(len(c.shape.children)))
        words.add(word)
    assert ("f", "h") in words
    assert ("h", "f") not in words


def test_pasting_cells_match_path_oracle_dim1():
    graphs = [
        (["a"], [("f", "a", "a")]),
        (["a", "b"], [("f", "a", "b"), ("g", "a", "b")]),
        (["a", "b", "c"], [("f", "a", "b"), ("h", "b", "c"), ("k", "b", "a")]),
    ]
    for vertices, edges in graphs:
        for width in (1, 2, 3):
            cells = pasting_cells(globular(vertices, edges), 1, width)
            oracle = dfs_paths(vertices, edges, width)
            assert len(cells) == len(oracle)


def test_pasting_cells_dim2_hand_count():
    # one 1-cell e on a point, two 2-cells on e: columns of 2-cells over
    # e-labelled nodes; with width 2 and trees of height <= 2 the diagrams
    # are: 13 shapes, each depth-1 node forced to e, each depth-2 node free
    # over {u, v} but chained vertically: src of the next is tgt of the
    # previous, and both 2-cells here are loops on e, so every assignment
    # works: sum over shapes of 2^(number of depth-2 nodes).
    x = globular(["p"], [("e", "p", "p")], [("u", "e", "e"), ("v", "e", "e")])
    cells = pasting_cells(x, 2, 2)
    expected = 0
    for t in enumerate_trees(2, 2):
        depth2 = sum(len(c.children) for c in t.children)
        expected += 2 ** depth2
    assert len(cells) == expected


def test_pasting_cells_refuse_scalar2():
    # alpha and beta are attached to id1(gen(p)), an identity, not a 1-generator
    scalar2 = loads_computad(resources.files("computadlab")
                             .joinpath("data", "scalar2.cpd").read_text())
    with pytest.raises(PastingError, match="alpha"):
        pasting_cells(scalar2, 2, 1)


def test_pasting_cells_refuse_a_two_generator_on_points():
    p = Gen("p", 0)
    c = build_computad([["p"], [("e", p, p)], [("u", p, p)]])
    with pytest.raises(PastingError, match="'u'"):
        pasting_cells(c, 2, 1)
