"""Plane rooted trees: the shapes of pasting diagrams.

Trees index the cells of the free strict n-category on the terminal
globular set. A globular set is a computad whose every attachment is a
generator; decorating a tree with the generators of such a computad gives
a pasting diagram. Enumeration is always bounded by height and width.
"""

from __future__ import annotations

from dataclasses import dataclass

from .computads import Computad
from .freecat import Gen


class PastingError(Exception):
    pass


@dataclass(frozen=True)
class Tree:
    """A plane rooted tree; equality is recursive equality of ordered children."""

    children: tuple["Tree", ...] = ()


LEAF = Tree()  # the unique tree of height 0


def height(t: Tree) -> int:
    if not t.children:
        return 0
    return 1 + max(height(c) for c in t.children)


def node_count(t: Tree) -> int:
    return 1 + sum(node_count(c) for c in t.children)


def truncate_tree(t: Tree, k: int) -> Tree:
    """Delete all nodes at depth > k."""
    if k <= 0:
        return LEAF
    return Tree(tuple(truncate_tree(c, k - 1) for c in t.children))


def tree_to_str(t: Tree) -> str:
    return "(" + "".join(tree_to_str(c) for c in t.children) + ")"


def tree_from_str(s: str) -> Tree:
    s = s.strip()

    def parse(i: int) -> tuple[Tree, int]:
        if i >= len(s) or s[i] != "(":
            raise PastingError(f"expected '(' at position {i}")
        i += 1
        children = []
        while i < len(s) and s[i] == "(":
            child, i = parse(i)
            children.append(child)
        if i >= len(s) or s[i] != ")":
            raise PastingError(f"expected ')' at position {i}")
        return Tree(tuple(children)), i + 1

    try:
        t, end = parse(0)
    except RecursionError:
        raise PastingError("tree nested too deeply") from None
    if end != len(s):
        raise PastingError(f"trailing input after position {end}")
    return t


# the most trees `trees` builds; --height 3 --width 3 has 621,436
MAX_TREES = 1_000_000


def tree_count(max_height: int, max_width: int) -> int:
    """How many trees `enumerate_trees(max_height, max_width)` returns, by
    N_h = sum of N_(h-1)^n over n <= max_width, with N_0 = 1. The count
    saturates at MAX_TREES + 1, so any bounds cost only a few steps."""
    over = MAX_TREES + 1
    if max_height == 0 or max_width == 0:
        return 1
    if max_width == 1:  # paths of up to max_height edges
        return min(max_height + 1, over)
    count = min(max_width + 1, over)  # N_1: a root with up to max_width leaves
    for _ in range(max_height - 1):
        if count == over:
            break
        total, term = 0, 1  # terms grow by a factor N_(h-1) >= 3
        for _ in range(max_width + 1):
            total += term
            term *= count
            if total >= over:
                break
        count = min(total, over)
    return count


def enumerate_trees(max_height: int, max_width: int) -> list[Tree]:
    """All plane trees of height <= max_height with each node's child count
    <= max_width, each exactly once, in canonical (serialization) order."""
    if max_height == 0 or max_width == 0:
        return [LEAF]
    smaller = enumerate_trees(max_height - 1, max_width)
    out = []
    stack = [()]
    while stack:
        children = stack.pop()
        out.append(Tree(children))
        if len(children) < max_width:
            stack.extend(children + (c,) for c in smaller)
    # dedup is structural: every child tuple is produced once
    return sorted(out, key=tree_to_str)


@dataclass(frozen=True)
class DecoratedTree:
    """A tree whose depth-k nodes carry k-generators of a globular computad.

    `labels` maps node paths (tuples of child indices, root = ()) to
    generator names.
    """

    shape: Tree
    labels: tuple[tuple[tuple[int, ...], str], ...]


def _globular_layers(c: Computad, n: int) -> list[list[tuple[str, str, str]]]:
    """The r-generators of c for 1 <= r <= n, at index r, as (name, source,
    target) names. Raises PastingError on an attachment that is not a pair
    of (r-1)-generators; whether the pair is parallel is `free_algebra`'s
    check, as for every computad."""
    layers: list[list[tuple[str, str, str]]] = [[]]
    for r in range(1, n + 1):
        below = set(c.names(r - 1))
        layer = []
        for g in c.layers[r]:
            if not all(isinstance(t, Gen) and t.name in below for t in (g.src, g.tgt)):
                raise PastingError(
                    f"generator {g.name!r}: attachment is not a pair of {r - 1}-generators")
            layer.append((g.name, g.src.name, g.tgt.name))
        layers.append(layer)
    return layers


def _decorations(t: Tree, layers, depth: int, cell: str, path):
    """Label assignments for the children of a node already labelled `cell`.

    Sibling cells compose along dimension `depth`: the first child's source
    is the parent cell, and each next child starts where the previous ended.
    """
    # iterate children left to right, threading the running target
    def extend(i: int, prev: str, acc):
        if i == len(t.children):
            yield acc
            return
        child = t.children[i]
        for d, s, tgt in layers[depth + 1]:
            if s != prev:
                continue
            for sub in _decorations(child, layers, depth + 1, d, path + (i,)):
                yield from extend(i + 1, tgt, acc + [(path + (i,), d)] + sub)

    return list(extend(0, cell, []))


def pasting_cells(c: Computad, n: int, max_width: int) -> list[DecoratedTree]:
    """All pasting diagrams of dimension n in the globular computad c,
    within the width bound. Only the declarations are read; no engine runs.

    Convention (validated by the low-dimensional oracles, not fixed by the
    tree description alone): a node at depth k carries a k-generator; the
    generators on the children of a node compose along dimension k
    starting at the parent's generator.
    """
    if n > c.dim:
        raise PastingError(f"dimension {n} above dim {c.dim}")
    layers = _globular_layers(c, n)
    out = []
    for t in enumerate_trees(n, max_width):
        for root in c.names(0):
            for sub in _decorations(t, layers, 0, root, ()):
                labels = tuple(sorted([((), root)] + sub))
                out.append(DecoratedTree(t, labels))
    return out
