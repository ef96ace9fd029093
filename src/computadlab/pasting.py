"""Plane rooted trees: the shapes of pasting diagrams.

Trees index the cells of the free strict n-category on the terminal
globular set; decorating a tree with cells of a globular set gives a
pasting diagram. Enumeration is always bounded by height and width.
"""

from __future__ import annotations

from dataclasses import dataclass

from .globular import GlobularSet, GlobularError


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
            raise GlobularError(f"expected '(' at position {i}")
        i += 1
        children = []
        while i < len(s) and s[i] == "(":
            child, i = parse(i)
            children.append(child)
        if i >= len(s) or s[i] != ")":
            raise GlobularError(f"expected ')' at position {i}")
        return Tree(tuple(children)), i + 1

    try:
        t, end = parse(0)
    except RecursionError:
        raise GlobularError("tree nested too deeply") from None
    if end != len(s):
        raise GlobularError(f"trailing input after position {end}")
    return t


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
    """A tree whose depth-k nodes carry k-cells of a globular set.

    `labels` maps node paths (tuples of child indices, root = ()) to cells.
    """

    shape: Tree
    labels: tuple[tuple[tuple[int, ...], str], ...]


def _decorations(t: Tree, x: GlobularSet, depth: int, cell: str, path):
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
        for d in x.cells[depth + 1]:
            if x.src[depth + 1][d] != prev:
                continue
            for sub in _decorations(child, x, depth + 1, d, path + (i,)):
                yield from extend(i + 1, x.tgt[depth + 1][d], acc + [(path + (i,), d)] + sub)

    return list(extend(0, cell, []))


def pasting_cells(x: GlobularSet, n: int, max_width: int) -> list[DecoratedTree]:
    """All pasting diagrams of dimension n in x, within the width bound.

    Convention (validated by the low-dimensional oracles, not fixed by the
    tree description alone): a node at depth k carries a k-cell; the cells
    on the children of a node compose along dimension k starting at the
    parent's cell.
    """
    if n > x.dim:
        raise GlobularError(f"dimension {n} above dim {x.dim}")
    out = []
    for t in enumerate_trees(n, max_width):
        for root in x.cells[0]:
            for sub in _decorations(t, x, 0, root, ()):
                labels = tuple(sorted([((), root)] + sub))
                out.append(DecoratedTree(t, labels))
    return out
