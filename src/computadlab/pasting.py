"""Plane rooted trees: the shapes of pasting diagrams.

Trees index the cells of the free strict n-category on the terminal
globular set. A globular set is a computad whose every attachment is a
generator; decorating a tree with the generators of such a computad gives
a pasting diagram. Enumeration is always bounded by height and width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Tree:
    """A plane rooted tree; equality is recursive equality of ordered children."""

    children: tuple["Tree", ...] = ()

    @cached_property
    def text(self) -> str:
        """The serialization, built once per tree from its children's."""
        return "(" + "".join(c.text for c in self.children) + ")"


LEAF = Tree()  # the unique tree of height 0


def tree_to_str(t: Tree) -> str:
    return t.text


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
