"""Independent oracles shared by several test files, and the oracles that
only tests reach: pasting diagrams, the cells of the free strict
n-category on a globular set, the trivial and regular symmetric
collections, the free (commutative) monoid that a slice of the strict
monad is, element by element, and the validator of computad maps. pytest
does not collect this module (it is not named `test_*.py`)."""

import itertools
from dataclasses import dataclass

from computadlab import freecat
from computadlab.computads import Computad, ComputadError, ComputadMap, free_algebra
from computadlab.freecat import Bounds, Gen, Id, Term
from computadlab.operads import SliceResult, SymCollection, all_perms, perm_compose
from computadlab.pasting import LEAF, Tree, enumerate_trees


def dfs_paths(vertices, edges, max_len):
    """Composable edge sequences (start, names) of length at most max_len,
    by depth-first extension; edges is a list of (name, src, tgt)."""
    tgt = {e: t for e, _, t in edges}
    paths = [(v, ()) for v in vertices]
    frontier = list(paths)
    for _ in range(max_len):
        nxt = []
        for start, es in frontier:
            at = tgt[es[-1]] if es else start
            for e, s, _ in edges:
                if s == at:
                    nxt.append((start, es + (e,)))
        paths.extend(nxt)
        frontier = nxt
    return paths


def path_image_counts(paths, m) -> dict:
    """The number of `paths` over each image path under the graph map m,
    `paths` being `(start, edges)` pairs of m's domain: each image built
    as its own tuple, `(m.vmap[start], (m.emap[e], ...))`."""
    counts: dict = {}
    for start, es in paths:
        img = m.vmap[start], tuple(m.emap[e] for e in es)
        counts[img] = counts.get(img, 0) + 1
    return counts


# --- pasting diagrams -----------------------------------------------------------


class PastingError(Exception):
    pass


def height(t: Tree) -> int:
    if not t.children:
        return 0
    return 1 + max(height(c) for c in t.children)


def truncate_tree(t: Tree, k: int) -> Tree:
    """Delete all nodes at depth > k."""
    if k <= 0:
        return LEAF
    return Tree(tuple(truncate_tree(c, k - 1) for c in t.children))


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


# --- symmetric collections ------------------------------------------------------


def trivial_sym_collection(sets: dict[int, list]) -> SymCollection:
    action = {n: {p: {e: e for e in elems} for p in all_perms(n)}
              for n, elems in sets.items()}
    return SymCollection({n: list(v) for n, v in sets.items()}, action)


def regular_sym_collection(max_arity: int) -> SymCollection:
    """A[n] = the symmetric group itself, acted on by left multiplication."""
    sets = {n: all_perms(n) for n in range(max_arity + 1)}
    action = {n: {p: {e: perm_compose(p, e) for e in sets[n]} for p in all_perms(n)}
              for n in sets}
    return SymCollection(sets, action)


# --- slices of the strict monad -------------------------------------------------


def free_monoid_elements(generators, size: int) -> list[tuple]:
    """The words of length <= size; with no generator, only the empty one."""
    gens = list(generators)
    out = []
    for n in range(size + 1 if gens else 1):
        out.extend(itertools.product(gens, repeat=n))
    return out


def free_commutative_monoid_elements(generators, size: int) -> list[tuple]:
    gens = sorted(generators, key=repr)
    out = []
    for n in range(size + 1):
        out.extend(itertools.combinations_with_replacement(gens, n))
    return out


def _top_generators(t: Term) -> tuple[str, ...]:
    """The top-dimensional generator occurrences of a term, left to right;
    an identity contributes none."""
    if isinstance(t, Gen):
        return (t.name,)
    if isinstance(t, Id):
        return ()
    return _top_generators(t.left) + _top_generators(t.right)


def slice_matches_oracle(result: SliceResult) -> tuple[bool, dict[int, int], str]:
    """Compare a computed slice against the oracle for its k: the free
    monoid for k = 1, the free commutative monoid for k >= 2.

    Each class within the size bound, the rows `enumerate_cells` gives, maps
    its representative to its generator word (k = 1) or its sorted generator
    multiset (k >= 2). The slice matches when this map is a bijection onto
    the oracle's elements within the size bound: its image is exactly those
    elements and no two classes share one. Also returns the number of the
    oracle's elements of each size 0..bound, and the oracle's name."""
    first = result.k == 1
    name, oracle = (("free-monoid", free_monoid_elements) if first else
                    ("free-commutative-monoid", free_commutative_monoid_elements))
    size = result.free.bounds.size
    elements = oracle(result.generators, size)
    level = result.free.levels[result.k]
    image = [word if first else tuple(sorted(word, key=repr))
             for word, mset in zip(map(_top_generators, level.rep_terms), level.msets)
             if len(mset) <= size]
    ok = len(set(image)) == len(image) and set(image) == set(elements)
    counts = dict.fromkeys(range(size + 1), 0)
    for element in elements:
        counts[len(element)] += 1
    return ok, counts, name


def map_violation(m: ComputadMap, bounds: Bounds = Bounds()) -> str | None:
    """Check totality, dimensions and boundary naturality of a computad map."""
    if m.dom.dim != m.cod.dim:
        return "dimension mismatch"
    fa_cod = free_algebra(m.cod, bounds)
    for r in range(m.dom.dim + 1):
        cod_names = set(m.cod.names(r))
        for decl in m.dom.layers[r]:
            img = m.rename.get(decl.name)
            if img is None:
                return f"dim {r}: map undefined on {decl.name!r}"
            if img not in cod_names:
                return f"dim {r}: image of {decl.name!r} is not a {r}-generator"
        if r == 0:
            continue
        for decl in m.dom.layers[r]:
            img = next(d for d in m.cod.layers[r] if d.name == m.rename[decl.name])
            for side, ours, theirs in (("source", decl.src, img.src),
                                       ("target", decl.tgt, img.tgt)):
                pushed = fa_cod.class_of_term(freecat.rename_gens(ours, m.rename))
                expect = fa_cod.class_of_term(theirs)
                if pushed is None or pushed != expect:
                    return (f"dim {r}: attachment of {decl.name!r} does not map to "
                            f"the {side} of {img.name!r}")
    return None


def make_computad_map(dom: Computad, cod: Computad, rename: dict[str, str],
                      bounds: Bounds = Bounds()) -> ComputadMap:
    m = ComputadMap(dom, cod, dict(rename))
    bad = map_violation(m, bounds)
    if bad is not None:
        raise ComputadError(bad)
    return m
