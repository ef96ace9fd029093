"""Composite terms in a free strict n-category and the congruence engine.

The free algebra on a computad is built one dimension at a time, from
dimension 0 up. The engine for dimension r works over a frozen snapshot of
the dimensions below (`Level`: classes, boundaries, composition and
identity tables), an empty list at r = 0, where the classes are the
generators alone, and closes the r-dimensional terms under the
strict-category axioms:

  * associativity of each composition `comp_k`,
  * two-sided units given by iterated identities,
  * middle-four interchange for distinct composition indices,
  * functoriality of identities over lower composites.

Terms are interned in a DAG; equality is a congruence closure kept as an
exact list of each term's class root, beside the member list of each class
(Nieuwenhuis and Oliveras, "Fast congruence closure and extensions", Inf.
Comput. 205, 2007). A root is the least term id of its class, and a merge
relabels every member of the losing class, so `find` is one list read.
Saturation runs one stratum per generator count s = 0, 1, ..., size, each
to its own fixed point. A round of stratum s alternates a generation step
(compose every pair of class roots whose multisets add up to s - one slice
of the free-composites layer) with an axiom step (assert every axiom
instance visible on the materialized terms of the classes of size s, then
re-close the congruence). A stratum's rounds repeat until one adds no term
and no merge; the term budget bounds them (`saturate` says why).
Generation is size-graded: the round's class roots are grouped by generator
count once, and each left root is paired only with the right roots of the
size left over, so pairs beyond the stratum are never visited.

Composites are hash-consed up to congruence, as in egg (Willsey et al.,
"egg: Fast and Extensible Equality Saturation", POPL 2021): `make_comp`
looks the canonical key (k, class of left, class of right) up in the
signature table and returns the e-node it finds, and builds a composite
only when there is none, so no term is ever a copy of an existing e-node.
The k-composite rule is written once, in `_comp_boundary`: two cells
compose along k when the k-target of the first is the k-source of the
second, and the composite's boundaries are read one dimension down.
`make_comp` builds by it and `_resolve`, the one reader of a term from
outside the engines, reads by it, so a query cannot disagree with
saturation about what composes.
Saturation alone builds terms: a query (`term_node`) reads the level its
engine froze and the signature table, as egg's `lookup` does beside its
`add`, and builds nothing. Each class root keeps its users, the
composites with a child in its class, as egg keeps parents per e-class; a
merge appends the loser's users to the winner's and queues them for the
congruence check. Axioms are matched per e-node. A class's e-nodes are
read from its member list, the first member of each canonical key.
Multisets never mix, so once its stratum is done a class never changes
again, and neither do the classes of its children: its list is cached
from then on, while the list of a class of the stratum in progress is
read afresh, and a merge drops nothing. One matcher visits each e-node of
a round-start snapshot once, not each of the many more member terms:
associativity from its left-nested side, interchange on pairs of
child-class e-nodes. An e-node whose two children both hold generators is
matched only in the first round of its stratum that sees it (`saturate`
says why). Each instance looks the inner e-nodes of its other side up in
the signature table and never builds one: an instance with one missing is
skipped, and matched again in a later round of its stratum
(`_matched_instances` says why nothing is lost). Only the other side's
outer composite is built, by `make_comp` when no e-node holds its key,
and the matched e-node is merged with it unless it is in the matched
class already. An instance's matched side comp(p, q), with p and q in the
matched e-node's child classes, is never built: it is in the matched class
by congruence already. An inner e-node built mid-round, before
`_process_pending` has re-keyed the classes, may duplicate one that the
re-keying then merges with it: on 3-computads such duplicates multiplied
the terms (README). The member lists relabel the root list on a merge and
give each class its e-nodes; `freeze` walks the users of each class to
extract each class's least term.

Immutable term data is shared as well (Filliatre and Conchon, "Type-safe
modular hash-consing", ML Workshop 2006): an engine keeps one tuple per
distinct generator multiset and, at dimension 1, per generator word, and a
level's representative trees share their subterms. Values are still
compared by value, so nothing downstream can tell. Under tracemalloc the
four benchmark slices (k/gens/size 1/3/6, 2/3/4, 2/3/6, 3/2/4) peak at
4.81, 0.28, 1.12 and 0.15 MiB, or 709, 683, 630 and 698 bytes per term;
before composites were hash-consed they built 9,869, 744, 3,481 and 361
terms where they now build 7,115, 430, 1,858 and 219, and peaked at 6.32,
0.44, 1.84 and 0.23 MiB.

Every effective merge also adds one edge, labelled with the merged pair
and a locally checkable reason, to a proof forest over the terms
(proof-producing congruence closure: Nieuwenhuis and Oliveras, RTA 2005;
Flatt et al., "Small Proofs from Congruence Closure", FMCAD 2022). The
forest's trees are the classes, so two equal terms are joined by exactly
one forest path. A reason is the name of its family followed by the
e-nodes the step reuses: the matched pattern (p, q) and the inner e-nodes
of the other side for assoc and interchange, the two identity atoms for
idfun, nothing for congruence and the units. Every composition index a
step's shape needs is read from the nodes. One table, `_STEPS`, gives for
congruence and for each axiom family how many e-nodes its reason names
and one function: the equalities of children to e-nodes that a step
rests on, its premises, or None when the step's terms do not have the
family's shape. The premises are what let a step cite a reused e-node in
place of a literal term (the comment above `_STEPS` says why this is
sound). A certificate is the edges of the forest path, each preceded by
the explanations of its premises, so an Equal verdict carries its proof
and nothing else. `certificate` and `verify_certificate` read the same
row: the first raises SoundnessError on an engine edge the row refuses,
the second replays every step along one path: well formed, not refused
by its row, its premises already joined.
Distinct verdicts come only from invariants preserved by every axiom
family (generator multiset, boundary classes, and at dimension 1 the
generator word). Everything else is reported Unknown.

`natural` is the one reader of every number the program reads: the
composition index of a term here, and through the modules that import
this one, computad files, presentations, collection keys and flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, NamedTuple


class FreecatError(Exception):
    pass


class SoundnessError(Exception):
    """A merge violated a congruence invariant; the engine state is suspect."""


class EngineLimit(Exception):
    """The term budget was exhausted before saturation finished."""


# --- term syntax -------------------------------------------------------------


class Term:
    pass


@dataclass(frozen=True)
class Gen(Term):
    name: str
    dim: int


@dataclass(frozen=True)
class Id(Term):
    body: Term


@dataclass(frozen=True)
class Comp(Term):
    k: int
    left: Term
    right: Term


def term_dim(t: Term) -> int:
    if isinstance(t, Gen):
        return t.dim
    if isinstance(t, Id):
        return term_dim(t.body) + 1
    if isinstance(t, Comp):
        return term_dim(t.left)
    raise FreecatError(f"not a term: {t!r}")


def term_to_str(t: Term) -> str:
    if isinstance(t, Gen):
        return f"gen({t.name})"
    if isinstance(t, Id):
        return f"id1({term_to_str(t.body)})"
    if isinstance(t, Comp):
        return f"comp_{t.k}({term_to_str(t.left)},{term_to_str(t.right)})"
    raise FreecatError(f"not a term: {t!r}")


# the largest number a field with no range of its own accepts: a flag, an
# op's arity, a collection's arity key; any count a run can reach is smaller
LARGEST = 10**18


def natural(word: str, largest: int) -> int | None:
    """The number `word` writes in the ASCII digits 0-9, or None when it
    writes none or one above `largest`. Every number the program reads is
    read here, and each caller turns None into its own one-line error that
    names the accepted range. A sign, a space, an underscore or any other
    digit is refused; leading zeros are read, and a caller that refuses
    them compares `word` with `str(n)`. A word with more digits than
    `largest` never reaches `int()`."""
    digits = word.lstrip("0")
    if not (word.isascii() and word.isdigit()) or len(digits) > len(str(largest)):
        return None
    n = int(digits or "0")
    return n if n <= largest else None


def term_from_str(s: str, gen_dims: dict[str, int]) -> Term:
    """Parse the prefix syntax gen(id), id1(t), comp_k(t,u), each generator
    taking its dimension from `gen_dims` (name -> dimension). A name outside
    it is an error, and so are a k that `natural` does not read below the
    dimension of the composed cells, and operands of two dimensions."""
    s = s.strip()

    def parse(i: int) -> tuple[Term, int]:
        j = s.find("(", i)
        if j < 0:
            raise FreecatError(f"expected '(' after position {i}")
        head = s[i:j].strip()
        if head == "gen":
            depth, k = 1, j + 1
            while k < len(s) and depth:
                if s[k] == "(":
                    depth += 1
                elif s[k] == ")":
                    depth -= 1
                k += 1
            if depth:
                raise FreecatError("unbalanced parentheses in gen(...)")
            name = s[j + 1 : k - 1].strip()
            if name not in gen_dims:
                raise FreecatError(f"unknown generator {name!r}")
            return Gen(name, gen_dims[name]), k
        if head == "id1":
            body, k = parse(j + 1)
            if k >= len(s) or s[k] != ")":
                raise FreecatError(f"expected ')' at position {k}")
            return Id(body), k + 1
        if head.startswith("comp_"):
            left, k = parse(j + 1)
            idx = natural(head[5:], term_dim(left) - 1)
            if idx is None:
                raise FreecatError(f"a composition index must be a number in digits "
                                   f"0-9 below the operands' dimension {term_dim(left)}")
            if k >= len(s) or s[k] != ",":
                raise FreecatError(f"expected ',' at position {k}")
            right, k = parse(k + 1)
            if term_dim(right) != term_dim(left):
                raise FreecatError(f"the operands of 'comp_{idx}' have dimensions "
                                   f"{term_dim(left)} and {term_dim(right)}")
            if k >= len(s) or s[k] != ")":
                raise FreecatError(f"expected ')' at position {k}")
            return Comp(idx, left, right), k + 1
        raise FreecatError(f"unknown term head {head!r}")

    try:
        t, end = parse(0)
    except RecursionError:
        raise FreecatError("term nested too deeply") from None
    if end != len(s):
        raise FreecatError(f"trailing input after position {end}")
    return t


def rename_gens(t: Term, names: dict[str, str]) -> Term:
    if isinstance(t, Gen):
        return Gen(names.get(t.name, t.name), t.dim)
    if isinstance(t, Id):
        return Id(rename_gens(t.body, names))
    return Comp(t.k, rename_gens(t.left, names), rename_gens(t.right, names))


# --- frozen levels -----------------------------------------------------------


@dataclass(frozen=True)
class Level:
    """One dimension of a computed free algebra, frozen for reuse above."""

    reps: list[str]
    rep_terms: list[Term]
    msets: list[tuple[str, ...]]
    src: list[int]  # class -> class one dimension down (-1 at dim 0)
    tgt: list[int]
    comp: dict[tuple[int, int, int], int]  # (k, a, b) -> class, partial
    ids: list[int]  # class one dimension down -> its identity's class
    gen_class: dict[str, int]

    @property
    def n_classes(self) -> int:
        return len(self.reps)


def _descend(levels: list[Level], cls: int, d: int, k: int, target: bool = False) -> int:
    """The k-source of a class of dimension d >= k, or its k-target."""
    while d > k:
        cls = (levels[d].tgt if target else levels[d].src)[cls]
        d -= 1
    return cls


def _comp_boundary(levels: list[Level], d: int, k: int, sa, ta, sb, tb) -> tuple | None:
    """The one rule for a k-composite, which `make_comp` builds by and
    `_resolve` reads by. Two (d+1)-cells whose source and target classes in
    dimension d are sa, ta and sb, tb compose along k exactly when the
    k-target of the first is the k-source of the second (Batanin, arXiv
    math/0209035). A boundary given as None is not materialized, and
    composability is read only when ta and sb are both known. Returns None
    when the cells do not compose, and otherwise the composite's source and
    target classes, read one dimension down (Leinster, "Higher Operads,
    Higher Categories", 2004): sa and tb along k = d, and below it the
    k-composites of the two sources and of the two targets, each None when
    the table holds no such composite."""
    if None not in (ta, sb) and _descend(levels, ta, d, k, True) != _descend(levels, sb, d, k):
        return None
    if k == d:
        return sa, tb
    below = levels[d].comp
    return below.get((k, sa, sb)), below.get((k, ta, tb))


def class_in_level(levels: list[Level], t: Term, d: int) -> int | None:
    """Resolve a term of dimension d to its class, using frozen tables only.

    Raises FreecatError when the term is not well formed: an unknown
    generator, a composition index outside 0..d-1, or operands that do not
    compose. Returns None when a cell the term needs lies beyond the bounds:
    the term itself, or a boundary its composability is read from.
    """
    return _resolve(levels, t, d)[0]


def _resolve(levels: list[Level], t: Term, d: int) -> tuple[int | None, int | None, int | None]:
    """`class_in_level` of t, with t's source and target classes one
    dimension down (None when not materialized). The one reader of a term
    from outside the engines: `class_of_term`, attachments, class maps and
    engine queries all come here.

    A composite missing from the table is checked here: its index must be
    below d, and its operands must compose by `_comp_boundary`, the rule
    `make_comp` builds by, which also gives its boundaries."""
    lv = levels[d]
    if isinstance(t, Gen):
        if t.dim != d:
            raise FreecatError(f"generator {t.name} has dim {t.dim}, expected {d}")
        if t.name not in lv.gen_class:
            raise FreecatError(f"unknown generator {t.name!r} in dimension {d}")
        c = lv.gen_class[t.name]
        return c, lv.src[c], lv.tgt[c]
    if isinstance(t, Id):
        below = class_in_level(levels, t.body, d - 1)
        return (None if below is None else lv.ids[below]), below, below
    if isinstance(t, Comp):
        a, sa, ta = _resolve(levels, t.left, d)
        b, sb, tb = _resolve(levels, t.right, d)
        c = lv.comp.get((t.k, a, b))  # a None child finds no entry
        if c is not None:  # materialized, so well formed
            return c, lv.src[c], lv.tgt[c]
        if not 0 <= t.k < d:
            raise FreecatError(f"composition index {t.k} out of range in {term_to_str(t)}")
        boundary = _comp_boundary(levels, d - 1, t.k, sa, ta, sb, tb)
        if boundary is None:
            raise FreecatError(f"the operands of {term_to_str(t)} do not compose")
        return None, *boundary
    raise FreecatError(f"not a term: {t!r}")


# --- the engine --------------------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    size: int = 4  # max generator occurrences per cell
    max_terms: int = 200_000

    def __post_init__(self):
        if self.size < 0 or self.max_terms < 1:
            raise FreecatError(f"bounds need size >= 0 and max_terms >= 1 (got size "
                               f"{self.size}, max_terms {self.max_terms})")


GEN, IDA, CMP = 0, 1, 2

EQUAL = "equal"
DISTINCT = "distinct"
UNKNOWN = "unknown"

# what every engine counts; `FreeAlgebra.soundness_report` sums them
COUNTERS = ("axiom_instances", "merges", "unknown_verdicts")


@dataclass(slots=True)
class Node:
    kind: int
    k: int = -1
    a: int = -1
    b: int = -1
    mset: tuple[str, ...] = ()
    word: tuple[str, ...] | None = None  # dimension-1 engines only
    # boundary classes one dimension down; both of an identity atom's are
    # the class it is the identity on, and a 0-generator's are -1
    src: int = -1
    tgt: int = -1


class Engine:
    """Congruence closure for the r-cells of a free algebra, r = self.dim."""

    def __init__(self, dim: int, levels: list[Level], generators, bounds: Bounds):
        if len(levels) < dim:
            raise FreecatError("missing lower levels")
        self.dim = dim
        self.levels = levels
        self.bounds = bounds
        self.nodes: list[Node] = []
        # one object per distinct multiset or word, which many terms share
        self._tuples: dict[tuple[str, ...], tuple[str, ...]] = {}
        # each term's class root, the least term id of its class; a merge
        # relabels every member of the losing class
        self._root: list[int] = []
        self._class_terms: dict[int, list[int]] = {}
        # root -> its e-node list, read from the members once the class is
        # final: its multiset is smaller than the stratum `_running`, the one
        # `saturate` is running (0 before it starts)
        self._enodes: dict[int, list[int]] = {}
        self._running = 0
        # the hashcons: canonical key (k, class of a, class of b) -> the
        # composite registered under it; a key of merged-away classes is
        # never looked up again, since a lookup reads current roots
        self._sig: dict[tuple[int, int, int], int] = {}
        # root -> the composites with a child in its class, once per child
        self._uses: dict[int, list[int]] = {}
        # composites whose child classes a merge moved, to re-check by
        # congruence at the end of the round
        self._pending: list[int] = []
        # proof forest: each term's edge to its parent, as the label
        # (u, v, reason) of the merge that made it; the parent is the end of
        # the label that is not the term itself, and a tree's root has None
        self._why: list[tuple | None] = []
        self.round = 0
        self.fixed_point = False
        self.saw_size_cut = False  # the size bound cut some cell off; set by `saturate`
        self.counters = dict.fromkeys(COUNTERS, 0)
        # the level `freeze` returned, and each of its classes' roots here
        self._frozen: Level | None = None
        self._order: list[int] = []
        self.gen_atoms: dict[str, int] = {}
        # a name shared with a lower dimension prints as the same gen(name),
        # so no term could be read back
        below = {name: r for r, lv in enumerate(levels[:dim]) for name in lv.gen_class}
        for name, s, t in generators:
            if name in self.gen_atoms:
                raise FreecatError(f"generator {name!r} is named twice in dimension {dim}")
            if name in below:
                raise FreecatError(f"generator {name!r} is named twice, in dimensions "
                                   f"{below[name]} and {dim}")
            mset = self._shared((name,))
            self.gen_atoms[name] = self._add(
                Node(GEN, mset=mset, word=mset if dim == 1 else None, src=s, tgt=t))
        self.id_atoms: list[int] = []
        for c in range(levels[dim - 1].n_classes if dim else 0):
            self.id_atoms.append(
                self._add(Node(IDA, mset=(), word=() if dim == 1 else None, src=c, tgt=c)))

    # class roots and member lists, with a proof forest ----------------------
    # Equality is kept as an exact class-root list beside the class member
    # lists, not as a union-find forest. `verify_certificate` still replays
    # against a fresh union-find of its own.

    def find(self, t: int) -> int:
        return self._root[t]

    def _merge(self, u: int, v: int, reason: tuple) -> bool:
        root = self._root
        ru, rv = root[u], root[v]
        if ru == rv:
            return False
        split = self._invariant_split(self.nodes[ru], self.nodes[rv])
        if split is not None:
            raise SoundnessError(f"merge would mix two terms whose {split}")
        self.counters["merges"] += 1
        # hang the smaller proof tree, re-rooted at its merged term, under
        # the other merged term; proof trees and classes have the same members
        low = u if len(self._class_terms[ru]) <= len(self._class_terms[rv]) else v
        self._reroot(low)
        self._why[low] = (u, v, reason)
        win, lose = (ru, rv) if ru < rv else (rv, ru)  # the least id stays root
        lost_terms = self._class_terms.pop(lose)
        for t in lost_terms:
            root[t] = win
        self._class_terms[win].extend(lost_terms)
        users = self._uses.pop(lose, None)
        if users:
            # their keys named the loser, so two of them may now share one
            self._pending.extend(users)
            self._uses.setdefault(win, []).extend(users)
        return True

    def _invariant_split(self, na: Node, nb: Node) -> str | None:
        """The first invariant that tells two terms apart, as the reason: the
        generator multiset, the boundary classes, and at dimension 1 the
        generator word. None when all of them agree. Every axiom keeps all
        three, so no merge may mix them."""
        if na.mset != nb.mset:
            return "generator multisets differ"
        if na.src != nb.src or na.tgt != nb.tgt:
            return "boundary classes differ"
        if self.dim == 1 and na.word != nb.word:
            return "generator words differ"
        return None

    def _proof_parent(self, t: int) -> int | None:
        label = self._why[t]
        if label is None:
            return None
        return label[1] if label[0] == t else label[0]

    def _reroot(self, t: int):
        """Reverse the proof-forest edges from t up to its root, so that t
        becomes the root; every edge keeps its label."""
        why = self._why
        label, why[t] = why[t], None
        while label is not None:
            t = label[1] if label[0] == t else label[0]
            label, why[t] = why[t], label

    def _proof_path(self, u: int, v: int) -> list[int]:
        """The terms holding the proof-forest edges on the path from u to v,
        in path order. Raises FreecatError when u and v are not equal."""
        up = [u]
        while (t := self._proof_parent(up[-1])) is not None:
            up.append(t)
        depth = {t: i for i, t in enumerate(up)}
        down = []
        t = v
        while t not in depth:
            down.append(t)
            t = self._proof_parent(t)
            if t is None:
                raise FreecatError(f"terms {u} and {v} are not equal")
        return up[:depth[t]] + down[::-1]

    def _process_pending(self):
        """Re-check by congruence every composite whose child classes a merge
        moved, until no merge moves one again: a composite whose canonical
        key another e-node holds is merged with it, and one whose key no
        e-node holds is registered under it."""
        nodes, root, sig = self.nodes, self._root, self._sig
        while self._pending:
            t = self._pending.pop()
            n = nodes[t]
            key = (n.k, root[n.a], root[n.b])
            hit = sig.get(key)
            if hit is None:
                sig[key] = t
            elif root[hit] != root[t]:
                self._merge(t, hit, ("cong",))

    # term construction ------------------------------------------------------

    def _add(self, node: Node, sig: tuple[int, int, int] | None = None) -> int:
        """Append a term as its own class. A composite comes with its
        canonical key sig, which no e-node holds yet (`make_comp` builds
        only then), and is registered under it and as a user of its two
        child classes."""
        if len(self.nodes) >= self.bounds.max_terms:
            raise EngineLimit(f"term budget {self.bounds.max_terms} exhausted")
        tid = len(self.nodes)
        self.nodes.append(node)
        self._root.append(tid)
        self._why.append(None)
        self._class_terms[tid] = [tid]
        if sig is not None:
            _, ra, rb = sig
            self._uses.setdefault(ra, []).append(tid)
            self._uses.setdefault(rb, []).append(tid)
            self._sig[sig] = tid
        return tid

    def _shared(self, value: tuple[str, ...]) -> tuple[str, ...]:
        """The engine's one object equal to a multiset or word."""
        return self._tuples.setdefault(value, value)

    def _unit_pad(self, t: int, k: int, left: bool) -> int:
        """The identity atom that is a unit for term t along comp_k: the
        iterated identity on t's k-source on the left, on its k-target on
        the right. Reads only the nodes, the frozen levels and the atoms."""
        node, d, levels = self.nodes[t], self.dim - 1, self.levels
        cls = _descend(levels, node.src, d, k) if left else _descend(levels, node.tgt, d, k, True)
        for lv in levels[k + 1 : d + 1]:
            cls = lv.ids[cls]
        return self.id_atoms[cls]

    def make_comp(self, k: int, ta: int, tb: int) -> int | None:
        """comp_k(ta, tb) up to congruence: the e-node registered under the
        canonical key (k, class of ta, class of tb), as in egg's hashcons
        (Willsey et al., POPL 2021), or a new composite on ta and tb when
        there is none, with the boundaries `_comp_boundary` gives. None if
        that rule says ta and tb do not compose, or if the composite is
        beyond the bound. Saturation alone builds terms: every caller passes
        an index 0 <= k < dim that it enumerates, and a query reads
        `term_node` instead."""
        root = self._root
        sig = (k, root[ta], root[tb])
        hit = self._sig.get(sig)
        if hit is not None:
            return hit
        na, nb = self.nodes[ta], self.nodes[tb]
        boundary = _comp_boundary(self.levels, self.dim - 1, k, na.src, na.tgt, nb.src, nb.tgt)
        mset = tuple(sorted(na.mset + nb.mset))
        # a None boundary is a composite beyond the bound below, so the size
        # cut of some lower dimension already marks the algebra partial
        if boundary is None or None in boundary or len(mset) > self.bounds.size:
            return None
        src, tgt = boundary
        word = self._shared(na.word + nb.word) if self.dim == 1 else None
        return self._add(
            Node(CMP, k=k, a=ta, b=tb, mset=self._shared(mset), word=word, src=src, tgt=tgt),
            sig)

    # free-algebra rounds ----------------------------------------------------

    def extend_composites(self, size: int):
        """One application of the free-composites layer to the stratum
        `size`: compose, along every index, every pair of current classes
        whose multisets hold `size` generators together.

        The round's roots are grouped by multiset size once, and each left
        root visits only the right roots of the size left over, in
        increasing id order. A composite is built only when no term has its
        signature yet, so generation merges nothing and every root stays a
        root until the loop ends."""
        nodes, roots = self.nodes, self.classes()
        of_size: dict[int, list[int]] = {}
        for r in roots:
            of_size.setdefault(len(nodes[r].mset), []).append(r)
        for ra in roots:
            n = len(nodes[ra].mset)
            if n or size:  # composites of pure identities add no class
                for rb in of_size.get(size - n, ()):
                    for k in range(self.dim):
                        self.make_comp(k, ra, rb)

    def saturation_round(self, size: int, mark: int) -> int:
        """Assert every axiom instance visible on the classes of the stratum
        `size`, re-close the congruence, and advance the round counter.
        Identity functoriality runs at size 0 only, and not at dimension 0,
        which has no identities; an e-node below the watermark `mark` is
        matched only when one of its children is a pure identity. Returns
        the term count at the round's snapshot, the watermark of the
        stratum's next round."""
        nodes, root = self.nodes, self._root
        partition = list(root)
        next_mark = len(nodes)
        snapshot = [t for r in self._stratum(size) for t in self.enodes(r)
                    if t >= mark or not (nodes[nodes[t].a].mset and nodes[nodes[t].b].mset)]
        if size == 0 and self.dim:  # its instances hold no generator
            self._identity_functoriality()
        for tid in snapshot:
            self._matched_instances(tid)
        self._unit_instances(size)
        self._process_pending()
        # classes may only coarsen, never split
        seen: dict[int, int] = {}
        for old_root, now in zip(partition, root):
            if seen.setdefault(old_root, now) != now:
                raise SoundnessError("saturation split a congruence class")
        self.round += 1
        return next_mark

    def _stratum(self, size: int) -> list[int]:
        """The class roots of multiset size `size` in increasing order."""
        nodes = self.nodes
        return [r for r in self.classes() if len(nodes[r].mset) == size]

    def enodes(self, root: int) -> list[int]:
        """The e-nodes of a class root: for each canonical key (k, class of
        a, class of b) of its composite members, the first member in
        member-list order. Read from the member list, and cached when the
        class's multiset is smaller than the stratum `saturate` is running.
        Such a class is final: in stratum s every merge joins two classes
        of size s, and no smaller term is built, so neither its members nor
        its children's classes change again."""
        cached = self._enodes.get(root)
        if cached is None:
            nodes, roots = self.nodes, self._root
            first: dict[tuple[int, int, int], int] = {}
            for t in self._class_terms[root]:
                n = nodes[t]
                if n.kind == CMP:
                    first.setdefault((n.k, roots[n.a], roots[n.b]), t)
            cached = list(first.values())
            if len(nodes[root].mset) < self._running:
                self._enodes[root] = cached
        return cached

    def _matched_instances(self, tid: int):
        """Assoc and interchange on tid = comp_j(a, b), in one pass over the
        e-nodes x of a's class. An x along j gives comp_j(comp_j(x1, x2), b) =
        comp_j(x1, comp_j(x2, b)), pattern (x, b); an x along k != j and an
        e-node y along k of b's class give comp_j(comp_k(x1, x2), comp_k(y1, y2))
        = comp_k(comp_j(x1, y1), comp_j(x2, y2)), pattern (x, y).

        Each instance looks the inner e-nodes of its other side up in the
        signature table, comp_j(x2, b) for assoc and both composites along j
        for interchange, and is skipped when one is missing. `make_comp`
        builds at most the outer composite, when no e-node holds its key,
        and tid is merged with the other side unless it is in tid's class
        already; the reason names the pattern and the inner e-nodes the
        other side is made of.

        A skip loses nothing. An inner e-node composes two classes.
        Generation composes every pair of class roots of the stratum in
        each round, and every finished stratum ended with such a round;
        identity functoriality and the stratum-0 unit instances build the
        composites of two identities. So a lookup misses only when the pair
        does not compose within the bound, and then `make_comp` would
        return None too, or when the round made its composite or one of
        its classes after the round's generation, or merged one of them
        before `_process_pending` re-keyed it. That round added a term or a
        merge, so the stratum runs another round. An e-node whose two
        children both hold generators has only classes of finished strata
        below it, so its lookups never miss on the one round that matches
        it. An e-node with a pure-identity child is matched in every round
        (`saturate`), so a skipped instance runs again after generation has
        composed the new class. The last round of a stratum adds no term
        and no merge, so every lookup hits there and the fixed point is the
        same as if the missing e-nodes had been built; extraction reads
        canonical keys, so the representatives are the same too.

        Left-nested associativity alone is complete: generation composes every
        pair of class roots within the bound, so for each e-node comp_k(a,
        comp_k(y1, y2)) the left-nested comp_k(comp_k(a, y1), y2), of the same
        size, is built in a later round and matched there, its inner composite
        exactly when a right-nested match would have built it."""
        nodes, sig, root, make = self.nodes, self._sig, self._root, self.make_comp
        node = nodes[tid]
        j, a, b = node.k, node.a, node.b
        # b's class's e-nodes by index, grouped once when some x has another
        # index (never at dimension 1); what a merge here adds waits a round
        by_index: dict[int, list[int]] | None = None
        for x in self.enodes(root[a]):
            nx = nodes[x]
            k = nx.k
            if k == j:
                self.counters["axiom_instances"] += 1
                inner = sig.get((j, root[nx.b], root[b]))
                if inner is None:
                    continue
                t2 = sig.get((j, root[nx.a], root[inner]))
                if t2 is None:
                    t2 = make(j, nx.a, inner)
                if t2 is not None and root[t2] != root[tid]:
                    self._merge(tid, t2, ("assoc", x, b, inner))
                continue
            if by_index is None:
                by_index = {}
                for y in self.enodes(root[b]):
                    by_index.setdefault(nodes[y].k, []).append(y)
            members = by_index.get(k, ())
            self.counters["axiom_instances"] += len(members)
            for y in members:
                ny = nodes[y]
                left = sig.get((j, root[nx.a], root[ny.a]))
                right = sig.get((j, root[nx.b], root[ny.b]))
                if left is None or right is None:
                    continue
                t2 = sig.get((k, root[left], root[right]))
                if t2 is None:
                    t2 = make(k, left, right)
                if t2 is not None and root[t2] != root[tid]:
                    self._merge(tid, t2, ("interchange", x, y, left, right))

    def _unit_instances(self, size: int):
        for root in self._stratum(size):
            for k in range(self.dim):
                self.counters["axiom_instances"] += 2
                for family, left in (("unit_l", True), ("unit_r", False)):
                    pad = self._unit_pad(root, k, left)
                    t = self.make_comp(k, pad, root) if left else self.make_comp(k, root, pad)
                    if t is not None:
                        self._merge(t, root, (family,))

    def _identity_functoriality(self):
        """id1(c) = comp_k(id1(a), id1(b)) for each entry (k, a, b) -> c of
        the composition table below, sorted by (c, (k, a, b))."""
        ids = self.id_atoms
        below = self.levels[self.dim - 1].comp
        for c, (k, a, b) in sorted((c, key) for key, c in below.items()):
            self.counters["axiom_instances"] += 1
            t2 = self.make_comp(k, ids[a], ids[b])
            if t2 is not None:
                self._merge(ids[c], t2, ("idfun", ids[a], ids[b]))

    def saturate(self):
        """Saturate one stratum at a time, for s = 0, 1, ..., size: in
        stratum s, generation pairs a left root of size n only with right
        roots of size s - n, and matching and the unit instances read only
        the classes of size s. Each stratum alternates generation and axiom
        rounds until a round adds no term and no merge; `round` counts the
        rounds of all strata. Every stratum ends: a round that does not end
        it adds a term or merges two classes, `Bounds.max_terms` caps the
        terms, and classes never split, so the merges are capped by the
        number of terms. So each stratum reaches its fixed point or raises
        EngineLimit on the term budget. The end of saturation sets
        `saw_size_cut` (`_cuts_a_cell`).

        Inside a stratum, an e-node whose two children both hold generators
        is matched only in the first round that sees it: the watermark, the
        term count at the previous round's snapshot, picks out the e-nodes
        built since. This is sound:

          * `_merge` refuses to mix multisets, so in stratum s no class of
            size below s changes;
          * matching only looks a smaller composite up, in the finished
            stratum of its size, and builds only an instance's outer
            composite, of size s, so no e-node key below s is added;
          * so an e-node whose children both hold generators, each of them
            fewer than s, sees fixed child classes and fixed child tables.
            Each of its instances was settled, merged or found impossible
            on its first match, and an instance's fate depends only on
            classes.

        The first two facts also make the e-node list of a class below s
        final in stratum s, so `enodes` caches it from then on.

        An e-node with a pure identity child, a unit pad or a whisker by a
        lower identity, has a child class of size s that may still grow, so
        it is matched every round. That also retries each of its instances
        that `_matched_instances` skipped for a missing inner e-node, once
        generation has composed the class the round before made.

        Saturation stops before a stratum s above 2m, where m is the largest
        generator count of any class. No term of s generators exists before
        stratum s, so the first one it builds composes two classes of n and
        s - n generators, both at least 1 (a pad or whisker by an identity
        needs a class of size s already), and one of them has at least s/2.
        So a size bound far above the classes climbs no empty strata."""
        for size in range(self.bounds.size + 1):
            if size > 2 * max((len(self.nodes[r].mset) for r in self._class_terms), default=0):
                break
            self._running, mark = size, 0
            while True:
                n_terms, n_merges = len(self.nodes), self.counters["merges"]
                self.extend_composites(size)
                mark = self.saturation_round(size, mark)
                if len(self.nodes) == n_terms and self.counters["merges"] == n_merges:
                    break
        self.saw_size_cut = self._cuts_a_cell()
        self.fixed_point = True

    def _cuts_a_cell(self) -> bool:
        """Whether two classes compose, along some index k, into a cell of
        more than `Bounds.size` generators: exactly when the bound cuts a
        cell off, since a term beyond the bound whose subterms all lie
        within it is such a composite. Along k, each class is paired with
        the largest class whose k-source is its k-target; the identity on
        that target is always one."""
        nodes, levels, d = self.nodes, self.levels, self.dim - 1
        for k in range(self.dim):
            largest: dict[int, int] = {}  # k-source -> most generators on it
            for r in self._class_terms:
                s = _descend(levels, nodes[r].src, d, k)
                largest[s] = max(largest.get(s, 0), len(nodes[r].mset))
            if any(len(nodes[r].mset) + largest[_descend(levels, nodes[r].tgt, d, k, True)]
                   > self.bounds.size for r in self._class_terms):
                return True
        return False

    # queries ----------------------------------------------------------------

    def classes(self) -> list[int]:
        return sorted(self._class_terms.keys())

    def term_node(self, t: Term) -> int | None:
        """The e-node of a term of this engine's dimension, read from the
        level this engine froze and the signature table; nothing is built.
        A composite's e-node is the one registered under (k, root of its
        left class, root of its right class), the one `make_comp` finds.
        Raises FreecatError when this engine's level in `levels` is missing
        or is not the one it froze, and raises or returns None as
        `class_in_level` does."""
        levels, d = self.levels, self.dim
        if len(levels) <= d or levels[d] is not self._frozen:
            raise FreecatError(f"dimension-{d} queries need the level this engine froze")
        if isinstance(t, Comp):
            a, b = class_in_level(levels, t.left, d), class_in_level(levels, t.right, d)
            if (t.k, a, b) in levels[d].comp:
                return self._sig[(t.k, self._order[a], self._order[b])]
        if class_in_level(levels, t, d) is None:  # raises on a malformed term
            return None
        if isinstance(t, Gen):
            return self.gen_atoms[t.name]
        return self.id_atoms[class_in_level(levels, t.body, d - 1)]

    def verdict(self, ta: int | None, tb: int | None) -> tuple[str, object]:
        """Three-valued equality on interned terms (None = out of bounds)."""
        if ta is not None and tb is not None and self.find(ta) == self.find(tb):
            return EQUAL, certificate(self, ta, tb)
        na = self.nodes[ta] if ta is not None else None
        nb = self.nodes[tb] if tb is not None else None
        if na is not None and nb is not None:
            split = self._invariant_split(na, nb)
            if split is not None:
                return DISTINCT, split
        self.counters["unknown_verdicts"] += 1
        return UNKNOWN, None

    def freeze(self) -> Level:
        """Snapshot classes into a Level, with its composition table and the
        identity table from the level below.

        A class is represented by its least term in `(length, string)` order
        among those the composition table derives: its generator or identity
        atom, and comp_k(x, y) for each composite on classes A and B with x
        in A and y in B. This is e-graph extraction with an additive cost
        (egg, POPL 2021), settled by Knuth's generalization of Dijkstra's
        algorithm ("A generalization of Dijkstra's algorithm", IPL 6, 1977):
        classes settle in that order, and a settled class offers each of its
        users, once both child classes are settled, as the candidate
        comp_k(rep A,rep B) for the user's class. A composite is longer than
        either child and monotone in each, so the first candidate a class
        settles with is its least term, whatever order the engine built
        terms in. Each tree is built from its
        children's trees, so a level's trees share their subterms.

        The engine keeps the level it returns and each frozen class's root,
        which `term_node` reads."""
        nodes, root, uses = self.nodes, self._root, self._uses
        below = self.levels[self.dim - 1] if self.dim else None
        # a candidate is (length, text, class, k, class A, class B); an
        # atom's has k = -1 and its own term in place of class A
        best: dict[int, tuple] = {}  # class -> its least candidate so far
        heap: list[tuple] = []

        def offer(cand: tuple):
            c = cand[2]
            if c not in best or cand < best[c]:
                best[c] = cand
                heappush(heap, cand)

        for t in [*self.gen_atoms.values(), *self.id_atoms]:
            node = nodes[t]
            s = f"gen({node.mset[0]})" if node.kind == GEN else f"id1({below.reps[node.src]})"
            offer((len(s), s, root[t], -1, t, -1))
        text: dict[int, str] = {}
        trees: dict[int, Term] = {}
        while heap:
            cand = heappop(heap)
            _, rep, c, k, a, b = cand
            if best[c] is not cand:
                continue  # a better candidate for c came after it
            text[c] = rep
            if k >= 0:
                trees[c] = Comp(k, trees[a], trees[b])
            elif nodes[a].kind == GEN:
                trees[c] = Gen(nodes[a].mset[0], self.dim)
            else:
                trees[c] = Id(below.rep_terms[nodes[a].src])
            for u in uses.get(c, ()):
                n = nodes[u]
                ra, rb, ru = root[n.a], root[n.b], root[u]
                if ra in text and rb in text and ru not in text:
                    s = f"comp_{n.k}({text[ra]},{text[rb]})"
                    offer((len(s), s, ru, n.k, ra, rb))
        # frozen class -> its root here, which `term_node` reads
        self._order = order = sorted(
            self.classes(), key=lambda r: (len(nodes[r].mset), nodes[r].mset, text[r]))
        canon = {r: i for i, r in enumerate(order)}
        comp: dict[tuple[int, int, int], int] = {}
        for tid, node in enumerate(nodes):
            if node.kind != CMP:
                continue
            key = (node.k, canon[root[node.a]], canon[root[node.b]])
            val = canon[root[tid]]
            if comp.setdefault(key, val) != val:
                raise SoundnessError("composition table is not single-valued")
        self._frozen = Level(
            reps=[text[r] for r in order],
            rep_terms=[trees[r] for r in order],
            msets=[nodes[r].mset for r in order],
            src=[nodes[r].src for r in order],
            tgt=[nodes[r].tgt for r in order],
            comp=comp,
            ids=[canon[root[t]] for t in self.id_atoms],
            gen_class={name: canon[root[t]] for name, t in self.gen_atoms.items()},
        )
        return self._frozen


# --- module-level operations ----------------------------------------------------


def equal_cells(e: Engine, t1: Term, t2: Term) -> tuple[str, object]:
    """Three-valued equality of two terms of the engine's dimension.

    Equal comes with a replayable certificate; Distinct cites the separating
    invariant; everything else is Unknown (and counted as such).
    """
    d1, d2 = term_dim(t1), term_dim(t2)
    if d1 != d2:
        raise FreecatError(f"dimension mismatch: {d1} vs {d2}")
    if d1 != e.dim:
        raise FreecatError(f"terms of dimension {d1} in a dimension-{e.dim} engine")
    return e.verdict(e.term_node(t1), e.term_node(t2))


# --- certificates -------------------------------------------------------------


@dataclass
class Certificate:
    """A proof that two terms are equal, plus the pair it connects.

    The steps are proof-forest edges `(u, v, reason)`: those on the forest
    path between `left` and `right`, and before each edge the edges
    explaining its premises, each edge once. A reason is the name of a row
    of `_STEPS`, followed by the e-nodes the step reuses: `("cong",)`,
    `("assoc", p, q, r)`, `("interchange", p, q, l, r)`, `("unit_l",)`,
    `("unit_r",)` or `("idfun", p, q)`. The row gives the step's premises,
    or None when its terms do not have the family's shape. Verification
    replays the steps against a fresh union-find, reading only the rows;
    it never consults the engine's own equivalence.
    """

    left: int
    right: int
    steps: list[tuple[int, int, tuple]] = field(default_factory=list)


def certificate(e: Engine, u: int, v: int) -> Certificate:
    """Explain the equality of two terms from the engine's proof forest.

    Steps come in replay order: an edge's premises, read from its row of
    `_STEPS`, are explained before the edge itself. Raises FreecatError
    when u and v are not equal, and SoundnessError when the row refuses
    one of the engine's own edges."""
    steps: list[tuple[int, int, tuple]] = []
    done: set[int] = set()  # terms whose forest edge is already a step
    todo: list = [(u, v)]  # pairs to explain, and terms whose edge to emit
    while todo:
        item = todo.pop()
        if isinstance(item, int):
            if item not in done:
                done.add(item)
                steps.append(e._why[item])
            continue
        for t in reversed(e._proof_path(*item)):
            if t not in done:
                todo.append(t)
                a, b, reason = e._why[t]
                premises = _STEPS[reason[0]].premises(e, a, b, reason[1:])
                if premises is None:
                    raise SoundnessError(f"the proof-forest edge {e._why[t]} does not "
                                         f"have the shape of its family")
                todo.extend(reversed(premises))
    return Certificate(u, v, steps)


# --- the proof steps ------------------------------------------------------------
# A step (u, v, reason) names its family's row in `_STEPS`, whose function
# gives the equalities the step rests on, its premises (Flatt et al., FMCAD
# 2022), when the step's terms have the family's shape, and None when they
# do not. u is the matched side and v the other side, and the reason names,
# after the family, the e-nodes the step reuses. A row reads only the
# engine's nodes, frozen levels and identity atoms, so `verify_certificate`
# never consults the engine's root list.
#
# Why a step may cite an e-node for a side: every term `make_comp(k, ta,
# tb)` returns is a composite along k whose children equal ta and tb.
# When it builds, they are the same terms; when it finds an e-node, they
# are members of the same classes. So a step may cite that term in place
# of the literal one, and its premises, which each row's docstring lists,
# name the equalities it rests on. A premise whose two ends are the same
# term needs no step.


def _along(n: Node, k: int) -> bool:
    return n.kind == CMP and n.k == k


def _cong(e: Engine, u: int, v: int, args: tuple) -> tuple | None:
    """Two composites along one index; premises u.a ~ v.a, u.b ~ v.b."""
    nu, nv = e.nodes[u], e.nodes[v]
    if not (nu.kind == CMP and _along(nv, nu.k)):
        return None
    return (nu.a, nv.a), (nu.b, nv.b)


def _assoc(e: Engine, u: int, v: int, args: tuple) -> tuple | None:
    """comp(comp(p1, p2), q) = comp(p1, comp(p2, q)), with u standing for
    comp(p, q), v for comp(p1, r) and r for comp(p2, q): u, v, p and r are
    composites along one index. Premises u.a ~ p, u.b ~ q, v.a ~ p.a,
    v.b ~ r, r.a ~ p.b, r.b ~ q."""
    p, q, r = args
    nodes = e.nodes
    nu, nv, np, nr = nodes[u], nodes[v], nodes[p], nodes[r]
    if not (nu.kind == CMP and all(_along(n, nu.k) for n in (nv, np, nr))):
        return None
    return (nu.a, p), (nu.b, q), (nv.a, np.a), (nv.b, r), (nr.a, np.b), (nr.b, q)


def _interchange(e: Engine, u: int, v: int, args: tuple) -> tuple | None:
    """comp_j(comp_k(p1, p2), comp_k(q1, q2)) = comp_k(comp_j(p1, q1),
    comp_j(p2, q2)) for j != k, with u standing for comp_j(p, q), v for
    comp_k(l, r), l for comp_j(p1, q1) and r for comp_j(p2, q2): u, l and r
    are composites along j, and v, p and q along k. Premises u.a ~ p,
    u.b ~ q, v.a ~ l, v.b ~ r, l.a ~ p.a, l.b ~ q.a, r.a ~ p.b, r.b ~ q.b."""
    p, q, l, r = args
    nodes = e.nodes
    nu, nv, np, nq, nl, nr = nodes[u], nodes[v], nodes[p], nodes[q], nodes[l], nodes[r]
    j, k = nu.k, nv.k
    if not (j != k and nu.kind == nv.kind == CMP and _along(nl, j) and _along(nr, j)
            and _along(np, k) and _along(nq, k)):
        return None
    return ((nu.a, p), (nu.b, q), (nv.a, l), (nv.b, r),
            (nl.a, np.a), (nl.b, nq.a), (nr.a, np.b), (nr.b, nq.b))


def _unit_l(e: Engine, u: int, v: int, args: tuple) -> tuple | None:
    """u is a composite along k; premises u.a ~ pad, u.b ~ v, with pad the
    identity atom `Engine._unit_pad` gives v on the left along k."""
    nu = e.nodes[u]
    if nu.kind != CMP:
        return None
    return (nu.a, e._unit_pad(v, nu.k, True)), (nu.b, v)


def _unit_r(e: Engine, u: int, v: int, args: tuple) -> tuple | None:
    """u is a composite along k; premises u.a ~ v, u.b ~ pad, with pad the
    identity atom `Engine._unit_pad` gives v on the right along k."""
    nu = e.nodes[u]
    if nu.kind != CMP:
        return None
    return (nu.a, v), (nu.b, e._unit_pad(v, nu.k, False))


def _idfun(e: Engine, u: int, v: int, args: tuple) -> tuple | None:
    """u is id(c), v is a composite along k, and p and q are identity
    atoms id(a) and id(b) with comp_k(a, b) = c one dimension down.
    Premises v.a ~ p, v.b ~ q."""
    p, q = args
    nodes = e.nodes
    nu, nv, np, nq = nodes[u], nodes[v], nodes[p], nodes[q]
    if not (nu.kind == IDA and nv.kind == CMP and np.kind == IDA and nq.kind == IDA
            and e.levels[e.dim - 1].comp.get((nv.k, np.src, nq.src)) == nu.src):
        return None
    return (nv.a, p), (nv.b, q)


class _StepRow(NamedTuple):
    arity: int  # how many e-nodes the reason names after the family
    # the step's premises as pairs of terms, None when its shape is wrong
    premises: Callable[[Engine, int, int, tuple], tuple | None]


# every family a proof step may name: congruence and the axioms
_STEPS = {
    "cong": _StepRow(0, _cong),
    "assoc": _StepRow(3, _assoc),
    "unit_l": _StepRow(0, _unit_l),
    "unit_r": _StepRow(0, _unit_r),
    "interchange": _StepRow(4, _interchange),
    "idfun": _StepRow(2, _idfun),
}


def _replay_find(parent: dict[int, int], t: int) -> int:
    while parent.setdefault(t, t) != t:
        parent[t] = parent.setdefault(parent[t], parent[t])
        t = parent[t]
    return t


def _parse(e: Engine, step) -> tuple | None:
    """A well-formed step as (u, v, family, pattern): it names two interned
    terms and a reason that is the name of some row of `_STEPS`, followed by
    as many interned terms as that row's arity. None otherwise."""
    if not (isinstance(step, tuple) and len(step) == 3):
        return None
    u, v, reason = step
    if not (_is_term(e, u) and _is_term(e, v) and isinstance(reason, tuple) and reason):
        return None
    name, args = reason[0], reason[1:]
    row = _STEPS.get(name) if isinstance(name, str) else None
    if row is None or len(args) != row.arity or not all(_is_term(e, t) for t in args):
        return None
    return u, v, name, args


def _is_term(e: Engine, t) -> bool:
    return isinstance(t, int) and 0 <= t < len(e.nodes)


def verify_certificate(e: Engine, cert: Certificate) -> bool:
    """Replay a certificate step by step against a fresh union-find.

    Every step takes one path: it must be well formed, have its row's
    shape, and rest only on premises that the steps before it have already
    joined. Finally `left` and `right` must be joined. Anything else,
    malformed input included, gives False; this never raises."""
    if not (_is_term(e, cert.left) and _is_term(e, cert.right)):
        return False
    parent: dict[int, int] = {}
    for step in cert.steps:
        parsed = _parse(e, step)
        if parsed is None:
            return False
        u, v, name, args = parsed
        premises = _STEPS[name].premises(e, u, v, args)
        if premises is None:
            return False
        for x, y in premises:
            if _replay_find(parent, x) != _replay_find(parent, y):
                return False
        ru, rv = _replay_find(parent, u), _replay_find(parent, v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return _replay_find(parent, cert.left) == _replay_find(parent, cert.right)
