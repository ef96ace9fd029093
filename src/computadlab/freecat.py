"""Composite terms in a free strict n-category and the congruence engine.

The free algebra on a computad is built one dimension at a time. The
engine for dimension r works over a frozen snapshot of the dimensions
below (`Level`: classes, boundaries, composition and identity tables) and
closes the r-dimensional terms under the strict-category axioms:

  * associativity of each composition `comp_k`,
  * two-sided units given by iterated identities,
  * middle-four interchange for distinct composition indices,
  * functoriality of identities over lower composites.

Terms are interned in a DAG; equality is a congruence closure kept as an
exact list of each term's class root, beside the member list of each class
(Nieuwenhuis and Oliveras, "Fast congruence closure and extensions", Inf.
Comput. 205, 2007). A root is the least term id of its class, and a merge
relabels every member of the losing class, so `find` is one list read.
Saturation alternates a generation step (compose every pair of known
classes within the size bound - one application of the free-composites
layer) with an axiom step (assert every axiom instance visible on the
materialized terms, then re-close the congruence). Rounds repeat until a
fixed point on the materialized term set or a round cap. Generation is
size-graded: the round's class roots are grouped by generator count once,
and each left root is paired only with the right roots that fit the size
left over, so pairs beyond the bound are never visited.

Axioms are matched per e-node, as in egg (Willsey et al., "egg: Fast and
Extensible Equality Saturation", POPL 2021). Every class root owns a table
from its canonical e-nodes (k, class of left, class of right) to the
earliest member term of that shape. A merge folds the loser's table into the
winner's, keeping the winner's entries, and marks stale the classes holding
users of the moved terms; a stale table is re-keyed through the root list
when it is next read. One matcher visits each e-node of a round-start
snapshot once, not each of the many more member terms: associativity from
its left-nested side, interchange on pairs of child-class e-nodes. Each
instance first looks its two sides up in the signature table; one already
settled is skipped before any term is built. An instance's left side
comp(p, q), with p and q in the matched e-node's child classes, is in the
matched class by congruence already, so it is never built: the matched
e-node is merged with the literal right side, and the reason names the
pattern (p, q). The member lists stay for relabelling the root list on a
merge, and `freeze` walks them to extract each class's least term.

Immutable term data is hash-consed (Filliatre and Conchon, "Type-safe
modular hash-consing", ML Workshop 2006): an engine keeps one tuple per
distinct generator multiset and, at dimension 1, per generator word; a
composite built on two class roots uses its intern key as its signature;
and a level's representative trees share their subterms. Values are still
compared by value, so nothing downstream can tell. Under tracemalloc the
four benchmark slices (k/gens/size 1/3/6, 2/3/4, 2/3/6, 3/2/4) peaked at
749, 612, 612 and 654 bytes per term (1,182, 852, 860 and 880 unshared).

Every effective merge also adds one edge, labelled with the merged pair
and a locally checkable reason, to a proof forest over the terms
(proof-producing congruence closure: Nieuwenhuis and Oliveras, RTA 2005;
Flatt et al., "Small Proofs from Congruence Closure", FMCAD 2022). The
forest's trees are the classes, so two equal terms are joined by exactly
one forest path. A reason is the name of its family, followed by the
matched pattern (p, q) for assoc and interchange and by nothing else:
every composition index a check needs is read from the two terms' own
nodes. One table, `_STEPS`, says what each step means: for congruence and
for each axiom family, whether its reason carries a pattern, and a local
check. A step rests on the equalities of u's children to v's children
(congruence) or to p and q (assoc, interchange), and on nothing else
(units, idfun). A certificate is the edges of the forest path, each
preceded by the explanations of the equalities it rests on, so an Equal
verdict carries its proof and nothing else; `verify_certificate` replays
every step along one path: well formed, its row's check, its premises
already joined.
Distinct verdicts come only from invariants preserved by every axiom
family (generator multiset, boundary classes, and at dimension 1 the
generator word). Everything else is reported Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
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


def term_from_str(s: str, gen_dims: dict[str, int]) -> Term:
    """Parse the prefix syntax gen(id), id1(t), comp_k(t,u), each generator
    taking its dimension from `gen_dims` (name -> dimension). A name outside
    it is an error, and so are a negative k, one at or above the dimension
    of the composed cells, and operands of two dimensions."""
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
            try:
                idx = int(head[5:])
            except ValueError:
                raise FreecatError(f"bad composition head {head!r}") from None
            if idx < 0:
                raise FreecatError(f"negative composition index in {head!r}")
            left, k = parse(j + 1)
            if idx >= term_dim(left):
                raise FreecatError(f"composition index {idx} in {head!r} is not "
                                   f"below the operands' dimension {term_dim(left)}")
            if k >= len(s) or s[k] != ",":
                raise FreecatError(f"expected ',' at position {k}")
            right, k = parse(k + 1)
            if term_dim(right) != term_dim(left):
                raise FreecatError(f"the operands of {head!r} have dimensions "
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
    src: list[int]  # class -> class one dimension down ([] at dim 0)
    tgt: list[int]
    comp: dict[tuple[int, int, int], int]  # (k, a, b) -> class, partial
    ids: list[int]  # class one dimension down -> its identity's class
    gen_class: dict[str, int]

    @property
    def n_classes(self) -> int:
        return len(self.reps)


def level_zero(names: list[str]) -> Level:
    """The dimension-0 layer of a free algebra: just the 0-generators, in
    the order every level sorts its classes by, here their names."""
    if len(set(names)) < len(names):
        raise FreecatError("a generator is named twice in dimension 0")
    names = sorted(names)
    return Level(
        reps=[f"gen({n})" for n in names],
        rep_terms=[Gen(n, 0) for n in names],
        msets=[(n,) for n in names],
        src=[],
        tgt=[],
        comp={},
        ids=[],
        gen_class={n: i for i, n in enumerate(names)},
    )


def _descend_src(levels: list[Level], cls: int, d: int, k: int) -> int:
    """The k-source of a class of dimension d >= k."""
    while d > k:
        cls = levels[d].src[cls]
        d -= 1
    return cls


def _descend_tgt(levels: list[Level], cls: int, d: int, k: int) -> int:
    """The k-target of a class of dimension d >= k."""
    while d > k:
        cls = levels[d].tgt[cls]
        d -= 1
    return cls


def _comp_boundary(levels: list[Level], t: Comp, d: int, sa: int | None, ta: int | None,
                   sb: int | None, tb: int | None) -> tuple[int | None, int | None]:
    """The source and target classes, one dimension down, of a composite t
    of dimension d whose left operand has the boundary classes sa and ta
    and whose right one has sb and tb, None for a class not materialized.
    Raises FreecatError when t's index is not below d, or when both
    boundaries that composability reads are known and the operands do not
    compose."""
    k = t.k
    if not 0 <= k < d:
        raise FreecatError(f"composition index {k} out of range in {term_to_str(t)}")
    if (ta is not None and sb is not None
            and _descend_tgt(levels, ta, d - 1, k) != _descend_src(levels, sb, d - 1, k)):
        raise FreecatError(f"the operands of {term_to_str(t)} do not compose")
    if k == d - 1:
        return sa, tb
    comp = levels[d - 1].comp
    return comp.get((k, sa, sb)), comp.get((k, ta, tb))


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
    dimension down (None at dimension 0, or when not materialized)."""
    lv = levels[d]
    if isinstance(t, Gen):
        if t.dim != d:
            raise FreecatError(f"generator {t.name} has dim {t.dim}, expected {d}")
        if t.name not in lv.gen_class:
            raise FreecatError(f"unknown generator {t.name!r} in dimension {d}")
        c = lv.gen_class[t.name]
        return (c, lv.src[c], lv.tgt[c]) if d else (c, None, None)
    if isinstance(t, Id):
        below = class_in_level(levels, t.body, d - 1)
        return (None if below is None else lv.ids[below]), below, below
    if isinstance(t, Comp):
        a, sa, ta = _resolve(levels, t.left, d)
        b, sb, tb = _resolve(levels, t.right, d)
        c = lv.comp.get((t.k, a, b))  # a None child finds no entry
        if c is not None:  # materialized, so well formed
            return c, lv.src[c], lv.tgt[c]
        return None, *_comp_boundary(levels, t, d, sa, ta, sb, tb)
    raise FreecatError(f"not a term: {t!r}")


# --- the engine --------------------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    size: int = 4  # max generator occurrences per cell
    rounds: int = 24  # saturation round cap
    max_terms: int = 200_000

    def __post_init__(self):
        if self.size < 0 or self.rounds < 1 or self.max_terms < 1:
            raise FreecatError(
                f"bounds need size >= 0, rounds >= 1 and max_terms >= 1 (got size "
                f"{self.size}, rounds {self.rounds}, max_terms {self.max_terms})")


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
    name: str = ""
    lower: int = -1
    mset: tuple[str, ...] = ()
    word: tuple[str, ...] | None = None  # dimension-1 engines only
    src: int = -1  # boundary class one dimension down
    tgt: int = -1


class Engine:
    """Congruence closure for the r-cells of a free algebra, r = self.dim."""

    def __init__(self, dim: int, levels: list[Level], generators, bounds: Bounds):
        if dim < 1:
            raise FreecatError("engines start at dimension 1")
        if len(levels) < dim:
            raise FreecatError("missing lower levels")
        self.dim = dim
        self.levels = levels
        self.bounds = bounds
        self.nodes: list[Node] = []
        # one object per distinct multiset or word, which many terms share
        self._tuples: dict[tuple[str, ...], tuple[str, ...]] = {}
        # composites by their literal children: (k, a, b) -> term
        self._intern: dict[tuple[int, int, int], int] = {}
        # each term's class root, the least term id of its class; a merge
        # relabels every member of the losing class
        self._root: list[int] = []
        self._class_terms: dict[int, list[int]] = {}
        # root -> e-node table: (k, class of a, class of b) -> the earliest
        # composite member with that pattern; keys of a stale root may name
        # merged-away classes until `enodes` re-keys them
        self._enodes: dict[int, dict[tuple[int, int, int], int]] = {}
        self._stale: set[int] = set()
        self._sig: dict[tuple[int, int, int], int] = {}
        self._uses: dict[int, list[int]] = {}  # term -> the composites on it
        # composites whose child classes a merge moved, to re-check by
        # congruence at the end of the round
        self._pending: list[int] = []
        # proof forest: each term's edge to its parent, as the label
        # (u, v, reason) of the merge that made it; the parent is the end of
        # the label that is not the term itself, and a tree's root has None
        self._why: list[tuple | None] = []
        self.round = 0
        self.fixed_point = False
        self.partial_lower = False  # a boundary composite was out of bounds below
        self.saw_size_cut = False  # some composite exceeded the size bound
        self.counters = dict.fromkeys(COUNTERS, 0)
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
                Node(GEN, name=name, mset=mset, word=mset if dim == 1 else None,
                     src=s, tgt=t))
        self.id_atoms: list[int] = []
        for c in range(levels[dim - 1].n_classes):
            self.id_atoms.append(
                self._add(Node(IDA, lower=c, mset=(),
                               word=() if dim == 1 else None, src=c, tgt=c)))

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
            users = self._uses.get(t)
            if users:
                self._pending.extend(users)
                self._stale.update([root[x] for x in users])
        self._class_terms[win].extend(lost_terms)
        table = self._enodes[win]
        for key, t in self._enodes.pop(lose).items():
            table.setdefault(key, t)  # the winner's members come first
        if lose in self._stale:
            self._stale.discard(lose)
            self._stale.add(win)
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

    def _congruence(self, t: int, sig: tuple[int, int, int]):
        """Register composite t as the term of its signature sig, (k, class
        of left, class of right), or merge it by congruence with the term
        already registered there."""
        hit = self._sig.get(sig)
        if hit is None:
            self._sig[sig] = t
        elif self._root[hit] != self._root[t]:
            self._merge(t, hit, ("cong",))

    def _process_pending(self):
        """Re-check by congruence every composite whose child classes a merge
        moved, until no merge moves one again."""
        nodes, root = self.nodes, self._root
        while self._pending:
            t = self._pending.pop()
            n = nodes[t]
            self._congruence(t, (n.k, root[n.a], root[n.b]))

    # term construction ------------------------------------------------------

    def _add(self, node: Node, sig: tuple[int, int, int] | None = None) -> int:
        """Append a term as its own class. A composite comes with its
        signature sig and is also entered in its class's e-node table and
        checked by congruence; a merge there always loses the new term,
        which has no users yet, so it queues nothing."""
        if len(self.nodes) >= self.bounds.max_terms:
            raise EngineLimit(f"term budget {self.bounds.max_terms} exhausted")
        tid = len(self.nodes)
        self.nodes.append(node)
        self._root.append(tid)
        self._why.append(None)
        self._class_terms[tid] = [tid]
        self._enodes[tid] = {}
        if sig is not None:
            self._uses.setdefault(node.a, []).append(tid)
            self._uses.setdefault(node.b, []).append(tid)
            self._enodes[tid][sig] = tid
            self._congruence(tid, sig)
        return tid

    def _shared(self, value: tuple[str, ...]) -> tuple[str, ...]:
        """The engine's one object equal to a multiset or word."""
        return self._tuples.setdefault(value, value)

    def _unit_pad(self, t: int, k: int, left: bool) -> int:
        """The identity atom that is a unit for term t along comp_k: the
        iterated identity on t's k-source on the left, on its k-target on
        the right. Reads only the nodes, the frozen levels and the atoms."""
        node, d = self.nodes[t], self.dim - 1
        cls = (_descend_src(self.levels, node.src, d, k) if left
               else _descend_tgt(self.levels, node.tgt, d, k))
        for lv in self.levels[k + 1 : d + 1]:
            cls = lv.ids[cls]
        return self.id_atoms[cls]

    def make_comp(self, k: int, ta: int, tb: int) -> int | None:
        """Intern comp_k(ta, tb); None if unbounded or not composable."""
        if not 0 <= k < self.dim:
            raise FreecatError(f"composition index {k} out of range")
        key = (k, ta, tb)
        hit = self._intern.get(key)
        if hit is not None:
            return hit
        na, nb = self.nodes[ta], self.nodes[tb]
        d = self.dim - 1
        if _descend_tgt(self.levels, na.tgt, d, k) != _descend_src(self.levels, nb.src, d, k):
            return None
        mset = tuple(sorted(na.mset + nb.mset))
        if len(mset) > self.bounds.size:
            self.saw_size_cut = True
            return None
        if k == d:
            src, tgt = na.src, nb.tgt
        else:
            lcomp = self.levels[d].comp
            src = lcomp.get((k, na.src, nb.src))
            tgt = lcomp.get((k, na.tgt, nb.tgt))
            if src is None or tgt is None:
                self.partial_lower = True
                return None
        word = self._shared(na.word + nb.word) if self.dim == 1 else None
        root = self._root
        # the key is also the signature when both children are class roots
        sig = key if root[ta] == ta and root[tb] == tb else (k, root[ta], root[tb])
        self._intern[key] = tid = self._add(
            Node(CMP, k=k, a=ta, b=tb, mset=self._shared(mset), word=word, src=src, tgt=tgt),
            sig)
        return tid

    # free-algebra rounds ----------------------------------------------------

    def extend_composites(self):
        """One application of the free-composites layer: compose every pair
        of current classes along every index, within the size bound.

        Generation is size-graded: the round's roots are grouped by multiset
        size once, and each left root visits only the right roots that fit
        the size left over, in increasing id order. A composite is built
        only when no term has its signature yet, so generation merges
        nothing and every root stays a root until the loop ends."""
        nodes, sig, size = self.nodes, self._sig, self.bounds.size
        roots = self.classes()
        sizes = [len(nodes[r].mset) for r in roots]
        top = max(sizes, default=0)
        if 2 * top > size:
            self.saw_size_cut = True  # some pair of roots is too big to compose
        # fits[m]: the roots of multiset size at most m, in increasing id order
        fits = [[r for r, n in zip(roots, sizes) if n <= m] for m in range(top + 1)]
        nonempty = [r for r in fits[min(size, top)] if nodes[r].mset]
        for ra, n in zip(roots, sizes):
            if n > size:
                continue
            # composites of pure identities add no class
            for rb in fits[min(size - n, top)] if n else nonempty:
                for k in range(self.dim):
                    if (k, ra, rb) not in sig:
                        self.make_comp(k, ra, rb)

    def saturation_round(self):
        """Assert every axiom instance visible on current terms, re-close the
        congruence, and advance the round counter."""
        root = self._root
        partition = list(root)
        snapshot = [t for r in self.classes() for t in self.enodes(r).values()]
        self._identity_functoriality()
        for tid in snapshot:
            self._matched_instances(tid)
        self._unit_instances()
        self._process_pending()
        # classes may only coarsen, never split
        seen: dict[int, int] = {}
        for old_root, now in zip(partition, root):
            if seen.setdefault(old_root, now) != now:
                raise SoundnessError("saturation split a congruence class")
        self.round += 1

    def _settled(self, tid: int, k: int, ta: int, tb: int) -> bool:
        """A composite comp_k of the classes of ta and tb is materialized in
        tid's class."""
        root = self._root
        hit = self._sig.get((k, root[ta], root[tb]))
        return hit is not None and root[hit] == root[tid]

    def enodes(self, root: int) -> dict[tuple[int, int, int], int]:
        """The e-node table of a class root, re-keyed through the root list
        first if a merge since the last read moved a child class of its
        members."""
        table = self._enodes[root]
        if root in self._stale:
            self._stale.discard(root)
            roots = self._root
            fresh: dict[tuple[int, int, int], int] = {}
            for t in table.values():
                n = self.nodes[t]
                fresh.setdefault((n.k, roots[n.a], roots[n.b]), t)
            self._enodes[root] = table = fresh
        return table

    def _matched_instances(self, tid: int):
        """Assoc and interchange on tid = comp_j(a, b), in one pass over the
        e-nodes x of a's class. An x along j gives comp_j(comp_j(x1, x2), b) =
        comp_j(x1, comp_j(x2, b)), pattern (x, b); an x along k != j and an
        e-node y along k of b's class give comp_j(comp_k(x1, x2), comp_k(y1, y2))
        = comp_k(comp_j(x1, y1), comp_j(x2, y2)), pattern (x, y).

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
        for (k, _, _), x in list(self.enodes(root[a]).items()):
            nx = nodes[x]
            if k == j:
                self.counters["axiom_instances"] += 1
                inner = sig.get((j, root[nx.b], root[b]))
                hit = None if inner is None else sig.get((j, root[nx.a], root[inner]))
                if hit is not None and root[hit] == root[tid]:
                    continue
                inner = make(j, nx.b, b)
                if inner is not None:
                    t2 = make(j, nx.a, inner)
                    if t2 is not None:
                        self._merge(tid, t2, ("assoc", x, b))
                continue
            if by_index is None:
                by_index = {}
                for (ky, _, _), y in self.enodes(root[b]).items():
                    by_index.setdefault(ky, []).append(y)
            members = by_index.get(k, ())
            self.counters["axiom_instances"] += len(members)
            for y in members:
                ny = nodes[y]
                left = sig.get((j, root[nx.a], root[ny.a]))
                right = sig.get((j, root[nx.b], root[ny.b]))
                hit = (None if left is None or right is None
                       else sig.get((k, root[left], root[right])))
                if hit is not None and root[hit] == root[tid]:
                    continue
                left = make(j, nx.a, ny.a)
                right = make(j, nx.b, ny.b)
                if left is not None and right is not None:
                    t2 = make(k, left, right)
                    if t2 is not None:
                        self._merge(tid, t2, ("interchange", x, y))

    def _unit_instances(self):
        for root in sorted(self._class_terms.keys()):
            for k in range(self.dim):
                self.counters["axiom_instances"] += 2
                for family, left in (("unit_l", True), ("unit_r", False)):
                    pad = self._unit_pad(root, k, left)
                    a, b = (pad, root) if left else (root, pad)
                    if not self._settled(root, k, a, b):
                        t = self.make_comp(k, a, b)
                        if t is not None:
                            self._merge(t, root, (family,))

    def _identity_functoriality(self):
        """id1(c) = comp_k(id1(a), id1(b)) for each entry (k, a, b) -> c of
        the composition table below, sorted by (c, (k, a, b))."""
        ids = self.id_atoms
        below = self.levels[self.dim - 1].comp
        for c, (k, a, b) in sorted((c, key) for key, c in below.items()):
            self.counters["axiom_instances"] += 1
            if self._settled(ids[c], k, ids[a], ids[b]):
                continue
            t2 = self.make_comp(k, ids[a], ids[b])
            if t2 is not None:
                self._merge(ids[c], t2, ("idfun",))

    def saturate(self) -> bool:
        """Alternate generation and axiom rounds until nothing changes.

        Returns True when a fixed point on the materialized terms was
        reached within the round cap.
        """
        while self.round < self.bounds.rounds:
            n_terms, n_merges = len(self.nodes), self.counters["merges"]
            self.extend_composites()
            self.saturation_round()
            if len(self.nodes) == n_terms and self.counters["merges"] == n_merges:
                self.fixed_point = True
                break
        return self.fixed_point

    # queries ----------------------------------------------------------------

    def classes(self) -> list[int]:
        return sorted(self._class_terms.keys())

    def term_node(self, t: Term) -> int | None:
        """Intern a term of this engine's dimension. Raises FreecatError and
        returns None as `class_in_level` does."""
        return self._intern_term(t)[0]

    def _intern_term(self, t: Term) -> tuple[int | None, int | None, int | None]:
        """`term_node` of t, with t's source and target classes one
        dimension down (None when not materialized)."""
        if isinstance(t, Gen):
            if t.dim != self.dim:
                raise FreecatError(f"generator {t.name} has dim {t.dim}, expected {self.dim}")
            if t.name not in self.gen_atoms:
                raise FreecatError(f"unknown generator {t.name!r}")
            tid = self.gen_atoms[t.name]
            node = self.nodes[tid]
            return tid, node.src, node.tgt
        if isinstance(t, Id):
            below = class_in_level(self.levels, t.body, self.dim - 1)
            return (None if below is None else self.id_atoms[below]), below, below
        if isinstance(t, Comp):
            a, sa, ta = self._intern_term(t.left)
            b, sb, tb = self._intern_term(t.right)
            tid = None if a is None or b is None else self.make_comp(t.k, a, b)
            if tid is not None:  # built, so well formed
                node = self.nodes[tid]
                return tid, node.src, node.tgt
            return None, *_comp_boundary(self.levels, t, self.dim, sa, ta, sb, tb)
        raise FreecatError(f"not a term: {t!r}")

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
        classes settle in that order, and a settled class offers each
        composite on its members, once both child classes are settled, as
        the candidate comp_k(rep A,rep B) for the composite's class. A
        composite is longer than either child and monotone in each, so the
        first candidate a class settles with is its least term, whatever
        order the engine built terms in. Each tree is built from its
        children's trees, so a level's trees share their subterms."""
        nodes, root, uses = self.nodes, self._root, self._uses
        below = self.levels[self.dim - 1]
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
            s = f"gen({node.name})" if node.kind == GEN else f"id1({below.reps[node.lower]})"
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
                trees[c] = Gen(nodes[a].name, self.dim)
            else:
                trees[c] = Id(below.rep_terms[nodes[a].lower])
            for t in self._class_terms[c]:
                for u in uses.get(t, ()):
                    n = nodes[u]
                    ra, rb, ru = root[n.a], root[n.b], root[u]
                    if ra in text and rb in text and ru not in text:
                        s = f"comp_{n.k}({text[ra]},{text[rb]})"
                        offer((len(s), s, ru, n.k, ra, rb))
        order = sorted(self.classes(),
                       key=lambda r: (len(nodes[r].mset), nodes[r].mset, text[r]))
        canon = {r: i for i, r in enumerate(order)}
        comp: dict[tuple[int, int, int], int] = {}
        for tid, node in enumerate(nodes):
            if node.kind != CMP:
                continue
            key = (node.k, canon[root[node.a]], canon[root[node.b]])
            val = canon[root[tid]]
            if comp.setdefault(key, val) != val:
                raise SoundnessError("composition table is not single-valued")
        return Level(
            reps=[text[r] for r in order],
            rep_terms=[trees[r] for r in order],
            msets=[nodes[r].mset for r in order],
            src=[nodes[r].src for r in order],
            tgt=[nodes[r].tgt for r in order],
            comp=comp,
            ids=[canon[root[t]] for t in self.id_atoms],
            gen_class={name: canon[root[t]] for name, t in self.gen_atoms.items()},
        )


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
    explaining the equalities it rests on (`_premises`), each edge once. A
    reason is the name of a row of `_STEPS`, followed by the matched pattern
    (p, q) for assoc and interchange: `("cong",)`, `("assoc", p, q)`,
    `("interchange", p, q)`, `("unit_l",)`, `("unit_r",)` or `("idfun",)`.
    Verification replays the steps against a fresh union-find, checking
    each step's reason locally; it never consults the engine's own
    equivalence.
    """

    left: int
    right: int
    steps: list[tuple[int, int, tuple]] = field(default_factory=list)


def certificate(e: Engine, u: int, v: int) -> Certificate:
    """Explain the equality of two terms from the engine's proof forest.

    Steps come in replay order: the equalities an edge rests on are
    explained before the edge itself. Raises FreecatError when u and v are
    not equal."""
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
                todo.extend(reversed(_premises(e, a, b, reason[0], reason[1:])))
    return Certificate(u, v, steps)


# --- the proof steps ------------------------------------------------------------
# A step (u, v, reason) is a local check of its row in `_STEPS` plus the
# equalities it rests on (Flatt et al., FMCAD 2022). Each check reads only
# the engine's nodes, frozen levels and identity atoms.


def _along(n: Node, k: int) -> bool:
    return n.kind == CMP and n.k == k


def _cong_ok(e: Engine, u: int, v: int, args: tuple) -> bool:
    """Two composites along one index; their children are the premises."""
    nu = e.nodes[u]
    return nu.kind == CMP and _along(e.nodes[v], nu.k)


def _assoc_ok(e: Engine, u: int, v: int, args: tuple) -> bool:
    """u and v are composites along one index k, and v is the literal other
    side on comp(p, q) of comp(comp(p1, p2), q) = comp(p1, comp(p2, q))."""
    p, q = args
    nu, nv, np = e.nodes[u], e.nodes[v], e.nodes[p]
    k = nu.k
    if not (nu.kind == CMP and _along(nv, k)):
        return False
    nr = e.nodes[nv.b]
    return (_along(np, k) and nv.a == np.a and _along(nr, k)
            and nr.a == np.b and nr.b == q)


def _interchange_ok(e: Engine, u: int, v: int, args: tuple) -> bool:
    """u is a composite along j, v one along k != j, and v is the literal
    other side on comp(p, q) of comp_j(comp_k(p1, p2), comp_k(q1, q2))
    = comp_k(comp_j(p1, q1), comp_j(p2, q2))."""
    p, q = args
    nodes = e.nodes
    nu, nv, np, nq = nodes[u], nodes[v], nodes[p], nodes[q]
    j, k = nu.k, nv.k
    if not (j != k and nu.kind == nv.kind == CMP):
        return False
    nl, nr = nodes[nv.a], nodes[nv.b]
    return (_along(np, k) and _along(nq, k) and _along(nl, j) and _along(nr, j)
            and nl.a == np.a and nl.b == nq.a and nr.a == np.b and nr.b == nq.b)


def _unit_ok(e: Engine, u: int, v: int, args: tuple, left: bool) -> bool:
    """u is comp_k(pad, v) on the left or comp_k(v, pad) on the right, pad
    the identity atom `Engine._unit_pad` gives v on that side along u's k."""
    nu = e.nodes[u]
    pad, body = (nu.a, nu.b) if left else (nu.b, nu.a)
    return nu.kind == CMP and body == v and pad == e._unit_pad(v, nu.k, left)


def _idfun_ok(e: Engine, u: int, v: int, args: tuple) -> bool:
    """u is id(c) and v is comp_k(id a, id b), where comp_k(a, b) = c one
    dimension down."""
    nodes = e.nodes
    nu, nv = nodes[u], nodes[v]
    if not (nu.kind == IDA and nv.kind == CMP):
        return False
    na, nb = nodes[nv.a], nodes[nv.b]
    return (na.kind == IDA and nb.kind == IDA
            and e.levels[e.dim - 1].comp.get((nv.k, na.lower, nb.lower)) == nu.lower)


class _StepRow(NamedTuple):
    matched: bool  # the reason carries a matched pattern (p, q)
    check: Callable[[Engine, int, int, tuple], bool]


# every family a proof step may name: congruence and the axioms
_STEPS = {
    "cong": _StepRow(False, _cong_ok),
    "assoc": _StepRow(True, _assoc_ok),
    "unit_l": _StepRow(False, partial(_unit_ok, left=True)),
    "unit_r": _StepRow(False, partial(_unit_ok, left=False)),
    "interchange": _StepRow(True, _interchange_ok),
    "idfun": _StepRow(False, _idfun_ok),
}


def _premises(e: Engine, u: int, v: int, name: str, args: tuple) -> tuple:
    """The equalities a step of family `name` rests on: u's children against
    v's for a congruence step, against the matched pattern (p, q) for an
    assoc or interchange step, and none for any other step."""
    nu, nv = e.nodes[u], e.nodes[v]
    if name == "cong":
        return (nu.a, nv.a), (nu.b, nv.b)
    return tuple(zip((nu.a, nu.b), args))


def _replay_find(parent: dict[int, int], t: int) -> int:
    while parent.setdefault(t, t) != t:
        parent[t] = parent.setdefault(parent[t], parent[t])
        t = parent[t]
    return t


def _parse(e: Engine, step) -> tuple | None:
    """A well-formed step as (u, v, family, pattern): it names two interned
    terms and a reason that is the name of some row of `_STEPS`, followed by
    a matched pattern of two interned terms when that row has one and by
    nothing otherwise. None otherwise."""
    if not (isinstance(step, tuple) and len(step) == 3):
        return None
    u, v, reason = step
    if not (_is_term(e, u) and _is_term(e, v) and isinstance(reason, tuple) and reason):
        return None
    name, args = reason[0], reason[1:]
    row = _STEPS.get(name) if isinstance(name, str) else None
    if row is None or len(args) != 2 * row.matched or not all(_is_term(e, t) for t in args):
        return None
    return u, v, name, args


def _is_term(e: Engine, t) -> bool:
    return isinstance(t, int) and 0 <= t < len(e.nodes)


def verify_certificate(e: Engine, cert: Certificate) -> bool:
    """Replay a certificate step by step against a fresh union-find.

    Every step takes one path: it must be well formed, pass its row's local
    check, and rest only on equalities (`_premises`) that the steps before
    it have already joined. Finally `left` and `right` must be joined.
    Anything else, malformed input included, gives False; this never
    raises."""
    if not (_is_term(e, cert.left) and _is_term(e, cert.right)):
        return False
    parent: dict[int, int] = {}
    for step in cert.steps:
        parsed = _parse(e, step)
        if parsed is None:
            return False
        u, v, name, args = parsed
        if not _STEPS[name].check(e, u, v, args):
            return False
        for x, y in _premises(e, u, v, name, args):
            if _replay_find(parent, x) != _replay_find(parent, y):
                return False
        ru, rv = _replay_find(parent, u), _replay_find(parent, v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return _replay_find(parent, cert.left) == _replay_find(parent, cert.right)
