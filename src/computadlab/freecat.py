"""Composite terms in a free strict n-category and the congruence engine.

The free algebra on a computad is built one dimension at a time. The
engine for dimension r works over a frozen snapshot of the dimensions
below (`Level`: classes, boundaries, composition and identity tables) and
closes the r-dimensional terms under the strict-category axioms:

  * associativity of each composition `comp_k`,
  * two-sided units given by iterated identities,
  * middle-four interchange for distinct composition indices,
  * functoriality of identities over lower composites.

Terms are interned in a DAG; equality is a union-find congruence closure.
Saturation alternates a generation step (compose every pair of known
classes within the size bound - one application of the free-composites
layer) with an axiom step (assert every axiom instance visible on the
materialized terms, then re-close the congruence). Rounds repeat until a
fixed point on the materialized term set or a round cap.

Axioms are matched per e-node, as in egg (Willsey et al., "egg: Fast and
Extensible Equality Saturation", POPL 2021). Every class root owns a
table from its canonical e-nodes (k, class of left, class of right) to
the earliest member term of that shape. A merge folds the loser's table
into the winner's (the winner's entries are kept) and marks stale the
classes holding users of the moved terms; a stale table is re-keyed
through `find` when it is next read. Associativity and interchange then
run once per e-node of a round-start snapshot instead of once per member
term, and a class holds far fewer e-nodes than terms. The member lists
stay for representatives and the split check.

Every effective merge is logged with a locally checkable reason, so any
Equal verdict carries a replayable certificate. Distinct verdicts come
only from invariants preserved by every axiom family (generator multiset,
boundary classes, and at dimension 1 the generator word). Everything else
is reported Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
    dim: int = -1


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


def term_from_str(s: str, gen_dims=None) -> Term:
    """Parse the prefix syntax gen(id), id1(t), comp_k(t,u). A negative k
    is an error. Given `gen_dims` (name -> dimension), so is a name outside
    it and a k at or above the dimension of the composed cells."""
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
            if gen_dims is None:
                return Gen(name), k
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
            if gen_dims is not None and idx >= term_dim(left):
                raise FreecatError(f"composition index {idx} in {head!r} is not "
                                   f"below the operands' dimension {term_dim(left)}")
            if k >= len(s) or s[k] != ",":
                raise FreecatError(f"expected ',' at position {k}")
            right, k = parse(k + 1)
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


@dataclass
class Level:
    """One dimension of a computed free algebra, frozen for reuse above."""

    dim: int
    reps: list[str]
    rep_terms: list[Term]
    msets: list[tuple[str, ...]]
    src: list[int]  # class -> class one dimension down ([] at dim 0)
    tgt: list[int]
    comp: dict[tuple[int, int, int], int]  # (k, a, b) -> class, partial
    decomps: list[list[tuple[int, int, int]]]
    gen_class: dict[str, int]
    idmap: list[int] | None = None  # filled when the next engine freezes

    @property
    def n_classes(self) -> int:
        return len(self.reps)


def level_zero(names: list[str]) -> Level:
    """The dimension-0 layer of a free algebra: just the 0-generators."""
    return Level(
        dim=0,
        reps=[f"gen({n})" for n in names],
        rep_terms=[Gen(n, 0) for n in names],
        msets=[(n,) for n in names],
        src=[],
        tgt=[],
        comp={},
        decomps=[[] for _ in names],
        gen_class={n: i for i, n in enumerate(names)},
    )


def class_in_level(levels: list[Level], t: Term, d: int) -> int | None:
    """Resolve a term of dimension d to its class, using frozen tables only.

    Returns None when the term was not materialized within the bounds.
    """
    lv = levels[d]
    if isinstance(t, Gen):
        if t.dim not in (-1, d):
            raise FreecatError(f"generator {t.name} has dim {t.dim}, expected {d}")
        if t.name not in lv.gen_class:
            raise FreecatError(f"unknown generator {t.name!r} in dimension {d}")
        return lv.gen_class[t.name]
    if isinstance(t, Id):
        below = class_in_level(levels, t.body, d - 1)
        if below is None:
            return None
        idmap = levels[d - 1].idmap
        if idmap is None:
            raise FreecatError(f"identity table for dimension {d} not frozen yet")
        return idmap[below]
    if isinstance(t, Comp):
        a = class_in_level(levels, t.left, d)
        b = class_in_level(levels, t.right, d)
        if a is None or b is None:
            return None
        return lv.comp.get((t.k, a, b))
    raise FreecatError(f"not a term: {t!r}")


# --- the engine --------------------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    size: int = 4  # max generator occurrences per cell
    rounds: int = 24  # saturation round cap
    max_terms: int = 200_000

    def __post_init__(self):
        if self.size < 0 or self.rounds < 1 or self.max_terms < 1:
            raise FreecatError("bounds must be positive")


GEN, IDA, CMP = 0, 1, 2

EQUAL = "equal"
DISTINCT = "distinct"
UNKNOWN = "unknown"


@dataclass
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
        self._intern: dict[tuple, int] = {}
        self._parent: list[int] = []
        self._class_terms: dict[int, list[int]] = {}
        # root -> e-node table: (k, class of a, class of b) -> the earliest
        # composite member with that pattern; keys of a stale root may name
        # merged-away classes until `enodes` re-keys them
        self._enodes: dict[int, dict[tuple[int, int, int], int]] = {}
        self._stale: set[int] = set()
        self._sig: dict[tuple[int, int, int], int] = {}
        self._uses: dict[int, list[int]] = {}
        self._pending: list[int] = []
        self.log: list[tuple[int, int, tuple]] = []
        self.round = 0
        self.fixed_point = False
        self.partial_lower = False  # a boundary composite was out of bounds below
        self.saw_size_cut = False  # some composite exceeded the size bound
        self.counters = {
            "axiom_instances": 0,
            "merges": 0,
            "multiset_violations": 0,
            "boundary_violations": 0,
            "word_violations": 0,
            "split_violations": 0,
            "unknown_verdicts": 0,
        }
        self.gen_atoms: dict[str, int] = {}
        for name, s, t in generators:
            self.gen_atoms[name] = self._add(
                Node(GEN, name=name, mset=(name,),
                     word=(name,) if dim == 1 else None, src=s, tgt=t),
                ("g", name),
            )
        self.id_atoms: list[int] = []
        for c in range(levels[dim - 1].n_classes):
            self.id_atoms.append(
                self._add(
                    Node(IDA, lower=c, mset=(),
                         word=() if dim == 1 else None, src=c, tgt=c),
                    ("i", c),
                )
            )

    # union-find with a chronological merge log -----------------------------

    def find(self, t: int) -> int:
        p = self._parent
        while p[t] != t:
            p[t] = p[p[t]]
            t = p[t]
        return t

    def _merge(self, u: int, v: int, reason: tuple) -> bool:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        nu, nv = self.nodes[ru], self.nodes[rv]
        if nu.mset != nv.mset:
            self.counters["multiset_violations"] += 1
            raise SoundnessError(
                f"merge would mix generator multisets {nu.mset} and {nv.mset}")
        if nu.src != nv.src or nu.tgt != nv.tgt:
            self.counters["boundary_violations"] += 1
            raise SoundnessError("merge would mix boundary classes")
        if self.dim == 1 and nu.word != nv.word:
            self.counters["word_violations"] += 1
            raise SoundnessError("merge would mix generator words at dimension 1")
        self.log.append((u, v, reason))
        self.counters["merges"] += 1
        win, lose = (ru, rv) if ru < rv else (rv, ru)  # deterministic root
        self._parent[lose] = win
        lost_terms = self._class_terms.pop(lose)
        for t in lost_terms:
            users = self._uses.get(t)
            if users:
                self._pending.extend(users)
                self._stale.update(map(self.find, users))
        self._class_terms[win].extend(lost_terms)
        table = self._enodes[win]
        for key, t in self._enodes.pop(lose).items():
            table.setdefault(key, t)  # the winner's members come first
        if lose in self._stale:
            self._stale.discard(lose)
            self._stale.add(win)
        return True

    def _process_pending(self):
        while self._pending:
            t = self._pending.pop()
            node = self.nodes[t]
            if node.kind != CMP:
                continue
            sig = (node.k, self.find(node.a), self.find(node.b))
            hit = self._sig.get(sig)
            if hit is None:
                self._sig[sig] = t
            elif self.find(hit) != self.find(t):
                self._merge(t, hit, ("cong",))

    # term construction ------------------------------------------------------

    def _add(self, node: Node, key: tuple) -> int:
        tid = self._intern.get(key)
        if tid is not None:
            return tid
        if len(self.nodes) >= self.bounds.max_terms:
            raise EngineLimit(f"term budget {self.bounds.max_terms} exhausted")
        tid = len(self.nodes)
        self.nodes.append(node)
        self._intern[key] = tid
        self._parent.append(tid)
        self._class_terms[tid] = [tid]
        self._enodes[tid] = {}
        if node.kind == CMP:
            self._uses.setdefault(node.a, []).append(tid)
            self._uses.setdefault(node.b, []).append(tid)
            sig = (node.k, self.find(node.a), self.find(node.b))
            self._enodes[tid][sig] = tid
            hit = self._sig.get(sig)
            if hit is None:
                self._sig[sig] = tid
            elif self.find(hit) != self.find(tid):
                self._merge(tid, hit, ("cong",))
        return tid

    def _descend_src(self, cls: int, d: int, k: int) -> int:
        while d > k:
            cls = self.levels[d].src[cls]
            d -= 1
        return cls

    def _descend_tgt(self, cls: int, d: int, k: int) -> int:
        while d > k:
            cls = self.levels[d].tgt[cls]
            d -= 1
        return cls

    def _pad_to_top(self, cls: int, k: int) -> int:
        # iterated identity on a k-class, expressed as a (dim-1)-class
        for d in range(k, self.dim - 1):
            idmap = self.levels[d].idmap
            if idmap is None:
                raise FreecatError(f"identity table above dimension {d} not frozen")
            cls = idmap[cls]
        return cls

    def make_comp(self, k: int, ta: int, tb: int) -> int | None:
        """Intern comp_k(ta, tb); None if unbounded or not composable."""
        if not 0 <= k < self.dim:
            raise FreecatError(f"composition index {k} out of range")
        key = ("c", k, ta, tb)
        hit = self._intern.get(key)
        if hit is not None:
            return hit
        na, nb = self.nodes[ta], self.nodes[tb]
        d = self.dim - 1
        if self._descend_tgt(na.tgt, d, k) != self._descend_src(nb.src, d, k):
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
        word = na.word + nb.word if self.dim == 1 else None
        return self._add(Node(CMP, k=k, a=ta, b=tb, mset=mset, word=word,
                              src=src, tgt=tgt), key)

    # free-algebra rounds ----------------------------------------------------

    def extend_composites(self) -> int:
        """One application of the free-composites layer: compose every pair
        of current classes along every index, within the size bound."""
        before = len(self.nodes)
        roots = sorted(self._class_terms.keys())
        for ra in roots:
            na = self.nodes[ra]
            for rb in roots:
                nb = self.nodes[rb]
                if not na.mset and not nb.mset:
                    continue  # composites of pure identities add no class
                if len(na.mset) + len(nb.mset) > self.bounds.size:
                    self.saw_size_cut = True
                    continue
                for k in range(self.dim):
                    if self._probe(k, ra, rb) is None:
                        self.make_comp(k, ra, rb)
        self._process_pending()
        return len(self.nodes) - before

    def saturation_round(self) -> int:
        """Assert every axiom instance visible on current terms, re-close the
        congruence, and advance the round counter."""
        before = self.counters["merges"]
        live = list(range(len(self.nodes)))
        partition = [self.find(t) for t in live]
        snapshot = [t for root in self.classes() for t in self.enodes(root).values()]
        for tid in self.id_atoms:
            self._identity_functoriality(tid)
        for tid in snapshot:
            self._assoc_instances(tid)
            self._interchange_instances(tid)
        self._unit_instances()
        self._process_pending()
        # classes may only coarsen, never split
        seen: dict[int, int] = {}
        for tid, old_root in zip(live, partition):
            now = self.find(tid)
            if seen.setdefault(old_root, now) != now:
                self.counters["split_violations"] += 1
                raise SoundnessError("saturation split a congruence class")
        self.round += 1
        return self.counters["merges"] - before

    def _probe(self, k: int, ta: int, tb: int) -> int | None:
        """A materialized composite with these child classes, if any."""
        return self._sig.get((k, self.find(ta), self.find(tb)))

    def _settled(self, tid: int, k: int, ta: int, tb: int) -> bool:
        hit = self._probe(k, ta, tb)
        return hit is not None and self.find(hit) == self.find(tid)

    def enodes(self, root: int) -> dict[tuple[int, int, int], int]:
        """The e-node table of a class root, re-keyed through `find` first if
        a merge since the last read moved a child class of its members."""
        table = self._enodes[root]
        if root in self._stale:
            self._stale.discard(root)
            fresh: dict[tuple[int, int, int], int] = {}
            for t in table.values():
                n = self.nodes[t]
                fresh.setdefault((n.k, self.find(n.a), self.find(n.b)), t)
            self._enodes[root] = table = fresh
        return table

    def _members(self, tid: int, k: int) -> list[tuple[int, Node]]:
        """Composites along k in tid's class, one per e-node."""
        return [(x, self.nodes[x])
                for (kx, _, _), x in self.enodes(self.find(tid)).items() if kx == k]

    def _assoc_instances(self, tid: int):
        node = self.nodes[tid]
        k = node.k
        for x, nx in self._members(node.a, k):
            self.counters["axiom_instances"] += 1
            inner = self._probe(k, nx.b, node.b)
            if inner is not None and self._settled(tid, k, nx.a, inner):
                continue
            t1 = self.make_comp(k, x, node.b)
            inner = self.make_comp(k, nx.b, node.b)
            if t1 is None or inner is None:
                continue
            t2 = self.make_comp(k, nx.a, inner)
            if t2 is not None:
                self._merge(t1, t2, ("ax", "assoc", k))
        for y, ny in self._members(node.b, k):
            self.counters["axiom_instances"] += 1
            inner = self._probe(k, node.a, ny.a)
            if inner is not None and self._settled(tid, k, inner, ny.b):
                continue
            t1 = self.make_comp(k, node.a, y)
            inner = self.make_comp(k, node.a, ny.a)
            if t1 is None or inner is None:
                continue
            t2 = self.make_comp(k, inner, ny.b)
            if t2 is not None:
                self._merge(t2, t1, ("ax", "assoc", k))

    def _interchange_instances(self, tid: int):
        node = self.nodes[tid]
        j = node.k
        for x, nx in self._cmp_members(node.a):
            if nx.k == j:
                continue
            k = nx.k
            for y, ny in self._members(node.b, k):
                self.counters["axiom_instances"] += 1
                left = self._probe(j, nx.a, ny.a)
                right = self._probe(j, nx.b, ny.b)
                if (left is not None and right is not None
                        and self._settled(tid, k, left, right)):
                    continue
                t1 = self.make_comp(j, x, y)
                left = self.make_comp(j, nx.a, ny.a)
                right = self.make_comp(j, nx.b, ny.b)
                if t1 is None or left is None or right is None:
                    continue
                t2 = self.make_comp(k, left, right)
                if t2 is not None:
                    self._merge(t1, t2, ("ax", "interchange", j, k))

    def _cmp_members(self, tid: int) -> list[tuple[int, Node]]:
        """All composite members of tid's class, one per e-node."""
        return [(x, self.nodes[x]) for x in self.enodes(self.find(tid)).values()]

    def _unit_instances(self):
        for root in sorted(self._class_terms.keys()):
            node = self.nodes[root]
            d = self.dim - 1
            for k in range(self.dim):
                self.counters["axiom_instances"] += 2
                pad_s = self._pad_to_top(self._descend_src(node.src, d, k), k)
                if not self._settled(root, k, self.id_atoms[pad_s], root):
                    t1 = self.make_comp(k, self.id_atoms[pad_s], root)
                    if t1 is not None:
                        self._merge(t1, root, ("ax", "unit_l", k))
                pad_t = self._pad_to_top(self._descend_tgt(node.tgt, d, k), k)
                if not self._settled(root, k, root, self.id_atoms[pad_t]):
                    t2 = self.make_comp(k, root, self.id_atoms[pad_t])
                    if t2 is not None:
                        self._merge(t2, root, ("ax", "unit_r", k))

    def _identity_functoriality(self, tid: int):
        node = self.nodes[tid]
        for (k, a, b) in self.levels[self.dim - 1].decomps[node.lower]:
            self.counters["axiom_instances"] += 1
            if self._settled(tid, k, self.id_atoms[a], self.id_atoms[b]):
                continue
            t2 = self.make_comp(k, self.id_atoms[a], self.id_atoms[b])
            if t2 is not None:
                self._merge(tid, t2, ("ax", "idfun", k))

    def saturate(self, max_rounds: int | None = None) -> bool:
        """Alternate generation and axiom rounds until nothing changes.

        Returns True when a fixed point on the materialized terms was
        reached within the round cap.
        """
        cap = self.bounds.rounds if max_rounds is None else max_rounds
        while self.round < cap:
            n_terms, n_log = len(self.nodes), len(self.log)
            self.extend_composites()
            self.saturation_round()
            if len(self.nodes) == n_terms and len(self.log) == n_log:
                self.fixed_point = True
                break
        return self.fixed_point

    # queries ----------------------------------------------------------------

    def classes(self) -> list[int]:
        return sorted(self._class_terms.keys())

    def term_str(self, tid: int, _memo=None) -> str:
        memo = _memo if _memo is not None else {}
        if tid in memo:
            return memo[tid]
        node = self.nodes[tid]
        if node.kind == GEN:
            s = f"gen({node.name})"
        elif node.kind == IDA:
            s = f"id1({self.levels[self.dim - 1].reps[node.lower]})"
        else:
            s = (f"comp_{node.k}({self.term_str(node.a, memo)},"
                 f"{self.term_str(node.b, memo)})")
        memo[tid] = s
        return s

    def build_term(self, tid: int) -> Term:
        node = self.nodes[tid]
        if node.kind == GEN:
            return Gen(node.name, self.dim)
        if node.kind == IDA:
            return Id(self.levels[self.dim - 1].rep_terms[node.lower])
        return Comp(node.k, self.build_term(node.a), self.build_term(node.b))

    def representative(self, root: int) -> int:
        """The class member with the shortest (then lexicographically least)
        serialization; deterministic across runs."""
        memo: dict[int, str] = {}
        best = None
        best_tid = -1
        for t in self._class_terms[self.find(root)]:
            s = self.term_str(t, memo)
            key = (len(s), s)
            if best is None or key < best:
                best, best_tid = key, t
        return best_tid

    def term_node(self, t: Term) -> int | None:
        """Intern a term of this engine's dimension; None when out of bounds."""
        if isinstance(t, Gen):
            if t.name not in self.gen_atoms:
                raise FreecatError(f"unknown generator {t.name!r}")
            return self.gen_atoms[t.name]
        if isinstance(t, Id):
            below = class_in_level(self.levels, t.body, self.dim - 1)
            return None if below is None else self.id_atoms[below]
        if isinstance(t, Comp):
            a = self.term_node(t.left)
            b = self.term_node(t.right)
            if a is None or b is None:
                return None
            tid = self.make_comp(t.k, a, b)
            if tid is not None:
                self._process_pending()
            return tid
        raise FreecatError(f"not a term: {t!r}")

    def verdict(self, ta: int | None, tb: int | None) -> tuple[str, object]:
        """Three-valued equality on interned terms (None = out of bounds)."""
        if ta is not None and tb is not None and self.find(ta) == self.find(tb):
            return EQUAL, certificate(self, ta, tb)
        na = self.nodes[ta] if ta is not None else None
        nb = self.nodes[tb] if tb is not None else None
        if na is not None and nb is not None:
            if na.mset != nb.mset:
                return DISTINCT, "generator multisets differ"
            if na.src != nb.src or na.tgt != nb.tgt:
                return DISTINCT, "boundary classes differ"
            if self.dim == 1 and na.word != nb.word:
                return DISTINCT, "generator words differ"
        self.counters["unknown_verdicts"] += 1
        return UNKNOWN, None

    def freeze(self) -> Level:
        """Snapshot classes into a Level and fill the identity table below."""
        roots = self.classes()
        reps = {r: self.representative(r) for r in roots}
        memo: dict[int, str] = {}
        order = sorted(
            roots,
            key=lambda r: (len(self.nodes[r].mset), self.nodes[r].mset,
                           self.term_str(reps[r], memo)),
        )
        canon = {r: i for i, r in enumerate(order)}
        self.canon = canon
        lv = Level(
            dim=self.dim,
            reps=[self.term_str(reps[r], memo) for r in order],
            rep_terms=[self.build_term(reps[r]) for r in order],
            msets=[self.nodes[r].mset for r in order],
            src=[self.nodes[r].src for r in order],
            tgt=[self.nodes[r].tgt for r in order],
            comp={},
            decomps=[[] for _ in order],
            gen_class={name: canon[self.find(t)] for name, t in self.gen_atoms.items()},
        )
        decomp_sets: list[set[tuple[int, int, int]]] = [set() for _ in order]
        for tid, node in enumerate(self.nodes):
            if node.kind != CMP:
                continue
            key = (node.k, canon[self.find(node.a)], canon[self.find(node.b)])
            val = canon[self.find(tid)]
            old = lv.comp.setdefault(key, val)
            if old != val:
                raise SoundnessError("composition table is not single-valued")
            decomp_sets[val].add(key)
        lv.decomps = [sorted(s) for s in decomp_sets]
        below = self.levels[self.dim - 1]
        below.idmap = [canon[self.find(t)] for t in self.id_atoms]
        return lv

    def class_of(self, tid: int) -> int | None:
        """Canonical class index of an interned term, after freeze."""
        return getattr(self, "canon", {}).get(self.find(tid))


# --- module-level operations ----------------------------------------------------


def generate_terms(e: Engine, rounds: int = 1) -> list[Term]:
    """Apply the free-composites layer `rounds` times and return all
    materialized terms (identities are kept as atoms on lower classes)."""
    for _ in range(rounds):
        if e.extend_composites() == 0:
            break
    return [e.build_term(t) for t in range(len(e.nodes))]


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


def enumerate_cells(e: Engine, size_bound: int | None = None):
    """One representative per congruence class within the size bound, with
    counts grouped by generator multiset."""
    bound = e.bounds.size if size_bound is None else size_bound
    memo: dict[int, str] = {}
    rows = []
    for root in e.classes():
        node = e.nodes[root]
        if len(node.mset) > bound:
            continue
        rows.append((e.term_str(e.representative(root), memo), node.mset))
    rows.sort(key=lambda r: (len(r[1]), r[1], r[0]))
    groups: dict[tuple[str, ...], int] = {}
    for _, mset in rows:
        groups[mset] = groups.get(mset, 0) + 1
    return rows, groups


# --- certificates -------------------------------------------------------------


@dataclass
class Certificate:
    """A chronological prefix of the merge log plus the pair it connects.

    Verification replays the log against a fresh union-find, checking each
    step's reason locally; it never consults the engine's own equivalence.
    """

    left: int
    right: int
    steps: list[tuple[int, int, tuple]] = field(default_factory=list)


def certificate(e: Engine, u: int, v: int) -> Certificate:
    return Certificate(u, v, list(e.log))


def _replay_find(parent: dict[int, int], t: int) -> int:
    while parent.setdefault(t, t) != t:
        parent[t] = parent.setdefault(parent[t], parent[t])
        t = parent[t]
    return t


def _axiom_step_ok(e: Engine, u: int, v: int, reason: tuple) -> bool:
    nodes = e.nodes
    kind = reason[1]
    if kind == "assoc":
        k = reason[2]
        for s, t in ((u, v), (v, u)):
            ns, nt = nodes[s], nodes[t]
            if ns.kind != CMP or nt.kind != CMP or ns.k != k or nt.k != k:
                continue
            nx = nodes[ns.a]
            if nx.kind != CMP or nx.k != k:
                continue
            ninner = nodes[nt.b]
            if (ninner.kind == CMP and ninner.k == k and nt.a == nx.a
                    and ninner.a == nx.b and ninner.b == ns.b):
                return True
        return False
    if kind in ("unit_l", "unit_r"):
        k = reason[2]
        nu = nodes[u]
        if nu.kind != CMP or nu.k != k:
            return False
        pad, body = (nu.a, nu.b) if kind == "unit_l" else (nu.b, nu.a)
        if body != v:
            return False
        np = nodes[pad]
        if np.kind != IDA:
            return False
        nb = nodes[v]
        d = e.dim - 1
        if kind == "unit_l":
            expect = e._pad_to_top(e._descend_src(nb.src, d, k), k)
        else:
            expect = e._pad_to_top(e._descend_tgt(nb.tgt, d, k), k)
        return np.lower == expect
    if kind == "interchange":
        j, k = reason[2], reason[3]
        nu, nv = nodes[u], nodes[v]
        if nu.kind != CMP or nv.kind != CMP or nu.k != j or nv.k != k:
            return False
        nx, ny = nodes[nu.a], nodes[nu.b]
        nl, nr = nodes[nv.a], nodes[nv.b]
        return (nx.kind == CMP and ny.kind == CMP and nl.kind == CMP
                and nr.kind == CMP and nx.k == k and ny.k == k
                and nl.k == j and nr.k == j and nl.a == nx.a and nl.b == ny.a
                and nr.a == nx.b and nr.b == ny.b)
    if kind == "idfun":
        k = reason[2]
        nu, nv = nodes[u], nodes[v]
        if nu.kind != IDA or nv.kind != CMP or nv.k != k:
            return False
        na, nb = nodes[nv.a], nodes[nv.b]
        if na.kind != IDA or nb.kind != IDA:
            return False
        return e.levels[e.dim - 1].comp.get((k, na.lower, nb.lower)) == nu.lower
    return False


def verify_certificate(e: Engine, cert: Certificate) -> bool:
    """Replay a certificate step by step against a fresh union-find."""
    parent: dict[int, int] = {}
    for u, v, reason in cert.steps:
        if reason[0] == "cong":
            nu, nv = e.nodes[u], e.nodes[v]
            ok = (nu.kind == CMP and nv.kind == CMP and nu.k == nv.k
                  and _replay_find(parent, nu.a) == _replay_find(parent, nv.a)
                  and _replay_find(parent, nu.b) == _replay_find(parent, nv.b))
        elif reason[0] == "ax":
            ok = _axiom_step_ok(e, u, v, reason)
        else:
            ok = False
        if not ok:
            return False
        ru, rv = _replay_find(parent, u), _replay_find(parent, v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return _replay_find(parent, cert.left) == _replay_find(parent, cert.right)


def explain_path(e: Engine, u: int, v: int) -> list[str]:
    """Human-readable chain of merge edges connecting two terms."""
    adj: dict[int, list[tuple[int, tuple]]] = {}
    for a, b, reason in e.log:
        adj.setdefault(a, []).append((b, reason))
        adj.setdefault(b, []).append((a, reason))
    prev: dict[int, tuple[int, tuple]] = {u: (u, ())}
    queue = [u]
    while queue:
        cur = queue.pop(0)
        if cur == v:
            break
        for nxt, reason in adj.get(cur, ()):
            if nxt not in prev:
                prev[nxt] = (cur, reason)
                queue.append(nxt)
    if v not in prev:
        return []
    path = []
    cur = v
    while cur != u:
        parent, reason = prev[cur]
        path.append(f"{e.term_str(parent)}  ==  {e.term_str(cur)}   [{':'.join(map(str, reason))}]")
        cur = parent
    path.reverse()
    return path
