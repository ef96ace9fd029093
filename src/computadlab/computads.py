"""Computads built dimension by dimension, and their free algebras.

A computad of dimension n declares generator sets per dimension; each
generator of dimension r >= 1 is attached to a parallel pair of cells of
the free algebra on the (r-1)-truncation. Attachments are written as
terms. `build_computad` and `loads_computad` only check the declarations'
shape; `free_algebra` certifies every attachment against the congruence
classes of the dimension below while it climbs, so checking a computad
and building its free algebra are one walk. A computad carries no bounds:
they belong to the `FreeAlgebra` computed from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import freecat
from .freecat import (
    Bounds, Engine, Gen, Id, Level, Term,
    class_in_level, level_zero, term_dim, term_to_str,
)
from .globular import parse_natural


class ComputadError(Exception):
    pass


class NonParallelAttachment(ComputadError):
    def __init__(self, generator: str, reason: str):
        super().__init__(f"generator {generator!r}: {reason}")
        self.generator = generator
        self.reason = reason


@dataclass(frozen=True)
class GeneratorDecl:
    name: str
    src: Term | None = None  # None only in dimension 0
    tgt: Term | None = None


@dataclass
class Computad:
    dim: int
    layers: list[list[GeneratorDecl]]

    def generators(self, r: int) -> list[GeneratorDecl]:
        return self.layers[r]

    def names(self, r: int) -> list[str]:
        return [g.name for g in self.layers[r]]

    def truncate(self, k: int) -> "Computad":
        if k > self.dim:
            raise ComputadError(f"cannot truncate dim {self.dim} to {k}")
        return Computad(k, [list(layer) for layer in self.layers[: k + 1]])


@dataclass
class FreeAlgebra:
    """Per-dimension congruence engines and their frozen class tables."""

    computad: Computad
    bounds: Bounds
    levels: list[Level]
    engines: list[Engine | None]  # engines[0] is None

    @property
    def dim(self) -> int:
        return self.computad.dim

    def class_count(self, r: int) -> int:
        return self.levels[r].n_classes

    def class_of_term(self, t: Term) -> int | None:
        return class_in_level(self.levels, t, term_dim(t))

    def equal_cells(self, t1: Term, t2: Term):
        r = term_dim(t1)
        if r == 0:
            c1, c2 = self.class_of_term(t1), self.class_of_term(t2)
            return (freecat.EQUAL, None) if c1 == c2 else (freecat.DISTINCT, "0-cells")
        return freecat.equal_cells(self.engines[r], t1, t2)

    def enumerate_cells(self, r: int, size_bound: int | None = None):
        if r == 0:
            lv = self.levels[0]
            rows = [(rep, mset) for rep, mset in zip(lv.reps, lv.msets)]
            return rows, {mset: 1 for _, mset in rows}
        return freecat.enumerate_cells(self.engines[r], size_bound)

    @property
    def fixed_point(self) -> bool:
        return all(e.fixed_point for e in self.engines[1:] if e is not None)

    @property
    def partial(self) -> bool:
        """True when some bound truncated the cell sets below the free algebra."""
        return any(e.partial_lower or e.saw_size_cut
                   for e in self.engines[1:] if e is not None)

    def partiality_marker(self) -> str:
        return f"partial up to size {self.bounds.size}" if self.partial else "complete at this size"

    def soundness_report(self) -> dict[str, int]:
        keys = ["axiom_instances", "merges", "multiset_violations",
                "boundary_violations", "word_violations", "split_violations",
                "unknown_verdicts"]
        out = {k: 0 for k in keys}
        for e in self.engines[1:]:
            if e is None:
                continue
            for k in keys:
                out[k] += e.counters[k]
        return out


def _resolve_attachment(levels: list[Level], decl: GeneratorDecl, r: int) -> tuple[int, int]:
    """Certify a generator's attachment as a parallel pair of (r-1)-classes."""
    if decl.src is None or decl.tgt is None:
        raise NonParallelAttachment(decl.name, "missing boundary terms")
    for side, t in (("source", decl.src), ("target", decl.tgt)):
        d = term_dim(t)
        if d != r - 1:
            raise NonParallelAttachment(
                decl.name, f"{side} term has dimension {d}, expected {r - 1}")
    s = class_in_level(levels, decl.src, r - 1)
    t = class_in_level(levels, decl.tgt, r - 1)
    if s is None or t is None:
        raise NonParallelAttachment(
            decl.name, "boundary term not materialized within the bounds")
    if r >= 2:
        lv = levels[r - 1]
        if lv.src[s] != lv.src[t] or lv.tgt[s] != lv.tgt[t]:
            raise NonParallelAttachment(
                decl.name,
                f"boundaries {lv.reps[s]} and {lv.reps[t]} are not parallel")
    return s, t


def free_algebra(c: Computad, bounds: Bounds = Bounds()) -> FreeAlgebra:
    """Free strict n-category on a computad, one saturated engine per
    dimension. The only certifier of attachments: each is resolved to a
    parallel pair of classes one dimension down, else `NonParallelAttachment`."""
    levels = [level_zero(c.names(0))]
    engines: list[Engine | None] = [None]
    for r in range(1, c.dim + 1):
        gens = []
        for decl in c.layers[r]:
            s, t = _resolve_attachment(levels, decl, r)
            gens.append((decl.name, s, t))
        engine = Engine(r, levels, gens, bounds)
        engine.saturate()
        levels.append(engine.freeze())
        engines.append(engine)
    return FreeAlgebra(c, bounds, levels, engines)


def build_computad(layers) -> Computad:
    """Normalize layered generator declarations into a Computad.

    `layers[0]` is a list of names; `layers[r]` for r >= 1 is a list of
    (name, src_term, tgt_term) triples or GeneratorDecl values. Duplicate
    names raise `ComputadError`; the attachments are certified by
    `free_algebra`, not here.
    """
    norm: list[list[GeneratorDecl]] = []
    for r, layer in enumerate(layers):
        out = []
        for item in layer:
            if isinstance(item, GeneratorDecl):
                out.append(item)
            elif r == 0:
                out.append(GeneratorDecl(str(item)))
            else:
                name, s, t = item
                out.append(GeneratorDecl(name, s, t))
        norm.append(out)
    seen: set[str] = set()
    for layer in norm:
        for decl in layer:
            if decl.name in seen:
                raise ComputadError(f"duplicate generator name {decl.name!r}")
            seen.add(decl.name)
    return Computad(len(norm) - 1, norm)


def theta_computad(k: int) -> Computad:
    """One 0-generator and nothing above: the free algebra collapses to a
    single cell in every dimension <= k."""
    return Computad(k, [[GeneratorDecl("o")]] + [[] for _ in range(k)])


# --- computad morphisms -------------------------------------------------------


@dataclass
class ComputadMap:
    dom: Computad
    cod: Computad
    gen_maps: list[dict[str, str]]  # per dimension, generator name -> name

    def rename_table(self) -> dict[str, str]:
        table: dict[str, str] = {}
        for m in self.gen_maps:
            table.update(m)
        return table


def map_violation(m: ComputadMap, bounds: Bounds = Bounds()) -> str | None:
    """Check totality and boundary naturality of a computad map."""
    if m.dom.dim != m.cod.dim:
        return "dimension mismatch"
    if len(m.gen_maps) != m.dom.dim + 1:
        return "missing generator maps"
    fa_cod = free_algebra(m.cod, bounds)
    table = m.rename_table()
    for r in range(m.dom.dim + 1):
        cod_names = set(m.cod.names(r))
        for decl in m.dom.layers[r]:
            img = m.gen_maps[r].get(decl.name)
            if img is None:
                return f"dim {r}: map undefined on {decl.name!r}"
            if img not in cod_names:
                return f"dim {r}: image of {decl.name!r} is not a {r}-generator"
        if r == 0:
            continue
        for decl in m.dom.layers[r]:
            img = next(d for d in m.cod.layers[r] if d.name == m.gen_maps[r][decl.name])
            for side, ours, theirs in (("source", decl.src, img.src),
                                       ("target", decl.tgt, img.tgt)):
                pushed = fa_cod.class_of_term(freecat.rename_gens(ours, table))
                expect = fa_cod.class_of_term(theirs)
                if pushed is None or pushed != expect:
                    return (f"dim {r}: attachment of {decl.name!r} does not map to "
                            f"the {side} of {img.name!r}")
    return None


def make_computad_map(dom: Computad, cod: Computad, gen_maps,
                      bounds: Bounds = Bounds()) -> ComputadMap:
    m = ComputadMap(dom, cod, [dict(d) for d in gen_maps])
    bad = map_violation(m, bounds)
    if bad is not None:
        raise ComputadError(bad)
    return m


def identity_computad_map(c: Computad) -> ComputadMap:
    return ComputadMap(c, c, [{n: n for n in c.names(r)} for r in range(c.dim + 1)])


def induced_class_map(fa_dom: FreeAlgebra, fa_cod: FreeAlgebra,
                      m: ComputadMap, r: int) -> list[int | None]:
    """Action of the free functor on classes: push each representative term
    through the generator renaming and resolve it in the codomain."""
    table = m.rename_table()
    out = []
    for t in fa_dom.levels[r].rep_terms:
        out.append(fa_cod.class_of_term(freecat.rename_gens(t, table)))
    return out


# --- parallel pairs of free cells: the functor T -------------------------------


@dataclass
class ParallelPairsResult:
    pairs: list[tuple[int, int]]
    reps: list[str]
    partial: bool
    marker: str


def t_functor(c: Computad, bounds: Bounds = Bounds()) -> ParallelPairsResult:
    """Parallel pairs of top-dimensional cells of the free algebra on c."""
    fa = free_algebra(c, bounds)
    lv = fa.levels[c.dim]
    pairs = []
    for x in range(lv.n_classes):
        for y in range(lv.n_classes):
            if c.dim == 0 or (lv.src[x] == lv.src[y] and lv.tgt[x] == lv.tgt[y]):
                pairs.append((x, y))
    return ParallelPairsResult(pairs, list(lv.reps), fa.partial, fa.partiality_marker())


# --- finite algebras and the computad of an algebra ----------------------------


@dataclass
class Algebra:
    """A finite strict n-category with fully tabulated structure."""

    dim: int
    cells: list[list[str]]
    src: list[dict[str, str]]
    tgt: list[dict[str, str]]
    ident: list[dict[str, str]]  # ident[d]: d-cell -> (d+1)-cell, d < dim
    comp: dict[tuple[int, int], dict[tuple[str, str], str]]  # (d, k) -> table

    def compose(self, d: int, k: int, a: str, b: str) -> str:
        return self.comp[(d, k)][(a, b)]

    def truncate(self, k: int) -> "Algebra":
        return Algebra(
            k,
            [list(level) for level in self.cells[: k + 1]],
            [dict(x) for x in self.src[: k + 1]],
            [dict(x) for x in self.tgt[: k + 1]],
            [dict(x) for x in self.ident[:k]],
            {dk: dict(tb) for dk, tb in self.comp.items() if dk[0] <= k},
        )


def _bdy(g: Algebra, x: str, d: int, k: int, side: str) -> str:
    maps = g.src if side == "s" else g.tgt
    while d > k:
        x = maps[d][x]
        d -= 1
    return x


def algebra_violation(g: Algebra) -> str | None:
    """Exhaustively check the strict-category axioms on the tables."""
    for r in range(1, g.dim + 1):
        for x in g.cells[r]:
            if x not in g.src[r] or x not in g.tgt[r]:
                return f"dim {r}: boundary undefined on {x!r}"
    for r in range(2, g.dim + 1):
        for x in g.cells[r]:
            s, t = g.src[r][x], g.tgt[r][x]
            if g.src[r - 1][s] != g.src[r - 1][t] or g.tgt[r - 1][s] != g.tgt[r - 1][t]:
                return f"dim {r}: globularity fails on {x!r}"
    for d in range(g.dim):
        for x in g.cells[d]:
            i = g.ident[d].get(x)
            if i is None:
                return f"dim {d}: identity undefined on {x!r}"
            if g.src[d + 1][i] != x or g.tgt[d + 1][i] != x:
                return f"dim {d}: identity of {x!r} has wrong boundary"
    for d in range(1, g.dim + 1):
        for k in range(d):
            table = g.comp.get((d, k))
            if table is None:
                return f"missing composition table ({d},{k})"
            for a in g.cells[d]:
                for b in g.cells[d]:
                    composable = _bdy(g, a, d, k, "t") == _bdy(g, b, d, k, "s")
                    if composable != ((a, b) in table):
                        return f"comp ({d},{k}): domain wrong at ({a!r},{b!r})"
            for (a, b), c in table.items():
                if c not in g.cells[d]:
                    return f"comp ({d},{k}): value {c!r} is not a {d}-cell"
                if k == d - 1:
                    if g.src[d][c] != g.src[d][a] or g.tgt[d][c] != g.tgt[d][b]:
                        return f"comp ({d},{k}): boundary of {a!r}*{b!r} is wrong"
                else:
                    es = g.comp[(d - 1, k)][(g.src[d][a], g.src[d][b])]
                    et = g.comp[(d - 1, k)][(g.tgt[d][a], g.tgt[d][b])]
                    if g.src[d][c] != es or g.tgt[d][c] != et:
                        return f"comp ({d},{k}): boundary of {a!r}*{b!r} is wrong"
            # units
            for a in g.cells[d]:
                ls = _bdy(g, a, d, k, "s")
                lt = _bdy(g, a, d, k, "t")
                pl, pr = ls, lt
                for dd in range(k, d):
                    pl = g.ident[dd][pl]
                    pr = g.ident[dd][pr]
                if table[(pl, a)] != a or table[(a, pr)] != a:
                    return f"comp ({d},{k}): unit law fails on {a!r}"
            # associativity
            for a in g.cells[d]:
                for b in g.cells[d]:
                    if (a, b) not in table:
                        continue
                    for c in g.cells[d]:
                        if (b, c) not in table:
                            continue
                        if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                            return f"comp ({d},{k}): associativity fails"
    for d in range(2, g.dim + 1):
        for k in range(d):
            for j in range(k):
                tj, tk = g.comp[(d, j)], g.comp[(d, k)]
                for a, b in tk:
                    for c, e in tk:
                        if (a, c) in tj and (b, e) in tj:
                            lhs = tj.get((tk[(a, b)], tk[(c, e)]))
                            rhs = tk.get((tj[(a, c)], tj[(b, e)]))
                            if lhs is None or lhs != rhs:
                                return f"interchange ({j},{k}) fails in dim {d}"
    for d in range(1, g.dim):
        for k in range(d):
            for (a, b), c in g.comp[(d, k)].items():
                if g.comp[(d + 1, k)][(g.ident[d][a], g.ident[d][b])] != g.ident[d][c]:
                    return f"identities are not functorial over comp ({d},{k})"
    return None


def make_algebra(dim, cells, src, tgt, ident, comp) -> Algebra:
    g = Algebra(dim, [list(x) for x in cells], [dict(x) for x in src],
                [dict(x) for x in tgt], [dict(x) for x in ident],
                {dk: dict(tb) for dk, tb in comp.items()})
    bad = algebra_violation(g)
    if bad is not None:
        raise ComputadError(bad)
    return g


def discrete_algebra(names: list[str]) -> Algebra:
    return Algebra(0, [list(names)], [{}], [{}], [], {})


def terminal_algebra(n: int) -> Algebra:
    cells = [[f"*{r}"] for r in range(n + 1)]
    src = [{} if r == 0 else {f"*{r}": f"*{r - 1}"} for r in range(n + 1)]
    tgt = [dict(d) for d in src]
    ident = [{f"*{r}": f"*{r + 1}"} for r in range(n)]
    comp = {(d, k): {(f"*{d}", f"*{d}"): f"*{d}"} for d in range(1, n + 1) for k in range(d)}
    return Algebra(n, cells, src, tgt, ident, comp)


def monoid_algebra(elements: list[str], mult: dict[tuple[str, str], str],
                   unit: str) -> Algebra:
    """A monoid viewed as a one-object category."""
    cells = [["*"], list(elements)]
    src = [{}, {m: "*" for m in elements}]
    tgt = [{}, {m: "*" for m in elements}]
    ident = [{"*": unit}]
    comp = {(1, 0): dict(mult)}
    g = make_algebra(1, cells, src, tgt, ident, comp)
    return g


@dataclass
class WResult:
    """A computad presenting an algebra, with the counit and evaluation data."""

    computad: Computad
    algebra: Algebra
    counit: list[dict[str, str]]  # generator name -> algebra cell
    evals: list[dict[int, str]]  # free-algebra class -> algebra cell
    free: FreeAlgebra | None
    partial: bool


def _eval_term(t: Term, g: Algebra, counit: list[dict[str, str]]) -> str:
    d = term_dim(t)
    if isinstance(t, Gen):
        return counit[d][t.name]
    if isinstance(t, Id):
        return g.ident[d - 1][_eval_term(t.body, g, counit)]
    return g.compose(d, t.k, _eval_term(t.left, g, counit),
                     _eval_term(t.right, g, counit))


def computad_of_algebra(g: Algebra, bounds: Bounds = Bounds()) -> WResult:
    """The computad whose n-generators are triples (x, a, y): a parallel pair
    of free cells on the recursively built lower computad, plus an algebra
    cell whose boundary evaluates to them. The counit sends a triple to its
    middle component; lower dimensions evaluate by folding the tables."""
    bad = algebra_violation(g)
    if bad is not None:
        raise ComputadError(bad)
    if g.dim == 0:
        c = Computad(0, [[GeneratorDecl(x) for x in g.cells[0]]])
        counit = [{x: x for x in g.cells[0]}]
        evals = [{i: x for i, x in enumerate(g.cells[0])}]
        return WResult(c, g, counit, evals, None, False)
    n = g.dim
    lower = computad_of_algebra(g.truncate(n - 1), bounds)
    fa = free_algebra(lower.computad, bounds)
    counit = [dict(d) for d in lower.counit]
    evals = []
    for r in range(n):
        lv = fa.levels[r]
        evals.append({cls: _eval_term(lv.rep_terms[cls], g, counit)
                      for cls in range(lv.n_classes)})
    lv = fa.levels[n - 1]
    gens = []
    names = {}
    for x in range(lv.n_classes):
        for y in range(lv.n_classes):
            if n >= 2 and (lv.src[x] != lv.src[y] or lv.tgt[x] != lv.tgt[y]):
                continue
            for a in g.cells[n]:
                if g.src[n][a] != evals[n - 1][x] or g.tgt[n][a] != evals[n - 1][y]:
                    continue
                name = f"w{n}_{len(gens)}"
                gens.append(GeneratorDecl(name, lv.rep_terms[x], lv.rep_terms[y]))
                names[name] = a
    counit.append(names)
    layers = [list(layer) for layer in lower.computad.layers] + [gens]
    c = Computad(n, layers)
    return WResult(c, g, counit, evals, fa, fa.partial)


# --- pullbacks of computads -----------------------------------------------------


@dataclass
class ComputadPullbackReport:
    computad: Computad | None
    proj1: ComputadMap | None
    proj2: ComputadMap | None
    failures: list[str]
    ambiguities: list[str]
    free: FreeAlgebra | None = None  # the certified free algebra on `computad`


def _pair_name(x: str, y: str) -> str:
    return f"({x}|{y})"


def pullback_computads(f: ComputadMap, g: ComputadMap,
                       bounds: Bounds = Bounds()) -> ComputadPullbackReport:
    """Dimensionwise pullback on generator sets with induced attachments.

    The induced attachment of a generator pair must be a free cell of the
    pullback-so-far mapping to both constituents' attachments; when no such
    class (or more than one) exists, that is recorded as a genuine failure
    of the construction, not silently repaired. The pullback computad is
    certified by saturating its free algebra, which the report keeps.
    """
    if f.cod is not g.cod:
        raise ComputadError("pullback requires a common codomain")
    n = f.dom.dim
    failures: list[str] = []
    ambiguities: list[str] = []
    fa_x = free_algebra(f.dom, bounds)
    fa_y = fa_x if g.dom is f.dom else free_algebra(g.dom, bounds)
    layers: list[list[GeneratorDecl]] = []
    pair_of: list[dict[str, tuple[str, str]]] = []
    for r in range(n + 1):
        level_pairs = [
            (x, y)
            for x in f.dom.names(r)
            for y in g.dom.names(r)
            if f.gen_maps[r][x] == g.gen_maps[r][y]
        ]
        if r == 0:
            layers.append([GeneratorDecl(_pair_name(x, y)) for x, y in level_pairs])
            pair_of.append({_pair_name(x, y): (x, y) for x, y in level_pairs})
            continue
        prefix = Computad(r - 1, [list(layer) for layer in layers])
        fa_p = free_algebra(prefix, bounds)
        px = ComputadMap(prefix, f.dom.truncate(r - 1),
                         [{nm: xy[0] for nm, xy in pair_of[d].items()} for d in range(r)])
        py = ComputadMap(prefix, g.dom.truncate(r - 1),
                         [{nm: xy[1] for nm, xy in pair_of[d].items()} for d in range(r)])
        ind_x = induced_class_map(fa_p, fa_x, px, r - 1)
        ind_y = induced_class_map(fa_p, fa_y, py, r - 1)
        decls = []
        names = {}
        for x, y in level_pairs:
            dx = next(d for d in f.dom.layers[r] if d.name == x)
            dy = next(d for d in g.dom.layers[r] if d.name == y)
            sides = []
            bad = False
            for tx, ty in ((dx.src, dy.src), (dx.tgt, dy.tgt)):
                want_x = fa_x.class_of_term(tx)
                want_y = fa_y.class_of_term(ty)
                hits = [c for c in range(fa_p.levels[r - 1].n_classes)
                        if ind_x[c] == want_x and ind_y[c] == want_y]
                if not hits:
                    failures.append(
                        f"dim {r}: no induced attachment for ({x},{y})")
                    bad = True
                    break
                if len(hits) > 1:
                    ambiguities.append(
                        f"dim {r}: {len(hits)} candidate attachments for ({x},{y})")
                sides.append(fa_p.levels[r - 1].rep_terms[hits[0]])
            if bad:
                continue
            nm = _pair_name(x, y)
            decls.append(GeneratorDecl(nm, sides[0], sides[1]))
            names[nm] = (x, y)
        layers.append(decls)
        pair_of.append(names)
    if failures:
        return ComputadPullbackReport(None, None, None, failures, ambiguities)
    p = Computad(n, layers)
    fa = free_algebra(p, bounds)
    proj1 = ComputadMap(p, f.dom, [{nm: xy[0] for nm, xy in pair_of[d].items()}
                                   for d in range(n + 1)])
    proj2 = ComputadMap(p, g.dom, [{nm: xy[1] for nm, xy in pair_of[d].items()}
                                   for d in range(n + 1)])
    return ComputadPullbackReport(p, proj1, proj2, failures, ambiguities, fa)


# --- text format ----------------------------------------------------------------
#
#   dim 2
#   0 p
#   2 alpha : id1(gen(p)) => id1(gen(p))
#
# One generator per line: '<dim> <name>' or '<dim> <name> : <src> => <tgt>'
# with boundary terms in the freecat syntax. '#' starts a comment.


def loads_computad(text: str, bounds: Bounds | None = None) -> Computad:
    """Parse the text format. Only syntax, dimensions, names and duplicates
    are checked here; `free_algebra` certifies the attachments. `bounds` is
    unused, kept for callers that still pass it."""
    dim = None
    layers: list[list] = []
    gen_dims: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("dim"):
            if dim is not None:
                raise ComputadError(f"line {lineno}: repeated dim declaration")
            dim = parse_natural(line[3:].strip(), "dim", lineno, ComputadError)
            layers = [[] for _ in range(dim + 1)]
            continue
        if dim is None:
            raise ComputadError(f"line {lineno}: missing dim declaration")
        head, sep, rest = line.partition(":")
        parts = head.split()
        if len(parts) != 2:
            raise ComputadError(f"line {lineno}: expected '<dim> <name> [: src => tgt]'")
        r = parse_natural(parts[0], "generator dimension", lineno, ComputadError)
        name = parts[1]
        if r > dim:
            raise ComputadError(f"line {lineno}: generator dimension {r} above dim {dim}")
        gen_dims[name] = r
        if r == 0:
            if sep:
                raise ComputadError(f"line {lineno}: 0-generators take no attachment")
            layers[0].append(name)
            continue
        if "=>" not in rest:
            raise ComputadError(f"line {lineno}: generator of dim {r} needs 'src => tgt'")
        s_str, t_str = rest.split("=>", 1)
        try:
            s = freecat.term_from_str(s_str, gen_dims)
            t = freecat.term_from_str(t_str, gen_dims)
        except freecat.FreecatError as exc:
            raise ComputadError(f"line {lineno}: {exc}") from None
        layers[r].append((name, s, t))
    if dim is None:
        raise ComputadError("missing dim declaration")
    return build_computad(layers)


def dumps_computad(c: Computad) -> str:
    lines = [f"dim {c.dim}"]
    for r in range(c.dim + 1):
        for decl in c.layers[r]:
            if r == 0:
                lines.append(f"0 {decl.name}")
            else:
                lines.append(f"{r} {decl.name} : {term_to_str(decl.src)}"
                             f" => {term_to_str(decl.tgt)}")
    return "\n".join(lines) + "\n"
