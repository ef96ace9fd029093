"""Computads built dimension by dimension, and their free algebras.

A computad of dimension n declares generator sets per dimension; each
generator of dimension r >= 1 is attached to a parallel pair of cells of
the free algebra on the (r-1)-truncation. Attachments are written as
terms. `build_computad` and `loads_computad` only check the declarations'
shape; `free_algebra` certifies every attachment against the congruence
classes of the dimension below while it climbs, so checking a computad
and building its free algebra are one walk. The walk starts at dimension
0, whose engine holds the 0-generators over no level below, their
boundaries -1, so every level comes from one step. A computad carries no
bounds: they belong to the `FreeAlgebra` computed from it. The pullback of
two computad maps is built dimension by dimension on that same walk, or
refused with a `ComputadError` that names the generator pair it could not
attach.
A `ComputadMap` is one generator renaming, taken as given: generator names
are distinct across dimensions, so one dict covers every dimension. Nothing
here checks that it is total, keeps dimensions or respects attachments, a
check that only the test oracles run (`tests/oracles.py`).
The text format's `dim` and generator dimensions are read by
`freecat.natural`, within 0..MAX_DIM and 0..dim.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import freecat
from .freecat import (
    Bounds, Engine, Level, Term,
    class_in_level, natural, term_dim, term_to_str,
)


class ComputadError(Exception):
    pass


class NonParallelAttachment(ComputadError):
    def __init__(self, generator: str, reason: str):
        super().__init__(f"generator {generator!r}: {reason}")


@dataclass(frozen=True)
class GeneratorDecl:
    name: str
    src: Term | None = None  # None only in dimension 0
    tgt: Term | None = None


@dataclass
class Computad:
    dim: int
    layers: list[list[GeneratorDecl]]

    def names(self, r: int) -> list[str]:
        return [g.name for g in self.layers[r]]


@dataclass
class FreeAlgebra:
    """Per-dimension congruence engines and their frozen class tables."""

    computad: Computad
    bounds: Bounds
    levels: list[Level]
    engines: list[Engine]  # one per dimension, from 0

    @property
    def dim(self) -> int:
        return self.computad.dim

    def class_of_term(self, t: Term) -> int | None:
        return class_in_level(self.levels, t, term_dim(t))

    def enumerate_cells(self, r: int) -> list[tuple[str, tuple[str, ...]]]:
        """One (representative, multiset) row per r-class, read from the
        frozen level in its order. Above dimension 0, classes beyond the
        size bound (generators at size 0) are left out."""
        lv = self.levels[r]
        return [(rep, mset) for rep, mset in zip(lv.reps, lv.msets)
                if r == 0 or len(mset) <= self.bounds.size]

    @property
    def fixed_point(self) -> bool:
        return all(e.fixed_point for e in self.engines)

    @property
    def partial(self) -> bool:
        """True when the size bound cut a cell off in some dimension. A
        composite whose boundary would pass the bound below is not built, and
        the size cut of that lower dimension is what marks it."""
        return any(e.saw_size_cut for e in self.engines)

    def partiality_marker(self) -> str:
        return f"partial up to size {self.bounds.size}" if self.partial else "complete at this size"

    def soundness_report(self) -> dict[str, int]:
        return {k: sum(e.counters[k] for e in self.engines) for k in freecat.COUNTERS}


def _resolve_attachment(levels: list[Level], decl: GeneratorDecl, r: int) -> tuple[int, int]:
    """Certify a generator's attachment as a parallel pair of (r-1)-classes;
    a 0-generator's boundaries are -1."""
    if r == 0:
        return -1, -1
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
    lv = levels[r - 1]
    if lv.src[s] != lv.src[t] or lv.tgt[s] != lv.tgt[t]:
        raise NonParallelAttachment(
            decl.name, f"boundaries {lv.reps[s]} and {lv.reps[t]} are not parallel")
    return s, t


def _climb(fa: FreeAlgebra, layer: list[GeneratorDecl]) -> None:
    """Saturate one more dimension of `fa`, generated by `layer` over the
    levels already frozen. Levels below depend only on generators below, so
    the algebra of a truncation is an exact prefix of the whole one."""
    r = len(fa.levels)
    gens = [(decl.name, *_resolve_attachment(fa.levels, decl, r)) for decl in layer]
    engine = Engine(r, fa.levels, gens, fa.bounds)
    engine.saturate()
    fa.levels.append(engine.freeze())
    fa.engines.append(engine)


def free_algebra(c: Computad, bounds: Bounds = Bounds()) -> FreeAlgebra:
    """Free strict n-category on a computad, one saturated engine per
    dimension. The only certifier of attachments: each is resolved to a
    parallel pair of classes one dimension down, else `NonParallelAttachment`."""
    fa = FreeAlgebra(c, bounds, [], [])
    for layer in c.layers:
        _climb(fa, layer)
    return fa


def build_computad(layers) -> Computad:
    """Normalize layered generator declarations into a Computad.

    `layers[0]` is a list of names; `layers[r]` for r >= 1 is a list of
    (name, src_term, tgt_term) triples. Duplicate names raise
    `ComputadError`; the attachments are certified by `free_algebra`, not
    here.
    """
    norm: list[list[GeneratorDecl]] = []
    for r, layer in enumerate(layers):
        out = []
        for item in layer:
            if r == 0:
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
    rename: dict[str, str]  # generator name -> name, over every dimension


def induced_class_map(fa_dom: FreeAlgebra, fa_cod: FreeAlgebra,
                      m: ComputadMap, r: int) -> list[int | None]:
    """Action of the free functor on classes: push each representative term
    through the generator renaming and resolve it in the codomain."""
    return [fa_cod.class_of_term(freecat.rename_gens(t, m.rename))
            for t in fa_dom.levels[r].rep_terms]


# --- pullbacks of computads -----------------------------------------------------


@dataclass
class ComputadPullbackReport:
    computad: Computad
    proj1: ComputadMap
    proj2: ComputadMap
    free: FreeAlgebra  # the certified free algebra on `computad`
    free_dom: FreeAlgebra  # the free algebra on `f.dom` it used


def _pair_name(x: str, y: str) -> str:
    return f"({x}|{y})"


def pullback_computads(f: ComputadMap, g: ComputadMap,
                       bounds: Bounds = Bounds()) -> ComputadPullbackReport:
    """Dimensionwise pullback on generator sets with induced attachments.

    The induced attachment of a generator pair is a free cell of the
    pullback-so-far that maps to both constituents' attachments; of several,
    the first in class order is taken. When no such class exists the
    construction fails, and `ComputadError` names the pair. The pullback's
    free algebra is one climb: each layer is saturated once, in the pass
    that builds it, on top of the levels that resolved its attachments, and
    the last pass certifies the pullback computad. The report keeps that
    algebra, along with the free algebra on `f.dom` that the construction
    saturated.
    """
    if f.cod is not g.cod:
        raise ComputadError("pullback requires a common codomain")
    n = f.dom.dim
    fa_x = free_algebra(f.dom, bounds)
    fa_y = fa_x if g.dom is f.dom else free_algebra(g.dom, bounds)
    layers: list[list[GeneratorDecl]] = []
    p = Computad(n, layers)  # gains a layer on each pass of the loop
    proj1, proj2 = ComputadMap(p, f.dom, {}), ComputadMap(p, g.dom, {})
    fa = FreeAlgebra(p, bounds, [], [])
    for r in range(n + 1):
        pairs = [(dx, dy) for dx in f.dom.layers[r] for dy in g.dom.layers[r]
                 if f.rename[dx.name] == g.rename[dy.name]]
        names = [_pair_name(dx.name, dy.name) for dx, dy in pairs]
        if r == 0:
            decls = [GeneratorDecl(name) for name in names]
        else:
            lv = fa.levels[r - 1]
            # (image in X, image in Y) -> the first class over that pair
            over: dict = {}
            for c, key in enumerate(zip(induced_class_map(fa, fa_x, proj1, r - 1),
                                        induced_class_map(fa, fa_y, proj2, r - 1))):
                over.setdefault(key, c)
            decls = []
            for name, (dx, dy) in zip(names, pairs):
                sides = []
                for tx, ty in ((dx.src, dy.src), (dx.tgt, dy.tgt)):
                    c = over.get((fa_x.class_of_term(tx), fa_y.class_of_term(ty)))
                    if c is None:
                        raise ComputadError(f"dim {r}: no induced attachment for "
                                            f"({dx.name},{dy.name})")
                    sides.append(lv.rep_terms[c])
                decls.append(GeneratorDecl(name, *sides))
        _climb(fa, decls)
        layers.append(decls)
        proj1.rename.update({name: dx.name for name, (dx, _) in zip(names, pairs)})
        proj2.rename.update({name: dy.name for name, (_, dy) in zip(names, pairs)})
    return ComputadPullbackReport(p, proj1, proj2, fa, fa_x)


# --- text format ----------------------------------------------------------------
#
#   dim 2
#   0 p
#   2 alpha : id1(gen(p)) => id1(gen(p))
#
# One generator per line: '<dim> <name>' or '<dim> <name> : <src> => <tgt>'
# with boundary terms in the freecat syntax. '#' starts a comment.

# the largest `dim` a file may declare, since every layer up to `dim` is built
# and climbed: `free` on a file with one 0-generator takes 0.4 s at `dim 64`
# and 0.9 s at `dim 100` (2-core VM, Python 3.11)
MAX_DIM = 64


def loads_computad(text: str, bounds: Bounds | None = None) -> Computad:
    """Parse the text format. Only syntax, dimensions, names and duplicates
    are checked here; `free_algebra` certifies the attachments. `bounds` is
    unused; it stays because the benchmark's workloads still pass it."""
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
            if line[3:4] and not line[3].isspace():  # "dim2" is not "dim 2"
                raise ComputadError(f"line {lineno}: expected a space after dim")
            dim = natural(line[3:].strip(), MAX_DIM)
            if dim is None:
                raise ComputadError(f"line {lineno}: dim must be a number from 0 to "
                                    f"{MAX_DIM} in digits 0-9")
            layers = [[] for _ in range(dim + 1)]
            continue
        if dim is None:
            raise ComputadError(f"line {lineno}: missing dim declaration")
        head, sep, rest = line.partition(":")
        parts = head.split()
        if len(parts) != 2:
            raise ComputadError(f"line {lineno}: expected '<dim> <name> [: src => tgt]'")
        r, name = natural(parts[0], dim), parts[1]
        if r is None:
            raise ComputadError(f"line {lineno}: a generator's dimension must be a number "
                                f"from 0 to dim {dim} in digits 0-9")
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
