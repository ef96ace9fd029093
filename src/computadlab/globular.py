"""Finite globular sets: graded cell sets with source/target maps.

A globular set of dimension n has cell sets in dimensions 0..n and total
src/tgt maps one dimension down, subject to the globularity identities
src(src(x)) = src(tgt(x)) and tgt(src(x)) = tgt(tgt(x)) for dim >= 2.
Everything here is finite and materialized; values are immutable after
construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class GlobularError(Exception):
    pass


@dataclass
class GlobularSet:
    dim: int
    cells: list[list[str]]
    # src[r], tgt[r] defined for r >= 1; index 0 kept as an empty dict
    src: list[dict[str, str]] = field(default_factory=list)
    tgt: list[dict[str, str]] = field(default_factory=list)

    def __post_init__(self):
        while len(self.src) <= self.dim:
            self.src.append({})
        while len(self.tgt) <= self.dim:
            self.tgt.append({})


@dataclass(frozen=True)
class ParallelPair:
    """Two r-cells with equal sources and equal targets (any pair at r = 0)."""

    dim: int
    left: str
    right: str


def find_violation(g: GlobularSet) -> str | None:
    """Return a description of the first defect, or None if g is valid."""
    if g.dim < 0 or len(g.cells) != g.dim + 1:
        return f"expected {g.dim + 1} cell levels, got {len(g.cells)}"
    seen: set[str] = set()
    for r in range(g.dim + 1):
        for x in g.cells[r]:
            if x in seen:
                return f"duplicate cell identifier {x!r}"
            seen.add(x)
    for r in range(1, g.dim + 1):
        lower = set(g.cells[r - 1])
        for x in g.cells[r]:
            if x not in g.src[r]:
                return f"dim {r}: src undefined on {x!r}"
            if x not in g.tgt[r]:
                return f"dim {r}: tgt undefined on {x!r}"
            if g.src[r][x] not in lower:
                return f"dim {r}: src of {x!r} is not a {r - 1}-cell"
            if g.tgt[r][x] not in lower:
                return f"dim {r}: tgt of {x!r} is not a {r - 1}-cell"
    for r in range(2, g.dim + 1):
        for x in g.cells[r]:
            s, t = g.src[r][x], g.tgt[r][x]
            if g.src[r - 1][s] != g.src[r - 1][t]:
                return f"dim {r}: cell {x!r} breaks src.src = src.tgt"
            if g.tgt[r - 1][s] != g.tgt[r - 1][t]:
                return f"dim {r}: cell {x!r} breaks tgt.src = tgt.tgt"
    return None


def validate(g: GlobularSet) -> bool:
    return find_violation(g) is None


def _checked(g: GlobularSet) -> GlobularSet:
    bad = find_violation(g)
    if bad is not None:
        raise GlobularError(bad)
    return g


def make_globular(dim: int, cells, src=None, tgt=None) -> GlobularSet:
    """Build and validate a globular set from plain lists/dicts."""
    g = GlobularSet(
        dim=dim,
        cells=[list(level) for level in cells],
        src=[dict(d) for d in (src or [])],
        tgt=[dict(d) for d in (tgt or [])],
    )
    return _checked(g)


def terminal_globular(n: int) -> GlobularSet:
    cells = [[f"*{r}"] for r in range(n + 1)]
    src = [{} if r == 0 else {f"*{r}": f"*{r - 1}"} for r in range(n + 1)]
    tgt = [dict(d) for d in src]
    return GlobularSet(n, cells, src, tgt)


def truncate(g: GlobularSet, k: int) -> GlobularSet:
    if k > g.dim:
        raise GlobularError(f"cannot truncate dim {g.dim} to {k}")
    return GlobularSet(
        k,
        [list(level) for level in g.cells[: k + 1]],
        [dict(d) for d in g.src[: k + 1]],
        [dict(d) for d in g.tgt[: k + 1]],
    )


def parallel_pairs(g: GlobularSet, r: int) -> set[ParallelPair]:
    """All pairs of r-cells with equal sources and targets, diagonal included.

    At r = 0 every pair counts as parallel.
    """
    if r > g.dim:
        raise GlobularError(f"no cells in dimension {r}")
    out = set()
    for x in g.cells[r]:
        for y in g.cells[r]:
            if r == 0 or (g.src[r][x] == g.src[r][y] and g.tgt[r][x] == g.tgt[r][y]):
                out.add(ParallelPair(r, x, y))
    return out


@dataclass
class GlobMap:
    dom: GlobularSet
    cod: GlobularSet
    comp: list[dict[str, str]]  # per dimension

    def of(self, r: int, x: str) -> str:
        return self.comp[r][x]


def map_violation(m: GlobMap) -> str | None:
    if m.dom.dim != m.cod.dim:
        return "domain and codomain dimensions differ"
    if len(m.comp) != m.dom.dim + 1:
        return "missing component maps"
    for r in range(m.dom.dim + 1):
        cod_cells = set(m.cod.cells[r])
        for x in m.dom.cells[r]:
            if x not in m.comp[r]:
                return f"dim {r}: map undefined on {x!r}"
            if m.comp[r][x] not in cod_cells:
                return f"dim {r}: image of {x!r} is not a cell"
    for r in range(1, m.dom.dim + 1):
        for x in m.dom.cells[r]:
            if m.comp[r - 1][m.dom.src[r][x]] != m.cod.src[r][m.comp[r][x]]:
                return f"dim {r}: map does not commute with src on {x!r}"
            if m.comp[r - 1][m.dom.tgt[r][x]] != m.cod.tgt[r][m.comp[r][x]]:
                return f"dim {r}: map does not commute with tgt on {x!r}"
    return None


def make_map(dom: GlobularSet, cod: GlobularSet, comp) -> GlobMap:
    m = GlobMap(dom, cod, [dict(d) for d in comp])
    bad = map_violation(m)
    if bad is not None:
        raise GlobularError(bad)
    return m


def _pair(x: str, y: str) -> str:
    return f"({x}|{y})"


def pullback_glob(f: GlobMap, g: GlobMap) -> tuple[GlobularSet, GlobMap, GlobMap]:
    """Dimensionwise pullback of f and g over their common codomain."""
    if f.cod is not g.cod and (f.cod.cells != g.cod.cells or f.cod.src != g.cod.src
                               or f.cod.tgt != g.cod.tgt or f.cod.dim != g.cod.dim):
        raise GlobularError("pullback requires a common codomain")
    n = f.dom.dim
    cells: list[list[str]] = []
    pairs: list[list[tuple[str, str]]] = []
    for r in range(n + 1):
        level = [
            (x, y)
            for x in f.dom.cells[r]
            for y in g.dom.cells[r]
            if f.comp[r][x] == g.comp[r][y]
        ]
        pairs.append(level)
        cells.append([_pair(x, y) for x, y in level])
    src = [{}]
    tgt = [{}]
    for r in range(1, n + 1):
        src.append({_pair(x, y): _pair(f.dom.src[r][x], g.dom.src[r][y]) for x, y in pairs[r]})
        tgt.append({_pair(x, y): _pair(f.dom.tgt[r][x], g.dom.tgt[r][y]) for x, y in pairs[r]})
    p = _checked(GlobularSet(n, cells, src, tgt))
    proj1 = GlobMap(p, f.dom, [{_pair(x, y): x for x, y in pairs[r]} for r in range(n + 1)])
    proj2 = GlobMap(p, g.dom, [{_pair(x, y): y for x, y in pairs[r]} for r in range(n + 1)])
    return p, proj1, proj2
