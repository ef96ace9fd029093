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
