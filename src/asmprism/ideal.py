"""ASM determinantal ideals, combinatorially.

The ideal of an ASM is generated by the (r_A(i,j)+1)-minors of the
northwest (i, j) blocks of a generic matrix; the essential cells suffice.
Minors are carried as row/column index sets only.  Under any antidiagonal
term order the lead term of a minor is the product of its antidiagonal,
so the initial ideal is assembled directly from those square-free
supports and minimalized.  Its Stanley-Reisner facets are complements of
minimal hitting sets of the generator supports.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

from .algebra import Monomial, Polynomial, poly_from_monomials
from .asm import Asm, Cell, corner_sum, essential_set


@dataclass(frozen=True)
class MinorSpec:
    """A k-minor of the northwest block Z_{[i],[j]}, k = r_A(i,j) + 1."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    region: Cell

    def __post_init__(self) -> None:
        rows = tuple(sorted(self.rows))
        cols = tuple(sorted(self.cols))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if len(rows) != len(cols) or not rows:
            raise ValueError("minor needs equally many rows and columns, at least one")
        i, j = self.region
        if rows[-1] > i or cols[-1] > j:
            raise ValueError(f"minor {rows}x{cols} does not fit in the ({i},{j}) block")

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class SquareFreeMonomial:
    """A square-free monomial in the z variables, stored by its support."""

    support: frozenset[Cell]

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", frozenset((int(i), int(j)) for i, j in self.support))
        if not self.support:
            raise ValueError("empty support (unit monomial) is not allowed here")

    def divides(self, other: SquareFreeMonomial) -> bool:
        return self.support <= other.support

    def render(self) -> str:
        return "*".join(f"z[{i}][{j}]" for (i, j) in sorted(self.support))


@dataclass(frozen=True)
class SRComplexFacets:
    """Facets (maximal faces) of a Stanley-Reisner complex on the grid."""

    n: int
    facets: frozenset[frozenset[Cell]]

    def max_dimension_facets(self) -> frozenset[frozenset[Cell]]:
        top = max((len(f) for f in self.facets), default=0)
        return frozenset(f for f in self.facets if len(f) == top)


def _generators_at(a: Asm, cells: Iterable[Cell]) -> frozenset[MinorSpec]:
    r = corner_sum(a)
    out = set()
    for (i, j) in cells:
        k = r.value(i, j) + 1
        if k > min(i, j):
            continue
        for rows in itertools.combinations(range(1, i + 1), k):
            for cols in itertools.combinations(range(1, j + 1), k):
                out.add(MinorSpec(rows, cols, (i, j)))
    return frozenset(out)


def essential_generators(a: Asm) -> frozenset[MinorSpec]:
    """All (r_A(i,j)+1)-minors of Z_{[i],[j]} over the essential cells."""
    return _generators_at(a, sorted(essential_set(a)))


def defining_generators(a: Asm) -> frozenset[MinorSpec]:
    """The full generating set, one family per grid cell.  Cells whose rank
    bound is vacuous (r = min(i,j)) contribute nothing."""
    n = a.n
    return _generators_at(a, ((i, j) for i in range(1, n + 1) for j in range(1, n + 1)))


def antidiagonal_init(m: MinorSpec) -> SquareFreeMonomial:
    """Lead term under an antidiagonal order: smallest row with largest
    column."""
    k = m.size
    return SquareFreeMonomial(frozenset((m.rows[t], m.cols[k - 1 - t]) for t in range(k)))


def minimalize(gens: Iterable[SquareFreeMonomial]) -> frozenset[SquareFreeMonomial]:
    """Keep only divisibility-minimal generators (an antichain of supports)."""
    items = sorted(set(gens), key=lambda g: (len(g.support), sorted(g.support)))
    kept: list[SquareFreeMonomial] = []
    for g in items:
        if not any(h.divides(g) for h in kept):
            kept.append(g)
    return frozenset(kept)


def initial_ideal(a: Asm) -> frozenset[SquareFreeMonomial]:
    """Minimal generators of the antidiagonal initial ideal of I_A."""
    return minimalize(antidiagonal_init(g) for g in essential_generators(a))


def minimal_hitting_sets(supports: Iterable[frozenset[Cell]]) -> frozenset[frozenset[Cell]]:
    """All inclusion-minimal sets meeting every support, by branching on
    the first unhit support.  Leaves are kept only when every chosen
    vertex has a private support (the minimality certificate)."""
    edges = sorted({frozenset(s) for s in supports}, key=lambda e: (len(e), sorted(e)))
    if any(not e for e in edges):
        raise ValueError("empty support cannot be hit")
    # a support containing another is hit whenever the smaller one is
    edges = [e for e in edges if not any(f < e for f in edges)]
    found: set[frozenset[Cell]] = set()

    def minimal(chosen: frozenset[Cell]) -> bool:
        for v in chosen:
            if not any(e & chosen == {v} for e in edges):
                return False
        return True

    def branch(chosen: frozenset[Cell]) -> None:
        for e in edges:
            if not (e & chosen):
                for v in sorted(e):
                    branch(chosen | {v})
                return
        if minimal(chosen):
            found.add(chosen)

    branch(frozenset())
    return frozenset(found)


def stanley_reisner_facets(gens: Iterable[SquareFreeMonomial], n: int) -> SRComplexFacets:
    """Facets of the complex whose non-faces are the generator supports:
    complements in the n-by-n grid of the minimal hitting sets."""
    grid = frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    gens = list(gens)
    for g in gens:
        if not g.support <= grid:
            raise ValueError(f"generator {g.render()} leaves the {n}x{n} grid")
    if not gens:
        return SRComplexFacets(n, frozenset({grid}))
    transversals = minimal_hitting_sets(g.support for g in gens)
    return SRComplexFacets(n, frozenset(grid - h for h in transversals))


def multidegree(a: Asm) -> Polynomial:
    """Multidegree of the ASM variety under the row grading d(z_ij) = x_i:
    the sum over maximal-dimension Stanley-Reisner facets of the product
    of x_i over the complement cells."""
    facets = stanley_reisner_facets(initial_ideal(a), a.n)
    grid = frozenset((i, j) for i in range(1, a.n + 1) for j in range(1, a.n + 1))
    monomials = []
    for f in facets.max_dimension_facets():
        counts: dict[int, int] = {}
        for (i, _) in grid - f:
            counts[i] = counts.get(i, 0) + 1
        monomials.append(Monomial.from_powers(counts))
    return poly_from_monomials(monomials)
