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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .algebra import Monomial, Polynomial, poly_from_monomials
from .asm import Asm, Cell, rank_conditions


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


def essential_generators(a: Asm) -> frozenset[MinorSpec]:
    """All (r_A(i,j)+1)-minors of Z_{[i],[j]} over the essential cells."""
    return frozenset(
        MinorSpec(rows, cols, (i, j))
        for i, j, r in rank_conditions(a)
        for rows in itertools.combinations(range(1, i + 1), r + 1)
        for cols in itertools.combinations(range(1, j + 1), r + 1)
    )


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
    """All inclusion-minimal sets meeting every support, by exclusion
    branching on the first unhit support: branch k takes its k-th allowed
    vertex and bans the earlier ones, so each minimal set is reached once.
    A leaf is kept when every chosen vertex has a private support."""
    edges = sorted({frozenset(s) for s in supports}, key=lambda e: (len(e), sorted(e)))
    if any(not e for e in edges):
        raise ValueError("empty support cannot be hit")

    def branch(chosen: frozenset[Cell], banned: frozenset[Cell]) -> Iterator[frozenset[Cell]]:
        for e in edges:
            if not (e & chosen):
                for v in sorted(e - banned):
                    yield from branch(chosen | {v}, banned)
                    banned = banned | {v}
                return
        if all(any(e & chosen == {v} for e in edges) for v in chosen):
            yield chosen

    return frozenset(branch(frozenset(), frozenset()))


def stanley_reisner_facets(gens: Iterable[SquareFreeMonomial], n: int) -> SRComplexFacets:
    """Facets of the complex whose non-faces are the generator supports:
    complements in the n-by-n grid of the minimal hitting sets."""
    grid = frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    gens = list(gens)
    for g in gens:
        if not g.support <= grid:
            raise ValueError(f"generator {g.render()} leaves the {n}x{n} grid")
    transversals = minimal_hitting_sets(g.support for g in gens)
    return SRComplexFacets(n, frozenset(grid - h for h in transversals))


def multidegree(a: Asm) -> Polynomial:
    """Multidegree of the ASM variety under the row grading d(z_ij) = x_i:
    the sum, over the minimum-size minimal hitting sets of the initial
    ideal's supports, of the product of x_i over their cells.  Those sets
    are the complements of the maximal-dimension Stanley-Reisner facets."""
    transversals = minimal_hitting_sets(g.support for g in initial_ideal(a))
    low = min(map(len, transversals))
    return poly_from_monomials(
        Monomial.counting(i for i, _ in h) for h in transversals if len(h) == low
    )
