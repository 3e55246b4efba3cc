"""ASM determinantal ideals, combinatorially.

The ideal of an ASM is generated by the (r_A(i,j)+1)-minors of the
northwest (i, j) blocks of a generic matrix; the essential cells suffice.
Under any antidiagonal term order the lead term of a minor is the product
of its antidiagonal, so the initial ideal is square-free and each of its
generators is carried as its support, a set of grid cells.  Its
Stanley-Reisner facets are complements of minimal hitting sets of those
supports.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .algebra import Monomial, Polynomial, poly_from_monomials
from .asm import Asm, Cell, rank_conditions


@dataclass(frozen=True)
class SRComplexFacets:
    """Facets (maximal faces) of a Stanley-Reisner complex on the grid."""

    n: int
    facets: frozenset[frozenset[Cell]]


def initial_ideal(a: Asm) -> frozenset[frozenset[Cell]]:
    """Minimal generators of the antidiagonal initial ideal of I_A, each a
    square-free monomial given by its support.  The generators of I_A are
    the (r+1)-minors of Z_{[i],[j]} over the rank conditions (i, j, r);
    a minor's lead term is its antidiagonal, read straight off its rows
    and columns.  A support is kept unless a kept one lies inside it; in
    order of size, every smaller one is seen first."""
    supports = {
        frozenset(zip(rows, reversed(cols)))
        for i, j, r in rank_conditions(a)
        for rows in itertools.combinations(range(1, i + 1), r + 1)
        for cols in itertools.combinations(range(1, j + 1), r + 1)
    }
    kept: list[frozenset[Cell]] = []
    for s in sorted(supports, key=len):
        if not any(h <= s for h in kept):
            kept.append(s)
    return frozenset(kept)


def minimal_hitting_sets(supports: Iterable[frozenset[Cell]]) -> frozenset[frozenset[Cell]]:
    """All inclusion-minimal sets meeting every support, by exclusion
    branching on the first unhit support: branch k takes its k-th allowed
    vertex and bans the earlier ones, so each minimal set is reached once.
    A leaf is kept when every chosen vertex has a private support: one
    pass over the supports collects the vertex of each support hit once."""
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
        private: set[Cell] = set()
        for e in edges:
            hit = e & chosen
            if len(hit) == 1:
                private |= hit
        if len(private) == len(chosen):
            yield chosen

    return frozenset(branch(frozenset(), frozenset()))


def stanley_reisner_facets(supports: Iterable[frozenset[Cell]], n: int) -> SRComplexFacets:
    """Facets of the complex whose non-faces are the generator supports:
    complements in the n-by-n grid of the minimal hitting sets."""
    grid = frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    supports = list(supports)
    for s in supports:
        if not s <= grid:
            raise ValueError(f"generator support {sorted(s)} leaves the {n}x{n} grid")
    transversals = minimal_hitting_sets(supports)
    return SRComplexFacets(n, frozenset(grid - h for h in transversals))


def multidegree(a: Asm) -> Polynomial:
    """Multidegree of the ASM variety under the row grading d(z_ij) = x_i:
    the sum, over the minimum-size minimal hitting sets of the initial
    ideal's supports, of the product of x_i over their cells.  Those sets
    are the complements of the maximal-dimension Stanley-Reisner facets."""
    transversals = minimal_hitting_sets(initial_ideal(a))
    low = min(map(len, transversals))
    return poly_from_monomials(
        Monomial.counting(i for i, _ in h) for h in transversals if len(h) == low
    )
