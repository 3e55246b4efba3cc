"""ASM determinantal ideals, combinatorially.

The ideal of an ASM is generated by the (r_A(i,j)+1)-minors of the
northwest (i, j) blocks of a generic matrix; the essential cells suffice.
Under any antidiagonal term order the lead term of a minor is the product
of its antidiagonal, so the initial ideal is square-free and each of its
generators is carried as its support, a set of grid cells.  Its
Stanley-Reisner facets are complements of minimal hitting sets of those
supports.  The supports and the hitting-set search run on grid masks
(see ``algebra``); the public functions decode each result once.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

from .algebra import Polynomial, grid_cells, grid_weight_sum
from .asm import Asm, Cell, rank_conditions


@dataclass(frozen=True)
class SRComplexFacets:
    """Facets (maximal faces) of a Stanley-Reisner complex on the grid."""

    n: int
    facets: frozenset[frozenset[Cell]]


@lru_cache(maxsize=None)
def _antidiagonals(i: int, j: int, r: int, n: int) -> frozenset[int]:
    """The supports of the (r+1)-minors of Z_{[i],[j]} as n-by-n grid
    masks: a minor's lead term is its antidiagonal, read straight off its
    rows and columns.  Kept per process, as they do not depend on the ASM
    whose rank condition (i, j, r) asks for them.  Ess(A) lies off the last
    row and column, so at n = 7 there are at most 91 keys."""
    return frozenset(
        sum(1 << row + col for row, col in zip(rows, reversed(cols)))
        for rows in itertools.combinations(range(0, i * n, n), r + 1)
        for cols in itertools.combinations(range(j), r + 1)
    )


def _initial_masks(a: Asm) -> list[int]:
    """The initial ideal's minimal supports as grid masks (see ``algebra``),
    in order of size: the antidiagonals of the rank conditions (i, j, r)
    of A, which give the generators of I_A, the (r+1)-minors of
    Z_{[i],[j]}.  A condition's supports all have r + 1 cells, and two of
    one size nest only when equal, so size by size, smallest first, a
    support is kept unless a kept one of fewer cells lies inside it."""
    n = a.n
    by_size: dict[int, set[int]] = {}
    for i, j, r in rank_conditions(a):
        by_size.setdefault(r + 1, set()).update(_antidiagonals(i, j, r, n))
    kept: list[int] = []
    for size in sorted(by_size):
        kept += [s for s in by_size[size] if not any(h & s == h for h in kept)]
    return kept


def initial_ideal(a: Asm) -> frozenset[frozenset[Cell]]:
    """Minimal generators of the antidiagonal initial ideal of I_A, each a
    square-free monomial given by its support."""
    return frozenset(grid_cells(s, a.n) for s in _initial_masks(a))


def _hitting_masks(supports: Iterable[int], smallest: bool = False) -> list[int]:
    """All inclusion-minimal masks meeting every support mask, or with
    ``smallest`` only those of the fewest cells, by exclusion branching
    on the first unhit support: branch k takes its k-th allowed vertex,
    lowest bit first, and bans the earlier ones, so each minimal set is
    reached once.  A leaf is kept when every chosen vertex has a private
    support: one pass over the supports collects the vertex of each
    support hit once.

    With ``smallest``, a branch stops once it would hold more cells than
    the smallest leaf found so far, and the leaves of the least size are
    kept without the private-vertex test: a hitting set of the fewest
    cells has no hitting proper subset."""
    edges = sorted(set(supports), key=lambda e: (e.bit_count(), e))
    if edges and not edges[0]:
        raise ValueError("empty support cannot be hit")
    found: list[int] = []
    # the size of the smallest leaf so far; each step hits one more
    # support, so no leaf holds more than len(edges) cells
    best = len(edges) + 1

    def branch(chosen: int, size: int, banned: int, first: int) -> None:
        nonlocal best, found
        # supports before ``first`` are hit, and stay hit as chosen grows
        for k in range(first, len(edges)):
            e = edges[k]
            if not e & chosen:
                if size >= best:
                    return
                allowed = e & ~banned
                while allowed:
                    v = allowed & -allowed
                    branch(chosen | v, size + 1, banned, k + 1)
                    banned |= v
                    allowed ^= v
                return
        if smallest:
            if size < best:
                best, found = size, []
            found.append(chosen)
            return
        private = 0
        for e in edges:
            hit = e & chosen
            if not hit & (hit - 1):
                private |= hit
        if private == chosen:
            found.append(chosen)

    branch(0, 0, 0, 0)
    return found


def stanley_reisner_facets(supports: Iterable[frozenset[Cell]], n: int) -> SRComplexFacets:
    """Facets of the complex whose non-faces are the generator supports:
    complements in the n-by-n grid of the minimal hitting sets."""
    grid = frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    masks = []
    for s in supports:
        if not s <= grid:
            raise ValueError(f"generator support {sorted(s)} leaves the {n}x{n} grid")
        masks.append(sum(1 << (i - 1) * n + j - 1 for i, j in s))
    return SRComplexFacets(n, frozenset(grid - grid_cells(h, n) for h in _hitting_masks(masks)))


def multidegree(a: Asm) -> Polynomial:
    """Multidegree of the ASM variety under the row grading d(z_ij) = x_i:
    the sum, over the minimum-size minimal hitting sets of the initial
    ideal's supports, of the product of x_i over their cells.  Those sets
    are the complements of the maximal-dimension Stanley-Reisner facets."""
    return grid_weight_sum(_hitting_masks(_initial_masks(a), smallest=True), a.n)
