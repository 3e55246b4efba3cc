"""Plus diagrams, facets, Schubert polynomials, and the weight-preserving
map from prism tableaux to plus diagrams.

The square word on the n-by-n grid assigns the letter s_{i+j-1} to cell
(i, j); its reading order runs along rows top to bottom, right to left
within each row.  A plus diagram is a subset of the grid, identified with
the subword supported on its cells.  As a facet of a subword complex, a
plus diagram P stands for the complement Q - P, so containment of facets
reverses containment of diagrams.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from functools import lru_cache

from .algebra import Polynomial, grid_cells, grid_set, grid_weight_sum
from .asm import Asm, Cell, _trusted_asm
from .perm import Perm, asm_from_shape_tuple, min_perm_set, perm_set
from .prism import PrismShapeSpec, PrismTableau, _as_filling, _Fillings


@dataclass(frozen=True)
class PlusDiagram:
    """A set of marked cells in the n-by-n grid."""

    n: int
    cells: frozenset[Cell]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", frozenset((int(i), int(j)) for i, j in self.cells))
        for (i, j) in self.cells:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"cell ({i},{j}) outside the {self.n}x{self.n} grid")

    @classmethod
    def _of_mask(cls, mask: int, n: int) -> PlusDiagram:
        """Trusted: the diagram of an n-by-n grid mask, whose decoded cells
        are int pairs inside the grid, so they skip the checks."""
        p = cls.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "cells", grid_cells(mask, n))
        return p

    def complement_cells(self) -> frozenset[Cell]:
        """The facet Q - P of the subword complex that P stands for."""
        return grid_set(self.n) - self.cells

    def render(self) -> str:
        return "\n".join(
            "".join("+" if (i, j) in self.cells else "." for j in range(1, self.n + 1))
            for i in range(1, self.n + 1)
        )


def _bottom_mask(w: Perm, n: int) -> int:
    """The bottom pipe dream of w as a grid mask (see ``algebra``):
    code(w)_i left-justified pluses in row i."""
    if w.size > n:
        raise ValueError(f"{w} does not fit in the {n}x{n} grid")
    mask = 0
    for i, code in enumerate(w.code()):
        mask |= ((1 << code) - 1) << i * n
    return mask


def _pipe_dream_masks(w: Perm, n: int) -> set[int]:
    """The ladder-move closure of the bottom pipe dream, on grid masks.  A
    ladder move slides the plus at bit b, whose right neighbour b + 1 is
    empty, past k - 1 fully doubled rows above it into the empty pair of
    cells at b - k*n, b - k*n + 1: it clears bit b and sets b - k*n + 1.
    Every plus lies in the staircase i + j <= n, and a move keeps it
    there, so b + 1 is always in the plus's own row."""
    bottom = _bottom_mask(w, n)
    seen = {bottom}
    stack = [bottom]
    while stack:
        cur = stack.pop()
        rest = cur
        while rest:
            plus = rest & -rest
            rest ^= plus
            if cur & plus << 1:
                continue
            left = plus >> n
            while left:
                pair = left | left << 1
                above = cur & pair
                if not above:
                    nxt = (cur ^ plus) | left << 1
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
                    break
                if above != pair:
                    break
                left >>= n
    return seen


def pipe_dreams_of(w: Perm, n: int) -> frozenset[PlusDiagram]:
    """All plus diagrams whose word is a reduced expression for w, computed
    as the ladder-move closure of the bottom pipe dream."""
    return frozenset(PlusDiagram._of_mask(m, n) for m in _pipe_dream_masks(w, n))


def schubert_polynomial(w: Perm, n: int | None = None) -> Polynomial:
    """Pipe-dream formula: sum of row-count monomials over pipe dreams.
    A given n only checks that w fits in S_n.

    The sum is kept per process, keyed on w's one-line word: a reduced
    word of w in S_k uses only s_1..s_{k-1}, so its pipe dreams lie in the
    k-by-k staircase at any width, and ASMs share most of their minimal
    permutations.  All of S_7 holds about 16 MB."""
    if n is not None and w.size > n:
        raise ValueError(f"{w} does not fit in the {n}x{n} grid")
    return _schubert(w.one_line)


@lru_cache(maxsize=None)
def _schubert(line: tuple[int, ...]) -> Polynomial:
    n = max(len(line), 1)
    return grid_weight_sum(_pipe_dream_masks(Perm(line), n), n)


def min_perm_schubert_sum(a: Asm) -> Polynomial:
    """The sum of the Schubert polynomials of MinPerm(A)."""
    return sum((schubert_polynomial(w, a.n) for w in min_perm_set(a)), Polynomial.zero())


def _facet_masks(a: Asm) -> frozenset[int]:
    """The facets of Delta(Q_{n x n}, A) as the grid masks of their plus
    diagrams: the pipe dreams of the minimal permutations above A.  The
    union over Perm(A) is disjoint.

    The set of the last ASM asked for is kept, so ``verify bijection``,
    which asks for it once per model, walks Perm(A) once.  The key is the
    size and the packed corner sums, not the Asm: A and its embedding in a
    larger grid are equal as ASMs, but their masks sit on grids of
    different widths."""
    return _facet_masks_of(a.n, a._sums)


@lru_cache(maxsize=1)
def _facet_masks_of(n: int, sums: int) -> frozenset[int]:
    return frozenset(m for w in perm_set(_trusted_asm(n, sums)) for m in _pipe_dream_masks(w, n))


def _fewest(masks: Set[int]) -> set[int]:
    """The masks with the fewest pluses: of the facets, the pipe dreams of
    MinPerm(A), since a reduced pipe dream of w has l(w) pluses."""
    fewest = min(map(int.bit_count, masks))
    return {m for m in masks if m.bit_count() == fewest}


def delta_facets(a: Asm) -> frozenset[PlusDiagram]:
    """Facets of Delta(Q_{n x n}, A), each given by its plus diagram: pipe
    dreams of the minimal permutations above A."""
    return frozenset(PlusDiagram._of_mask(m, a.n) for m in _facet_masks(a))


def delta_fmax(a: Asm) -> frozenset[PlusDiagram]:
    """The maximal-dimension facets, which ``verify_bijection`` reads: the fewest pluses."""
    return frozenset(PlusDiagram._of_mask(m, a.n) for m in _fewest(_facet_masks(a)))


def phi(t: PrismTableau) -> PlusDiagram:
    """The overlay map: a label v in grid cell (a, b) places a plus at
    (v, a + b - v), and the components are unioned, so each plus is one
    (label, antidiagonal) pair of t.  The union is an in-grid mask (see
    ``prism._entry``)."""
    return PlusDiagram._of_mask(_as_filling(t)[1], t.spec.ambient_size)


@dataclass
class BijectionReport:
    """Outcome of the facet/prism bijection checks for one shape tuple, with
    the A_{lambda, d} they ran on and the first check that failed, if any."""

    counts: dict[str, int]
    asm: Asm
    failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None


def verify_bijection(spec: PrismShapeSpec) -> BijectionReport:
    """Check, exhaustively over the prism tableaux that phi maps onto a
    facet of Delta(Q, A):

    (a) every facet of Delta(Q, A) is the image of some prism tableau;
    (b) each facet fiber contains exactly one tableau with no unstable
        triples, and its labels are the fieldwise maximum of the fiber's
        labels, so it is the fiber's entrywise maximum, and those tableaux
        biject with the facets;
    (c) the minimal stable tableaux biject with the maximal-dimension
        facets.

    phi preserves weights by construction: a prism weight is the row-count
    weight of the tableau's phi image.

    A is A_{lambda, d}, rebuilt from the spec at its ambient size, so the
    facets and the fillings share one grid; the report carries it.
    """
    a = asm_from_shape_tuple(spec)
    facets = _facet_masks(a)
    fmax = _fewest(facets)
    fillings = _Fillings(spec)
    tops, stables = fillings.fibers(facets)

    failure: str | None = None
    for mask in facets:
        stable = stables.get(mask, ())
        if failure or stable == (tops.get(mask),):
            continue
        pluses = sorted(grid_cells(mask, a.n))
        if mask not in tops:
            failure = f"facet with pluses {pluses} has empty fiber"
        elif len(stable) != 1:
            failure = f"facet {pluses} has {len(stable)} stable tableaux in its fiber"
        else:
            failure = f"stable tableau in fiber of {pluses} is not the fiber maximum"

    prism = fillings.prism()
    if not failure and ({union for _, union in prism} != fmax or len(prism) != len(fmax)):
        failure = "prism set does not biject with the maximal-dimension facets"

    counts = {
        "all_prism": fillings.count(),
        "facets": len(facets),
        "fmax": len(fmax),
        "stable_facet": sum(map(len, stables.values())),
        "prism": len(prism),
    }
    return BijectionReport(counts, a, failure)
