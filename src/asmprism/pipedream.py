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

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .algebra import Monomial, Polynomial, poly_from_monomials
from .asm import Asm, Cell
from .perm import Perm, asm_from_shape_tuple, min_perm_set, perm_set
from .prism import PrismShapeSpec, PrismTableau, _cells, _Fillings, _unstable, phi_cells


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

    def sorted_cells(self) -> list[Cell]:
        return sorted(self.cells)

    def weight(self) -> Monomial:
        """prod x_i^(number of pluses in row i)."""
        return Monomial.counting(i for i, _ in self.cells)

    def complement_cells(self) -> frozenset[Cell]:
        """The facet Q - P of the subword complex that P stands for."""
        grid = {(i, j) for i in range(1, self.n + 1) for j in range(1, self.n + 1)}
        return frozenset(grid - self.cells)

    def render(self) -> str:
        return "\n".join(
            "".join("+" if (i, j) in self.cells else "." for j in range(1, self.n + 1))
            for i in range(1, self.n + 1)
        )


def bottom_pipe_dream(w: Perm, n: int) -> PlusDiagram:
    """Left-justified pluses: code(w)_i cells at the start of row i."""
    if w.size > n:
        raise ValueError(f"{w} does not fit in the {n}x{n} grid")
    line = w.padded(n)
    cells = set()
    for i in range(1, n + 1):
        c = sum(1 for j in range(i + 1, n + 1) if line[j - 1] < line[i - 1])
        for j in range(1, c + 1):
            cells.add((i, j))
    return PlusDiagram(n, frozenset(cells))


def _ladder_moves(cells: frozenset[Cell]) -> Iterator[frozenset[Cell]]:
    """All single ladder moves: slide the plus at (i, j) to (i-m, j+1) past a
    stack of fully doubled rows, landing in an empty pair of cells."""
    for (i, j) in cells:
        if (i, j + 1) in cells:
            continue
        m = 1
        while i - m >= 1:
            top_l = (i - m, j) in cells
            top_r = (i - m, j + 1) in cells
            if not top_l and not top_r:
                yield (cells - {(i, j)}) | {(i - m, j + 1)}
                break
            if top_l and top_r:
                m += 1
                continue
            break


def pipe_dreams_of(w: Perm, n: int) -> frozenset[PlusDiagram]:
    """All plus diagrams whose word is a reduced expression for w, computed
    as the ladder-move closure of the bottom pipe dream."""
    bottom = bottom_pipe_dream(w, n).cells
    seen = {bottom}
    stack = [bottom]
    while stack:
        cur = stack.pop()
        for nxt in _ladder_moves(cur):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(PlusDiagram(n, c) for c in seen)


def schubert_polynomial(w: Perm, n: int | None = None) -> Polynomial:
    """Pipe-dream formula: sum of row-count monomials over pipe dreams."""
    n = max(w.size, 1) if n is None else n
    return poly_from_monomials(p.weight() for p in pipe_dreams_of(w, n))


def min_perm_schubert_sum(a: Asm) -> Polynomial:
    """The sum of the Schubert polynomials of MinPerm(A)."""
    total = Polynomial.zero()
    for w in min_perm_set(a):
        total = total + schubert_polynomial(w, a.n)
    return total


def _pipe_dreams_over(perms: frozenset[Perm], n: int) -> frozenset[PlusDiagram]:
    return frozenset(p for w in perms for p in pipe_dreams_of(w, n))


def delta_facets(a: Asm) -> frozenset[PlusDiagram]:
    """Facets of Delta(Q_{n x n}, A), each given by its plus diagram: pipe
    dreams of the minimal permutations above A.  The union over Perm(A)
    is disjoint."""
    return _pipe_dreams_over(perm_set(a), a.n)


def delta_fmax(a: Asm) -> frozenset[PlusDiagram]:
    """The maximal-dimension facets: pipe dreams over MinPerm(A)."""
    return _pipe_dreams_over(min_perm_set(a), a.n)


def phi(t: PrismTableau) -> PlusDiagram:
    """The overlay map as a plus diagram (see prism.phi_cells)."""
    return PlusDiagram(t.spec.ambient_size, phi_cells(t))


@dataclass
class BijectionReport:
    """Outcome of the facet/prism bijection checks for one shape tuple."""

    passed: bool
    checks: dict[str, bool]
    counts: dict[str, int]
    failure: str | None = None

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        out = f"{status} ({counts})"
        if self.failure:
            out += f"\n  counterexample: {self.failure}"
        return out


def dominates_fiber(s: PrismTableau, fiber: Sequence[PrismTableau]) -> bool:
    """Is every entry of s at least the matching entry of every member of
    the fiber?  When s lies in the fiber, this says s is its entrywise
    maximum."""
    return all(
        x >= y
        for t in fiber
        for cs, ct in zip(s.components, t.components)
        for rs, rt in zip(cs.rows, ct.rows)
        for x, y in zip(rs, rt)
    )


def verify_bijection(spec: PrismShapeSpec, a: Asm | None = None) -> BijectionReport:
    """Check, exhaustively over the prism tableaux that phi maps onto a
    facet of Delta(Q, A):

    (a) every facet of Delta(Q, A) is the image of some prism tableau;
    (b) each facet fiber contains exactly one tableau with no unstable
        triples, and it dominates every member of the fiber entry by
        entry, so it is the fiber's entrywise maximum, and those tableaux
        biject with the facets;
    (c) the minimal stable tableaux biject with the maximal-dimension
        facets.

    phi preserves weights by construction: a prism weight is the row-count
    weight of the tableau's phi image.

    ``a`` is A_{lambda, d}, the ASM whose model the spec is; a caller that
    built the spec from A passes it, and otherwise it is rebuilt from the
    spec.
    """
    if a is None:
        a = asm_from_shape_tuple(spec.lambdas, spec.ds)
    facet_cells = {p.cells for p in delta_facets(a)}
    # a reduced pipe dream of w has l(w) pluses, so the pipe dreams of
    # MinPerm(A), the maximal-dimension facets, have the fewest
    fewest = min(map(len, facet_cells))
    fmax_cells = {c for c in facet_cells if len(c) == fewest}
    fillings = _Fillings(spec)
    fibers = fillings.fibers(facet_cells)

    checks: dict[str, bool] = {}
    failure: str | None = None

    def fail(msg: str) -> None:
        nonlocal failure
        if failure is None:
            failure = msg

    missing = [c for c in facet_cells if c not in fibers]
    checks["facets_covered"] = not missing
    if missing:
        fail(f"facet with pluses {sorted(missing[0])} has empty fiber")

    fiber_ok = True
    stable_count = 0
    for cells in facet_cells:
        fib = fibers.get(cells, [])
        stable = [f for f in fib if not _unstable(f)]
        stable_count += len(stable)
        if len(stable) != 1:
            fiber_ok = False
            fail(f"facet {sorted(cells)} has {len(stable)} stable tableaux in its fiber")
            continue
        if not dominates_fiber(fillings.tableau(stable[0]), [fillings.tableau(f) for f in fib]):
            fiber_ok = False
            fail(f"stable tableau in fiber of {sorted(cells)} is not the fiber maximum")
    checks["unique_stable_per_fiber"] = fiber_ok

    prism = fillings.prism()
    prism_images = {_cells(union, fillings.stride) for _, union in prism}
    dmatch = prism_images == fmax_cells and len(prism) == len(fmax_cells)
    if not dmatch:
        fail("prism set does not biject with the maximal-dimension facets")
    checks["prism_matches_fmax"] = dmatch

    counts = {
        "all_prism": fillings.count(),
        "facets": len(facet_cells),
        "fmax": len(fmax_cells),
        "stable_facet": stable_count,
        "prism": len(prism),
    }
    return BijectionReport(all(checks.values()), checks, counts, failure)
