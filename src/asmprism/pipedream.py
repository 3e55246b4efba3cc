"""The square word, plus diagrams, facets, Schubert polynomials, and the
weight-preserving map from prism tableaux to plus diagrams.

The square word on the n-by-n grid assigns the letter s_{i+j-1} to cell
(i, j); its reading order runs along rows top to bottom, right to left
within each row.  A plus diagram is a subset of the grid, identified with
the subword supported on its cells.  As a facet of a subword complex, a
plus diagram P stands for the complement Q - P, so containment of facets
reverses containment of diagrams.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import Monomial, Polynomial, poly_from_monomials
from .asm import Asm, Cell
from .perm import Perm, asm_from_shape_tuple, demazure_product, min_perm_set, perm_set, shortest
from .prism import (
    PrismShapeSpec,
    PrismTableau,
    Rssyt,
    has_unstable_triple,
    phi_cells,
    phi_fibers,
    prism_set,
)


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

    def row_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for (i, _) in self.cells:
            counts[i] = counts.get(i, 0) + 1
        return counts

    def weight(self) -> Monomial:
        """prod x_i^(number of pluses in row i)."""
        return Monomial.from_powers(self.row_counts())

    def complement_cells(self) -> frozenset[Cell]:
        """The facet Q - P of the subword complex that P stands for."""
        grid = {(i, j) for i in range(1, self.n + 1) for j in range(1, self.n + 1)}
        return frozenset(grid - self.cells)

    def render(self) -> str:
        return "\n".join(
            "".join("+" if (i, j) in self.cells else "." for j in range(1, self.n + 1))
            for i in range(1, self.n + 1)
        )


@dataclass(frozen=True)
class SquareWord:
    """The fixed word s_n ... s_1 s_{n+1} ... s_2 ... s_{2n-1} ... s_n with
    its grid identification."""

    n: int
    letters: tuple[int, ...] = field(init=False)
    reading_cells: tuple[Cell, ...] = field(init=False)

    def __post_init__(self) -> None:
        cells = tuple((i, j) for i in range(1, self.n + 1) for j in range(self.n, 0, -1))
        object.__setattr__(self, "reading_cells", cells)
        object.__setattr__(self, "letters", tuple(i + j - 1 for (i, j) in cells))


@lru_cache(maxsize=None)
def square_word(n: int) -> SquareWord:
    if n < 1:
        raise ValueError("n must be positive")
    return SquareWord(n)


def diagram_word(p: PlusDiagram) -> tuple[int, ...]:
    """Letters of P in square-word reading order."""
    sw = square_word(p.n)
    return tuple(s for cell, s in zip(sw.reading_cells, sw.letters) if cell in p.cells)


def diagram_demazure(p: PlusDiagram) -> Perm:
    """Demazure product of the subword supported on P."""
    return demazure_product(diagram_word(p))


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


def divided_difference(p: Polynomial, i: int) -> Polynomial:
    """(p - s_i p) / (x_i - x_{i+1}), computed exactly term by term."""
    out: dict[Monomial, int] = {}

    def bump(m: Monomial, c: int) -> None:
        if c:
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                del out[m]

    for m, c in p.terms.items():
        a, b = m.exponent(i), m.exponent(i + 1)
        if a == b:
            continue
        sign = 1 if a > b else -1
        lo, hi = min(a, b), max(a, b)
        exps = list(m.exponents) + [0] * (max(i + 1, len(m.exponents)) - len(m.exponents))
        for t in range(hi - lo):
            exps[i - 1] = lo + t
            exps[i] = hi - 1 - t
            bump(Monomial(tuple(exps)), sign * c)
    return Polynomial(out)


@lru_cache(maxsize=None)
def _schubert_by_descent(line: tuple[int, ...]) -> Polynomial:
    n = len(line)
    staircase = tuple(range(n, 0, -1))
    if line == staircase:
        return Polynomial.from_monomial(Monomial(tuple(n - i for i in range(1, n + 1))))
    i = next(k for k in range(1, n) if line[k - 1] < line[k])
    longer = list(line)
    longer[i - 1], longer[i] = longer[i], longer[i - 1]
    return divided_difference(_schubert_by_descent(tuple(longer)), i)


def schubert_oracle(w: Perm) -> Polynomial:
    """Independent route: divided differences down from the staircase
    monomial of the longest element."""
    n = max(w.size, 1)
    return _schubert_by_descent(w.padded(n))


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


def verify_bijection(spec: PrismShapeSpec) -> BijectionReport:
    """Check, exhaustively over the prism tableaux that phi maps onto a
    facet of Delta(Q, A):

    (a) every facet of Delta(Q, A) is the image of some prism tableau;
    (b) each facet fiber contains exactly one tableau with no unstable
        triples, and it is the entrywise maximum of the fiber, so those
        tableaux biject with the facets;
    (c) the minimal stable tableaux biject with the maximal-dimension
        facets.

    phi preserves weights by construction: a prism weight is the row-count
    weight of the tableau's phi image.
    """
    a = asm_from_shape_tuple(spec.lambdas, spec.ds)
    dreams = {w: pipe_dreams_of(w, a.n) for w in perm_set(a)}
    facet_cells = {p.cells for ps in dreams.values() for p in ps}
    fmax_cells = {p.cells for w in shortest(dreams.keys()) for p in dreams[w]}
    all_prism, fibers = phi_fibers(spec, facet_cells)

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
        stable = [t for t in fib if not has_unstable_triple(t)]
        stable_count += len(stable)
        if len(stable) != 1:
            fiber_ok = False
            fail(f"facet {sorted(cells)} has {len(stable)} stable tableaux in its fiber")
            continue
        maxi = _fiber_max(fib)
        if maxi is None or maxi != stable[0]:
            fiber_ok = False
            fail(f"stable tableau in fiber of {sorted(cells)} is not the fiber maximum")
    checks["unique_stable_per_fiber"] = fiber_ok

    prism = prism_set(spec)
    prism_images = {phi_cells(t) for t in prism}
    dmatch = prism_images == fmax_cells and len(prism) == len(fmax_cells)
    if not dmatch:
        fail("prism set does not biject with the maximal-dimension facets")
    checks["prism_matches_fmax"] = dmatch

    counts = {
        "all_prism": all_prism,
        "facets": len(facet_cells),
        "fmax": len(fmax_cells),
        "stable_facet": stable_count,
        "prism": len(prism),
    }
    return BijectionReport(all(checks.values()), checks, counts, failure)


def _fiber_max(fib: Sequence[PrismTableau]) -> PrismTableau | None:
    """Entrywise maximum of a fiber, if it lies in the fiber."""
    best = fib[0]
    spec = best.spec
    rows_max = [
        [list(row) for row in comp.rows] for comp in best.components
    ]
    for t in fib[1:]:
        for c, comp in enumerate(t.components):
            for qi, row in enumerate(comp.rows):
                for bi, v in enumerate(row):
                    rows_max[c][qi][bi] = max(rows_max[c][qi][bi], v)
    try:
        candidate = PrismTableau(
            spec,
            tuple(
                Rssyt(spec.lambdas[c], spec.ds[c], tuple(tuple(r) for r in rows_max[c]))
                for c in range(spec.k)
            ),
        )
    except ValueError:
        return None
    return candidate if candidate in fib else None
