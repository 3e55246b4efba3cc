"""Sparse multivariate polynomials with exact integer coefficients.

Variables are x1, x2, x3, ...; a monomial stores its exponent vector with
trailing zeros normalized away, so x1*x3 is ``Monomial((1, 0, 1))`` and the
constant monomial is ``Monomial(())``.  Coefficients are Python ints, so
nothing ever overflows.  All values are immutable and safe to share.

All three routes carry a set of cells of the n-by-n grid (a support, a pipe
dream, a phi image) as an int, with cell (i, j) at bit (i-1)*n + j-1, so row
i is the n-bit stretch at (i-1)*n; ``grid_cells`` decodes such a mask,
``_row_counts`` reads its row-count weight and ``grid_weight_sum`` sums it.
``grid_set`` is the whole grid as a set of cells, built once per width.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cache


class ZeroPolynomialError(ValueError):
    """Raised for operations undefined on the zero polynomial."""


@dataclass(frozen=True)
class Monomial:
    """A product of variable powers, as a normalized exponent tuple."""

    exponents: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        exps = tuple(self.exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        while exps and exps[-1] == 0:
            exps = exps[:-1]
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def one(cls) -> Monomial:
        return cls(())

    @classmethod
    def variable(cls, i: int, power: int = 1) -> Monomial:
        """The monomial x_i**power (i is 1-based)."""
        if i < 1:
            raise ValueError(f"variable index must be positive, got {i}")
        return cls((0,) * (i - 1) + (power,))

    @classmethod
    def from_powers(cls, powers: Mapping[int, int]) -> Monomial:
        """Build from a map {variable index: exponent}, 1-based indices."""
        if not powers:
            return cls(())
        width = max(powers)
        exps = [0] * width
        for i, e in powers.items():
            exps[i - 1] = e
        return cls(tuple(exps))

    @classmethod
    def counting(cls, indices: Iterable[int]) -> Monomial:
        """The row-count weight: x_i to the number of times i occurs in
        ``indices`` (1-based)."""
        return cls.from_powers(Counter(indices))

    @property
    def total_degree(self) -> int:
        return sum(self.exponents)

    def exponent(self, i: int) -> int:
        """Exponent of x_i (1-based); zero beyond the stored width."""
        return self.exponents[i - 1] if i <= len(self.exponents) else 0

    def __mul__(self, other: Monomial) -> Monomial:
        a, b = self.exponents, other.exponents
        if len(a) < len(b):
            a, b = b, a
        return Monomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def render(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents, start=1):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.render()


class Polynomial:
    """Finite map from monomials to nonzero integer coefficients.

    The terms are stored as a dict from normalized exponent tuples to
    coefficients; ``Monomial`` objects are built only when ``terms``,
    ``sorted_terms`` or ``render`` hands them out."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        cleaned = {}
        if terms:
            for m, c in terms.items():
                if not isinstance(m, Monomial):
                    raise TypeError(f"expected Monomial key, got {type(m).__name__}")
                if c:
                    cleaned[m.exponents] = c
        self._terms = cleaned

    @classmethod
    def _of_exponents(cls, terms: dict[tuple[int, ...], int]) -> Polynomial:
        """Trusted: ``terms`` maps normalized exponent tuples (no trailing
        zero) to nonzero coefficients, and the polynomial takes it over."""
        p = cls.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> Polynomial:
        return cls()

    @classmethod
    def one(cls) -> Polynomial:
        return cls({Monomial.one(): 1})

    @classmethod
    def from_monomial(cls, m: Monomial, coeff: int = 1) -> Polynomial:
        return cls({m: coeff})

    @property
    def terms(self) -> dict[Monomial, int]:
        return {Monomial(e): c for e, c in self._terms.items()}

    def coefficient(self, m: Monomial) -> int:
        return self._terms.get(m.exponents, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def min_total_degree(self) -> int:
        if not self._terms:
            raise ZeroPolynomialError("undefined degree: zero polynomial")
        return min(map(sum, self._terms))

    def __add__(self, other: Polynomial) -> Polynomial:
        merged = dict(self._terms)
        for e, c in other._terms.items():
            s = merged.get(e, 0) + c
            if s:
                merged[e] = s
            else:
                merged.pop(e, None)
        return Polynomial._of_exponents(merged)

    def __neg__(self) -> Polynomial:
        return Polynomial._of_exponents({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in graded lexicographic order, highest first."""
        ordered = sorted(self._terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)
        return [(Monomial(e), c) for e, c in ordered]

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            if not m.exponents:
                parts.append(str(c))
            elif c == 1:
                parts.append(m.render())
            else:
                parts.append(f"{c}*{m.render()}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


def poly_from_monomials(ms: Iterable[Monomial]) -> Polynomial:
    """Sum the monomials with multiplicity; coefficients count occurrences."""
    return Polynomial._of_exponents(dict(Counter(m.exponents for m in ms)))


@cache
def _grid(n: int) -> tuple[tuple[int, int], ...]:
    """The cells of the n-by-n grid in bit order."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1))


@cache
def grid_set(n: int) -> frozenset[tuple[int, int]]:
    """All cells of the n-by-n grid, kept per width for the complements
    that the facet routes take."""
    return frozenset(_grid(n))


def grid_cells(mask: int, n: int) -> frozenset[tuple[int, int]]:
    """The cells (i, j) of an n-by-n grid mask, one per set bit."""
    grid = _grid(n)
    cells = []
    while mask:
        low = mask & -mask
        cells.append(grid[low.bit_length() - 1])
        mask ^= low
    return frozenset(cells)


def _row_counts(mask: int, n: int) -> tuple[int, ...]:
    """The number of cells of an n-by-n grid mask in each row, up to its
    last nonempty row: the popcount of each row's n-bit stretch, as a
    normalized exponent tuple."""
    full = (1 << n) - 1
    counts = []
    while mask:
        counts.append((mask & full).bit_count())
        mask >>= n
    return tuple(counts)


def grid_weight_sum(masks: Iterable[int], n: int) -> Polynomial:
    """The sum of the row-count weights of n-by-n grid masks: each mask
    contributes x_i to the number of its cells in row i."""
    return Polynomial._of_exponents(dict(Counter(_row_counts(m, n) for m in masks)))
