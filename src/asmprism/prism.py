"""Prism tableaux: reverse semistandard fillings overlaid on one grid.

Grid placement convention: a shape lam with depth d occupies the cells
{(a, b) : b <= lam_{d-a+1}}, i.e. the longest row lam_1 sits in grid row d
and successive rows stack upward, all left-justified.  Entries of one
color weakly decrease along rows (left to right) and strictly decrease up
each column (T1/T2), with labels drawn from {1, ..., d}.

A cell (a, b) lies on antidiagonal a + b - 1.  The weight of a prism
tableau is prod x_v^{n_v} where n_v counts the antidiagonals containing
the label v in any color; a label repeated across colors on one
antidiagonal counts once.  It is computed as the row-count weight of the
tableau's image under the overlay map phi (``phi_cells``), which has one
cell per (label, antidiagonal) pair.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass

from .algebra import Monomial, Polynomial, poly_from_monomials
from .asm import Asm, Cell, essential_set, lambda_row, rank_conditions

Partition = tuple[int, ...]


def partition(parts: Sequence[int]) -> Partition:
    """Normalize to a weakly decreasing tuple of positive parts."""
    ps = tuple(int(p) for p in parts)
    if any(p < 0 for p in ps):
        raise ValueError(f"negative part in {ps}")
    if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
        raise ValueError(f"parts must weakly decrease: {ps}")
    return tuple(p for p in ps if p)


def partition_leq(inner: Partition, outer: Partition) -> bool:
    """Containment of Young diagrams."""
    inner, outer = partition(inner), partition(outer)
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def rectangle(a: int, b: int) -> Partition:
    """The partition a x b: a rows of length b."""
    return (b,) * a if a and b else ()


@dataclass(frozen=True)
class PrismShapeSpec:
    """A tuple of shapes with depths, d_i >= length of lam^(i)."""

    lambdas: tuple[Partition, ...]
    ds: tuple[int, ...]

    def __post_init__(self) -> None:
        lams = tuple(partition(lam) for lam in self.lambdas)
        ds = tuple(int(d) for d in self.ds)
        if len(lams) != len(ds):
            raise ValueError(f"{len(lams)} shapes but {len(ds)} depths")
        for lam, d in zip(lams, ds):
            if d < 1:
                raise ValueError("depths must be positive")
            if len(lam) > d:
                raise ValueError(f"shape {lam} is longer than its depth {d}")
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "ds", ds)

    @property
    def k(self) -> int:
        return len(self.lambdas)

    @property
    def ambient_size(self) -> int:
        """Smallest n with every shape inside d_i x (n - d_i)."""
        return max([d + lam[0] for lam, d in zip(self.lambdas, self.ds) if lam], default=1)


@dataclass(frozen=True)
class Rssyt:
    """One reverse semistandard component.  ``rows`` lists the filling
    bottom row first: rows[0] fills lam_1 cells in grid row ``depth``."""

    shape: Partition
    depth: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        lam = partition(self.shape)
        object.__setattr__(self, "shape", lam)
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(lam) > self.depth:
            raise ValueError(f"shape {lam} deeper than depth {self.depth}")
        if len(rows) != len(lam):
            raise ValueError(f"expected {len(lam)} filled rows, got {len(rows)}")
        for q, row in enumerate(rows):
            if len(row) != lam[q]:
                raise ValueError(f"row {q + 1} has {len(row)} entries, expected {lam[q]}")
            for b, v in enumerate(row):
                if not 1 <= v <= self.depth:
                    raise ValueError(f"label {v} outside 1..{self.depth}")
                if b and row[b - 1] < v:
                    raise ValueError("rows must weakly decrease left to right")
                if q and rows[q - 1][b] <= v:
                    raise ValueError("columns must strictly decrease bottom to top")

    def grid_row(self, q: int) -> int:
        """Grid row of 1-based filling row q (row 1 is the bottom row)."""
        return self.depth - q + 1

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """Yield (grid row, grid column, value)."""
        for q, row in enumerate(self.rows, start=1):
            a = self.grid_row(q)
            for b, v in enumerate(row, start=1):
                yield a, b, v


def enumerate_rssyt(lam: Sequence[int], d: int) -> Iterator[Rssyt]:
    """All reverse semistandard fillings of lam with labels in [d]."""
    lam = partition(lam)
    if len(lam) > d:
        raise ValueError(f"shape {lam} needs depth >= {len(lam)}, got {d}")
    if not lam:
        yield Rssyt((), d, ())
        return

    rows: list[list[int]] = []

    def fill_row(q: int) -> Iterator[Rssyt]:
        if q == len(lam):
            yield Rssyt(lam, d, tuple(tuple(r) for r in rows))
            return
        width = lam[q]

        def place(b: int, acc: list[int]) -> Iterator[Rssyt]:
            if b == width:
                rows.append(list(acc))
                yield from fill_row(q + 1)
                rows.pop()
                return
            hi = d if not acc else acc[-1]
            if q:
                hi = min(hi, rows[q - 1][b] - 1)
            for v in range(1, hi + 1):
                acc.append(v)
                yield from place(b + 1, acc)
                acc.pop()

        yield from place(0, [])

    yield from fill_row(0)


@dataclass(frozen=True)
class PrismTableau:
    """A filling of the overlaid prism shape: one Rssyt per component."""

    spec: PrismShapeSpec
    components: tuple[Rssyt, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.spec.k:
            raise ValueError(f"expected {self.spec.k} components, got {len(self.components)}")
        for c, t in enumerate(self.components):
            if t.shape != self.spec.lambdas[c] or t.depth != self.spec.ds[c]:
                raise ValueError(f"component {c + 1} does not match its declared shape and depth")

    def labels_by_antidiagonal(self) -> dict[int, list[tuple[int, int, int, int]]]:
        """Map antidiagonal index -> list of (value, color, grid row, grid col),
        colors 1-based in spec order."""
        out: dict[int, list[tuple[int, int, int, int]]] = {}
        for c, t in enumerate(self.components, start=1):
            for a, b, v in t.cells():
                out.setdefault(a + b - 1, []).append((v, c, a, b))
        return out


def _phi(components: Iterable[Rssyt]) -> frozenset[Cell]:
    return frozenset((v, a + b - v) for comp in components for a, b, v in comp.cells())


def phi_cells(t: PrismTableau) -> frozenset[Cell]:
    """The cells of the overlay map phi: a label v in grid cell (a, b)
    places a plus at (v, a + b - v); the components are unioned.  Each
    cell is one (label, antidiagonal) pair of t."""
    return _phi(t.components)


def prism_weight(t: PrismTableau) -> Monomial:
    """The row-count weight of phi(t): x_v counts the antidiagonals that
    carry the label v."""
    return Monomial.counting(v for v, _ in phi_cells(t))


def _replacement_valid(t: Rssyt, q: int, b: int, new: int) -> bool:
    """Would setting filling row q (1-based, bottom first), column b to
    ``new`` leave a valid Rssyt?  Only the changed cell's neighbors in its
    own color need checking."""
    if new > t.depth:
        return False
    row = t.rows[q - 1]
    if b > 1 and row[b - 2] < new:
        return False
    if b < len(row) and row[b] > new:
        return False
    if q > 1 and t.rows[q - 2][b - 1] <= new:
        return False
    if q < len(t.rows) and len(t.rows[q]) >= b and t.rows[q][b - 1] >= new:
        return False
    return True


def has_unstable_triple(t: PrismTableau) -> bool:
    """Detect labels {l_c, l_d, l'_e} on one antidiagonal with l < l' such
    that l appears in two distinct colors c != d and replacing the color-c
    copy of l by l' stays a prism tableau."""
    for items in t.labels_by_antidiagonal().values():
        colors_of: dict[int, set[int]] = {}
        for v, c, _, _ in items:
            colors_of.setdefault(v, set()).add(c)
        values = sorted(colors_of)
        for v, c, a, b in items:
            if len(colors_of[v]) < 2:
                continue
            comp = t.components[c - 1]
            q = comp.depth - a + 1
            for bigger in values:
                if bigger <= v:
                    continue
                if _replacement_valid(comp, q, b, bigger):
                    return True
    return False


Pool = list[tuple[Rssyt, frozenset[Cell]]]
Filling = tuple[tuple[Rssyt, ...], frozenset[Cell]]


def _pools(spec: PrismShapeSpec) -> list[Pool]:
    """Each component's fillings in enumerate_rssyt order, each with its
    phi cells."""
    return [
        [(f, _phi((f,))) for f in enumerate_rssyt(lam, d)]
        for lam, d in zip(spec.lambdas, spec.ds)
    ]


def _walk(pools: list[Pool], keep: Callable[[frozenset[Cell]], bool]) -> Iterator[Filling]:
    """Depth-first over the product of the pools, in order: each complete
    filling as its components and the union of their phi cells.  The union
    only grows, and a branch goes on only while ``keep`` holds for it.  The
    walk is lazy, so ``keep`` may read state the caller updates between
    fillings."""
    chosen: list[Rssyt] = []

    def walk(c: int, union: frozenset[Cell]) -> Iterator[Filling]:
        if c == len(pools):
            yield tuple(chosen), union
            return
        for f, cells in pools[c]:
            grown = union | cells
            if keep(grown):
                chosen.append(f)
                yield from walk(c + 1, grown)
                chosen.pop()

    return walk(0, frozenset())


def _minimal_fillings(spec: PrismShapeSpec) -> tuple[int, list[PrismTableau]]:
    """The least degree of a filling of spec, and the fillings of that
    degree in enumeration order.

    A branch and bound: the degree of a filling is the number of its phi
    cells, so a branch is dropped as soon as its union is larger than the
    smallest complete filling seen so far.  Ties are kept, so the
    survivors come out in enumeration order."""
    best = math.inf
    found: list[PrismTableau] = []
    for components, union in _walk(_pools(spec), lambda union: len(union) <= best):
        if len(union) < best:
            best, found = len(union), []
        found.append(PrismTableau(spec, components))
    return best, found


def phi_fibers(
    spec: PrismShapeSpec, images: Collection[frozenset[Cell]]
) -> tuple[int, dict[frozenset[Cell], list[PrismTableau]]]:
    """The number of fillings of spec, and the fillings whose phi image is
    one of ``images``, grouped by image, each fiber in enumeration order.

    A branch is dropped once its union lies inside no image, so only the
    fibers are built, never the whole product of the component fillings."""
    pools = _pools(spec)
    fibers: dict[frozenset[Cell], list[PrismTableau]] = {}
    for components, union in _walk(pools, lambda union: any(union <= cells for cells in images)):
        if union in images:
            fibers.setdefault(union, []).append(PrismTableau(spec, components))
    return math.prod(map(len, pools)), fibers


def prism_min_degree(spec: PrismShapeSpec) -> int:
    """deg(lambda, d): minimum weight degree over all prism fillings."""
    return _minimal_fillings(spec)[0]


def prism_set(spec: PrismShapeSpec) -> list[PrismTableau]:
    """The minimal prism tableaux with no unstable triples, in enumeration
    order."""
    return [t for t in _minimal_fillings(spec)[1] if not has_unstable_triple(t)]


def asm_polynomial(spec: PrismShapeSpec) -> Polynomial:
    """The weighted sum over prism_set(spec)."""
    return poly_from_monomials(prism_weight(t) for t in prism_set(spec))


def bigrassmannian_model(a: Asm) -> PrismShapeSpec:
    """One rectangle (i - r) x (j - r) with depth i per essential cell."""
    conds = rank_conditions(a)
    return PrismShapeSpec(
        tuple(rectangle(i - r, j - r) for i, j, r in conds),
        tuple(i for i, _, _ in conds),
    )


def parabolic_model(a: Asm) -> PrismShapeSpec:
    """One monotone-triangle shape per essential row."""
    ess_rows = sorted({i for (i, _) in essential_set(a)})
    return PrismShapeSpec(
        tuple(lambda_row(a, i) for i in ess_rows),
        tuple(ess_rows),
    )


def schur_polynomial_ssyt(lam: Sequence[int], d: int) -> Polynomial:
    """Independent Schur route: the generating function of semistandard
    tableaux (rows weakly increase, columns strictly increase) with
    entries at most d."""
    lam = partition(lam)
    if not lam:
        return Polynomial.one()
    if len(lam) > d:
        return Polynomial.zero()

    rows: list[list[int]] = []
    monomials: list[Monomial] = []

    def fill_row(q: int) -> None:
        if q == len(lam):
            monomials.append(Monomial.counting(v for row in rows for v in row))
            return
        width = lam[q]

        def place(b: int, acc: list[int]) -> None:
            if b == width:
                rows.append(list(acc))
                fill_row(q + 1)
                rows.pop()
                return
            lo = 1 if not acc else acc[-1]
            if q:
                lo = max(lo, rows[q - 1][b] + 1)
            for v in range(lo, d + 1):
                acc.append(v)
                place(b + 1, acc)
                acc.pop()

        place(0, [])

    fill_row(0)
    return poly_from_monomials(monomials)


def render_prism_tableau(t: PrismTableau) -> str:
    """Per component: the filled grid rows, bottom-aligned at the depth."""
    blocks = []
    for c, comp in enumerate(t.components, start=1):
        lam, d = comp.shape, comp.depth
        header = f"color {c} (d={d}, shape={lam if lam else '()'})"
        if not lam:
            blocks.append(header + "\n  (empty)")
            continue
        width = lam[0]
        grid = {(a, b): v for a, b, v in comp.cells()}
        lines = []
        for a in range(d - len(lam) + 1, d + 1):
            lines.append("  " + " ".join(
                str(grid[(a, b)]) if (a, b) in grid else "." for b in range(1, width + 1)
            ))
        blocks.append(header + "\n" + "\n".join(lines))
    return "\n".join(blocks)


def serialize_prism_tableau(t: PrismTableau) -> str:
    """One-line form: components joined by ' | ', each component's rows
    bottom-first joined by '/', entries comma-joined."""
    comps = []
    for comp in t.components:
        comps.append("/".join(",".join(str(v) for v in row) for row in comp.rows) or "-")
    return " | ".join(comps) if comps else "-"
