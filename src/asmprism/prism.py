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
plus per (label, antidiagonal) pair.  The searches carry those images as
grid masks (see ``algebra``), built once per component filling (see
``_entry``), so a union of images is a plus diagram's mask.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence, Set
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from .algebra import Monomial, Polynomial, _row_counts, grid_cells, grid_weight_sum, poly_from_monomials
from .asm import Asm, Cell, _row_partition, _triangle_rows, rank_conditions

Partition = tuple[int, ...]


def partition(parts: Sequence[int]) -> Partition:
    """Normalize to a weakly decreasing tuple of positive parts."""
    ps = tuple(int(p) for p in parts)
    if any(p < 0 for p in ps):
        raise ValueError(f"negative part in {ps}")
    if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
        raise ValueError(f"parts must weakly decrease: {ps}")
    return tuple(p for p in ps if p)


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

    @classmethod
    def _of_shapes(cls, lambdas: tuple[Partition, ...], ds: tuple[int, ...]) -> PrismShapeSpec:
        """Trusted: each shape is a normalized partition (weakly
        decreasing positive parts) no longer than its depth, and the
        depths are positive ints, one per shape."""
        spec = cls.__new__(cls)
        object.__setattr__(spec, "lambdas", lambdas)
        object.__setattr__(spec, "ds", ds)
        return spec

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
    """All reverse semistandard fillings of lam with labels in [d], in
    lexicographic order of the flattened rows, bottom row first.  Each row
    is a weakly decreasing pick of labels, kept when every entry is less
    than the one under it; the bottom row is checked against a row of d + 1s."""
    lam = partition(lam)
    if len(lam) > d:
        raise ValueError(f"shape {lam} needs depth >= {len(lam)}, got {d}")
    picks = {w: sorted(combinations_with_replacement(range(d, 0, -1), w)) for w in set(lam)}

    def walk(rows: tuple[tuple[int, ...], ...], below: tuple[int, ...]) -> Iterator[Rssyt]:
        if len(rows) == len(lam):
            yield Rssyt(lam, d, rows)
            return
        for row in picks[lam[len(rows)]]:
            if all(map(operator.lt, row, below)):
                yield from walk((*rows, row), row)

    return walk((), (d + 1,) * max(lam, default=0))


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


Entry = tuple[Rssyt, int, tuple[tuple[int, int], ...], int, int]
Filling = tuple[tuple[Entry, ...], int]


def _entry(f: Rssyt, n: int) -> Entry:
    """f with its phi cells and its replacement candidates, as n-by-n grid
    masks (see ``algebra``), for n at least the spec's ambient size, and
    its labels packed with their guard mask.

    The label v in grid cell (a, b) is the plus (v, a + b - v), so the
    pair of v and the antidiagonal D = a + b - 1 is bit (v - 1) * n + D - v,
    and a label step on D moves the bit by n - 1.  A cell with label v
    may take any label v' with v < v' <= hi and stay reverse semistandard,
    where hi is the smallest of the depth, the entry to its left and the
    entry below it less one; its candidate is the bit of (v, D) with the
    mask of every such (v', D).  No bit wraps into another row: labels
    strictly decrease up each column from at most d in grid row d, so
    every label and candidate v' is at most its grid row a, and the plus's
    column a + b - v' lies in b..D, inside the grid as the shape lies in
    d x (n - d).

    The labels, rows bottom first, fill fields one bit wider than d needs;
    ``guards`` is each field's top bit.  A field of (top | guards) - labels
    is positive, so no borrow crosses it, and keeps its guard bit iff top's
    label is the larger or equal."""
    cells = labels = guards = 0
    width = f.depth.bit_length() + 1
    candidates = []
    below: tuple[int, ...] = ()
    for q, row in enumerate(f.rows):
        a = f.depth - q
        for b, v in enumerate(row):
            labels = labels << width | v
            guards = guards << width | 1 << width - 1
            bit = 1 << ((v - 1) * n + a + b - v)
            cells |= bit
            hi = row[b - 1] if b else f.depth
            if q:
                hi = min(hi, below[b] - 1)
            higher = 0
            for _ in range(hi - v):
                higher = (higher | bit) << (n - 1)
            if higher:
                candidates.append((bit, higher))
        below = row
    return f, cells, tuple(candidates), labels, guards


def _unstable(filling: Filling) -> bool:
    """Does the filling have an unstable triple?  A label sits at most once
    on an antidiagonal of one component, so ``twice`` holds the (label,
    antidiagonal) pairs in two colors.  The triple exists when one such
    copy can take a larger label found on its antidiagonal."""
    entries, union = filling
    seen = twice = 0
    for entry in entries:
        twice |= seen & entry[1]
        seen |= entry[1]
    if twice:
        for entry in entries:
            for bit, higher in entry[2]:
                if bit & twice and higher & union:
                    return True
    return False


def _as_filling(t: PrismTableau) -> Filling:
    """t's components as entries at the spec's ambient size, with the
    union of their phi cells."""
    n = t.spec.ambient_size
    entries = tuple(_entry(comp, n) for comp in t.components)
    union = 0
    for entry in entries:
        union |= entry[1]
    return entries, union


def phi_cells(t: PrismTableau) -> frozenset[Cell]:
    """The cells of the overlay map phi: a label v in grid cell (a, b)
    places a plus at (v, a + b - v); the components are unioned.  Each
    cell is one (label, antidiagonal) pair of t."""
    return grid_cells(_as_filling(t)[1], t.spec.ambient_size)


def prism_weight(t: PrismTableau) -> Monomial:
    """The row-count weight of phi(t): x_v counts the antidiagonals that
    carry the label v."""
    return Monomial(_row_counts(_as_filling(t)[1], t.spec.ambient_size))


@lru_cache(maxsize=None)
def _pool(lam: Partition, d: int, n: int) -> tuple[Entry, ...]:
    """The fillings of lam with labels in [d], in enumerate_rssyt order, as
    entries on the n-by-n grid; built once per process.  The grid width
    is part of the key because it sets the entries' bits.  A spec of
    ambient size m has its shapes inside d x (m - d), and it is walked at
    width m or at the n of its ASM, so the cache stays small."""
    return tuple(_entry(f, n) for f in enumerate_rssyt(lam, d))


class _Fillings:
    """The fillings of one spec on the n-by-n grid, n at least its
    ambient size: each component's pool (see _pool), with the walks over
    their product."""

    def __init__(self, spec: PrismShapeSpec, n: int) -> None:
        if n < spec.ambient_size:
            raise ValueError(f"grid width {n} below the ambient size {spec.ambient_size}")
        self.spec = spec
        self.n = n
        self.pools = [_pool(lam, d, n) for lam, d in zip(spec.lambdas, spec.ds)]

    def count(self) -> int:
        return math.prod(map(len, self.pools))

    def tableau(self, filling: Filling) -> PrismTableau:
        return PrismTableau(self.spec, tuple(entry[0] for entry in filling[0]))

    def minimal(self) -> tuple[int, list[Filling]]:
        """The least degree of a filling, and the fillings of that degree
        in enumeration order: each as its entries and the union of their
        phi cells.

        A depth-first branch and bound over the product of the pools: the
        degree of a filling is the number of its phi cells and the union
        only grows, so a branch is dropped as soon as its union is larger
        than the smallest complete filling seen so far.  The last
        component's loop closes the leaves.  Ties are kept, so the
        survivors come out in enumeration order."""
        pools = self.pools
        if not pools:
            return 0, [((), 0)]
        last = len(pools) - 1
        best = math.inf
        found: list[Filling] = []
        chosen: list[Entry] = []

        def walk(c: int, union: int) -> None:
            nonlocal best, found
            if c == last:
                for entry in pools[c]:
                    grown = union | entry[1]
                    size = grown.bit_count()
                    if size <= best:
                        if size < best:
                            best, found = size, []
                        found.append(((*chosen, entry), grown))
                return
            for entry in pools[c]:
                grown = union | entry[1]
                if grown.bit_count() <= best:
                    chosen.append(entry)
                    walk(c + 1, grown)
                    chosen.pop()

        walk(0, 0)
        return best, found

    def prism(self) -> list[Filling]:
        """The minimal fillings with no unstable triple, in enumeration
        order: prism_set as fillings."""
        return [f for f in self.minimal()[1] if not _unstable(f)]

    def fibers(self, targets: Set[int]) -> dict[int, list[Filling]]:
        """The fillings whose phi image is one of the grid masks
        ``targets``, grouped by mask, each fiber in enumeration order.

        A branch is dropped once its union lies inside no target, so only
        the fibers are built.  The targets are numbered, and ``inside[b]``
        is the bitset of the targets that hold grid bit b.  Each pool
        entry gets, once per call, the AND of ``inside`` over its phi
        cells: the targets that hold it (an entry inside none is left
        out).  The walk carries the targets that hold the union, one AND
        per node, and goes on while any is left."""
        inside = [0] * self.n * self.n
        for t, mask in enumerate(targets):
            for b in _bits(mask):
                inside[b] |= 1 << t
        everything = (1 << len(targets)) - 1
        pools = []
        for pool in self.pools:
            kept = []
            for entry in pool:
                holders = everything
                for b in _bits(entry[1]):
                    holders &= inside[b]
                if holders:
                    kept.append((entry, holders))
            pools.append(kept)

        fibers: dict[int, list[Filling]] = {}
        chosen: list[Entry] = []

        def walk(c: int, union: int, holders: int) -> None:
            if c == len(pools):
                if union in targets:
                    fibers.setdefault(union, []).append((tuple(chosen), union))
                return
            for entry, entry_holders in pools[c]:
                both = holders & entry_holders
                if both:
                    chosen.append(entry)
                    walk(c + 1, union | entry[1], both)
                    chosen.pop()

        walk(0, 0, everything)
        return fibers


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def prism_set(spec: PrismShapeSpec) -> list[PrismTableau]:
    """The minimal prism tableaux with no unstable triples, in enumeration
    order."""
    fillings = _Fillings(spec, spec.ambient_size)
    return [fillings.tableau(f) for f in fillings.prism()]


def asm_polynomial(spec: PrismShapeSpec) -> Polynomial:
    """The weighted sum over prism_set(spec)."""
    n = spec.ambient_size
    return grid_weight_sum((union for _, union in _Fillings(spec, n).prism()), n)


def bigrassmannian_model(a: Asm) -> PrismShapeSpec:
    """One rectangle (i - r) x (j - r) with depth i per essential cell."""
    conds = rank_conditions(a)
    return PrismShapeSpec._of_shapes(
        tuple(rectangle(i - r, j - r) for i, j, r in conds),
        tuple(i for i, _, _ in conds),
    )


def parabolic_model(a: Asm) -> PrismShapeSpec:
    """One monotone-triangle shape per essential row i: the partition that
    row i of the triangle records, as in ``MonotoneTriangle.partition``."""
    ess_rows = tuple(sorted({i for i, _, _ in rank_conditions(a)}))
    shapes = tuple(map(_row_partition, _triangle_rows(a, ess_rows)))
    return PrismShapeSpec._of_shapes(shapes, ess_rows)


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
