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
tableau's image under the overlay map phi (``pipedream.phi``), which has one
plus per (label, antidiagonal) pair.  The searches carry those images as
grid masks (see ``algebra``), built once per component filling (see
``_entry``), so a union of images is a plus diagram's mask.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence, Set
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from itertools import combinations_with_replacement

from .algebra import Monomial, Polynomial, _row_counts, grid_weight_sum, poly_from_monomials
from .asm import Asm, _bytewise_max, _row_partition, _triangle_rows, rank_conditions

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

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """Yield (grid row, grid column, value): filling row q is grid row depth - q + 1."""
        for q, row in enumerate(self.rows, start=1):
            a = self.depth - q + 1
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


Entry = tuple[Rssyt, int, tuple[tuple[int, int], ...], int]
Filling = tuple[tuple[Entry, ...], int]


def _entry(f: Rssyt, n: int) -> Entry:
    """f with its phi cells and its replacement candidates, as n-by-n grid
    masks (see ``algebra``), for n at least the spec's ambient size, and
    its labels packed a byte each, rows bottom first, the first label in
    the highest byte.

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
    d x (n - d).  The same bound keeps each label below n; only
    ``_Fillings.fibers`` reads the label bytes, and it takes n <= 127."""
    cells = labels = 0
    candidates = []
    below: tuple[int, ...] = ()
    for q, row in enumerate(f.rows):
        a = f.depth - q
        for b, v in enumerate(row):
            labels = labels << 8 | v
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
    return f, cells, tuple(candidates), labels


def _unstable(filling: tuple[Sequence[Entry], int]) -> bool:
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
    return entries, reduce(operator.or_, (entry[1] for entry in entries), 0)


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
    width m, so the cache stays small."""
    return tuple(_entry(f, n) for f in enumerate_rssyt(lam, d))


class _Fillings:
    """The fillings of one spec on the grid of its ambient size n: each
    component's pool (see _pool), with the walks over their product."""

    def __init__(self, spec: PrismShapeSpec) -> None:
        self.spec = spec
        self.n = n = spec.ambient_size
        self.pools = [_pool(lam, d, n) for lam, d in zip(spec.lambdas, spec.ds)]

    def count(self) -> int:
        return math.prod(map(len, self.pools))

    def tableau(self, filling: Filling) -> PrismTableau:
        return PrismTableau(self.spec, tuple(entry[0] for entry in filling[0]))

    def prism(self) -> list[Filling]:
        """The minimal fillings with no unstable triple, in enumeration
        order, each as its entries and the union of their phi cells.

        A filling's degree is the number of its phi cells and the union
        only grows, so one depth-first walk, run twice, drops a branch once
        its union has more than ``limit`` cells.  The first pass keeps
        nothing and sets the limit one below each leaf it reaches, so it
        ends one below the least degree; the second keeps the stable
        leaves of that degree.  One loop serves every component: under
        the last, an entry that fits closes a leaf in place.

        Which completions of a branch fit under the limit depends only on
        its depth and union, not on the entries chosen before, so each
        pass keeps per depth the unions whose subtree reached no leaf, and
        skips them when they come up again.  A subtree that reaches a leaf,
        stable or not, is live.  The first pass only lowers the limit, so
        a dead union stays dead through it; the second starts afresh, as it
        walks one above where the first ended."""
        pools = self.pools
        if not pools:
            return [((), 0)]
        last = len(pools) - 1
        limit = math.inf
        kept: list[Filling] | None = None
        chosen: list[Entry] = []

        def walk(c: int, union: int) -> bool:
            nonlocal limit
            live = False
            below = dead[c]
            for entry in pools[c]:
                grown = union | entry[1]
                if grown.bit_count() > limit:
                    continue
                if c == last:
                    live = True
                    if kept is None:
                        limit = grown.bit_count() - 1
                    elif not _unstable(leaf := ((*chosen, entry), grown)):
                        kept.append(leaf)
                elif grown not in below:
                    chosen.append(entry)
                    if walk(c + 1, grown):
                        live = True
                    else:
                        below.add(grown)
                    chosen.pop()
            return live

        dead: list[set[int]] = [set() for _ in pools]
        walk(0, 0)
        limit, kept, dead = limit + 1, [], [set() for _ in pools]
        walk(0, 0)
        return kept

    def fibers(self, targets: Set[int]) -> tuple[dict[int, int], dict[int, tuple[int, ...]]]:
        """For each grid mask of ``targets`` that is the phi image of some
        filling: the fieldwise maximum of its fiber's packed labels, and
        the packed labels of the fiber's stable members in enumeration
        order.  A filling's labels are its entries' (see ``_entry``), the
        first component's highest.  A mask with an empty fiber is in
        neither dict, one with no stable member only in the first.

        A branch is dropped once its union lies inside no target, so only
        the fibers are walked.  The targets are numbered, and each pool
        entry gets, once per call, the bitset of the targets whose masks
        hold its phi cells (an entry inside none is left out).  The walk
        carries the targets that hold the union, one AND per node, and the
        labels, one shift and OR per node, and goes on while any is left.
        A leaf keeps no filling, only ints: the maximum, and a tuple of the
        stable members' labels.  Labels lie below n, and n <= 127 as for
        packed corner sums, so no label byte reaches its guard bit."""
        if self.n > 127:
            raise ValueError(f"packed labels need a grid at most 127 wide, got {self.n}")
        outside = [(1 << t, ~mask) for t, mask in enumerate(targets)]
        pools = []
        for pool in self.pools:
            kept = []
            for entry in pool:
                holders = 0
                for bit, beyond in outside:
                    if not entry[1] & beyond:
                        holders |= bit
                if holders:
                    kept.append((entry, holders))
            pools.append(kept)
        shifts = [8 * sum(lam) for lam in self.spec.lambdas]
        guard = int.from_bytes(b"\x80" * (sum(shifts) // 8), "big")

        tops: dict[int, int] = {}
        stables: dict[int, tuple[int, ...]] = {}
        chosen: list[Entry] = []

        def walk(c: int, union: int, holders: int, labels: int) -> None:
            if c == len(pools):
                if union in targets:
                    top = tops.get(union)
                    tops[union] = labels if top is None else _bytewise_max(top, labels, guard)
                    if not _unstable((chosen, union)):
                        stables[union] = (*stables.get(union, ()), labels)
                return
            shift = shifts[c]
            for entry, entry_holders in pools[c]:
                both = holders & entry_holders
                if both:
                    chosen.append(entry)
                    walk(c + 1, union | entry[1], both, labels << shift | entry[3])
                    chosen.pop()

        walk(0, 0, (1 << len(targets)) - 1, 0)
        return tops, stables


def prism_set(spec: PrismShapeSpec) -> list[PrismTableau]:
    """The minimal prism tableaux with no unstable triples, in enumeration
    order."""
    fillings = _Fillings(spec)
    return [fillings.tableau(f) for f in fillings.prism()]


def asm_polynomial(spec: PrismShapeSpec) -> Polynomial:
    """The weighted sum over prism_set(spec)."""
    fillings = _Fillings(spec)
    return grid_weight_sum((union for _, union in fillings.prism()), fillings.n)


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
    entries at most d, built a row at a time from the top."""
    lam = partition(lam)

    @cache
    def below(above: tuple[int, ...], width: int) -> list[tuple[int, ...]]:
        # the weakly increasing rows whose entries exceed the ones above them
        picks = combinations_with_replacement(range(1, d + 1), width)
        return [row for row in picks if all(map(operator.lt, above, row))]

    def fillings(q: int, above: tuple[int, ...], prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        # each tableau that rows 0..q-1 (flattened in prefix) start
        if q == len(lam):
            yield prefix
            return
        for row in below(above, lam[q]):
            yield from fillings(q + 1, row, prefix + row)

    return poly_from_monomials(map(Monomial.counting, fillings(0, (), ())))


def render_prism_tableau(t: PrismTableau) -> str:
    """Per component: the filled grid rows, top row first, each padded
    with '.' to the longest row."""
    blocks = []
    for c, comp in enumerate(t.components, start=1):
        lam = comp.shape
        header = f"color {c} (d={comp.depth}, shape={lam if lam else '()'})"
        if not lam:
            blocks.append(header + "\n  (empty)")
            continue
        lines = ["  " + " ".join(map(str, row)) + " ." * (lam[0] - len(row)) for row in reversed(comp.rows)]
        blocks.append("\n".join([header, *lines]))
    return "\n".join(blocks)


def serialize_prism_tableau(t: PrismTableau) -> str:
    """One-line form: components joined by ' | ', each component's rows
    bottom-first joined by '/', entries comma-joined."""
    comps = []
    for comp in t.components:
        comps.append("/".join(",".join(str(v) for v in row) for row in comp.rows) or "-")
    return " | ".join(comps) if comps else "-"
