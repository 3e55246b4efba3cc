"""Alternating sign matrices, corner sums, and the lattice order.

Conventions used throughout the package:

* Matrix coordinates are 1-based; cell (i, j) is row i from the top,
  column j from the left.
* The corner sum of A is r(i, j) = sum of the top-left i-by-j block.
  Row and column 0 are implicitly zero and never stored.
* The order is A <= B iff r_A(i, j) >= r_B(i, j) everywhere, so the
  identity matrix is the lattice minimum and joins take entrywise
  minima of corner sums.
* Two ASMs are equal when their canonical representatives agree, where
  the canonical form strips trailing blocks of the form [A|0; 0|1].
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, compress, product

Cell = tuple[int, int]


class AsmValidationError(ValueError):
    """Input matrix fails one of the ASM (or partial ASM) axioms."""


class MatrixParseError(ValueError):
    """Text input is not a well-formed integer matrix."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def _as_rows(m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(map(int, row)) for row in m)


def _check_alternating(entries: tuple[tuple[int, ...], ...]) -> None:
    """A1 plus the partial-ASM axiom: each row/column's nonzero entries
    alternate in sign starting with +1."""
    n = len(entries)
    for i in range(n):
        expected = 1
        for x in entries[i]:
            if x == 0:
                continue
            if x != expected:
                raise AsmValidationError(f"sign alternation fails in row {i + 1}")
            expected = -expected
    for j in range(n):
        expected = 1
        for i in range(n):
            x = entries[i][j]
            if x == 0:
                continue
            if x != expected:
                raise AsmValidationError(f"sign alternation fails in column {j + 1}")
            expected = -expected


def _check_entries(entries: tuple[tuple[int, ...], ...]) -> None:
    n = len(entries)
    if n == 0:
        raise AsmValidationError("empty matrix")
    for i, row in enumerate(entries):
        if len(row) != n:
            raise AsmValidationError(f"matrix is not square: row {i + 1} has {len(row)} entries, expected {n}")
        for j, x in enumerate(row):
            if x not in (-1, 0, 1):
                raise AsmValidationError(f"entry {x} at row {i + 1}, column {j + 1} is outside {{-1,0,1}}")


def _check_sums(entries: tuple[tuple[int, ...], ...], allowed: tuple[int, ...]) -> None:
    """Every row sum, then every column sum, must lie in ``allowed``."""
    for kind, lines in (("row", entries), ("column", zip(*entries))):
        for i, line in enumerate(lines, start=1):
            s = sum(line)
            if s not in allowed:
                expected = " or ".join(map(str, allowed))
                raise AsmValidationError(f"{kind} {i} sums to {s}, expected {expected}")


@dataclass(frozen=True, eq=False)
class Asm:
    """An alternating sign matrix.  Construct via :func:`validate_asm`."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i - 1][j - 1]

    def canonical(self) -> Asm:
        """Strip trailing [A|0; 0|1] blocks; representative of the iota class."""
        rows = self.entries
        n = len(rows)
        # The last row and column of an ASM each hold a single 1, so a 1 at (n, n) makes both e_n.
        while n > 1 and rows[n - 1][n - 1] == 1:
            n -= 1
        return self if n == len(rows) else Asm(tuple(r[:n] for r in rows[:n]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Asm):
            return NotImplemented
        return self.canonical().entries == other.canonical().entries

    def __hash__(self) -> int:
        return hash(self.canonical().entries)

    def __repr__(self) -> str:
        return f"Asm({self.entries!r})"


@dataclass(frozen=True)
class PartialAsm:
    """A partial alternating sign matrix (row/column sums may be 0)."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i - 1][j - 1]


@dataclass(frozen=True)
class MonotoneTriangle:
    """Row i lists, in increasing order, the columns of the 1s in row i of
    the partial column sum matrix."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for i, row in enumerate(self.rows, start=1):
            if len(row) != i:
                raise ValueError(f"row {i} must have {i} entries, got {len(row)}")
            if any(row[k] >= row[k + 1] for k in range(len(row) - 1)):
                raise ValueError(f"row {i} is not strictly increasing: {row}")

    @property
    def n(self) -> int:
        return len(self.rows)

    def partition(self, ell: int) -> tuple[int, ...]:
        """The partition recorded by row ell:
        (m(ell, ell) - ell, m(ell, ell-1) - (ell-1), ..., m(ell, 1) - 1)."""
        if not 1 <= ell <= self.n:
            raise ValueError(f"row index {ell} out of range for n={self.n}")
        row = self.rows[ell - 1]
        return tuple(p for p in (row[k - 1] - k for k in range(ell, 0, -1)) if p > 0)


def validate_asm(m: Sequence[Sequence[int]]) -> Asm:
    """Check the ASM axioms and wrap the matrix.

    Raises :class:`AsmValidationError` naming the offending row or column
    when an axiom fails.
    """
    entries = _as_rows(m)
    _check_entries(entries)
    _check_sums(entries, (1,))
    _check_alternating(entries)
    return Asm(entries)


def validate_partial_asm(m: Sequence[Sequence[int]]) -> PartialAsm:
    """Check the partial-ASM axioms: alternation, sums in {0,1}, and that
    the first nonzero entry of every row and column is 1."""
    entries = _as_rows(m)
    _check_entries(entries)
    _check_sums(entries, (0, 1))
    _check_alternating(entries)
    return PartialAsm(entries)


def identity_asm(n: int) -> Asm:
    return Asm(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def corner_rows(a: Asm | PartialAsm, m: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The corner sums r(i, 1..m) for i = 1..m; m defaults to a.n.  Row i
    is row i-1 plus the running sums of entry row i.  Past n, A is read as
    embedded by iota: every row and column of an ASM sums to 1, so there
    r(i, j) = min(i, j)."""
    n = a.n
    rows = []
    prev: Sequence[int] = (0,) * n
    for row in a.entries:
        prev = tuple(map(operator.add, prev, accumulate(row)))
        rows.append(prev)
    if m is not None and m > n:
        rows = [row + (i,) * (m - n) for i, row in enumerate(rows, start=1)]
        rows += [tuple(range(1, i)) + (i,) * (m - i + 1) for i in range(n + 1, m + 1)]
    return tuple(rows)


def _entries_from_corner_rows(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Inclusion-exclusion, a row at a time: the differences r(i, j) - r(i-1, j)
    are the column sums down to row i, and consecutive ones differ by a(i, j)."""
    out = []
    prev: Sequence[int] = (0,) * len(rows)
    for row in rows:
        down = tuple(map(operator.sub, row, prev))
        out.append(tuple(map(operator.sub, down, (0,) + down[:-1])))
        prev = row
    return tuple(out)


def asm_from_corner_sum(rows: Sequence[Sequence[int]]) -> Asm:
    """Inverse of :func:`corner_rows` via inclusion-exclusion of r.

    By Robbins-Rumsey, r satisfies R1 and R2 exactly when the recovered
    entries form an ASM, so :func:`validate_asm` alone checks r, and its
    errors name a row or column of the recovered matrix."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("corner sum matrix must be square")
    return validate_asm(_entries_from_corner_rows(rows))


def embed(a: Asm) -> Asm:
    """The inclusion iota: append a trailing row and column with a 1 at (n+1, n+1)."""
    n = a.n
    rows = [row + (0,) for row in a.entries]
    rows.append(tuple(0 for _ in range(n)) + (1,))
    return Asm(tuple(rows))


def _common_corner_rows(a: Asm, b: Asm) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The corner sums of a and b at their common size."""
    m = max(a.n, b.n)
    return corner_rows(a, m), corner_rows(b, m)


def asm_leq(a: Asm, b: Asm) -> bool:
    """True iff a <= b in ASM order, i.e. r_a >= r_b entrywise.

    Inputs of different sizes are compared after embedding to a common
    size, which is an order embedding.
    """
    ra, rb = _common_corner_rows(a, b)
    return all(all(map(operator.ge, x, y)) for x, y in zip(ra, rb))


def asm_join(a: Asm, b: Asm) -> Asm:
    """Least upper bound: entrywise minimum of corner sums."""
    ra, rb = _common_corner_rows(a, b)
    return asm_from_corner_sum(tuple(tuple(map(min, x, y)) for x, y in zip(ra, rb)))


def asm_meet(a: Asm, b: Asm) -> Asm:
    """Greatest lower bound: entrywise maximum of corner sums."""
    ra, rb = _common_corner_rows(a, b)
    return asm_from_corner_sum(tuple(tuple(map(max, x, y)) for x, y in zip(ra, rb)))


def _entrywise_min(mats: Sequence[Sequence[Sequence[int]]]) -> tuple[tuple[int, ...], ...]:
    """The entrywise minimum of one or more square matrices of one size."""
    return tuple(tuple(map(min, zip(*rows))) for rows in zip(*mats))


def join_all(asms: Iterable[Asm], n: int | None = None) -> Asm:
    """Join of a finite family in ASM(m), m the largest of n and the members'
    sizes: the entrywise minimum of all their corner sums at size m.  The
    empty join is the identity (lattice minimum)."""
    items = list(asms)
    if not items:
        return identity_asm(n if n else 1)
    m = max(n or 1, max(a.n for a in items))
    mats = [corner_rows(a, m) for a in items]
    return asm_from_corner_sum(_entrywise_min(mats))


def _diagram(rows: Sequence[Sequence[int]]) -> frozenset[Cell]:
    """The cells with r(i, j) = r(i-1, j) = r(i, j-1), r read as 0 on row
    and column 0."""
    cells = []
    up: Sequence[int] = (0,) * len(rows)
    for i, row in enumerate(rows, start=1):
        left = 0
        for j, (x, y) in enumerate(zip(row, up), start=1):
            if x == y == left:
                cells.append((i, j))
            left = x
        up = row
    return frozenset(cells)


def inversions(a: Asm) -> frozenset[Cell]:
    """The Rothe diagram D(A): the cells where both the column sum down to
    (i, j) and the row sum up to it vanish, i.e. r(i, j) = r(i-1, j) = r(i, j-1)."""
    return _diagram(corner_rows(a))


def _rank_conditions(rows: Sequence[Sequence[int]]) -> list[tuple[int, int, int]]:
    d = _diagram(rows)
    ess = [(i, j) for (i, j) in d if (i + 1, j) not in d and (i, j + 1) not in d]
    return [(i, j, rows[i - 1][j - 1]) for (i, j) in sorted(ess)]


def rank_conditions(a: Asm) -> list[tuple[int, int, int]]:
    """Fulton's rank conditions of A: (i, j, r_A(i, j)) for each (i, j) in
    Ess(A), in increasing order of (i, j).  They determine A."""
    return _rank_conditions(corner_rows(a))


def essential_set(a: Asm) -> frozenset[Cell]:
    """Southeast-most corners of the connected components of D(A): the
    cells of :func:`rank_conditions`."""
    return frozenset((i, j) for i, j, _ in rank_conditions(a))


def _monotone_triangle(rows: Sequence[Sequence[int]]) -> MonotoneTriangle:
    cols = range(1, len(rows) + 1)
    return MonotoneTriangle(tuple(
        tuple(compress(cols, map(operator.ne, row, (0, *row)))) for row in rows
    ))


def monotone_triangle(a: Asm) -> MonotoneTriangle:
    """Row i lists the columns j where the column sum down to row i,
    r(i, j) - r(i, j-1), is 1."""
    return _monotone_triangle(corner_rows(a))


def asm_from_monotone_triangle(mt: MonotoneTriangle) -> Asm:
    n = mt.n
    entries = []
    prev = [0] * n
    for i in range(n):
        cur = [0] * n
        for j in mt.rows[i]:
            cur[j - 1] = 1
        entries.append(tuple(cur[j] - prev[j] for j in range(n)))
        prev = cur
    return validate_asm(entries)


def enumerate_monotone_triangles(n: int) -> Iterator[MonotoneTriangle]:
    """All monotone triangles with bottom row (1, ..., n), in lexicographic
    order of the flattened rows.  Consecutive rows interleave:
    m(i+1, j) <= m(i, j) <= m(i+1, j+1), so the row after p is a strictly
    increasing pick from the ranges [p(j-1), p(j)], read with 1 and n at
    the ends; the top row is a pick from [1, n] after the empty row."""
    if n < 1:
        raise ValueError("n must be positive")

    @cache
    def successors(prev: tuple[int, ...]) -> list[tuple[int, ...]]:
        # a row has distinct entries in [n], so at most 2^n rows are listed
        ends = (1, *prev, n)
        picks = product(*(range(lo, hi + 1) for lo, hi in zip(ends, ends[1:])))
        return [row for row in picks if all(map(operator.lt, row, row[1:]))]

    def walk(rows: tuple[tuple[int, ...], ...]) -> Iterator[MonotoneTriangle]:
        if len(rows) == n:
            yield MonotoneTriangle(rows)
            return
        for row in successors(rows[-1] if rows else ()):
            yield from walk((*rows, row))

    return walk(())


def enumerate_asms(n: int) -> Iterator[Asm]:
    """Every element of ASM(n) exactly once, via monotone triangles."""
    for mt in enumerate_monotone_triangles(n):
        yield asm_from_monotone_triangle(mt)


def canonical_completion(p: PartialAsm) -> Asm:
    """Complete a partial ASM to an honest one: append a column with a 1
    for each zero-sum row (top to bottom), then a row with a 1 for each
    zero-sum column (left to right)."""
    rows = [list(r) for r in p.entries]
    n = p.n
    for i in range(n):
        if sum(rows[i]) == 0:
            for k in range(n):
                rows[k].append(1 if k == i else 0)
    width = len(rows[0])
    for j in range(n):
        if sum(rows[i][j] for i in range(n)) == 0:
            rows.append([1 if k == j else 0 for k in range(width)])
    size = len(rows)
    assert size == width, "completion must be square"
    return validate_asm(rows)


def bigrassmannian_one_line(i: int, j: int, r: int, n: int) -> tuple[int, ...]:
    """Values at positions 1..n of the block biGrassmannian [i, j, r]_b:
    r fixed points, then the block shifted up by j - r, then the block
    shifted down by i - r, then fixed points.  Values above n appear when
    i + j - r > n."""
    word = (
        *range(1, r + 1), *range(j + 1, j + i - r + 1),
        *range(r + 1, j + 1), *range(i + j - r + 1, n + 1),
    )
    return word[:n]


def partial_bigrassmannian(i: int, j: int, r: int, n: int) -> PartialAsm:
    """The partial permutation in PA(n) whose completion is the block
    biGrassmannian for (i, j, r).  Conditions B1 and B2 are required; B3 is
    not (entries that would land outside the n-by-n grid are dropped)."""
    if i < 1 or j < 1:
        raise ValueError("need 1 <= i, j")
    if not 0 <= r < min(i, j):
        raise ValueError(f"need 0 <= r < min(i, j), got r={r}")
    entries = [[0] * n for _ in range(n)]
    for k, w in enumerate(bigrassmannian_one_line(i, j, r, n), start=1):
        if w <= n:
            entries[k - 1][w - 1] = 1
    return validate_partial_asm(entries)


def partial_asm_join(ps: Sequence[PartialAsm], n: int) -> PartialAsm:
    """Join in PA(n): entrywise minimum of corner sums.  Empty join is the
    identity, the minimum of the order."""
    if not ps:
        return PartialAsm(identity_asm(n).entries)
    mats = [corner_rows(p) for p in ps]
    return validate_partial_asm(_entries_from_corner_rows(_entrywise_min(mats)))


def asm_from_rank_conditions(r: Sequence[Sequence[int | None]]) -> PartialAsm:
    """The partial ASM A_r whose rank conditions cut out the same locus as
    the northwest rank function r.

    ``None`` means an unbounded entry.  A condition with r_ij >= min(i, j)
    is vacuous (the corresponding biGrassmannian is the identity) and is
    skipped; the remaining partial biGrassmannians are joined.
    """
    n = len(r)
    if any(len(row) != n for row in r):
        raise ValueError("rank matrix must be square")
    parts = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rij = r[i - 1][j - 1]
            if rij is None:
                continue
            if rij < 0:
                raise ValueError(f"negative rank bound at ({i},{j})")
            if rij >= min(i, j):
                continue
            parts.append(partial_bigrassmannian(i, j, rij, n))
    return partial_asm_join(parts, n)


def render_asm(entries_owner: Asm | PartialAsm) -> str:
    """Text format: n lines of n space-separated integers."""
    return "\n".join(" ".join(str(x) for x in row) for row in entries_owner.entries)


def parse_matrix_text(text: str) -> list[list[int]]:
    """Parse the ASM text format, reporting the line and token column of the
    first offending token.  Blank lines are skipped wherever they are."""
    rows: list[list[int]] = []
    linenos: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = []
        for colno, tok in enumerate(line.split(), start=1):
            try:
                row.append(int(tok))
            except ValueError:
                raise MatrixParseError(lineno, colno, f"not an integer: {tok!r}") from None
        rows.append(row)
        linenos.append(lineno)
    if not rows:
        raise MatrixParseError(1, 1, "empty matrix")
    n = len(rows[0])
    for lineno, row in zip(linenos, rows):
        if len(row) != n:
            raise MatrixParseError(lineno, len(row) + 1, f"expected {n} entries per row, got {len(row)}")
    if len(rows) != n:
        raise MatrixParseError(linenos[-1], 1, f"expected {n} rows for a square matrix, got {len(rows)}")
    return rows
