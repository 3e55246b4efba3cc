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
* The lattice layer (order, join, meet) and the diagram, rank
  conditions and monotone triangle run on each ASM's corner sums packed
  into one int: byte (i-1)*n + j-1 holds r(i, j).  Every r is at most
  n <= 127, so bit 7 of each byte is a guard bit G, and
  ((P | G) - Q) & G has bit 7 set in exactly the bytes where P's byte
  is at least Q's, with no borrow across bytes.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import FrozenInstanceError, dataclass
from functools import cache
from itertools import accumulate, chain, product

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


_set = object.__setattr__


class Asm:
    """An alternating sign matrix.  :func:`validate_asm` checks matrices
    from outside; :func:`enumerate_asms`, the lattice operations and
    ``Perm.matrix`` build valid ones.  Every ``Asm`` holds its size ``n``
    and its packed corner sums ``_sums`` (see :func:`_packed`) from
    construction: ``Asm(entries)`` packs them, and the other builders hand
    them to :func:`_trusted_asm`.  ``entries`` is held when the builder had
    the rows, and otherwise decoded from the sums on first read.  Equality
    compares the sums at the larger size, which is equality under iota;
    hashing, ``repr`` and pickles read the entries."""

    __slots__ = ("n", "_sums", "_entries")

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        _set(self, "n", len(entries))
        _set(self, "_entries", entries)
        _set(self, "_sums", _pack(self, self.n))

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        entries = self._entries
        if entries is None:
            n, p = self.n, self._sums
            k = _layout(n)
            # a(i, j) is the column sum down to (i, j) less the one down to (i, j-1)
            col = p - ((p << 8 * n) & k.full)
            e = ((col | k.guard) - ((col << 8) & k.not_first_col)).to_bytes(n * n, "little")
            entries = tuple(map(_entry_row, map(e.__getitem__, k.rows)))
            _set(self, "_entries", entries)
        return entries

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _canonical_rows(self) -> tuple[tuple[int, ...], ...]:
        """The entries with trailing [A|0; 0|1] blocks stripped."""
        rows = self.entries
        n = len(rows)
        # The last row and column of an ASM each hold a single 1, so a 1 at (n, n) makes both e_n.
        while n > 1 and rows[n - 1][n - 1] == 1:
            n -= 1
        return rows if n == len(rows) else tuple(r[:n] for r in rows[:n])

    def canonical(self) -> Asm:
        """Strip trailing [A|0; 0|1] blocks; representative of the iota class."""
        rows = self._canonical_rows()
        return self if len(rows) == self.n else Asm(rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Asm):
            return NotImplemented
        m = max(self.n, other.n)
        return _packed(self, m) == _packed(other, m)

    def __hash__(self) -> int:
        return hash(self._canonical_rows())

    def __repr__(self) -> str:
        return f"Asm({self.entries!r})"

    def __reduce__(self) -> tuple:
        return Asm, (self.entries,)


@dataclass(frozen=True)
class PartialAsm:
    """A partial alternating sign matrix (row/column sums may be 0)."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)


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
        """The partition recorded by row ell (see :func:`_row_partition`)."""
        if not 1 <= ell <= self.n:
            raise ValueError(f"row index {ell} out of range for n={self.n}")
        return _row_partition(self.rows[ell - 1])


def _row_partition(row: Sequence[int]) -> tuple[int, ...]:
    """The partition recorded by a monotone-triangle row m(ell, 1..ell):
    (m(ell, ell) - ell, ..., m(ell, 1) - 1) less its zeros.  The row
    strictly increases from at least 1, so the parts weakly decrease and
    none is negative."""
    return tuple(p for p in (row[k - 1] - k for k in range(len(row), 0, -1)) if p)


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


@dataclass(frozen=True)
class _Layout:
    """Constants of the packed corner sums of size n.  A mask named after
    a set of cells is 0xFF in their bytes and 0 elsewhere."""

    ones: int  # 0x01 in every byte
    guard: int  # 0x80 in every byte
    full: int  # every byte
    upper_bits: int  # bits 1..7 of every byte
    not_first_col: int  # the bytes with j >= 2
    rows: tuple[slice, ...]  # the bytes of each row
    steps: tuple[int, ...]  # steps[v]: 0x01 in bytes v-1..n-1, what a 1 at column v adds to a row of r


@cache
def _layout(n: int) -> _Layout:
    if not 1 <= n <= 127:
        raise ValueError(f"packed corner sums need 1 <= n <= 127, got {n}")
    size = n * n
    ones = int.from_bytes(b"\x01" * size, "little")
    starts = sum(1 << 8 * n * i for i in range(n))  # 0x01 in the first byte of each row
    row_ones = (1 << 8 * n) // 0xFF  # 0x01 in bytes 0..n-1
    return _Layout(
        ones=ones,
        guard=0x80 * ones,
        full=0xFF * ones,
        upper_bits=0xFE * ones,
        not_first_col=0xFF * (ones - starts),
        rows=tuple(slice(s, s + n) for s in range(0, size, n)),
        steps=(0, *(row_ones >> 8 * (v - 1) << 8 * (v - 1) for v in range(1, n + 1))),
    )


def _pack(a: Asm, m: int) -> int:
    """The corner sums of a at size m >= a.n (see :func:`corner_rows`), packed."""
    _layout(m)  # refuses an m the guard bits cannot hold
    return int.from_bytes(bytes(chain.from_iterable(corner_rows(a, m))), "little")


def _packed(a: Asm, m: int) -> int:
    """The packed corner sums of a at size m >= a.n: a's own when m = a.n."""
    return a._sums if m == a.n else _pack(a, m)


def _trusted_asm(n: int, p: int, entries: tuple[tuple[int, ...], ...] | None = None) -> Asm:
    """The ASM of size n whose packed corner sums are p, holding ``entries``
    if the caller has them; p is not checked."""
    a = Asm.__new__(Asm)
    _set(a, "n", n)
    _set(a, "_sums", p)
    _set(a, "_entries", entries)
    return a


@cache
def _entry_row(key: bytes) -> tuple[int, ...]:
    """One row of entries from its bytes 128 + a(i, j); each distinct row
    is built once and shared."""
    return tuple(b - 128 for b in key)


def _is_corner_sums(p: int, m: int) -> bool:
    """Whether p is the packed corner sums of an ASM of size m.

    By Robbins-Rumsey, it is exactly when the column differences
    r - r(up) and the row differences r - r(left) are 0 or 1 in every
    byte (r read as 0 on row and column 0) and the last row and column
    are 1..m.  These differences are the partial column and row sums of
    the entries recovered by inclusion-exclusion, so the test accepts
    what :func:`validate_asm` accepts.  Given the differences, r(m, m) = m
    alone makes the last row and column 1..m: each is m steps of 0 or 1
    that add up to m."""
    k = _layout(m)
    g = k.guard
    down = (p | g) - ((p << 8 * m) & k.full)  # 128 + r - r(up) in each byte
    right = (p | g) - ((p << 8) & k.not_first_col)  # 128 + r - r(left)
    return (
        down & k.upper_bits == g
        and right & k.upper_bits == g
        and p >> 8 * (m * m - 1) == m
    )


def _asm_of_sums(p: int, m: int) -> Asm:
    """The ASM whose packed corner sums of size m are p; its entries are
    decoded on first read.  If p fails :func:`_is_corner_sums`,
    :func:`validate_asm` raises on the entries recovered from it, naming a
    row or column."""
    if not _is_corner_sums(p, m):
        sums = p.to_bytes(m * m, "little")
        asm_from_corner_sum([tuple(sums[s]) for s in _layout(m).rows])
        raise AsmValidationError("corner sums fail the Robbins-Rumsey test")
    return _trusted_asm(m, p)


def _bytewise_min(p: int, q: int, g: int) -> int:
    ge = ((p | g) - q) & g  # bit 7 of each byte where p >= q
    return p ^ ((p ^ q) & (ge >> 7) * 0xFF)


def _bytewise_max(p: int, q: int, g: int) -> int:
    ge = ((p | g) - q) & g
    return q ^ ((p ^ q) & (ge >> 7) * 0xFF)


def asm_leq(a: Asm, b: Asm) -> bool:
    """True iff a <= b in ASM order, i.e. r_a >= r_b entrywise.

    Inputs of different sizes are compared after embedding to a common
    size, which is an order embedding.
    """
    m = max(a.n, b.n)
    g = _layout(m).guard
    return ((_packed(a, m) | g) - _packed(b, m)) & g == g


def asm_join(a: Asm, b: Asm) -> Asm:
    """Least upper bound: entrywise minimum of corner sums."""
    m = max(a.n, b.n)
    return _asm_of_sums(_bytewise_min(_packed(a, m), _packed(b, m), _layout(m).guard), m)


def asm_meet(a: Asm, b: Asm) -> Asm:
    """Greatest lower bound: entrywise maximum of corner sums."""
    m = max(a.n, b.n)
    return _asm_of_sums(_bytewise_max(_packed(a, m), _packed(b, m), _layout(m).guard), m)


def join_all(asms: Iterable[Asm], n: int | None = None) -> Asm:
    """Join of a finite family in ASM(m), m the largest of n and the members'
    sizes: the entrywise minimum of all their corner sums at size m.  The
    empty join is the identity (lattice minimum)."""
    items = list(asms)
    if not items:
        return identity_asm(n if n else 1)
    m = max(n or 1, max(a.n for a in items))
    g = _layout(m).guard
    p = _packed(items[0], m)
    for a in items[1:]:
        p = _bytewise_min(p, _packed(a, m), g)
    return _asm_of_sums(p, m)


def _permutation_asm(word: Sequence[int], n: int) -> Asm:
    """The permutation matrix with its 1 in row i at column word[i-1], for
    a word of 1..n, from its packed corner sums: row i of r is row i-1
    plus a step of 1 from column word[i-1] on."""
    k = _layout(n)
    p = row = 0
    for i, v in enumerate(word):
        row += k.steps[v]
        p |= row << 8 * n * i
    return _trusted_asm(n, p)


def _diagram_bytes(a: Asm) -> tuple[int, int]:
    """The packed corner sums p of a, and 0x01 in each byte of D(A): the
    cells with r(i, j) = r(i-1, j) = r(i, j-1)."""
    n = a.n
    k = _layout(n)
    p = a._sums
    moves = (p - ((p << 8 * n) & k.full)) | (p - ((p << 8) & k.not_first_col))
    return p, k.ones & ~moves


def _set_bytes(bits: int) -> Iterator[int]:
    """The indices, in increasing order, of the bytes of bits that are not
    zero; byte k is cell (k // n + 1, k % n + 1)."""
    while bits:
        low = bits & -bits
        yield (low.bit_length() - 1) >> 3
        bits ^= low


def inversions(a: Asm) -> frozenset[Cell]:
    """The Rothe diagram D(A): the cells where both the column sum down to
    (i, j) and the row sum up to it vanish, i.e. r(i, j) = r(i-1, j) = r(i, j-1)."""
    n = a.n
    return frozenset((k // n + 1, k % n + 1) for k in _set_bytes(_diagram_bytes(a)[1]))


def rank_conditions(a: Asm) -> list[tuple[int, int, int]]:
    """Fulton's rank conditions of A: (i, j, r_A(i, j)) for each (i, j) in
    Ess(A), in increasing order of (i, j).  They determine A.  Ess(A) is
    the cells of D(A) whose south and east neighbours are not in D(A).
    Column n holds no cell of D(A), since r(i, n) = i > r(i-1, n), so the
    east shift, which brings (i+1, 1) to (i, n), needs no mask."""
    n = a.n
    p, d = _diagram_bytes(a)
    ess = d & ~(d >> 8 * n) & ~(d >> 8)
    return [(k // n + 1, k % n + 1, p >> 8 * k & 0xFF) for k in _set_bytes(ess)]


def essential_set(a: Asm) -> frozenset[Cell]:
    """Southeast-most corners of the connected components of D(A): the
    cells of :func:`rank_conditions`."""
    return frozenset((i, j) for i, j, _ in rank_conditions(a))


def _triangle_rows(a: Asm, rows: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Row i of the monotone triangle of a, for each i in ``rows``: the
    columns j where the column sum down to row i, r(i, j) - r(i, j-1), is 1."""
    n, p = a.n, a._sums
    ones = p - ((p << 8) & _layout(n).not_first_col)
    row_mask = (1 << 8 * n) - 1
    for i in rows:
        yield tuple(k + 1 for k in _set_bytes(ones >> 8 * n * (i - 1) & row_mask))


def monotone_triangle(a: Asm) -> MonotoneTriangle:
    """Every row of the monotone triangle of a (see :func:`_triangle_rows`)."""
    return MonotoneTriangle(tuple(_triangle_rows(a, range(1, a.n + 1))))


def enumerate_asms(n: int) -> Iterator[Asm]:
    """Every element of ASM(n) exactly once, with its packed corner sums,
    in lexicographic order of the flattened monotone triangles with bottom
    row (1, ..., n).  Consecutive rows interleave:
    m(i+1, j) <= m(i, j) <= m(i+1, j+1), so the row after p is a strictly
    increasing pick from the ranges [p(j-1), p(j)], read with 1 and n at
    the ends; the top row is a pick from [1, n] after the empty row.  Row i
    of A is the indicator of triangle row i less that of row i-1, and row i
    of r is the sum of the steps at the entries of triangle row i, so the
    walk builds valid ASMs and checks nothing."""
    if n < 1:
        raise ValueError("n must be positive")
    steps = _layout(n).steps.__getitem__

    @cache
    def successors(prev: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        # (row, entry row, packed corner-sum row) for each row after prev;
        # a row has distinct entries in [n], so at most 2^n rows are listed
        ends = (1, *prev, n)
        picks = product(*(range(lo, hi + 1) for lo, hi in zip(ends, ends[1:])))
        return [
            (row, tuple((j in row) - (j in prev) for j in range(1, n + 1)), sum(map(steps, row)))
            for row in picks
            if all(map(operator.lt, row, row[1:]))
        ]

    def walk(prev: tuple[int, ...], entries: tuple[tuple[int, ...], ...], p: int) -> Iterator[Asm]:
        i = len(entries)
        if i == n:
            yield _trusted_asm(n, p, entries)
            return
        for row, e, step in successors(prev):
            yield from walk(row, (*entries, e), p | step << 8 * n * i)

    return walk((), (), 0)


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
