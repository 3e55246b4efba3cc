"""Shared fixtures: the worked 4x4 matrices, plus independent oracles used
to freeze derived expectations (brute-force enumeration, exact rank,
subsequence checks)."""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from asmprism.algebra import Monomial, Polynomial
from asmprism.asm import (
    Asm,
    AsmValidationError,
    Cell,
    MonotoneTriangle,
    PartialAsm,
    _entries_from_corner_rows,
    asm_from_corner_sum,
    asm_join,
    asm_leq,
    asm_meet,
    bigrassmannian_one_line,
    corner_rows,
    embed,
    identity_asm,
    join_all,
    rank_conditions,
    validate_asm,
    validate_partial_asm,
)
from asmprism.perm import Perm, bigr_of
from asmprism.pipedream import PlusDiagram


@pytest.fixture
def asmdiag() -> Asm:
    """The running diagram example: Ess = {(1,3), (2,1), (3,2)}."""
    return validate_asm([
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [1, -1, 1, 0],
        [0, 1, 0, 0],
    ])


@pytest.fixture
def noneqi() -> Asm:
    """The ideal example: Ess = {(1,2), (2,3)}, Perm = {3412, 4123}."""
    return validate_asm([
        [0, 0, 1, 0],
        [1, 0, -1, 1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
    ])


@pytest.fixture
def deg_example() -> Asm:
    """The ASM with deg(A) = 4 < |D(A)| = 5."""
    return validate_asm([
        [0, 0, 1, 0],
        [0, 1, -1, 1],
        [1, -1, 1, 0],
        [0, 1, 0, 0],
    ])


@pytest.fixture
def triangle_example() -> Asm:
    """The monotone-triangle example: rows (3), (1,4), (1,3,4), (1,2,3,4)."""
    return validate_asm([
        [0, 0, 1, 0],
        [1, 0, -1, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ])


# ---------------------------------------------------------------- oracles


def brute_force_asms(n: int) -> list[Asm]:
    """Enumerate ASM(n) by filtering all {-1,0,1} matrices.  Usable for
    n <= 3; the independent oracle for the monotone-triangle enumerator."""
    out = []
    for flat in itertools.product((-1, 0, 1), repeat=n * n):
        rows = [flat[i * n:(i + 1) * n] for i in range(n)]
        try:
            out.append(validate_asm(rows))
        except Exception:
            continue
    return out


def asm_from_monotone_triangle(mt: MonotoneTriangle) -> Asm:
    """Row i of the matrix is the indicator of triangle row i less that of
    row i-1, validated cell by cell; the oracle for the enumeration walk."""
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


def _block_sums(a: Asm, n: int) -> list[int]:
    """Every top-left block sum of a, padded to n x n with 1s on the
    diagonal, summed cell by cell from the definition (row-major)."""
    def entry(k: int, l: int) -> int:
        if k < a.n and l < a.n:
            return a.entries[k][l]
        return int(k == l)

    return [
        sum(entry(k, l) for k in range(i) for l in range(j))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]


def block_sum_table(a: Asm) -> list[list[int]]:
    """_block_sums(a, a.n) as a table with a zero row and column 0, so that
    t[i][j] = r(i, j) for 0 <= i, j <= n."""
    n = a.n
    flat = _block_sums(a, n)
    return [[0] * (n + 1)] + [[0] + flat[i * n:(i + 1) * n] for i in range(n)]


def brute_force_diagram(a: Asm) -> frozenset[tuple[int, int]]:
    """D(A) by the factored inversion criterion: the cells where both the
    column sum down to (i, j) and the row sum up to it vanish, each summed
    in its own table."""
    n = a.n
    cells = set()
    colsum = [[0] * n for _ in range(n + 1)]
    rowsum = [[0] * (n + 1) for _ in range(n)]
    for i in range(n):
        for j in range(n):
            colsum[i + 1][j] = colsum[i][j] + a.entries[i][j]
            rowsum[i][j + 1] = rowsum[i][j] + a.entries[i][j]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if (1 - colsum[i][j - 1]) * (1 - rowsum[i - 1][j]) == 1:
                cells.add((i, j))
    return frozenset(cells)


def brute_force_canonical(a: Asm) -> tuple[tuple[int, ...], ...]:
    """The entries of a with every trailing [A|0; 0|1] block stripped,
    testing the whole last row and column of each block."""
    rows = a.entries
    n = len(rows)
    while n > 1 and rows[n - 1][:n] == (0,) * (n - 1) + (1,) and not any(r[n - 1] for r in rows[: n - 1]):
        n -= 1
    return tuple(r[:n] for r in rows[:n])


def _dominates(r: list[int], s: list[int]) -> bool:
    return all(x >= y for x, y in zip(r, s))


def brute_force_leq(a: Asm, b: Asm) -> bool:
    """a <= b: every block sum of a is at least that of b."""
    n = max(a.n, b.n)
    return _dominates(_block_sums(a, n), _block_sums(b, n))


def _brute_force_bound(a: Asm, b: Asm, universe: list[Asm], upper: bool) -> Asm:
    """The least upper (or greatest lower) bound of a and b found by
    scanning the whole lattice, ordered by block sums."""
    n = max(c.n for c in (a, b, *universe))
    ra, rb = _block_sums(a, n), _block_sums(b, n)
    sums = [(c, _block_sums(c, n)) for c in universe]
    if upper:
        bounds = [(c, r) for c, r in sums if _dominates(ra, r) and _dominates(rb, r)]
        best = [c for c, r in bounds if all(_dominates(r, s) for _, s in bounds)]
    else:
        bounds = [(c, r) for c, r in sums if _dominates(r, ra) and _dominates(r, rb)]
        best = [c for c, r in bounds if all(_dominates(s, r) for _, s in bounds)]
    assert len(best) == 1
    return best[0]


def brute_force_join(a: Asm, b: Asm, universe: list[Asm]) -> Asm:
    """Least upper bound by scanning the whole lattice."""
    return _brute_force_bound(a, b, universe, upper=True)


def brute_force_meet(a: Asm, b: Asm, universe: list[Asm]) -> Asm:
    """Greatest lower bound by scanning the whole lattice."""
    return _brute_force_bound(a, b, universe, upper=False)


# --------------------------------- the lattice on corner-sum tables (tuples)
#
# The packed lattice kernel in asmprism.asm is checked against these: the
# same entrywise comparisons, minima and maxima, cell by cell on the
# tuples of corner_rows, validated by validate_asm.  A smaller ASM reaches
# the common size through the entry-based embed, one row and column at a
# time, so the tables share nothing with the kernel's bytewise iota.


def _embedded_corner_rows(a: Asm, m: int) -> tuple[tuple[int, ...], ...]:
    """The corner sums of a embedded into ASM(m), m >= a.n."""
    while a.n < m:
        a = embed(a)
    return corner_rows(a)


def _common_corner_rows(a: Asm, b: Asm) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The corner sums of a and b at their common size."""
    m = max(a.n, b.n)
    return _embedded_corner_rows(a, m), _embedded_corner_rows(b, m)


def corner_leq(a: Asm, b: Asm) -> bool:
    """a <= b iff r_a >= r_b entrywise."""
    ra, rb = _common_corner_rows(a, b)
    return all(all(map(operator.ge, x, y)) for x, y in zip(ra, rb))


def corner_join(a: Asm, b: Asm) -> Asm:
    """The entrywise minimum of the corner sums."""
    ra, rb = _common_corner_rows(a, b)
    return asm_from_corner_sum(tuple(tuple(map(min, x, y)) for x, y in zip(ra, rb)))


def corner_meet(a: Asm, b: Asm) -> Asm:
    """The entrywise maximum of the corner sums."""
    ra, rb = _common_corner_rows(a, b)
    return asm_from_corner_sum(tuple(tuple(map(max, x, y)) for x, y in zip(ra, rb)))


def _entrywise_min(mats: Sequence[Sequence[Sequence[int]]]) -> tuple[tuple[int, ...], ...]:
    """The entrywise minimum of one or more square matrices of one size."""
    return tuple(tuple(map(min, zip(*rows))) for rows in zip(*mats))


def corner_join_all(asms: Sequence[Asm], n: int | None = None) -> Asm:
    """join_all on the tables: the entrywise minimum at the largest size."""
    if not asms:
        return identity_asm(n if n else 1)
    m = max(n or 1, max(a.n for a in asms))
    return asm_from_corner_sum(_entrywise_min([_embedded_corner_rows(a, m) for a in asms]))


def decoded_entries_match(asms: Sequence[Asm]) -> bool:
    """Whether the join and the meet of every pair of asms, which hold only
    their packed sums, decode to entries whose corner sums are the entrywise
    minimum and maximum of the pair's, read off the entries the asms hold.
    No verify check decodes corner sums, so this is the decoder's check."""
    for a, b in itertools.product(asms, repeat=2):
        ra, rb = corner_rows(a), corner_rows(b)
        for got, pick in ((asm_join(a, b), min), (asm_meet(a, b), max)):
            if corner_rows(got) != tuple(tuple(map(pick, x, y)) for x, y in zip(ra, rb)):
                return False
    return True


def pair_lattice_check(asms: Sequence[Asm]) -> bool:
    """verify lattice by pairs, as it ran before it moved to
    join-irreducibles: the join and meet of every pair of asms are ASMs
    that bound the pair, and every A = join(biGr(A)).  Quadratic in the
    number of ASMs; the oracle for ``cli._check_lattice``."""
    try:
        for k, a in enumerate(asms):
            for b in asms[k:]:
                j, m = asm_join(a, b), asm_meet(a, b)
                if not (asm_leq(a, j) and asm_leq(b, j) and asm_leq(m, a) and asm_leq(m, b)):
                    return False
            if join_all([u.matrix(a.n) for u in bigr_of(a)], a.n) != a:
                return False
    except AsmValidationError:
        return False
    return True


def _table_diagram(rows: Sequence[Sequence[int]]) -> frozenset[Cell]:
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


def table_rank_conditions(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, int, int], ...]:
    """(i, j, r(i, j)) for the cells of the diagram of the table whose south
    and east neighbours are not in it, in increasing order of (i, j)."""
    d = _table_diagram(rows)
    ess = [(i, j) for (i, j) in d if (i + 1, j) not in d and (i, j + 1) not in d]
    return tuple((i, j, rows[i - 1][j - 1]) for (i, j) in sorted(ess))


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


# ------------------------------------------------- words and their products
#
# Words are tuples of simple-transposition indices, 1-based: letter i
# swaps positions i and i+1, so right multiplication by s_i swaps those
# positions of the one-line word.


def perm_value(w: Perm, i: int) -> int:
    """w(i), with every point past w's support fixed."""
    if i < 1:
        raise ValueError("positions are 1-based")
    return w.one_line[i - 1] if i <= w.size else i


def is_identity(w: Perm) -> bool:
    return not w.one_line


def descents(w: Perm) -> tuple[int, ...]:
    line = w.one_line
    return tuple(i for i in range(1, len(line)) if line[i - 1] > line[i])


def right_mul(w: Perm, i: int) -> Perm:
    """w * s_i: swap the values in positions i, i+1."""
    line = list(w.padded(max(w.size, i + 1)))
    line[i - 1], line[i] = line[i], line[i - 1]
    return Perm(tuple(line))


def word_product(q) -> Perm:
    """Ordered product of the simple transpositions in q."""
    w = Perm.identity()
    for i in q:
        if i < 1:
            raise ValueError(f"letters must be positive, got {i}")
        w = right_mul(w, i)
    return w


def demazure_product(q) -> Perm:
    """Fold of e_w e_s = e_{ws} if longer, e_w if shorter."""
    w = Perm.identity()
    for i in q:
        if i < 1:
            raise ValueError(f"letters must be positive, got {i}")
        if perm_value(w, i) < perm_value(w, i + 1):
            w = right_mul(w, i)
    return w


def reduced_words(w: Perm):
    """All reduced words for w (letters 1-based)."""
    if is_identity(w):
        yield ()
        return
    for i in descents(w):
        for rw in reduced_words(right_mul(w, i)):
            yield rw + (i,)


def grassmannian_decode(u: Perm) -> tuple[tuple[int, ...], int]:
    """Inverse of grassmannian_encode: the (shape, descent) of a
    Grassmannian permutation.  The identity decodes to ((), 1)."""
    if is_identity(u):
        return (), 1
    ds = descents(u)
    if len(ds) != 1:
        raise ValueError(f"{u} is not Grassmannian: descents {ds}")
    d = ds[0]
    lam = tuple(perm_value(u, d - i + 1) - (d - i + 1) for i in range(1, d + 1))
    return tuple(p for p in lam if p), d


@dataclass(frozen=True)
class SquareWord:
    """The fixed word s_n ... s_1 s_{n+1} ... s_2 ... s_{2n-1} ... s_n with
    its grid identification: cell (i, j) carries s_{i+j-1}, read along
    rows top to bottom, right to left within each row."""

    n: int
    letters: tuple[int, ...] = field(init=False)
    reading_cells: tuple[Cell, ...] = field(init=False)

    def __post_init__(self) -> None:
        cells = tuple((i, j) for i in range(1, self.n + 1) for j in range(self.n, 0, -1))
        object.__setattr__(self, "reading_cells", cells)
        object.__setattr__(self, "letters", tuple(i + j - 1 for (i, j) in cells))


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
def _schubert_by_descent(line: tuple[int, ...]) -> Polynomial:
    n = len(line)
    staircase = tuple(range(n, 0, -1))
    if line == staircase:
        return Polynomial({Monomial(tuple(n - i for i in range(1, n + 1))): 1})
    i = next(k for k in range(1, n) if line[k - 1] < line[k])
    longer = list(line)
    longer[i - 1], longer[i] = longer[i], longer[i - 1]
    return divided_difference(_schubert_by_descent(tuple(longer)), i)


def schubert_oracle(w: Perm) -> Polynomial:
    """The Schubert polynomial of w by divided differences down from the
    staircase monomial of the longest element."""
    n = max(w.size, 1)
    return _schubert_by_descent(w.padded(n))


def partition_leq(inner, outer) -> bool:
    """Containment of Young diagrams."""
    from asmprism.prism import partition

    inner, outer = partition(inner), partition(outer)
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def bottom_pipe_dream(w: Perm, n: int) -> PlusDiagram:
    """Left-justified pluses: code(w)_i cells at the start of row i, the
    library's bottom mask decoded."""
    from asmprism.algebra import grid_cells
    from asmprism.pipedream import _bottom_mask

    return PlusDiagram(n, grid_cells(_bottom_mask(w, n), n))


def brute_force_pipe_dreams(w, n: int) -> frozenset[frozenset[tuple[int, int]]]:
    """All subsets of the staircase with |P| = l(w) whose reading word is a
    reduced expression for w."""
    staircase = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n]
    ell = w.length()
    out = set()
    for cells in itertools.combinations(staircase, ell):
        word = tuple(i + j - 1 for (i, j) in sorted(cells, key=lambda c: (c[0], -c[1])))
        if word_product(word) == w:
            out.add(frozenset(cells))
    return frozenset(out)


def asm_count_formula(n: int) -> int:
    """|ASM(n)| by the product formula prod_{j=0}^{n-1} (3j+1)! / (n+j)!."""
    from math import factorial

    num = 1
    den = 1
    for j in range(n):
        num *= factorial(3 * j + 1)
        den *= factorial(n + j)
    assert num % den == 0
    return num // den


def render_corner_sum(a: Asm) -> str:
    """The block sums of a in the ASM text format."""
    return "\n".join(" ".join(str(x) for x in row[1:]) for row in block_sum_table(a)[1:])


def bruhat_leq(v, w) -> bool:
    """v <= w in Bruhat order, via corner sums of the permutation matrices."""
    from asmprism.asm import asm_leq

    n = max(v.size, w.size, 1)
    return asm_leq(v.matrix(n), w.matrix(n))


def all_bigrassmannians(n: int):
    """Every non-identity biGrassmannian in S_n, once each."""
    from asmprism.perm import bigrassmannian_encode

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for r in range(0, min(i, j)):
                if i + j - r <= n:
                    yield bigrassmannian_encode(i, j, r, n)


@functools.lru_cache(maxsize=None)
def _perms_with_block_sums(n: int):
    """Every w in S_n with the block sums of its matrix."""
    from asmprism.perm import all_perms

    return [(w, _block_sums(w.matrix(n), n)) for w in all_perms(n)]


def _perms_above_by_block_sums(a: Asm):
    ra = _block_sums(a, a.n)
    return [(w, r) for w, r in _perms_with_block_sums(a.n) if _dominates(ra, r)]


def brute_force_perm_set(a: Asm):
    """Perm(A) by scanning S_n: every w with A <= w, minus those lying
    above another such w, both orders read off the block sums."""
    above = _perms_above_by_block_sums(a)
    return frozenset(
        w for w, r in above
        if not any(v != w and _dominates(s, r) for v, s in above)
    )


def labels_by_antidiagonal(t) -> dict[int, list[tuple[int, int, int, int]]]:
    """Map antidiagonal index -> list of (value, color, grid row, grid col)
    of a prism tableau, colors 1-based in spec order."""
    out: dict[int, list[tuple[int, int, int, int]]] = {}
    for c, comp in enumerate(t.components, start=1):
        for a, b, v in comp.cells():
            out.setdefault(a + b - 1, []).append((v, c, a, b))
    return out


def _replacement_valid(t, q: int, b: int, new: int) -> bool:
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


def brute_force_unstable_triple(t) -> bool:
    """Unstable triples by their definition, one antidiagonal at a time:
    labels {l_c, l_d, l'_e} with l < l' such that l appears in two
    distinct colors c != d and replacing the color-c copy of l by l' stays
    a prism tableau."""
    for items in labels_by_antidiagonal(t).values():
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


def prism_min_degree(spec) -> int:
    """deg(lambda, d): the least weight degree over all prism fillings,
    read off the unions of the library's prism(), which all have it."""
    from asmprism.prism import _Fillings

    degrees = {union.bit_count() for _, union in _Fillings(spec).prism()}
    assert len(degrees) == 1, degrees
    return degrees.pop()


def least_degree_fillings(fillings):
    """The fillings of least degree, unstable ones included, in enumeration
    order, by building the whole product of the pools of the
    ``prism._Fillings`` given: each as its entries and the union of their
    phi cells."""
    product = [
        (entries, functools.reduce(operator.or_, (entry[1] for entry in entries), 0))
        for entries in itertools.product(*fillings.pools)
    ]
    least = min(union.bit_count() for _, union in product)
    return [f for f in product if f[1].bit_count() == least]


def has_unstable_triple(t) -> bool:
    """The library's unstable-triple test on one prism tableau: ``_unstable``
    on its entries at the spec's ambient size.  The tests read it against
    ``brute_force_unstable_triple``."""
    from asmprism.prism import _as_filling, _unstable

    return _unstable(_as_filling(t))


def brute_force_prism_weight(t):
    """The weight by its antidiagonal definition: x_v to the number of
    antidiagonals that carry the label v in some color."""
    from asmprism.algebra import Monomial

    diag_of: dict[int, set[int]] = {}
    for ad, items in labels_by_antidiagonal(t).items():
        for v, _, _, _ in items:
            diag_of.setdefault(v, set()).add(ad)
    return Monomial.from_powers({v: len(ads) for v, ads in diag_of.items()})


def component_cells(spec, c: int) -> list[tuple[int, int]]:
    """Grid cells of component c (0-based) of a prism shape, row-major."""
    lam, d = spec.lambdas[c], spec.ds[c]
    return [
        (d - q + 1, b)
        for q in range(len(lam), 0, -1)
        for b in range(1, lam[q - 1] + 1)
    ]


def all_prism_tableaux(spec):
    """AllPrism(spec): the cartesian product of the component fillings, in
    enumeration order."""
    from asmprism.prism import PrismTableau, enumerate_rssyt

    pools = [list(enumerate_rssyt(lam, d)) for lam, d in zip(spec.lambdas, spec.ds)]
    for combo in itertools.product(*pools):
        yield PrismTableau(spec, tuple(combo))


def phi_fibers(fillings, images):
    """The fiber walk inside verify_bijection, over the pools of the
    ``prism._Fillings`` given, with its images as sets of cells and each
    packed label int as the list of its labels: for each image hit, the
    fiber maximum and the stable members' labels in the walk's order."""
    from asmprism.algebra import grid_cells

    n = fillings.n
    size = sum(map(sum, fillings.spec.lambdas))

    def labels(packed: int) -> list[int]:
        return list(packed.to_bytes(size, "big"))

    targets = {sum(1 << (i - 1) * n + j - 1 for i, j in image) for image in images}
    tops, stables = fillings.fibers(targets)
    assert stables.keys() <= tops.keys()
    return {
        grid_cells(mask, n): (labels(top), [labels(s) for s in stables.get(mask, ())])
        for mask, top in tops.items()
    }


def brute_force_minimal_tableaux(spec):
    """The prism tableaux of least weight degree by building the whole
    product of component fillings, in enumeration order."""
    degrees = [(t, brute_force_prism_weight(t).total_degree) for t in all_prism_tableaux(spec)]
    lowest = min(d for _, d in degrees)
    return [t for t, d in degrees if d == lowest]


def brute_force_prism_set(spec):
    """The minimal stable prism tableaux by building the whole product of
    component fillings, in enumeration order."""
    return [t for t in brute_force_minimal_tableaux(spec) if not brute_force_unstable_triple(t)]


def brute_force_phi_image(t) -> frozenset[tuple[int, int]]:
    """phi(t) by its definition: a label v on antidiagonal k puts a plus at
    (v, k - v + 1)."""
    return frozenset(
        (v, k - v + 1) for k, items in labels_by_antidiagonal(t).items() for v, _, _, _ in items
    )


def brute_force_fibers(spec):
    """The fibers of phi over the whole product of component fillings:
    each image mapped to its tableaux, in enumeration order."""
    fibers: dict = {}
    for t in all_prism_tableaux(spec):
        fibers.setdefault(brute_force_phi_image(t), []).append(t)
    return fibers


def tableau_labels(t) -> list[int]:
    """The labels of a prism tableau, component by component, each
    component's rows bottom first."""
    return [v for comp in t.components for row in comp.rows for v in row]


def entrywise_max(fiber) -> list[int]:
    """The fiber maximum on flat label lists: each label's largest value
    over the members.  The oracle for the packed maximum that
    ``prism._Fillings.fibers`` takes."""
    return [max(labels) for labels in zip(*map(tableau_labels, fiber))]


def brute_force_fiber_max(fib):
    """The entrywise maximum of a fiber of prism tableaux, rebuilt as a
    prism tableau, if it lies in the fiber; else None."""
    from asmprism.prism import PrismTableau, Rssyt

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


def relaxed_unstable_triple(t) -> bool:
    """The relaxed reading of an unstable triple: labels l < l' on one
    antidiagonal such that replacing some copy of l by l' leaves a prism
    tableau, whether or not l appears in two colors.  Each replacement is
    tested by rebuilding the component."""
    from asmprism.prism import Rssyt

    def replaced(comp, q: int, b: int, new: int) -> bool:
        rows = [list(row) for row in comp.rows]
        rows[q][b] = new
        try:
            Rssyt(comp.shape, comp.depth, tuple(tuple(row) for row in rows))
        except ValueError:
            return False
        return True

    for items in labels_by_antidiagonal(t).values():
        values = {v for v, _, _, _ in items}
        for v, c, a, b in items:
            comp = t.components[c - 1]
            if any(replaced(comp, comp.depth - a, b - 1, bigger) for bigger in values if bigger > v):
                return True
    return False


def contains_reduced_word(letters: tuple[int, ...], w) -> bool:
    """Does the word contain some reduced word of w as a subsequence?"""
    def is_subseq(needle, haystack):
        it = iter(haystack)
        return all(x in it for x in needle)

    return any(is_subseq(rw, letters) for rw in reduced_words(w))


def essential_by_corner_sums(a: Asm) -> frozenset[tuple[int, int]]:
    """The rank characterization of the essential set."""
    r = block_sum_table(a)
    n = a.n
    out = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if not (r[i][j] == r[i - 1][j] == r[i][j - 1]):
                continue
            if i == n or j == n:
                continue
            if r[i][j] + 1 == r[i + 1][j] == r[i][j + 1]:
                out.add((i, j))
    return frozenset(out)


# ------------------------------------------------ the initial ideal by minors


@dataclass(frozen=True)
class MinorSpec:
    """A k-minor of the northwest block Z_{[i],[j]}, k = r_A(i,j) + 1."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    region: Cell

    def __post_init__(self) -> None:
        rows = tuple(sorted(self.rows))
        cols = tuple(sorted(self.cols))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if len(rows) != len(cols) or not rows:
            raise ValueError("minor needs equally many rows and columns, at least one")
        i, j = self.region
        if rows[-1] > i or cols[-1] > j:
            raise ValueError(f"minor {rows}x{cols} does not fit in the ({i},{j}) block")

    @property
    def size(self) -> int:
        return len(self.rows)


def essential_generators(a: Asm) -> frozenset[MinorSpec]:
    """All (r_A(i,j)+1)-minors of Z_{[i],[j]} over the essential cells."""
    return frozenset(
        MinorSpec(rows, cols, (i, j))
        for i, j, r in rank_conditions(a)
        for rows in itertools.combinations(range(1, i + 1), r + 1)
        for cols in itertools.combinations(range(1, j + 1), r + 1)
    )


def antidiagonal_init(m: MinorSpec) -> frozenset[Cell]:
    """The support of a minor's lead term under an antidiagonal order:
    smallest row with largest column."""
    k = m.size
    return frozenset((m.rows[t], m.cols[k - 1 - t]) for t in range(k))


def minimalize(supports) -> frozenset[frozenset[Cell]]:
    """The inclusion-minimal supports: each one compared with every other,
    kept unless some other lies strictly inside it."""
    family = set(supports)
    return frozenset(s for s in family if not any(t < s for t in family))


def defining_generators(a: Asm):
    """The full generating set of I_A: the (r_A(i,j)+1)-minors of
    Z_{[i],[j]} at every grid cell, not only the essential ones.  Cells
    whose rank bound is vacuous (r = min(i,j)) contribute nothing."""
    r = block_sum_table(a)
    out = set()
    for i in range(1, a.n + 1):
        for j in range(1, a.n + 1):
            k = r[i][j] + 1
            for rows in itertools.combinations(range(1, i + 1), k):
                for cols in itertools.combinations(range(1, j + 1), k):
                    out.add(MinorSpec(rows, cols, (i, j)))
    return frozenset(out)


def brute_force_minimal_hitting_sets(supports) -> frozenset[frozenset[tuple[int, int]]]:
    """All inclusion-minimal sets meeting every support, by branching on
    every vertex of the first unhit support.  A set can be reached along
    several orders of its vertices, so the leaves are deduplicated; a leaf is kept
    when every chosen vertex has a private support."""
    edges = sorted({frozenset(s) for s in supports}, key=lambda e: (len(e), sorted(e)))
    if any(not e for e in edges):
        raise ValueError("empty support cannot be hit")
    # a support containing another is hit whenever the smaller one is
    edges = [e for e in edges if not any(f < e for f in edges)]
    found: set[frozenset[tuple[int, int]]] = set()

    def minimal(chosen) -> bool:
        for v in chosen:
            if not any(e & chosen == {v} for e in edges):
                return False
        return True

    def branch(chosen) -> None:
        for e in edges:
            if not (e & chosen):
                for v in sorted(e):
                    branch(chosen | {v})
                return
        if minimal(chosen):
            found.add(chosen)

    branch(frozenset())
    return frozenset(found)


def minimal_hitting_sets(supports) -> frozenset[frozenset[tuple[int, int]]]:
    """The library's hitting-set search on cells anywhere: the cells are
    numbered in sorted order over the union of the supports, the search
    runs on masks of those numbers, and its result is decoded."""
    from asmprism.ideal import _hitting_masks

    supports = [frozenset(s) for s in supports]
    cells = sorted(frozenset().union(*supports))
    bit = {c: 1 << k for k, c in enumerate(cells)}
    found = _hitting_masks(sum(bit[c] for c in s) for s in supports)
    return frozenset(frozenset(c for k, c in enumerate(cells) if h >> k & 1) for h in found)


def multidegree_from_sr_facets(a: Asm):
    """The multidegree through the Stanley-Reisner complex: its facets
    (grid complements of the brute-force minimal hitting sets of the
    initial ideal's supports), then the maximal-dimension ones, then the
    row counts of their complements in the grid."""
    from asmprism.algebra import Monomial, poly_from_monomials
    from asmprism.ideal import initial_ideal

    grid = frozenset((i, j) for i in range(1, a.n + 1) for j in range(1, a.n + 1))
    transversals = brute_force_minimal_hitting_sets(initial_ideal(a))
    facets = [grid - h for h in transversals]
    top = max(len(f) for f in facets)
    monomials = []
    for f in facets:
        if len(f) != top:
            continue
        counts: dict[int, int] = {}
        for (i, _) in grid - f:
            counts[i] = counts.get(i, 0) + 1
        monomials.append(Monomial.from_powers(counts))
    return poly_from_monomials(monomials)


def matrix_rank(rows: list[list[int]]) -> int:
    """Exact rank over the rationals by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    col = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank
