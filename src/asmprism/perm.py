"""Permutations, their Grassmannian and biGrassmannian codes, and the
Perm/MinPerm machinery over ASMs.

Permutations are stored in one-line notation with trailing fixed points
stripped, so representatives of the same class under the inclusion
S_n -> S_{n+1} compare equal; the identity is the empty tuple.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cache

from .asm import Asm, _permutation_asm, bigrassmannian_one_line, join_all, rank_conditions


@dataclass(frozen=True)
class Perm:
    """A permutation of {1, 2, ...} fixing all but finitely many points."""

    one_line: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        w = tuple(int(x) for x in self.one_line)
        if sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
        while w and w[-1] == len(w):
            w = w[:-1]
        object.__setattr__(self, "one_line", w)

    @classmethod
    def identity(cls) -> Perm:
        return cls(())

    @property
    def size(self) -> int:
        """Smallest n with this permutation in S_n (0 for the identity)."""
        return len(self.one_line)

    def padded(self, n: int) -> tuple[int, ...]:
        if n < self.size:
            raise ValueError(f"cannot pad to {n} < size {self.size}")
        return self.one_line + tuple(range(self.size + 1, n + 1))

    def length(self) -> int:
        w = self.one_line
        return sum(1 for a, b in itertools.combinations(w, 2) if a > b)

    def matrix(self, n: int | None = None) -> Asm:
        """The permutation matrix in ASM(n), n defaulting to the size.  It
        is kept per process, keyed on (one-line word, n)."""
        return _matrix(self.one_line, max(self.size if n is None else n, 1))

    def render(self, n: int | None = None) -> str:
        return " ".join(str(x) for x in self.padded(n if n else max(self.size, 1)))

    def __repr__(self) -> str:
        return f"Perm({''.join(map(str, self.one_line)) or 'id'})"


@cache
def _matrix(word: tuple[int, ...], n: int) -> Asm:
    if n < len(word):
        raise ValueError(f"{Perm(word)} does not fit in S_{n}")
    return _permutation_asm(word + tuple(range(len(word) + 1, n + 1)), n)


def all_perms(n: int) -> Iterator[Perm]:
    for p in itertools.permutations(range(1, n + 1)):
        yield Perm(p)


def grassmannian_encode(lam: Sequence[int], d: int, n: int) -> Perm:
    """The Grassmannian permutation [lam, d]_g in S_n: unique descent at d,
    shape lam.  The empty shape encodes the identity.  The others are kept
    per process, keyed on (lam less its zeros, d, n).  A kept shape fits
    d x (n - d) for some 1 <= d < n, so S_n gives fewer than 2^n entries,
    and a call that raises leaves no entry."""
    lam = tuple(p for p in lam if p)
    return _grassmannian(lam, d, n) if lam else Perm.identity()


@cache
def _grassmannian(lam: tuple[int, ...], d: int, n: int) -> Perm:
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or any(p < 0 for p in lam):
        raise ValueError(f"not a partition: {lam}")
    if d < 1:
        raise ValueError("descent position must be positive")
    if len(lam) > d or lam[0] > n - d:
        raise ValueError(f"shape {lam} does not fit in {d} x {n - d}")
    padded = lam + (0,) * (d - len(lam))
    # u(p) = lam_{d-p+1} + p for p <= d; remaining values in increasing order
    head = [padded[d - p] + p for p in range(1, d + 1)]
    tail = sorted(set(range(1, n + 1)) - set(head))
    return Perm(tuple(head + tail))


@cache
def bigrassmannian_encode(i: int, j: int, r: int, n: int) -> Perm:
    """The block biGrassmannian [i, j, r]_b in S_n; the identity when
    r = min(i, j).  Kept per process: S_n has C(n + 1, 3) biGrassmannians,
    and a call that raises leaves no entry."""
    if i < 1 or j < 1:
        raise ValueError("need 1 <= i, j (B1)")
    if not 0 <= r <= min(i, j):
        raise ValueError(f"need 0 <= r <= min(i, j), got r={r} (B2)")
    if r == min(i, j):
        return Perm.identity()
    if i + j - r > n:
        raise ValueError(f"need i + j - r <= n, got {i}+{j}-{r} > {n} (B3)")
    return Perm(bigrassmannian_one_line(i, j, r, n))


def asm_from_shape_tuple(lams: Sequence[Sequence[int]], ds: Sequence[int], n: int | None = None) -> Asm:
    """A_{lambda, d}: the join of the Grassmannian permutation matrices
    [lam^(i), d_i]_g in ASM(n).  When n is omitted the smallest ambient
    size containing every shape is used."""
    if len(lams) != len(ds):
        raise ValueError(f"{len(lams)} shapes but {len(ds)} descents")
    shapes = [tuple(p for p in lam if p) for lam in lams]
    for lam, d in zip(shapes, ds):
        if d < max(1, len(lam)):
            raise ValueError(f"descent {d} smaller than the length of {lam}")
    if n is None:
        n = max([d + lam[0] for lam, d in zip(shapes, ds) if lam], default=1)
    return join_all([grassmannian_encode(lam, d, n).matrix(n) for lam, d in zip(shapes, ds)], n)


def bigr_of(a: Asm) -> frozenset[Perm]:
    """biGr(A) = {[i, j, r_A(i,j)]_b : (i, j) essential}; the unique
    antichain of biGrassmannians whose join is A."""
    return frozenset(bigrassmannian_encode(i, j, r, a.n) for i, j, r in rank_conditions(a))


def _minimal_above(a: Asm, shortest_only: bool = False) -> list[tuple[int, tuple[int, ...]]]:
    """(length, one-line word) of each Bruhat-minimal w in S_n with w >= A,
    words in lexicographic order, built a row at a time; with
    ``shortest_only``, just those of least length.

    By Fulton's essential-set theorem (A = join(biGr(A))), w >= A iff
    r_w(i, j) <= r_A(i, j) at every (i, j) in Ess(A).  The prefix's values
    are a bitmask (value v is bit v - 1), and the prefix w(1..i-1) holds
    c = r_w(i-1, j) values up to j.  So row i's tests run once per node:
    c > r ends the branch, c == r bars the values up to j, and the walk
    visits the values still allowed.

    The w >= A form an upper set, so w is minimal iff no lower cover
    w t_(p,q) is still >= A.  That cover swaps w(p) > w(q), p < q, with no
    w(c) between them for p < c < q, and raises r_w by one on rows
    p..q-1 and columns w(q)..w(p)-1, so it is >= A iff no essential cell
    there is tight (r_w = r_A).  All of this is fixed once row q is
    placed, so row q bars the values that make such a cover (``covered``).

    Placing v commits code(w)_i, the unused values below v; these sum to
    l(w) and never fall, so with ``shortest_only`` a prefix is dropped
    once its committed length exceeds the least length of a complete word
    seen; ties are kept.  A least-length w >= A has no shorter u >= A
    below it, so it is minimal, and that mode skips the cover test."""
    n = a.n
    tests: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for i, j, r in rank_conditions(a):
        tests[i].append(((1 << j) - 1, r))
    values = (1 << n) - 1
    best = math.inf
    found: list[tuple[int, tuple[int, ...]]] = []
    prefix: list[int] = []
    tight = [0] * (n + 1)  # tight[p] has bit j - 1 for each tight essential (p, j)

    def covered(q: int, used: int) -> int:
        """The values (bit v - 1) barred from w(q), given the values ``used``
        by rows 1..q-1.  x = w(p) bars each v < x above every value of rows
        p+1..q-1 and tight column of rows p..q-1 below x (``blocked``)."""
        if tests[q - 1]:
            tight[q - 1] = sum(below + 1 >> 1 for below, r in tests[q - 1] if (used & below).bit_count() == r)
        barred = blocked = 0
        for p in range(q - 1, 0, -1):
            blocked |= tight[p]
            under = (1 << prefix[p - 1] - 1) - 1
            low = (blocked & under).bit_length()
            barred |= under >> low << low
            blocked |= under + 1
        return barred

    def extend(i: int, used: int, length: int) -> None:
        nonlocal best, found
        allowed = values & ~used
        for below, r in tests[i]:
            c = (used & below).bit_count()
            if c > r:
                return
            if c == r:
                allowed &= ~below
        if not shortest_only:
            allowed &= ~covered(i, used)
        while allowed:
            bit = allowed & -allowed
            allowed ^= bit
            grown = length + (~used & (bit - 1)).bit_count()
            if grown > best:
                return  # the code entry only grows with the value
            prefix.append(bit.bit_length())
            if i < n:
                extend(i + 1, used | bit, grown)
            else:
                if shortest_only and grown < best:
                    best, found = grown, []
                found.append((grown, tuple(prefix)))
            prefix.pop()

    extend(1, 0, 0)
    return found


def perm_set(a: Asm) -> frozenset[Perm]:
    """Perm(A): the Bruhat-minimal permutations above A in S_n."""
    return frozenset(Perm(w) for _, w in _minimal_above(a))


def min_perm_set(a: Asm) -> frozenset[Perm]:
    """MinPerm(A): the least-length elements of Perm(A), found as the
    least-length permutations above A with no cover test.  Every
    w >= A lies above some u in Perm(A) with l(u) <= l(w), and a
    least-length w >= A has no shorter u >= A below it, so it is
    Bruhat-minimal: both sets have the same least-length elements."""
    return frozenset(Perm(w) for _, w in _minimal_above(a, shortest_only=True))


def deg(a: Asm) -> int:
    """Minimum length of an honest permutation above A."""
    return _minimal_above(a, shortest_only=True)[0][0]
