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

from .asm import Asm, bigrassmannian_one_line, join_all, rank_conditions


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
        n = self.size if n is None else n
        n = max(n, 1)
        if n < self.size:
            raise ValueError(f"{self} does not fit in S_{n}")
        zero = (0,) * n
        return Asm(tuple(zero[: v - 1] + (1,) + zero[v:] for v in self.padded(n)))

    def render(self, n: int | None = None) -> str:
        return " ".join(str(x) for x in self.padded(n if n else max(self.size, 1)))

    def __repr__(self) -> str:
        return f"Perm({''.join(map(str, self.one_line)) or 'id'})"


def all_perms(n: int) -> Iterator[Perm]:
    for p in itertools.permutations(range(1, n + 1)):
        yield Perm(p)


def grassmannian_encode(lam: Sequence[int], d: int, n: int) -> Perm:
    """The Grassmannian permutation [lam, d]_g in S_n: unique descent at d,
    shape lam.  The empty shape encodes the identity."""
    lam = tuple(p for p in lam if p)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or any(p < 0 for p in lam):
        raise ValueError(f"not a partition: {lam}")
    if not lam:
        return Perm.identity()
    if d < 1:
        raise ValueError("descent position must be positive")
    if len(lam) > d or lam[0] > n - d:
        raise ValueError(f"shape {lam} does not fit in {d} x {n - d}")
    padded = lam + (0,) * (d - len(lam))
    # u(p) = lam_{d-p+1} + p for p <= d; remaining values in increasing order
    head = [padded[d - p] + p for p in range(1, d + 1)]
    tail = sorted(set(range(1, n + 1)) - set(head))
    return Perm(tuple(head + tail))


def bigrassmannian_encode(i: int, j: int, r: int, n: int) -> Perm:
    """The block biGrassmannian [i, j, r]_b in S_n; the identity when
    r = min(i, j)."""
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
    perms = [grassmannian_encode(lam, d, n) for lam, d in zip(shapes, ds)]
    return join_all([u.matrix(n) for u in perms], n)


def bigr_of(a: Asm) -> frozenset[Perm]:
    """biGr(A) = {[i, j, r_A(i,j)]_b : (i, j) essential}; the unique
    antichain of biGrassmannians whose join is A."""
    return frozenset(bigrassmannian_encode(i, j, r, a.n) for i, j, r in rank_conditions(a))


def _perms_above(a: Asm, shortest_only: bool = False) -> list[tuple[int, ...]]:
    """One-line words of the w in S_n with w >= A, built a row at a time;
    with ``shortest_only``, just those of least length.

    By Fulton's essential-set theorem (A = join(biGr(A))), w >= A iff
    r_w(i, j) <= r_A(i, j) at every (i, j) in Ess(A).  The prefix w(1..i)
    fixes r_w(i, j), so a prefix is dropped as soon as one test fails.
    The prefix's values are a bitmask (value v is bit v - 1), so a test is
    the popcount of its values up to j, and placing v adds one inversion
    per larger value already placed.  Inversions only grow along a
    prefix, so with ``shortest_only`` a prefix is dropped once they exceed
    the least length of a complete word seen; ties are kept."""
    n = a.n
    tests: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for i, j, r in rank_conditions(a):
        tests[i].append(((1 << j) - 1, r))
    best = math.inf
    found: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def extend(i: int, used: int, length: int) -> None:
        nonlocal best, found
        for v in range(n):
            if used >> v & 1:
                continue
            grown = length + (used >> v).bit_count()
            if grown > best:
                continue
            placed = used | 1 << v
            if all((placed & below).bit_count() <= r for below, r in tests[i]):
                prefix.append(v + 1)
                if i < n:
                    extend(i + 1, placed, grown)
                else:
                    if shortest_only and grown < best:
                        best, found = grown, []
                    found.append(tuple(prefix))
                prefix.pop()

    extend(1, 0, 0)
    return found


def _lower_covers(w: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Bruhat lower covers of w: swap w(p) > w(q) when no position between
    p and q holds a value between them."""
    for p in range(len(w) - 1):
        low = 0  # the largest value below w(p) met so far after position p
        for q in range(p + 1, len(w)):
            if low < w[q] < w[p]:
                low = w[q]
                yield w[:p] + (w[q],) + w[p + 1:q] + (w[p],) + w[q + 1:]


def perm_set(a: Asm) -> frozenset[Perm]:
    """Perm(A): the Bruhat-minimal permutations above A in S_n.  The
    permutations above A form an upper set, so w is minimal iff none of
    its lower covers lies above A."""
    above = set(_perms_above(a))
    return frozenset(
        Perm(w) for w in above if not any(v in above for v in _lower_covers(w))
    )


def min_perm_set(a: Asm) -> frozenset[Perm]:
    """MinPerm(A): the least-length elements of Perm(A), found as the
    least-length permutations above A with no lower-cover check.  Every
    w >= A lies above some u in Perm(A) with l(u) <= l(w), and a
    least-length w >= A has no shorter u >= A below it, so it is
    Bruhat-minimal: both sets have the same least-length elements."""
    return frozenset(Perm(w) for w in _perms_above(a, shortest_only=True))


def deg(a: Asm) -> int:
    """Minimum length of an honest permutation above A."""
    return next(iter(min_perm_set(a))).length()
