"""Permutations, words, and the Perm/MinPerm machinery over ASMs.

Permutations are stored in one-line notation with trailing fixed points
stripped, so representatives of the same class under the inclusion
S_n -> S_{n+1} compare equal; the identity is the empty tuple.  Words are
tuples of simple-transposition indices, 1-based (letter i means the swap
of positions i and i+1).  Right multiplication by s_i swaps positions
i and i+1 of the one-line word.
"""

from __future__ import annotations

import itertools
from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass

from .asm import Asm, asm_leq, bigrassmannian_one_line, corner_sum, essential_set, join_all

Word = tuple[int, ...]


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

    def __call__(self, i: int) -> int:
        if i < 1:
            raise ValueError("positions are 1-based")
        return self.one_line[i - 1] if i <= len(self.one_line) else i

    def padded(self, n: int) -> tuple[int, ...]:
        if n < self.size:
            raise ValueError(f"cannot pad to {n} < size {self.size}")
        return self.one_line + tuple(range(self.size + 1, n + 1))

    @property
    def is_identity(self) -> bool:
        return not self.one_line

    def length(self) -> int:
        w = self.one_line
        return sum(1 for a, b in itertools.combinations(w, 2) if a > b)

    def descents(self) -> tuple[int, ...]:
        w = self.one_line
        return tuple(i for i in range(1, len(w)) if w[i - 1] > w[i])

    def right_mul(self, i: int) -> Perm:
        """self * s_i: swap the values in positions i, i+1."""
        n = max(self.size, i + 1)
        w = list(self.padded(n))
        w[i - 1], w[i] = w[i], w[i - 1]
        return Perm(tuple(w))

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


def word_product(q: Sequence[int]) -> Perm:
    """Ordered product of the simple transpositions in q."""
    w = Perm.identity()
    for i in q:
        if i < 1:
            raise ValueError(f"letters must be positive, got {i}")
        w = w.right_mul(i)
    return w


def is_reduced(q: Sequence[int]) -> bool:
    return word_product(q).length() == len(q)


def demazure_product(q: Sequence[int]) -> Perm:
    """Fold of e_w e_s = e_{ws} if longer, e_w if shorter."""
    w = Perm.identity()
    for i in q:
        if i < 1:
            raise ValueError(f"letters must be positive, got {i}")
        if w(i) < w(i + 1):
            w = w.right_mul(i)
    return w


def reduced_words(w: Perm) -> Iterator[Word]:
    """All reduced words for w (letters 1-based)."""
    if w.is_identity:
        yield ()
        return
    for i in w.descents():
        for rw in reduced_words(w.right_mul(i)):
            yield rw + (i,)


def bruhat_leq(v: Perm, w: Perm) -> bool:
    """v <= w in Bruhat order, via corner sums of the permutation matrices."""
    n = max(v.size, w.size, 1)
    return asm_leq(v.matrix(n), w.matrix(n))


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


def grassmannian_decode(u: Perm) -> tuple[tuple[int, ...], int]:
    """Inverse of the encode map: the (shape, descent) of a Grassmannian
    permutation.  The identity decodes to ((), 1)."""
    if u.is_identity:
        return (), 1
    ds = u.descents()
    if len(ds) != 1:
        raise ValueError(f"{u} is not Grassmannian: descents {ds}")
    d = ds[0]
    lam = tuple(u(d - i + 1) - (d - i + 1) for i in range(1, d + 1))
    return tuple(p for p in lam if p), d


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


def all_bigrassmannians(n: int) -> Iterator[Perm]:
    """Every non-identity biGrassmannian in S_n, once each."""
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for r in range(0, min(i, j)):
                if i + j - r <= n:
                    yield bigrassmannian_encode(i, j, r, n)


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
    r = corner_sum(a)
    return frozenset(
        bigrassmannian_encode(i, j, r.value(i, j), a.n) for (i, j) in essential_set(a)
    )


def _perms_above(a: Asm) -> set[tuple[int, ...]]:
    """One-line words of every w in S_n with w >= A, built a row at a time.

    By Fulton's essential-set theorem (A = join(biGr(A))), w >= A iff
    r_w(i, j) <= r_A(i, j) at every (i, j) in Ess(A).  The prefix w(1..i)
    fixes r_w(i, j), so a prefix is dropped as soon as one test fails."""
    n = a.n
    r = corner_sum(a)
    tests: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for (i, j) in essential_set(a):
        tests[i].append((j, r.value(i, j)))
    out: set[tuple[int, ...]] = set()

    def extend(prefix: tuple[int, ...]) -> None:
        i = len(prefix) + 1
        for v in range(1, n + 1):
            if v in prefix:
                continue
            w = prefix + (v,)
            if all(sum(x <= j for x in w) <= bound for j, bound in tests[i]):
                if i == n:
                    out.add(w)
                else:
                    extend(w)

    extend(())
    return out


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
    above = _perms_above(a)
    return frozenset(
        Perm(w) for w in above if not any(v in above for v in _lower_covers(w))
    )


def shortest(perms: Collection[Perm]) -> frozenset[Perm]:
    """The elements of minimum length."""
    m = min(w.length() for w in perms)
    return frozenset(w for w in perms if w.length() == m)


def min_perm_set(a: Asm) -> frozenset[Perm]:
    """MinPerm(A): the shortest elements of Perm(A)."""
    return shortest(perm_set(a))


def deg(a: Asm) -> int:
    """Minimum length of an honest permutation above A."""
    return next(iter(min_perm_set(a))).length()
