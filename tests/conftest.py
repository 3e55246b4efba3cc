"""Shared fixtures: the worked 4x4 matrices, plus independent oracles used
to freeze derived expectations (brute-force enumeration, exact rank,
subsequence checks)."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from asmprism.asm import Asm, validate_asm


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


def brute_force_pipe_dreams(w, n: int) -> frozenset[frozenset[tuple[int, int]]]:
    """All subsets of the staircase with |P| = l(w) whose reading word is a
    reduced expression for w."""
    from asmprism.perm import word_product

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


def render_corner_sum(r) -> str:
    """A corner sum matrix in the ASM text format."""
    return "\n".join(" ".join(str(x) for x in row) for row in r.rows)


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


def brute_force_perm_set(a: Asm):
    """Perm(A) by scanning S_n: every w with A <= w, minus those lying
    above another such w."""
    from asmprism.asm import asm_leq
    from asmprism.perm import all_perms

    above = [w for w in all_perms(a.n) if asm_leq(a, w.matrix(a.n))]
    return frozenset(
        w for w in above
        if not any(v != w and bruhat_leq(v, w) for v in above)
    )


def brute_force_prism_weight(t):
    """The weight by its antidiagonal definition: x_v to the number of
    antidiagonals that carry the label v in some color."""
    from asmprism.algebra import Monomial

    diag_of: dict[int, set[int]] = {}
    for ad, items in t.labels_by_antidiagonal().items():
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


def brute_force_prism_set(spec):
    """The minimal stable prism tableaux by building the whole product of
    component fillings, in enumeration order."""
    from asmprism.prism import has_unstable_triple

    degrees = [(t, brute_force_prism_weight(t).total_degree) for t in all_prism_tableaux(spec)]
    lowest = min(d for _, d in degrees)
    return [t for t, d in degrees if d == lowest and not has_unstable_triple(t)]


def brute_force_phi_image(t) -> frozenset[tuple[int, int]]:
    """phi(t) by its definition: a label v on antidiagonal k puts a plus at
    (v, k - v + 1)."""
    return frozenset(
        (v, k - v + 1) for k, items in t.labels_by_antidiagonal().items() for v, _, _, _ in items
    )


def brute_force_fibers(spec):
    """The fibers of phi over the whole product of component fillings:
    each image mapped to its tableaux, in enumeration order."""
    fibers: dict = {}
    for t in all_prism_tableaux(spec):
        fibers.setdefault(brute_force_phi_image(t), []).append(t)
    return fibers


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

    for items in t.labels_by_antidiagonal().values():
        values = {v for v, _, _, _ in items}
        for v, c, a, b in items:
            comp = t.components[c - 1]
            if any(replaced(comp, comp.depth - a, b - 1, bigger) for bigger in values if bigger > v):
                return True
    return False


def contains_reduced_word(letters: tuple[int, ...], w) -> bool:
    """Does the word contain some reduced word of w as a subsequence?"""
    from asmprism.perm import reduced_words

    def is_subseq(needle, haystack):
        it = iter(haystack)
        return all(x in it for x in needle)

    return any(is_subseq(rw, letters) for rw in reduced_words(w))


def essential_by_corner_sums(a: Asm) -> frozenset[tuple[int, int]]:
    """The rank characterization of the essential set."""
    from asmprism.asm import corner_sum

    r = corner_sum(a)
    n = a.n
    out = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if not (r.value(i, j) == r.value(i - 1, j) == r.value(i, j - 1)):
                continue
            if i == n or j == n:
                continue
            if r.value(i, j) + 1 == r.value(i + 1, j) == r.value(i, j + 1):
                out.add((i, j))
    return frozenset(out)


def defining_generators(a: Asm):
    """The full generating set of I_A: the (r_A(i,j)+1)-minors of
    Z_{[i],[j]} at every grid cell, not only the essential ones.  Cells
    whose rank bound is vacuous (r = min(i,j)) contribute nothing."""
    from asmprism.asm import corner_sum
    from asmprism.ideal import MinorSpec

    r = corner_sum(a)
    out = set()
    for i in range(1, a.n + 1):
        for j in range(1, a.n + 1):
            k = r.value(i, j) + 1
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


def multidegree_from_sr_facets(a: Asm):
    """The multidegree through the Stanley-Reisner complex: its facets
    (grid complements of the brute-force minimal hitting sets of the
    initial ideal's supports), then the maximal-dimension ones, then the
    row counts of their complements in the grid."""
    from asmprism.algebra import Monomial, poly_from_monomials
    from asmprism.ideal import initial_ideal

    grid = frozenset((i, j) for i in range(1, a.n + 1) for j in range(1, a.n + 1))
    transversals = brute_force_minimal_hitting_sets(g.support for g in initial_ideal(a))
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
