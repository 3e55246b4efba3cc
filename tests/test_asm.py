import functools
import itertools
import operator
import random

import pytest

from conftest import (
    _block_sums,
    asm_count_formula,
    asm_from_monotone_triangle,
    asm_from_rank_conditions,
    block_sum_table,
    brute_force_asms,
    brute_force_canonical,
    brute_force_diagram,
    brute_force_join,
    brute_force_leq,
    brute_force_meet,
    essential_by_corner_sums,
    matrix_rank,
    partial_bigrassmannian,
    render_corner_sum,
)

from asmprism.asm import (
    Asm,
    AsmValidationError,
    MatrixParseError,
    MonotoneTriangle,
    _is_corner_sums,
    _sums_at,
    _trusted_asm,
    asm_from_corner_sum,
    asm_join,
    asm_leq,
    asm_meet,
    canonical_completion,
    corner_rows,
    embed,
    enumerate_asms,
    essential_set,
    identity_asm,
    inversions,
    join_all,
    monotone_triangle,
    parse_matrix_text,
    rank_conditions,
    render_asm,
    validate_asm,
    validate_partial_asm,
)
from asmprism.perm import bigr_of


class TestValidation:
    def test_identity_valid(self):
        assert validate_asm([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == identity_asm(3)

    def test_paper_matrix_valid(self, asmdiag):
        assert asmdiag.n == 4

    def test_zero_row_sum_rejected(self):
        with pytest.raises(AsmValidationError, match="row 1"):
            validate_asm([[1, -1], [-1, 1]])

    def test_bad_entry_rejected(self):
        with pytest.raises(AsmValidationError, match="row 1, column 2"):
            validate_asm([[0, 2], [1, 0]])

    def test_alternation_rejected(self):
        # rows/columns sum to 1 but column 1 starts with -1
        with pytest.raises(AsmValidationError):
            validate_asm([[-1, 1, 1], [1, 0, 0], [1, 0, 0]])

    def test_non_square_rejected(self):
        with pytest.raises(AsmValidationError, match="square"):
            validate_asm([[1, 0], [0, 1], [0, 0]])


class TestCornerSum:
    def test_identity_2x2(self):
        assert corner_rows(identity_asm(2)) == ((1, 1), (1, 2))

    def test_asmdiag(self, asmdiag):
        assert corner_rows(asmdiag) == (
            (0, 0, 0, 1), (0, 1, 1, 2), (1, 1, 2, 3), (1, 2, 3, 4))

    def test_deg_example(self, deg_example):
        assert corner_rows(deg_example) == (
            (0, 0, 1, 1), (0, 1, 1, 2), (1, 1, 2, 3), (1, 2, 3, 4))

    def test_round_trip_identity(self):
        assert asm_from_corner_sum(((1, 1), (1, 2))) == identity_asm(2)

    def test_r3412_recovers_3412(self):
        a = asm_from_corner_sum(((0, 0, 1, 1), (0, 0, 1, 2), (1, 1, 2, 3), (1, 2, 3, 4)))
        assert a.entries == ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))

    def test_round_trip_all_asm4(self):
        for a in enumerate_asms(4):
            assert asm_from_corner_sum(corner_rows(a)) == a

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_block_sums(self, n):
        """corner_rows, and the packed sums at m = n, n+1 and n+2, against
        the block sums of the matrix padded with diagonal 1s, summed from
        the definition."""
        for a in enumerate_asms(n):
            assert [x for row in corner_rows(a) for x in row] == _block_sums(a, n)
            for m in (n, n + 1, n + 2):
                assert list(_sums_at(a, m).to_bytes(m * m, "little")) == _block_sums(a, m)

    def test_partial_asm_only_at_its_own_size(self):
        # corner_rows takes no size: iota embeds ASMs only, as a zero row
        # or column has no 1 to extend
        p = validate_partial_asm([[0]])
        assert corner_rows(p) == ((0,),)

    @pytest.mark.parametrize(
        "rows, match",
        [
            (((0, 0), (0, 2)), "entry 2 at row 2, column 2"),  # R1
            (((2, 1), (1, 2)), "entry 2 at row 1, column 1"),  # R2
            (((1, 1), (1, 1)), "row 2 sums to 0"),  # R1, entries in {-1,0,1}
            (((1, 0, 1), (1, 1, 2), (1, 2, 3)), "alternation fails in column 2"),  # R2 only
            (((1, 1), (1, 2), (1, 2)), "square"),
        ],
    )
    def test_asm_from_corner_sum_rejects(self, rows, match):
        with pytest.raises(ValueError, match=match):
            asm_from_corner_sum(rows)


class TestOrderAndLattice:
    def test_reflexive(self, asmdiag):
        assert asm_leq(asmdiag, asmdiag)

    def test_deg_example_below_3412(self, deg_example):
        w3412 = validate_asm([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
        assert asm_leq(deg_example, w3412)

    def test_identity_is_minimum(self):
        for a in enumerate_asms(3):
            assert asm_leq(identity_asm(3), a)

    def test_join_with_identity(self, asmdiag):
        assert asm_join(asmdiag, identity_asm(4)) == asmdiag

    def test_join_idempotent(self, asmdiag):
        assert asm_join(asmdiag, asmdiag) == asmdiag

    def test_join_3124_1423_matches_brute_force(self, noneqi):
        w3124 = validate_asm([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        w1423 = validate_asm([[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
        j = asm_join(w3124, w1423)
        assert j == noneqi
        assert sorted(inversions(j)) == [(1, 1), (1, 2), (2, 3)]
        universe = list(enumerate_asms(4))
        assert brute_force_join(w3124, w1423, universe) == j

    def test_lattice_axioms_asm4(self):
        asms = list(enumerate_asms(4))
        for a, b in itertools.product(asms, repeat=2):
            j, m = asm_join(a, b), asm_meet(a, b)
            assert j == asm_join(b, a)
            assert m == asm_meet(b, a)
            assert asm_join(a, asm_meet(a, b)) == a
            assert asm_meet(a, asm_join(a, b)) == a
        # associativity: corner sums make it entrywise min/max, so checking
        # every triple of the smaller lattice plus a sample here is enough
        for a, b, c in itertools.product(list(enumerate_asms(3)), repeat=3):
            assert asm_join(asm_join(a, b), c) == asm_join(a, asm_join(b, c))
            assert asm_meet(asm_meet(a, b), c) == asm_meet(a, asm_meet(b, c))
        rng = random.Random(11)
        for _ in range(300):
            a, b, c = (rng.choice(asms) for _ in range(3))
            assert asm_join(asm_join(a, b), c) == asm_join(a, asm_join(b, c))
            assert asm_meet(asm_meet(a, b), c) == asm_meet(a, asm_meet(b, c))


    def test_leq_matches_block_sums(self):
        asm3, asm4 = list(enumerate_asms(3)), list(enumerate_asms(4))
        for a, b in itertools.chain(itertools.product(asm4, repeat=2), itertools.product(asm3, asm4)):
            assert asm_leq(a, b) == brute_force_leq(a, b)
            assert asm_leq(b, a) == brute_force_leq(b, a)

    def test_join_meet_match_oracles_asm3(self):
        universe = list(enumerate_asms(3))
        for a, b in itertools.product(universe, repeat=2):
            assert asm_join(a, b) == brute_force_join(a, b, universe)
            assert asm_meet(a, b) == brute_force_meet(a, b, universe)

    def test_join_meet_match_oracles_asm4_sample(self):
        universe = list(enumerate_asms(4))
        rng = random.Random(4)
        for _ in range(60):
            a, b = rng.choice(universe), rng.choice(universe)
            assert asm_join(a, b) == brute_force_join(a, b, universe)
            assert asm_meet(a, b) == brute_force_meet(a, b, universe)


def _fold_join(family, universe):
    """join_all by the oracle: brute_force_join folded over the family; the
    empty fold is the least element of the universe, found by scanning."""
    if not family:
        return next(c for c in universe if all(brute_force_leq(c, d) for d in universe))
    return functools.reduce(lambda x, y: brute_force_join(x, y, universe), family)


class TestJoinAll:
    def test_bigr_families_asm4(self):
        universe = list(enumerate_asms(4))
        for a in universe:
            family = [u.matrix(4) for u in bigr_of(a)]
            assert join_all(family, 4) == _fold_join(family, universe) == a

    def test_mixed_sizes(self):
        rng = random.Random(7)
        pools = [list(enumerate_asms(k)) for k in (2, 3, 4)]
        universe = pools[-1]
        for _ in range(20):
            family = [rng.choice(pool) for pool in pools for _ in range(rng.randrange(2))]
            family.append(rng.choice(pools[1]))
            rng.shuffle(family)
            j = join_all(family)
            assert j.n == max(a.n for a in family)
            assert j == _fold_join(family, universe)

    def test_n_larger_than_every_member(self):
        universe = list(enumerate_asms(4))
        rng = random.Random(8)
        asm3 = list(enumerate_asms(3))
        for _ in range(20):
            family = [rng.choice(asm3) for _ in range(3)]
            j = join_all(family, 4)
            assert j.n == 4
            assert j == _fold_join(family, universe)

    def test_single_item(self):
        for a in enumerate_asms(3):
            assert join_all([a]) == a and join_all([a]).n == 3
            assert join_all([a], 5) == a and join_all([a], 5).n == 5

    def test_empty_family(self):
        for n in (1, 2, 3):
            universe = list(enumerate_asms(n))
            j = join_all([], n)
            assert j.n == n
            assert j == _fold_join([], universe) == identity_asm(n)
        assert join_all([]).n == 1


class TestDiagram:
    def test_identity_empty(self):
        assert inversions(identity_asm(4)) == frozenset()
        assert essential_set(identity_asm(4)) == frozenset()

    def test_asmdiag_cells(self, asmdiag):
        assert inversions(asmdiag) == frozenset({(1, 1), (1, 2), (1, 3), (2, 1), (3, 2)})

    def test_3412_rothe(self):
        w3412 = validate_asm([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
        assert inversions(w3412) == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})

    def test_essential_asmdiag(self, asmdiag):
        assert essential_set(asmdiag) == frozenset({(1, 3), (2, 1), (3, 2)})

    def test_essential_noneqi(self, noneqi):
        assert essential_set(noneqi) == frozenset({(1, 2), (2, 3)})

    def test_deg_example_diagram_size(self, deg_example):
        assert len(inversions(deg_example)) == 5

    def test_diagram_corner_sum_characterization_asm4(self):
        for a in enumerate_asms(4):
            r = block_sum_table(a)
            by_rank = frozenset(
                (i, j)
                for i in range(1, 5)
                for j in range(1, 5)
                if r[i][j] == r[i - 1][j] == r[i][j - 1]
            )
            assert by_rank == inversions(a)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_factored_criterion(self, n):
        for a in enumerate_asms(n):
            assert inversions(a) == brute_force_diagram(a)

    def test_matches_factored_criterion_asm6_every_50th(self):
        for a in list(enumerate_asms(6))[::50]:
            assert inversions(a) == brute_force_diagram(a)

    def test_essential_double_characterization_asm4(self):
        for a in enumerate_asms(4):
            assert essential_set(a) == essential_by_corner_sums(a)


class TestEssentialRankConditions:
    """rank_conditions against the rank characterization of Ess(A) and
    the corner sum there."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_asm(self, n):
        for a in enumerate_asms(n):
            r = block_sum_table(a)
            expected = tuple(sorted((i, j, r[i][j]) for (i, j) in essential_by_corner_sums(a)))
            assert rank_conditions(a) == expected

    def test_identity_has_none(self):
        assert rank_conditions(identity_asm(6)) == ()
        assert rank_conditions(identity_asm(1)) == ()

    def test_asmdiag(self, asmdiag):
        assert rank_conditions(asmdiag) == ((1, 3, 0), (2, 1, 0), (3, 2, 1))


class TestMonotoneTriangle:
    def test_paper_example(self, triangle_example):
        assert monotone_triangle(triangle_example).rows == ((3,), (1, 4), (1, 3, 4), (1, 2, 3, 4))

    def test_identity(self):
        assert monotone_triangle(identity_asm(3)).rows == ((1,), (1, 2), (1, 2, 3))

    def test_asmdiag(self, asmdiag):
        assert monotone_triangle(asmdiag).rows == ((4,), (2, 4), (1, 3, 4), (1, 2, 3, 4))

    def test_rows_validated(self):
        with pytest.raises(ValueError):
            MonotoneTriangle(((1, 2),))
        with pytest.raises(ValueError):
            MonotoneTriangle(((2,), (2, 2)))

    @pytest.mark.parametrize("rows,match", [
        (((0,),), r"^row 1 has an entry outside 1\.\.1: \(0,\)$"),
        (((1,), (1, 3)), r"^row 2 has an entry outside 1\.\.2: \(1, 3\)$"),
        (((3,), (1, 2), (1, 2, 3)), r"^row 1 does not interlace row 2: \(3,\), \(1, 2\)$"),
        (((2,), (1, 2), (2, 3, 4), (1, 2, 3, 4)), r"^row 2 does not interlace row 3: \(1, 2\), \(2, 3, 4\)$"),
    ])
    def test_entries_in_range_and_rows_interlace(self, rows, match):
        # m(i+1, j) <= m(i, j) <= m(i+1, j+1), with every entry in 1..n
        with pytest.raises(ValueError, match=match):
            MonotoneTriangle(rows)

    def test_triangle_determines_corner_sum_asm4(self):
        # r(i, a) counts the entries of triangle row i that are <= a
        for a in enumerate_asms(4):
            mt = monotone_triangle(a)
            r = block_sum_table(a)
            for i in range(1, 5):
                for col in range(1, 5):
                    assert r[i][col] == sum(1 for x in mt.rows[i - 1] if x <= col)

    def test_asm_round_trip(self, asmdiag):
        assert asm_from_monotone_triangle(monotone_triangle(asmdiag)) == asmdiag

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_round_trip_every_asm(self, n):
        for a in enumerate_asms(n):
            assert asm_from_monotone_triangle(monotone_triangle(a)).entries == a.entries


class TestLambdaRow:
    def test_identity_rows_empty(self):
        for ell in (1, 2, 3):
            assert monotone_triangle(identity_asm(3)).partition(ell) == ()

    def test_asmdiag_rows(self, asmdiag):
        mt = monotone_triangle(asmdiag)
        assert mt.partition(1) == (3,)
        assert mt.partition(2) == (2, 1)
        assert mt.partition(3) == (1, 1)

    def test_fits_in_box(self):
        for a in enumerate_asms(4):
            for ell in range(1, 5):
                lam = monotone_triangle(a).partition(ell)
                assert len(lam) <= ell
                assert all(p <= 4 - ell for p in lam)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 7), (4, 42)])
    def test_counts(self, n, count):
        asms = list(enumerate_asms(n))
        assert len(asms) == count
        assert len({a.entries for a in asms}) == count
        assert asm_count_formula(n) == count

    def test_matches_brute_force_n3(self):
        assert {a.entries for a in enumerate_asms(3)} == {a.entries for a in brute_force_asms(3)}

    def test_deterministic_order(self):
        assert [a.entries for a in enumerate_asms(3)] == [a.entries for a in enumerate_asms(3)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_walk_against_triangles_validation_and_sums(self, n):
        """What the walk does not compute itself: the product formula, the
        flattened triangles strictly increasing (the order, and no ASM
        twice), validate_asm, and the corner sums summed afresh."""
        asms = list(enumerate_asms(n))
        assert len(asms) == asm_count_formula(n)
        flats = [tuple(itertools.chain.from_iterable(monotone_triangle(a).rows)) for a in asms]
        assert all(map(operator.lt, flats, flats[1:]))
        for a in asms:
            assert validate_asm(a.entries) == a
            assert a._sums == Asm(a.entries)._sums

    def test_walk_n7_count_and_sums(self):
        sums = [a._sums for a in enumerate_asms(7)]
        assert len(sums) == asm_count_formula(7)
        assert all(_is_corner_sums(p, 7) for p in sums)

    @pytest.mark.slow
    def test_walk_n7_order(self):
        flats = [tuple(itertools.chain.from_iterable(monotone_triangle(a).rows)) for a in enumerate_asms(7)]
        assert all(map(operator.lt, flats, flats[1:]))

    def test_n1(self):
        (a,) = enumerate_asms(1)
        assert a.entries == ((1,),)
        assert a._sums == 1

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_n_rejected(self, n):
        with pytest.raises(ValueError, match="n must be positive"):
            list(enumerate_asms(n))


class TestEmbed:
    def test_identity(self):
        assert embed(identity_asm(2)).entries == identity_asm(3).entries

    def test_preserves_diagram(self, asmdiag):
        assert inversions(embed(asmdiag)) == inversions(asmdiag)

    def test_boundary_corner_sums(self, asmdiag):
        r = corner_rows(embed(asmdiag))
        assert all(r[i - 1][4] == i for i in range(1, 6))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_padding_is_iota(self, n):
        for a in enumerate_asms(n):
            assert embed(a)._sums == _sums_at(a, n + 1)
            assert embed(embed(a))._sums == _sums_at(a, n + 2)

    def test_order_embedding_asm3(self):
        asms = list(enumerate_asms(3))
        for a, b in itertools.product(asms, repeat=2):
            assert asm_leq(a, b) == asm_leq(embed(a), embed(b))

    def test_canonical_equality_across_sizes(self, asmdiag):
        assert embed(asmdiag) == asmdiag
        assert identity_asm(5) == identity_asm(1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_canonical_matches_block_stripping(self, n):
        """Stripping whole trailing [A|0; 0|1] blocks, on ASM(n) embedded
        0, 1 and 2 times, leaves the ASM the rank conditions fix: equal to
        A, with A's rank conditions, and of the least size they allow, the
        largest i + j - r(i, j) over Ess(A), or 1 when Ess(A) is empty."""
        for a in enumerate_asms(n):
            conds = rank_conditions(a)
            size = max((i + j - r for i, j, r in conds), default=1)
            for b in (a, embed(a), embed(embed(a))):
                c = validate_asm(brute_force_canonical(b))
                assert c.n == size and rank_conditions(c) == conds and c == b

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_hash_is_the_hash_of_the_rank_conditions(self, n):
        """hash(A) is the hash of its rank conditions, at every size A is
        embedded in, equal to the hash of its stripped rows as an ASM, and
        it does not depend on whether the entries were held or decoded from
        the sums.  The rank conditions tell the ASMs of ASM(n) apart."""
        asms = list(enumerate_asms(n))
        for a in asms:
            want = hash(tuple(rank_conditions(a)))
            for b in (a, embed(a), embed(embed(a)), _trusted_asm(a.n, a._sums)):
                assert hash(b) == want == hash(validate_asm(brute_force_canonical(b)))
        assert len({tuple(rank_conditions(a)) for a in asms}) == len(asms)


class TestPartialAsm:
    def test_honest_matrix_is_partial(self, asmdiag):
        p = validate_partial_asm(asmdiag.entries)
        assert canonical_completion(p) == asmdiag

    def test_first_nonzero_must_be_one(self):
        with pytest.raises(AsmValidationError):
            validate_partial_asm([[0, 0], [0, -1]])

    def test_paper_completion(self):
        p = validate_partial_asm([[0, 0, 0], [0, 1, 0], [1, -1, 0]])
        comp = canonical_completion(p)
        assert comp.entries == (
            (0, 0, 0, 1, 0),
            (0, 1, 0, 0, 0),
            (1, -1, 0, 0, 1),
            (0, 1, 0, 0, 0),
            (0, 0, 1, 0, 0),
        )

    def test_1x1_zero_completion(self):
        p = validate_partial_asm([[0]])
        assert canonical_completion(p).entries == ((0, 1), (1, 0))

    def test_completion_order_agrees_with_corner_sums(self):
        # r_A >= r_B iff the completions compare the same way
        partials = [
            validate_partial_asm(m)
            for m in ([[0, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 1], [0, 0]],
                      [[0, 0], [1, 0]], [[1, 0], [0, 1]], [[0, 1], [1, 0]],
                      [[0, 0], [0, 1]], [[0, 1], [1, -1]])
        ]
        for p, q in itertools.product(partials, repeat=2):
            rp, rq = corner_rows(p), corner_rows(q)
            direct = all(rp[i][j] >= rq[i][j] for i in range(2) for j in range(2))
            completed = asm_leq(canonical_completion(p), canonical_completion(q))
            assert direct == completed


class TestRankConditions:
    def test_no_conditions_gives_identity(self):
        p = asm_from_rank_conditions([[None] * 3 for _ in range(3)])
        assert p.entries == identity_asm(3).entries

    def test_vacuous_threshold(self):
        # r_ij >= min(i, j) imposes nothing
        p = asm_from_rank_conditions([[1, None], [None, None]])
        assert p.entries == identity_asm(2).entries

    def test_single_condition_is_partial_bigrassmannian(self):
        r = [[None] * 4 for _ in range(4)]
        r[0][1] = 0
        p = asm_from_rank_conditions(r)
        assert p.entries == partial_bigrassmannian(1, 2, 0, 4).entries
        assert p.entries == ((0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))

    def test_two_conditions_give_noneqi(self, noneqi):
        r = [[None] * 4 for _ in range(4)]
        r[0][1] = 0
        r[1][2] = 1
        p = asm_from_rank_conditions(r)
        assert p.entries == noneqi.entries
        assert canonical_completion(p) == noneqi

    def test_rank_locus_agrees_sampled(self):
        rng = random.Random(7)
        n = 3
        for _ in range(40):
            bounds = [[rng.choice([None, 0, 1, 2]) for _ in range(n)] for _ in range(n)]
            a = asm_from_rank_conditions(bounds)
            ra = corner_rows(a)
            for _ in range(25):
                # biased toward low rank so conditions actually trigger
                k = rng.randint(0, n)
                m = [[0] * n for _ in range(n)]
                for _ in range(k):
                    u = [rng.randint(-2, 2) for _ in range(n)]
                    v = [rng.randint(-2, 2) for _ in range(n)]
                    for i in range(n):
                        for j in range(n):
                            m[i][j] += u[i] * v[j]
                nw_rank = {
                    (i, j): matrix_rank([row[:j] for row in m[:i]])
                    for i in range(1, n + 1)
                    for j in range(1, n + 1)
                }
                sat_r = all(
                    nw_rank[(i, j)] <= bounds[i - 1][j - 1]
                    for i in range(1, n + 1)
                    for j in range(1, n + 1)
                    if bounds[i - 1][j - 1] is not None
                )
                sat_a = all(
                    nw_rank[(i, j)] <= ra[i - 1][j - 1]
                    for i in range(1, n + 1)
                    for j in range(1, n + 1)
                )
                assert sat_r == sat_a


class TestTextFormat:
    def test_render_parse_round_trip(self, asmdiag):
        text = render_asm(asmdiag)
        assert validate_asm(parse_matrix_text(text)) == asmdiag

    def test_render_corner_sum(self, asmdiag):
        text = render_corner_sum(asmdiag)
        assert text.splitlines()[0] == "0 0 0 1"
        assert text == "\n".join(" ".join(map(str, row)) for row in corner_rows(asmdiag))

    def test_parse_reports_position(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text("0 1\nx 0\n")
        assert err.value.line == 2
        assert err.value.column == 1

    def test_parse_rejects_ragged(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("0 1\n1\n")

    def test_parse_rejects_non_square(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("0 1 0\n1 0 0\n")
