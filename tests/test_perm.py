import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_bigrassmannians,
    brute_force_perm_set,
    bruhat_leq,
    contains_reduced_word,
    demazure_product,
    descents,
    grassmannian_decode,
    is_identity,
    perm_value,
    prism_min_degree,
    reduced_words,
    word_product,
)

from asmprism.asm import (
    asm_leq,
    bigrassmannian_one_line,
    enumerate_asms,
    identity_asm,
    join_all,
    rank_conditions,
    validate_asm,
)
from asmprism.perm import (
    Perm,
    _bigrassmannians,
    _grassmannian,
    _matrix,
    _minimal_above,
    all_perms,
    asm_from_shape_tuple,
    bigr_of,
    bigrassmannian_encode,
    deg,
    grassmannian_encode,
    min_perm_set,
    perm_set,
)
from asmprism.prism import PrismShapeSpec, bigrassmannian_model, parabolic_model


W3412 = Perm((3, 4, 1, 2))
W4123 = Perm((4, 1, 2, 3))


class TestPerm:
    def test_normalization_strips_fixed_points(self):
        assert Perm((3, 1, 2, 4)).one_line == (3, 1, 2)
        assert is_identity(Perm((1, 2, 3)))
        assert Perm((3, 1, 2, 4)) == Perm((3, 1, 2, 4, 5))

    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Perm((1, 1, 2))

    def test_call_beyond_support(self):
        assert perm_value(W4123, 5) == 5
        assert perm_value(W4123, 1) == 4

    def test_matrix_is_asm(self):
        m = W3412.matrix(4)
        assert validate_asm(m.entries) == m

    def test_hash_and_equality_agree_across_padding(self):
        for w in itertools.permutations(range(1, 5)):
            u = Perm(w)
            for padded in (u.padded(4), u.padded(5), u.padded(6)):
                v = Perm(padded)
                assert v == u and hash(v) == hash(u) == hash(u.one_line)
            assert len({u, Perm(u.padded(6)), Perm(u.padded(7))}) == 1
        assert Perm((2, 1)) != Perm((1, 3, 2)) and Perm.identity() == Perm((1, 2))


class TestLength:
    def test_identity(self):
        assert Perm.identity().length() == 0

    def test_3412(self):
        assert W3412.length() == 4

    def test_4123(self):
        assert W4123.length() == 3

    def test_code_counts_the_later_smaller_values(self):
        assert Perm.identity().code() == ()
        assert W3412.code() == (2, 2, 0, 0)
        assert W4123.code() == (3, 0, 0, 0)
        for w in all_perms(5):
            line = w.one_line
            assert w.code() == tuple(sum(1 for v in line[i + 1:] if v < line[i]) for i in range(w.size))
            assert sum(w.code()) == sum(1 for x, y in itertools.combinations(line, 2) if x > y)


class TestWords:
    def test_empty_word(self):
        assert word_product(()) == Perm.identity()
        assert word_product(()).length() == 0

    def test_s3s2s1_is_4123(self):
        assert word_product((3, 2, 1)) == W4123
        assert word_product((3, 2, 1)).length() == 3

    def test_s2s1s3s2_is_3412(self):
        assert word_product((2, 1, 3, 2)) == W3412
        assert word_product((2, 1, 3, 2)).length() == 4

    def test_demazure_of_reduced_word_is_product(self):
        for w in all_perms(4):
            rw = next(reduced_words(w))
            assert demazure_product(rw) == w

    def test_demazure_absorbs_repeats(self):
        assert demazure_product((1, 1)) == Perm((2, 1))
        assert demazure_product((3, 3, 2)) == word_product((3, 2))
        assert word_product((3, 3, 2)) == Perm((1, 3, 2))  # ordinary product collapses

    def test_reduced_word_count_longest_s3(self):
        assert sum(1 for _ in reduced_words(Perm((3, 2, 1)))) == 2


class TestBruhat:
    def test_reflexive_and_identity_bottom(self):
        for w in all_perms(3):
            assert bruhat_leq(w, w)
            assert bruhat_leq(Perm.identity(), w)

    def test_incomparable_pair(self):
        assert not bruhat_leq(W3412, W4123)
        assert not bruhat_leq(W4123, W3412)

    def test_agrees_with_subword_criterion_s4(self):
        perms = list(all_perms(4))
        for v, w in itertools.product(perms, repeat=2):
            by_rank = bruhat_leq(v, w)
            rw = next(reduced_words(w))
            assert by_rank == contains_reduced_word(rw, v)


class TestGrassmannian:
    def test_empty_shape_is_identity(self):
        assert grassmannian_encode((), 2, 4) == Perm.identity()
        assert grassmannian_encode((0,), 3, 4) == Perm.identity()

    def test_examples(self):
        assert grassmannian_encode((2,), 1, 4) == Perm((3, 1, 2, 4))
        assert grassmannian_encode((2,), 2, 4) == Perm((1, 4, 2, 3))

    def test_does_not_fit(self):
        with pytest.raises(ValueError):
            grassmannian_encode((3,), 2, 4)
        with pytest.raises(ValueError):
            grassmannian_encode((1, 1, 1), 2, 5)

    def test_decode_round_trip(self):
        for d in (1, 2, 3):
            for lam in [(), (1,), (2,), (2, 1), (3, 2, 1)]:
                if len(lam) > d or (lam and lam[0] > 5 - d):
                    continue
                u = grassmannian_encode(lam, d, 5)
                shape, des = grassmannian_decode(u)
                assert shape == tuple(p for p in lam if p)
                if shape:
                    assert des == d
                    assert descents(u) == (d,)


class TestBiGrassmannian:
    def test_r_equal_min_is_identity(self):
        assert bigrassmannian_encode(2, 3, 2, 4) == Perm.identity()

    @pytest.mark.parametrize("i,j,r,expected", [
        (1, 2, 0, (3, 1, 2, 4)),
        (2, 3, 1, (1, 4, 2, 3)),
        (1, 3, 0, (4, 1, 2, 3)),
        (2, 1, 0, (2, 3, 1, 4)),
        (3, 2, 1, (1, 3, 4, 2)),
    ])
    def test_block_forms(self, i, j, r, expected):
        assert bigrassmannian_encode(i, j, r, 4) == Perm(expected)

    def test_characterizing_properties(self):
        # Ess(u) = {(i,j)}, r_u(i,j) = r, des(u) = i, shape = (i-r) x (j-r)
        from asmprism.asm import corner_rows, essential_set

        for u, (i, j, r) in [
            (bigrassmannian_encode(1, 2, 0, 4), (1, 2, 0)),
            (bigrassmannian_encode(2, 3, 1, 4), (2, 3, 1)),
            (bigrassmannian_encode(3, 3, 1, 5), (3, 3, 1)),
        ]:
            a = u.matrix(max(4, i + j - r))
            assert essential_set(a) == {(i, j)}
            assert corner_rows(a)[i - 1][j - 1] == r
            assert descents(u) == (i,)
            shape, d = grassmannian_decode(u)
            assert d == i
            assert shape == ((j - r),) * (i - r)

    def test_b3_violation(self):
        with pytest.raises(ValueError, match="B3"):
            bigrassmannian_encode(3, 3, 0, 4)

    def test_b1_b2_violations(self):
        with pytest.raises(ValueError, match="B1"):
            bigrassmannian_encode(0, 2, 0, 4)
        with pytest.raises(ValueError, match="B2"):
            bigrassmannian_encode(2, 2, -1, 4)
        with pytest.raises(ValueError, match="B2"):
            bigrassmannian_encode(2, 2, 3, 4)


class TestTables:
    """The biGrassmannians of S_n, grassmannian_encode and Perm.matrix are
    served from per-process tables; a call that raises leaves no entry."""

    def test_encode_equals_a_fresh_perm(self):
        for n in range(1, 7):
            for i, j in itertools.product(range(1, n + 1), repeat=2):
                for r in range(max(0, i + j - n), min(i, j) + 1):
                    u = bigrassmannian_encode(i, j, r, n)
                    assert u == Perm(bigrassmannian_one_line(i, j, r, n))

    def test_bigrassmannians_of_s_n_keyed_on_their_rank_condition(self):
        for n in range(1, 8):
            table = _bigrassmannians(n)
            assert len(table) == len(set(table.values())) == math.comb(n + 1, 3)
            assert set(table.values()) == set(all_bigrassmannians(n))
            for (i, j, r), u in table.items():
                assert u == bigrassmannian_encode(i, j, r, n)
                assert rank_conditions(u.matrix(n)) == ((i, j, r),)
                assert bigr_of(u.matrix(n)) == {u}

    def test_grassmannian_encode_equals_a_fresh_perm(self):
        """Every Grassmannian permutation of S_n, n <= 6, is sorted(S) then
        the rest sorted, for a d-subset S of 1..n; its (shape, d) is its
        key, and the table holds one entry per nonempty shape."""
        _grassmannian.cache_clear()
        keys = 0
        for n in range(1, 7):
            for d in range(1, n):
                for head in itertools.combinations(range(1, n + 1), d):
                    fresh = Perm(head + tuple(v for v in range(1, n + 1) if v not in head))
                    lam = tuple(sorted((v - p for p, v in enumerate(head, start=1)), reverse=True))
                    u = grassmannian_encode(lam, d, n)
                    assert u == fresh
                    if fresh.size:  # the empty shape's identity is not kept
                        assert grassmannian_encode(lam, d, n) is u
                        assert grassmannian_decode(u) == (tuple(p for p in lam if p), d)
                        keys += 1
        assert _grassmannian.cache_info().currsize == keys == sum(2 ** n - n - 1 for n in range(1, 7))

    def test_grassmannian_list_and_tuple_share_an_entry(self):
        u = grassmannian_encode((2, 1), 2, 5)
        assert grassmannian_encode([2, 1], 2, 5) is u
        assert grassmannian_encode([2, 1, 0, 0], 2, 5) is u
        assert grassmannian_encode((), 2, 5) == grassmannian_encode([0], 4, 5) == Perm.identity()

    @pytest.mark.parametrize("lam,d,n,match", [
        ((1, 2), 2, 5, "not a partition"),
        ((2, -1), 2, 5, "not a partition"),
        ([-1], 2, 5, "not a partition"),
        ((1,), 0, 4, "descent position must be positive"),
        ((1,), -2, 4, "descent position must be positive"),
        ((3,), 2, 4, "does not fit in 2 x 2"),
        ((1, 1, 1), 2, 5, "does not fit in 2 x 3"),
    ])
    def test_grassmannian_violations_raise_every_time(self, lam, d, n, match):
        grassmannian_encode((3,), 2, 5)  # fits at n = 5, so n must be part of the key
        before = _grassmannian.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                grassmannian_encode(lam, d, n)
        assert _grassmannian.cache_info().currsize == before

    def test_matrix_is_kept_per_width(self):
        _matrix.cache_clear()
        w = Perm((3, 1, 4, 2))
        for n in (4, 5, 4):
            m = w.matrix(n)
            padded = w.padded(n)
            expected = validate_asm([[int(padded[i] == j) for j in range(1, n + 1)] for i in range(n)])
            assert m.n == n and m.entries == expected.entries
            assert w.matrix(n) is m
        assert _matrix.cache_info().currsize == 2

    def test_matrix_too_narrow_raises_every_time(self):
        before = _matrix.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="does not fit in S_3"):
                W3412.matrix(3)
        assert _matrix.cache_info().currsize == before

    def test_matrix_below_width_1_reads_as_1(self):
        for n in (0, -2):
            assert Perm.identity().matrix(n) == identity_asm(1) and Perm.identity().matrix(n).n == 1
            with pytest.raises(ValueError, match=r"^Perm\(21\) does not fit in S_1$"):
                Perm((2, 1)).matrix(n)
        with pytest.raises(ValueError, match=r"^Perm\(312\) does not fit in S_2$"):
            Perm((3, 1, 2)).matrix(2)

    def test_matrix_default_width(self):
        assert Perm((3, 1, 2)).matrix().entries == ((0, 0, 1), (1, 0, 0), (0, 1, 0))
        assert Perm.identity().matrix() == identity_asm(1)
        assert Perm.identity().matrix().n == 1


class TestShapeTuple:
    def test_singleton_is_the_grassmannian(self):
        u = grassmannian_encode((2, 1), 2, 4)
        assert asm_from_shape_tuple(PrismShapeSpec([(2, 1)], [2])) == u.matrix(4)

    def test_facet_example_recovers_noneqi(self, noneqi):
        assert asm_from_shape_tuple(PrismShapeSpec([(2,), (2,)], [1, 2])) == noneqi

    def test_models_recover_asmdiag(self, asmdiag):
        for model in (bigrassmannian_model(asmdiag), parabolic_model(asmdiag)):
            assert asm_from_shape_tuple(model) == asmdiag

    def test_length_mismatch(self):
        # the spec refuses the tuple before any A is built
        with pytest.raises(ValueError, match=r"^1 shapes but 2 depths$"):
            asm_from_shape_tuple(PrismShapeSpec([(1,)], [1, 2]))

    def test_descent_too_small(self):
        with pytest.raises(ValueError, match=r"^shape \(1, 1, 1\) is longer than its depth 2$"):
            asm_from_shape_tuple(PrismShapeSpec([(1, 1, 1)], [2]))


class TestBigrOf:
    def test_identity_empty(self):
        assert bigr_of(identity_asm(3)) == frozenset()

    def test_asmdiag(self, asmdiag):
        expected = {
            bigrassmannian_encode(1, 3, 0, 4),
            bigrassmannian_encode(2, 1, 0, 4),
            bigrassmannian_encode(3, 2, 1, 4),
        }
        assert bigr_of(asmdiag) == expected

    def test_noneqi(self, noneqi):
        assert bigr_of(noneqi) == {
            bigrassmannian_encode(1, 2, 0, 4),
            bigrassmannian_encode(2, 3, 1, 4),
        }

    def test_join_and_antichain_asm4(self):
        for a in enumerate_asms(4):
            bs = bigr_of(a)
            assert join_all([u.matrix(4) for u in bs], 4) == a
            for u, v in itertools.combinations(bs, 2):
                assert not bruhat_leq(u, v) and not bruhat_leq(v, u)

    def test_equals_maximal_bigrassmannians_below_asm3(self):
        # biGr(A) = MAX{b in B_n : b <= A}
        for a in enumerate_asms(3):
            below = [u for u in all_bigrassmannians(3) if asm_leq(u.matrix(3), a)]
            maximal = {
                u for u in below
                if not any(v != u and bruhat_leq(u, v) for v in below)
            }
            assert bigr_of(a) == maximal


class TestPermSet:
    def test_honest_permutation(self):
        a = W3412.matrix(4)
        assert perm_set(a) == {W3412}
        assert deg(a) == 4

    def test_noneqi(self, noneqi):
        assert perm_set(noneqi) == {W3412, W4123}
        assert min_perm_set(noneqi) == {W4123}
        assert deg(noneqi) == 3

    def test_deg_example(self, deg_example):
        assert deg(deg_example) == 4
        assert W3412 in perm_set(deg_example)

    def test_upper_set_generated_by_perm_set_asm4(self):
        # w >= A iff some u in Perm(A) has u <= w
        for a in enumerate_asms(4):
            ps = perm_set(a)
            for w in all_perms(4):
                direct = asm_leq(a, w.matrix(4))
                via = any(bruhat_leq(u, w) for u in ps)
                assert direct == via

    def test_bigrassmannian_meet_characterization_asm4(self):
        # [i,j,r]_b is the meet of {A : r_A(i,j) <= r}
        from asmprism.asm import asm_meet, corner_rows

        asms = list(enumerate_asms(4))
        for i, j in [(1, 2), (2, 2), (2, 3), (3, 1)]:
            for r in range(0, min(i, j)):
                if i + j - r > 4:
                    continue
                family = [a for a in asms if corner_rows(a)[i - 1][j - 1] <= r]
                meet = family[0]
                for b in family[1:]:
                    meet = asm_meet(meet, b)
                assert meet == bigrassmannian_encode(i, j, r, 4).matrix(4)


def assert_matches_oracle(a):
    expected = brute_force_perm_set(a)
    shortest_length = min(w.length() for w in expected)
    assert perm_set(a) == expected
    assert min_perm_set(a) == {w for w in expected if w.length() == shortest_length}
    assert deg(a) == shortest_length


class TestPermSetOracle:
    """The essential-set search against the scan of all of S_n."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_asm(self, n):
        for a in enumerate_asms(n):
            assert_matches_oracle(a)

    def test_asm6_every_250th(self):
        for a in list(enumerate_asms(6))[::250]:
            assert_matches_oracle(a)

    def test_length_bound_asm6_every_25th(self):
        """MinPerm(A) by the length-bounded walk against the shortest
        elements of the oracle's Perm(A)."""
        for a in list(enumerate_asms(6))[::25]:
            above = brute_force_perm_set(a)
            shortest_length = min(w.length() for w in above)
            expected = {w for w in above if w.length() == shortest_length}
            assert min_perm_set(a) == expected
            assert deg(a) == next(iter(expected)).length()

    def test_n1(self):
        a = identity_asm(1)
        assert perm_set(a) == min_perm_set(a) == {Perm.identity()}
        assert deg(a) == 0

    def test_identity_6(self):
        a = identity_asm(6)
        assert perm_set(a) == min_perm_set(a) == {Perm.identity()}
        assert deg(a) == 0

    def test_identity_8(self):
        # with no essential cell nothing is tight, so each row bars every
        # value below an earlier one: the walk visits the 255 increasing
        # prefixes, not the 40,320 permutations above A
        a = identity_asm(8)
        assert perm_set(a) == min_perm_set(a) == {Perm.identity()}
        assert deg(a) == 0

    @pytest.mark.parametrize("w", [(3, 6, 1, 5, 2, 4), (6, 5, 4, 3, 2, 1), (2, 1, 3, 4, 5, 6)])
    def test_permutation_matrix(self, w):
        w = Perm(w)
        a = w.matrix(6)
        assert perm_set(a) == min_perm_set(a) == {w}
        assert deg(a) == w.length()

    @pytest.mark.slow
    def test_every_asm6(self):
        for a in enumerate_asms(6):
            assert_matches_oracle(a)

    @pytest.mark.slow
    def test_asm7_sample(self):
        """The fixed 60-ASM(7) sample of the n = 7 timings: indices drawn
        by random.Random(5) from the 218,348 ASMs in enumeration order."""
        picked = set(random.Random(5).sample(range(218348), 60))
        sample = [a for k, a in enumerate(enumerate_asms(7)) if k in picked]
        assert len(sample) == 60
        for a in sample:
            assert_matches_oracle(a)


def assert_walk_is_perm_set(a):
    """The walk yields exactly Perm(A), each word once, in word order,
    with its length; so the cover test drops every non-minimal w above A
    and never a minimal one."""
    pairs = _minimal_above(a)
    words = [w for _, w in pairs]
    assert words == sorted(set(words))
    assert all(len(w) == a.n for w in words)
    assert {Perm(w) for w in words} == brute_force_perm_set(a)
    assert all(length == Perm(w).length() for length, w in pairs)


class TestWalkOracle:
    """The row walk of _minimal_above against the block-sum scan of S_n."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_asm(self, n):
        for a in enumerate_asms(n):
            assert_walk_is_perm_set(a)

    def test_asm6_every_250th(self):
        for a in list(enumerate_asms(6))[::250]:
            assert_walk_is_perm_set(a)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.permutations(range(1, 7)), min_size=1, max_size=3))
    def test_joins_of_permutations_s6(self, words):
        a = join_all([Perm(tuple(w)).matrix(6) for w in words], 6)
        assert perm_set(a) == brute_force_perm_set(a)


class TestDegViaPrisms:
    def test_deg_equals_min_prism_degree_asm4(self):
        for a in enumerate_asms(4):
            d = deg(a)
            assert prism_min_degree(bigrassmannian_model(a)) == d
            assert prism_min_degree(parabolic_model(a)) == d
