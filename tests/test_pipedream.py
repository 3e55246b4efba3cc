import ast
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_prism_tableaux,
    asm_from_monotone_triangle,
    bottom_pipe_dream,
    brute_force_fiber_max,
    brute_force_fibers,
    brute_force_pipe_dreams,
    brute_force_prism_weight,
    brute_force_unstable_triple,
    bruhat_leq,
    contains_reduced_word,
    diagram_demazure,
    diagram_word,
    divided_difference,
    dominates_fiber,
    entrywise_dominates,
    has_unstable_triple,
    phi_fibers,
    schubert_oracle,
    square_word,
    word_product,
)

from asmprism.algebra import Monomial, Polynomial, grid_cells, poly_from_monomials
from asmprism.asm import MonotoneTriangle, embed, enumerate_asms, identity_asm
from asmprism.ideal import multidegree
from asmprism.perm import Perm, all_perms, asm_from_shape_tuple, perm_set
from asmprism.pipedream import (
    PlusDiagram,
    _dominates,
    _facet_masks,
    _facet_masks_of,
    _fewest,
    _pipe_dream_masks,
    _schubert,
    delta_facets,
    delta_fmax,
    min_perm_schubert_sum,
    phi,
    pipe_dreams_of,
    schubert_polynomial,
    verify_bijection,
)
from asmprism.prism import (
    PrismShapeSpec,
    PrismTableau,
    Rssyt,
    _entry,
    _Fillings,
    asm_polynomial,
    bigrassmannian_model,
    parabolic_model,
)


W3412 = Perm((3, 4, 1, 2))
W4123 = Perm((4, 1, 2, 3))


def diagram(n, *cells) -> PlusDiagram:
    return PlusDiagram(n, frozenset(cells))


def checked_diagram(mask: int, n: int) -> PlusDiagram:
    """The validated diagram of a grid mask, its cells read bit by bit."""
    return PlusDiagram(n, frozenset((b // n + 1, b % n + 1) for b in range(n * n) if mask >> b & 1))


class TestSquareWord:
    def test_n3_letters(self):
        assert square_word(3).letters == (3, 2, 1, 4, 3, 2, 5, 4, 3)

    def test_n1(self):
        assert square_word(1).letters == (1,)

    def test_grid_labels_n3(self):
        sw = square_word(3)
        label = dict(zip(sw.reading_cells, sw.letters))
        grid = [[label[i, j] for j in (1, 2, 3)] for i in (1, 2, 3)]
        assert grid == [[1, 2, 3], [2, 3, 4], [3, 4, 5]]

    def test_reading_order_row_major_right_to_left(self):
        assert square_word(2).reading_cells == ((1, 2), (1, 1), (2, 2), (2, 1))


class TestDemazure:
    def test_empty_diagram(self):
        assert diagram_demazure(diagram(4)) == Perm.identity()

    def test_p1_is_4123(self):
        p1 = diagram(4, (1, 1), (1, 2), (1, 3))
        assert diagram_word(p1) == (3, 2, 1)
        assert diagram_demazure(p1) == W4123

    def test_non_reduced_word_absorbs(self):
        p = diagram(3, (1, 3), (2, 1), (2, 2))
        assert diagram_word(p) == (3, 3, 2)
        assert diagram_demazure(p) == word_product((3, 2))

    def test_subword_law_random_subwords(self):
        rng = random.Random(2024)
        sw = square_word(4)
        perms = list(all_perms(4))
        for _ in range(150):
            cells = [c for c in sw.reading_cells if rng.random() < 0.4]
            p = PlusDiagram(4, frozenset(cells))
            d = diagram_demazure(p)
            word = diagram_word(p)
            w = rng.choice(perms)
            assert bruhat_leq(w, d) == contains_reduced_word(word, w)


class TestPipeDreams:
    def test_identity(self):
        assert pipe_dreams_of(Perm.identity(), 3) == {diagram(3)}

    def test_4123_single(self):
        dreams = pipe_dreams_of(W4123, 4)
        assert dreams == {diagram(4, (1, 1), (1, 2), (1, 3))}

    def test_3412_single(self):
        dreams = pipe_dreams_of(W3412, 4)
        assert dreams == {diagram(4, (1, 1), (1, 2), (2, 1), (2, 2))}

    def test_2143_three(self):
        dreams = {d.cells for d in pipe_dreams_of(Perm((2, 1, 4, 3)), 4)}
        assert dreams == {
            frozenset({(1, 1), (3, 1)}),
            frozenset({(1, 1), (2, 2)}),
            frozenset({(1, 1), (1, 3)}),
        }

    def test_does_not_fit(self):
        with pytest.raises(ValueError):
            pipe_dreams_of(W4123, 3)
        with pytest.raises(ValueError):
            schubert_polynomial(W4123, 3)

    def test_every_word_is_reduced_for_w(self):
        for w in all_perms(4):
            for p in pipe_dreams_of(w, 4):
                assert len(p.cells) == w.length()
                assert word_product(diagram_word(p)) == w

    def test_ladder_closure_matches_brute_force_s4(self):
        for w in all_perms(4):
            ladder = {p.cells for p in pipe_dreams_of(w, 4)}
            assert ladder == brute_force_pipe_dreams(w, 4)

    def test_ladder_closure_matches_brute_force_s5_sample(self):
        # the whole of S_5, not a sample
        for w in all_perms(5):
            ladder = {p.cells for p in pipe_dreams_of(w, 5)}
            assert ladder == brute_force_pipe_dreams(w, 5), w

    def test_bottom_pipe_dream_is_code(self):
        assert bottom_pipe_dream(W3412, 4).cells == {(1, 1), (1, 2), (2, 1), (2, 2)}


class TestSchubert:
    def test_identity_one(self):
        assert schubert_polynomial(Perm.identity()) == Polynomial.one()
        assert schubert_polynomial(Perm.identity(), 1) == Polynomial.one()
        assert schubert_oracle(Perm.identity()) == Polynomial.one()

    def test_4123_cubed(self):
        expected = Polynomial({Monomial((3,)): 1})
        assert schubert_polynomial(W4123, 4) == expected
        assert schubert_oracle(W4123) == expected

    def test_s1(self):
        assert schubert_polynomial(Perm((2, 1)), 4) == Polynomial({Monomial((1,)): 1})

    def test_w0_s3_staircase(self):
        assert schubert_oracle(Perm((3, 2, 1))) == Polynomial({Monomial((2, 1)): 1})

    def test_oracle_matches_pipe_dreams_s4(self):
        for w in all_perms(4):
            assert schubert_polynomial(w, 4) == schubert_oracle(w), w

    def test_oracle_matches_pipe_dreams_s6(self):
        for w in all_perms(6):
            assert schubert_polynomial(w, 6) == schubert_oracle(w), w

    def test_cached_sums_match_the_oracle_s5_at_widths_5_and_6(self):
        # a cold pass fills the cache and a warm one reads it back
        _schubert.cache_clear()
        for _ in range(2):
            for w in all_perms(5):
                for n in (5, 6):
                    assert schubert_polynomial(w, n) == schubert_oracle(w), (w, n)
        assert _schubert.cache_info().currsize == 2 * 120

    def test_cache_is_keyed_on_the_word_and_the_width(self):
        _schubert.cache_clear()
        narrow = schubert_polynomial(W4123, 4)
        wide = schubert_polynomial(W4123, 5)
        assert _schubert.cache_info().currsize == 2
        assert narrow == wide and narrow is not wide
        # no width means the smallest one, and trailing fixed points are
        # stripped from the word, so both calls reuse the width-4 entry
        assert schubert_polynomial(W4123) is narrow
        assert schubert_polynomial(Perm((4, 1, 2, 3, 5)), 4) is narrow
        assert _schubert.cache_info().currsize == 2
        # a failed call leaves no entry behind
        with pytest.raises(ValueError):
            schubert_polynomial(W4123, 3)
        assert _schubert.cache_info().currsize == 2

    def test_summing_a_cached_sum_leaves_it_unchanged(self):
        _schubert.cache_clear()
        p = schubert_polynomial(W3412, 4)
        before = p.sorted_terms()
        assert p + p == p + p == sum([p, p], Polynomial.zero())
        assert p - p == Polynomial.zero()
        assert p.sorted_terms() == before
        assert schubert_polynomial(W3412, 4) is p
        a = W3412.matrix(4)
        assert min_perm_schubert_sum(a) == min_perm_schubert_sum(a) == p

    def test_divided_difference_staircase(self):
        # d_1 applied to x1^3 x2^2 x3 gives Schubert of 3421... spot check
        # the defining identity instead: d_i is exact on monomial pairs
        p = Polynomial({Monomial((3, 1)): 1})
        out = divided_difference(p, 1)
        assert out == Polynomial({Monomial((2, 1)): 1, Monomial((1, 2)): 1})
        assert divided_difference(out, 1).is_zero  # d_i of a symmetric poly


class TestFacets:
    def test_permutation_facets_are_pipe_dreams(self):
        a = W3412.matrix(4)
        assert {f.cells for f in delta_facets(a)} == {
            p.cells for p in pipe_dreams_of(W3412, 4)}

    def test_identity_single_empty_facet(self):
        fs = delta_facets(identity_asm(3))
        assert len(fs) == 1
        (f,) = fs
        assert f.cells == frozenset()
        assert f.complement_cells() == frozenset(
            (i, j) for i in range(1, 4) for j in range(1, 4))

    def test_noneqi_facets(self, noneqi):
        facets = {f.cells for f in delta_facets(noneqi)}
        assert facets == {
            frozenset({(1, 1), (1, 2), (1, 3)}),
            frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}),
        }
        fmax = {f.cells for f in delta_fmax(noneqi)}
        assert fmax == {frozenset({(1, 1), (1, 2), (1, 3)})}

    def test_containment_reverses(self):
        # F_P subset of F_P' iff P contains P'
        p1 = diagram(4, (1, 1), (1, 2), (1, 3))
        p2 = diagram(4, (1, 1), (1, 2), (1, 3), (2, 1))
        assert p2.complement_cells() < p1.complement_cells()

    def test_union_disjoint_asm4(self):
        for a in enumerate_asms(4):
            total = sum(len(pipe_dreams_of(w, 4)) for w in perm_set(a))
            assert len(delta_facets(a)) == total

    @staticmethod
    def assert_fmax_is_the_fewest_facets(a):
        # delta_fmax reads MinPerm(A); verify_bijection reads the fewest
        # pluses among all facets, over Perm(A)
        assert {f.cells for f in delta_fmax(a)} == {
            grid_cells(m, a.n) for m in _fewest(_facet_masks(a))}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_fmax_from_min_perm_set_every_asm(self, n):
        for a in enumerate_asms(n):
            self.assert_fmax_is_the_fewest_facets(a)

    def test_fmax_from_min_perm_set_identity8(self):
        self.assert_fmax_is_the_fewest_facets(identity_asm(8))
        assert {f.cells for f in delta_fmax(identity_asm(8))} == {frozenset()}

    def test_perm_set_recovered_from_facets_asm3(self):
        # the facet words pick out exactly Perm(A)
        for a in enumerate_asms(3):
            words = {word_product(diagram_word(f)) for f in delta_facets(a)}
            assert words == perm_set(a)


class TestFacetMemo:
    """_facet_masks keeps the facets of the last ASM it saw."""

    @pytest.mark.parametrize("small_first", [True, False])
    def test_embedding_gets_masks_at_its_own_width(self, noneqi, small_first):
        big = embed(embed(noneqi))
        assert big == noneqi and big.n == noneqi.n + 2
        order = [noneqi, big] if small_first else [big, noneqi]
        _facet_masks_of.cache_clear()
        got = [_facet_masks(a) for a in order]
        for a, masks in zip(order, got):
            assert {grid_cells(m, a.n) for m in masks} == {f.cells for f in delta_facets(a)}
            assert masks == {m for w in perm_set(a) for m in _pipe_dream_masks(w, a.n)}
        assert got[0] != got[1]

    def test_memo_is_immutable(self, noneqi):
        assert isinstance(_facet_masks(noneqi), frozenset)
        assert _facet_masks(noneqi) is _facet_masks(noneqi)

    def test_memo_holds_one_asm(self, noneqi, asmdiag):
        _facet_masks_of.cache_clear()
        _facet_masks(noneqi)
        _facet_masks(asmdiag)
        assert _facet_masks_of.cache_info().currsize == 1


class TestMaskBoundary:
    """The facet routes build their diagrams from masks without the
    constructor's checks, and take complements in one kept grid; each must
    agree with the checked diagram of the same mask."""

    @staticmethod
    def assert_matches_checked(got, masks, n):
        want = {m: checked_diagram(m, n) for m in masks}
        assert got == frozenset(want.values())
        by_cells = {p.cells: p for p in got}
        grid = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
        for m, q in want.items():
            p = by_cells[q.cells]
            assert p == q and hash(p) == hash(q) and p.render() == q.render()
            assert p == PlusDiagram._of_mask(m, n)
            assert p.complement_cells() == frozenset(grid - q.cells)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_facet_and_fmax_facet_of_asm(self, n):
        for a in enumerate_asms(n):
            masks = _facet_masks(a)
            self.assert_matches_checked(delta_facets(a), masks, n)
            self.assert_matches_checked(delta_fmax(a), _fewest(masks), n)

    @pytest.mark.parametrize("n", [4, 5])
    def test_every_pipe_dream_of_s_n(self, n):
        for w in all_perms(n):
            self.assert_matches_checked(pipe_dreams_of(w, n), _pipe_dream_masks(w, n), n)

    def test_complement_of_every_mask_at_small_widths(self):
        for n in (1, 2, 3):
            full = (1 << n * n) - 1
            for m in range(full + 1):
                assert PlusDiagram._of_mask(m, n).complement_cells() == checked_diagram(full ^ m, n).cells


class TestPhi:
    def test_seven_by_seven_example(self):
        spec = PrismShapeSpec(((1,), (3, 2), (2, 1, 1)), (2, 5, 6))
        t = PrismTableau(
            spec,
            (
                Rssyt((1,), 2, ((1,),)),
                Rssyt((3, 2), 5, ((3, 3, 2), (1, 1))),
                Rssyt((2, 1, 1), 6, ((6, 3), (2,), (1,))),
            ),
        )
        assert phi(t).cells == {
            (1, 2), (1, 4), (1, 5), (2, 4), (2, 6),
            (3, 3), (3, 4), (3, 5), (6, 1),
        }

    def test_empty_tableau(self):
        spec = PrismShapeSpec((), ())
        (t,) = [PrismTableau(spec, ())]
        assert phi(t).cells == frozenset()

    def test_facet_example_t1(self):
        spec = PrismShapeSpec(((2,), (2,)), (1, 2))
        t1 = PrismTableau(spec, (Rssyt((2,), 1, ((1, 1),)), Rssyt((2,), 2, ((1, 1),))))
        assert phi(t1).cells == {(1, 1), (1, 2), (1, 3)}

    def test_weight_preserving_on_stable_facets_asm3_asm4(self):
        # the antidiagonal definition of the prism weight against the
        # row-count weight of the facet
        for a in [*enumerate_asms(3), *enumerate_asms(4)]:
            for model in (bigrassmannian_model(a), parabolic_model(a)):
                facet_cells = {f.cells for f in delta_facets(a)}
                images = {}
                for t in all_prism_tableaux(model):
                    p = phi(t)
                    if p.cells in facet_cells and not has_unstable_triple(t):
                        assert brute_force_prism_weight(t) == p.weight()
                        assert p.cells not in images, "injectivity violated"
                        images[p.cells] = t


class TestVerifyBijection:
    def test_facet_example_passes_and_excludes_t2(self, noneqi):
        spec = PrismShapeSpec(((2,), (2,)), (1, 2))
        report = verify_bijection(spec)
        assert report.passed
        assert report.counts == {
            "all_prism": 3, "facets": 2, "fmax": 1, "stable_facet": 2, "prism": 1}
        t2 = PrismTableau(spec, (Rssyt((2,), 1, ((1, 1),)), Rssyt((2,), 2, ((2, 1),))))
        facet_cells = {f.cells for f in delta_facets(noneqi)}
        assert phi(t2).cells not in facet_cells

    def test_asmdiag_both_models(self, asmdiag):
        for model in (bigrassmannian_model(asmdiag), parabolic_model(asmdiag)):
            report = verify_bijection(model)
            assert report.passed
            assert report.counts["prism"] == 2
            assert report.counts["fmax"] == 2

    def test_all_asm3_both_models(self):
        for a in enumerate_asms(3):
            for model in (bigrassmannian_model(a), parabolic_model(a)):
                report = verify_bijection(model)
                assert report.passed, report.summary()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rebuilt_asm_gives_the_given_asm_report_every_asm(self, n):
        """verify_bijection rebuilds A_{lambda, d} from its tables when no A
        is given; the report matches the one on A itself."""
        for a in enumerate_asms(n):
            for model in (bigrassmannian_model(a), parabolic_model(a)):
                given_a, rebuilt = verify_bijection(model, a), verify_bijection(model)
                assert given_a.passed and rebuilt.passed
                assert (given_a.checks, given_a.counts) == (rebuilt.checks, rebuilt.counts)

    def test_given_asm_gives_the_spec_only_report(self):
        """A passed in by the caller, often in a larger ambient size than
        the spec's, and A rebuilt from the spec give one report."""
        for a in list(enumerate_asms(4)) + list(enumerate_asms(5))[::20]:
            for model in (bigrassmannian_model(a), parabolic_model(a)):
                assert verify_bijection(model, a) == verify_bijection(model)


def assert_fibers_match_oracle(spec, a):
    """The fiber search against the fibers of the whole product, and the
    report's counts against counts taken from those fibers."""
    facets = {f.cells for f in delta_facets(a)}
    oracle = brute_force_fibers(spec)
    _, fibers = phi_fibers(spec, facets, a.n)
    assert set(fibers) <= facets
    for cells in facets:
        assert fibers.get(cells, []) == oracle.get(cells, [])
    lowest = min(map(len, oracle))
    expected = {
        "all_prism": sum(map(len, oracle.values())),
        "facets": len(facets),
        "fmax": len(delta_fmax(a)),
        "stable_facet": sum(
            not brute_force_unstable_triple(t)
            for cells in facets for t in oracle.get(cells, [])),
        "prism": sum(
            not brute_force_unstable_triple(t)
            for cells, fib in oracle.items() if len(cells) == lowest for t in fib),
    }
    report = verify_bijection(spec)
    assert report.passed, report.summary()
    assert report.counts == expected
    return expected


class TestFiberSearch:
    """The pruned fiber search inside verify_bijection against the fibers
    of the whole product of component fillings."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_asm(self, n):
        for a in enumerate_asms(n):
            assert_fibers_match_oracle(bigrassmannian_model(a), a)
            assert_fibers_match_oracle(parabolic_model(a), a)

    def test_asm6_sample(self):
        asms = list(enumerate_asms(6))
        # ASM 278's biGrassmannian spec has 48,000 fillings
        for a in asms[::500] + [asms[278]]:
            assert_fibers_match_oracle(bigrassmannian_model(a), a)
            assert_fibers_match_oracle(parabolic_model(a), a)

    @pytest.mark.slow
    def test_asm7_sample(self):
        """The first 12 ASMs of the fixed 60-ASM(7) sample of the n = 7
        timings (indices drawn by random.Random(5) from the 218,348 ASMs in
        enumeration order), each model whose spec has at most 50,000
        fillings: 21 of the 24 specs."""
        drawn = random.Random(5).sample(range(218348), 60)[:12]
        wanted = set(drawn)
        picked = {k: a for k, a in enumerate(enumerate_asms(7)) if k in wanted}
        checked = 0
        for k in drawn:
            a = picked[k]
            for spec in (bigrassmannian_model(a), parabolic_model(a)):
                if _Fillings(spec, a.n).count() <= 50_000:
                    assert_fibers_match_oracle(spec, a)
                    checked += 1
        assert checked == 21

    @pytest.mark.parametrize("spec,count", [
        (bigrassmannian_model(identity_asm(6)), 1),
        (parabolic_model(identity_asm(6)), 1),
        (PrismShapeSpec(((),), (4,)), 1),
        (PrismShapeSpec(((), (2, 1), ()), (1, 3, 2)), 8),
    ])
    def test_edge_cases(self, spec, count):
        a = asm_from_shape_tuple(spec.lambdas, spec.ds)
        assert set(assert_fibers_match_oracle(spec, a).values()) == {count}


class TestFailureText:
    def test_empty_fiber_names_the_facet_cells(self, monkeypatch):
        a = list(enumerate_asms(4))[20]
        spec = bigrassmannian_model(a)
        monkeypatch.setattr(_Fillings, "fibers", lambda self, targets: {})
        report = verify_bijection(spec, a)
        assert not report.passed and not report.checks["facets_covered"]
        match = re.fullmatch(r"facet with pluses (\[.*\]) has empty fiber", report.failure)
        assert match
        cells = ast.literal_eval(match.group(1))
        assert cells == sorted(cells) and all(isinstance(c, tuple) for c in cells)
        assert frozenset(cells) in {f.cells for f in delta_facets(a)}


class TestFiberDominance:
    """The dominance check of verify_bijection, on the fillings' entries,
    against the entrywise maximum of the fiber, rebuilt as a prism
    tableau, and against the same test on prism tableaux."""

    def test_dominates_exactly_the_fiber_max(self):
        non_max = 0
        for n in (1, 2, 3, 4):
            for a in enumerate_asms(n):
                targets = _facet_masks(a)
                for spec in (bigrassmannian_model(a), parabolic_model(a)):
                    fillings = _Fillings(spec, a.n)
                    for fib in fillings.fibers(targets).values():
                        tableaux = [fillings.tableau(f) for f in fib]
                        maxi = brute_force_fiber_max(tableaux)
                        for s, t in zip(fib, tableaux):
                            assert _dominates(s, fib) == (t == maxi) == dominates_fiber(t, tableaux)
                            non_max += t != maxi
        assert non_max > 0

    def test_packed_matches_entrywise_asm5(self):
        """The packed test against the flat label lists on every fiber of
        ASM(n <= 5), both models, with every member as the top."""
        verdicts = {True: 0, False: 0}
        for n in (1, 2, 3, 4, 5):
            for a in enumerate_asms(n):
                targets = _facet_masks(a)
                for spec in (bigrassmannian_model(a), parabolic_model(a)):
                    for fib in _Fillings(spec, a.n).fibers(targets).values():
                        for top in fib:
                            verdict = _dominates(top, fib)
                            assert verdict == entrywise_dominates(top, fib)
                            verdicts[verdict] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0

    @pytest.mark.parametrize("low,high", [
        ([((8, 8, 7), (7, 6))], [((8, 8, 7), (7, 7))]),  # the last field
        ([((8, 7),)], [((8, 8),)]),  # a label 8 in the last field
        ([((6,),), ((3,),)], [((7,),), ((3,),)]),  # the last field before a component boundary
        ([((6,),), ((3,),)], [((6,),), ((4,),)]),  # the first field after it
    ])
    def test_one_label_larger_by_one(self, low, high):
        low, high = _filling_of(*low), _filling_of(*high)
        fiber = [low, high]
        assert _dominates(high, fiber) and entrywise_dominates(high, fiber)
        assert not _dominates(low, fiber) and not entrywise_dominates(low, fiber)

    def test_shared_entries(self):
        """A member that shares a component's entry with the top, by
        identity, is compared on its other components only."""
        top = _filling_of(((8, 5),), ((4, 4), (2,)))
        same = (top[0][0], _entry(top[0][1][0], 16)), 0
        lower = (top[0][0], _entry(Rssyt((2, 1), 8, ((4, 3), (2,))), 16)), 0
        higher = (top[0][0], _entry(Rssyt((2, 1), 8, ((4, 4), (3,))), 16)), 0
        assert _dominates(top, [top, same, lower])
        assert not _dominates(top, [top, same, higher])


def _filling_of(*components):
    """A filling on the 16-wide grid of depth-8 components, each given by
    its rows bottom first; only its entries are read."""
    return tuple(_entry(Rssyt(tuple(map(len, rows)), 8, rows), 16) for rows in components), 0


@st.composite
def monotone_triangles(draw, n: int) -> MonotoneTriangle:
    """Rows from the bottom (1, ..., n) up, each entry drawn from the
    range that keeps the row strictly increasing and interleaved with the
    row below."""
    rows = [tuple(range(1, n + 1))]
    for k in range(n - 1, 0, -1):
        below, row = rows[-1], []
        for i in range(k):
            lo = max(below[i], row[-1] + 1) if row else below[i]
            row.append(draw(st.integers(lo, below[i + 1])))
        rows.append(tuple(row))
    return MonotoneTriangle(tuple(reversed(rows)))


class TestWeightedSums:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(6, 7).flatmap(monotone_triangles).map(asm_from_monotone_triangle))
    def test_theorem1_on_random_asms_n6_n7(self, a):
        target = min_perm_schubert_sum(a)
        assert asm_polynomial(bigrassmannian_model(a)) == target
        assert asm_polynomial(parabolic_model(a)) == target
        assert multidegree(a) == target

    def test_facet_sum_is_schubert_sum_asm4(self):
        # over all facets and over the maximal-dimension ones
        for a in enumerate_asms(4):
            facet_sum = poly_from_monomials(f.weight() for f in delta_facets(a))
            perm_sum = Polynomial.zero()
            for w in perm_set(a):
                perm_sum = perm_sum + schubert_polynomial(w, 4)
            assert facet_sum == perm_sum
            fmax_sum = poly_from_monomials(f.weight() for f in delta_fmax(a))
            assert fmax_sum == min_perm_schubert_sum(a)
