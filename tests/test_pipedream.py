import ast
import functools
import itertools
import operator
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
    brute_force_phi_image,
    brute_force_pipe_dreams,
    brute_force_prism_weight,
    brute_force_unstable_triple,
    bruhat_leq,
    contains_reduced_word,
    diagram_demazure,
    diagram_word,
    divided_difference,
    entrywise_max,
    has_unstable_triple,
    phi_fibers,
    schubert_oracle,
    square_word,
    tableau_labels,
    word_product,
)

from asmprism.algebra import Monomial, Polynomial, grid_cells, poly_from_monomials
from asmprism.asm import MonotoneTriangle, embed, enumerate_asms, identity_asm, validate_asm
from asmprism.ideal import multidegree
from asmprism.perm import Perm, all_perms, asm_from_shape_tuple, min_perm_set, perm_set
from asmprism.pipedream import (
    PlusDiagram,
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
    prism_set,
)


W3412 = Perm((3, 4, 1, 2))
W4123 = Perm((4, 1, 2, 3))


def min_perm_pipe_dreams(a):
    """The maximal-dimension facets of Delta(Q, A) as cell sets, by the
    walk over MinPerm(A): the pipe dreams of each minimal permutation."""
    return {grid_cells(m, a.n) for w in min_perm_set(a) for m in _pipe_dream_masks(w, a.n)}


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
        assert _schubert.cache_info().currsize == 120

    def test_cache_is_keyed_on_the_word(self):
        _schubert.cache_clear()
        narrow = schubert_polynomial(W4123, 4)
        # the width only checks that w fits, and trailing fixed points are
        # stripped from the word, so every call reuses the one entry
        assert schubert_polynomial(W4123, 5) is narrow
        assert schubert_polynomial(W4123) is narrow
        assert schubert_polynomial(Perm((4, 1, 2, 3, 5)), 4) is narrow
        assert _schubert.cache_info().currsize == 1
        # a failed call leaves no entry behind
        with pytest.raises(ValueError, match="does not fit in the 3x3 grid"):
            schubert_polynomial(W4123, 3)
        assert _schubert.cache_info().currsize == 1

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
        assert divided_difference(out, 1) == Polynomial.zero()  # d_i of a symmetric poly


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
        # delta_fmax, like verify_bijection, takes the fewest pluses among
        # all facets, over Perm(A); the oracle walks MinPerm(A) instead
        assert {f.cells for f in delta_fmax(a)} == min_perm_pipe_dreams(a)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_fmax_from_min_perm_set_every_asm(self, n):
        for a in enumerate_asms(n):
            self.assert_fmax_is_the_fewest_facets(a)

    def test_fmax_from_min_perm_set_identity8(self):
        self.assert_fmax_is_the_fewest_facets(identity_asm(8))
        assert {f.cells for f in delta_fmax(identity_asm(8))} == {frozenset()}

    def test_fmax_from_min_perm_set_heaviest_known_asm8(self):
        # ASM(8) #4,611,342 in enumerate_asms order
        a = validate_asm((
            (0, 0, 0, 1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0, 0, 1), (0, 0, 0, 1, 0, 0, 0, 0),
            (0, 1, -1, 0, 0, 1, 0, 0), (1, -1, 1, -1, 1, -1, 1, 0), (0, 0, 0, 1, -1, 1, 0, 0),
            (0, 1, -1, 0, 1, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0, 0),
        ))
        self.assert_fmax_is_the_fewest_facets(a)

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
                        assert brute_force_prism_weight(t) == Monomial.counting(i for i, _ in p.cells)
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
                assert report.passed, report.failure

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rebuilt_asm_is_a_and_passes_every_asm(self, n):
        """verify_bijection rebuilds A_{lambda, d} from the spec, at the
        spec's ambient size; for both models of every A that is A, and the
        report passes."""
        smaller = 0
        for a in enumerate_asms(n):
            for model in (bigrassmannian_model(a), parabolic_model(a)):
                rebuilt = asm_from_shape_tuple(model)
                assert rebuilt == a and rebuilt.n == model.ambient_size <= a.n
                smaller += rebuilt.n < a.n
                report = verify_bijection(model)
                assert report.passed, report.failure
        assert smaller > 0 or n == 1


def assert_fibers_match_oracle(spec, a):
    """The fiber walk against the fibers of the whole product, once in
    enumeration order and once with every pool reversed, which walks each
    fiber last member first: each hit facet's maximum against the fiber's
    entrywise maximum, which lies in the fiber, and its stable members
    against the oracle's, in the walk's order.  Then the report's counts
    against counts taken from those fibers."""
    facets = {f.cells for f in delta_facets(a)}
    oracle = brute_force_fibers(spec)
    fillings = _Fillings(spec)
    forward = phi_fibers(fillings, facets)
    fillings.pools = [pool[::-1] for pool in fillings.pools]
    backward = phi_fibers(fillings, facets)
    assert forward.keys() == backward.keys() == facets & oracle.keys()
    for cells, (top, stable) in forward.items():
        fib = oracle[cells]
        assert top == entrywise_max(fib) == tableau_labels(brute_force_fiber_max(fib))
        assert stable == [tableau_labels(t) for t in fib if not brute_force_unstable_triple(t)]
        assert backward[cells] == (top, stable[::-1])
    lowest = min(map(len, oracle))
    expected = {
        "all_prism": sum(map(len, oracle.values())),
        "facets": len(facets),
        "fmax": len(min_perm_pipe_dreams(a)),
        "stable_facet": sum(
            not brute_force_unstable_triple(t)
            for cells in facets for t in oracle.get(cells, [])),
        "prism": sum(
            not brute_force_unstable_triple(t)
            for cells, fib in oracle.items() if len(cells) == lowest for t in fib),
    }
    report = verify_bijection(spec)
    assert report.passed, report.failure
    assert report.counts == expected
    return expected


class _CountedMasks(frozenset):
    """Facet masks that count the membership tests made on them.  The
    fiber walk makes one per leaf, so the count is the leaves it reaches."""

    calls = 0

    def __contains__(self, mask):
        self.calls += 1
        return super().__contains__(mask)


def leaves_reached(spec):
    """The leaves of the fiber walk over spec's facet masks, checked to be
    exactly the fillings whose phi union lies inside some facet: the walk
    prunes every other branch."""
    fillings = _Fillings(spec)
    masks = _CountedMasks(_facet_masks(asm_from_shape_tuple(spec)))
    fillings.fibers(masks)
    unions = (functools.reduce(operator.or_, (e[1] for e in f), 0) for f in itertools.product(*fillings.pools))
    assert masks.calls == sum(any(not union & ~mask for mask in masks) for union in unions)
    return masks.calls


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
                if _Fillings(spec).count() <= 50_000:
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
        a = asm_from_shape_tuple(spec)
        assert set(assert_fibers_match_oracle(spec, a).values()) == {count}

    def test_the_walk_reaches_only_fillings_inside_a_facet(self):
        # the fibers return the same dicts on a looser set-up, which walks
        # entries that only meet a facet; only the leaf count tells
        models = (bigrassmannian_model, parabolic_model)
        assert sum(leaves_reached(model(a)) for a in enumerate_asms(5) for model in models) == 6231
        assert leaves_reached(PrismShapeSpec(((2,), (1, 1)), (3, 4))) == 14


class TestFailureText:
    def test_empty_fiber_names_the_facet_cells(self, monkeypatch):
        a = list(enumerate_asms(4))[20]
        spec = bigrassmannian_model(a)
        monkeypatch.setattr(_Fillings, "fibers", lambda self, targets: ({}, {}))
        report = verify_bijection(spec)
        assert not report.passed
        match = re.fullmatch(r"facet with pluses (\[.*\]) has empty fiber", report.failure)
        assert match
        cells = ast.literal_eval(match.group(1))
        assert cells == sorted(cells) and all(isinstance(c, tuple) for c in cells)
        assert frozenset(cells) in {f.cells for f in delta_facets(a)}

    @pytest.mark.parametrize("perturb,text", [
        (lambda top, stable: (top, stable * 2), "facet {} has 2 stable tableaux in its fiber"),
        (lambda top, stable: (top, ()), "facet {} has 0 stable tableaux in its fiber"),
        (lambda top, stable: (top + 1, stable), "stable tableau in fiber of {} is not the fiber maximum"),
    ])
    def test_fiber_verdicts_name_the_facet(self, monkeypatch, perturb, text):
        """One facet's walk result changed: two stable members, none, or a
        maximum above its one stable member.  The report names that facet."""
        a = list(enumerate_asms(4))[20]
        walk = _Fillings.fibers
        changed = []

        def fibers(self, targets):
            tops, stables = walk(self, targets)
            mask = min(tops)
            tops[mask], stables[mask] = perturb(tops[mask], stables[mask])
            changed.append(mask)
            return tops, stables

        monkeypatch.setattr(_Fillings, "fibers", fibers)
        report = verify_bijection(bigrassmannian_model(a))
        assert report.failure == text.format(sorted(grid_cells(changed[0], a.n)))


class TestFiberMaximum:
    """The fiber walk's maximum and stable members on hand-made pools,
    each with its larger filling walked first, and the walk's empty
    cases.  In every fiber of ASM(n <= 5) the stable member, the maximum,
    is enumerated last, so these and the reversed walk of
    ``assert_fibers_match_oracle`` are what tell a maximum from the last
    member walked."""

    @pytest.mark.parametrize("high,low", [
        ([((8, 8, 7), (7, 7))], [((8, 8, 7), (7, 6))]),  # the last field
        ([((8, 8),)], [((8, 7),)]),  # a label 8 in the last field
        ([((7,),), ((3,),)], [((6,),), ((3,),)]),  # the last field before a component boundary
        ([((6,),), ((4,),)], [((6,),), ((3,),)]),  # the first field after it
    ])
    def test_one_label_larger_by_one(self, high, low):
        tableaux, top, stable = _walk_fiber(*([h] if h == l else [h, l] for h, l in zip(high, low)))
        assert len(tableaux) == 2
        assert top == tableau_labels(tableaux[0]) == entrywise_max(tableaux) != tableau_labels(tableaux[1])
        assert stable == [tableau_labels(t) for t in tableaux if not brute_force_unstable_triple(t)]

    @pytest.mark.parametrize("second,larger", [
        ([((4, 4), (2,)), ((4, 4), (2,)), ((4, 3), (2,))], 0),
        ([((4, 4), (3,)), ((4, 4), (2,))], 0),
        ([((4, 3), (2,)), ((4, 4), (2,))], 1),
    ])
    def test_shared_entries(self, second, larger):
        """Members that share the first component's entry, and the second's
        labels too when the same filling comes twice: the maximum is the
        largest second component's filling, wherever it is walked."""
        tableaux, top, stable = _walk_fiber([((8, 5),)], second)
        assert len(tableaux) == len(second)
        assert top == tableau_labels(tableaux[larger]) == entrywise_max(tableaux)
        assert stable == [tableau_labels(t) for t in tableaux if not brute_force_unstable_triple(t)]

    @pytest.mark.parametrize("options,depth", [
        ([((8, 5),), ((7, 6),)], 8),
        ([((7, 6),), ((8, 5),)], 8),
        ([((125, 64),), ((100, 65),)], 125),  # labels that fill 7 bits, on a 127-wide grid
    ])
    def test_incomparable_members(self, options, depth):
        """Neither member is above the other, so the maximum is no member's
        labels, and no member is the maximum the verdict asks for."""
        tableaux, top, _ = _walk_fiber(options, depth=depth)
        assert top == entrywise_max(tableaux)
        assert top[-2:] == [max(row[0][0] for row in options), max(row[0][1] for row in options)]
        assert top not in map(tableau_labels, tableaux)

    def test_no_targets(self):
        """With no target no pool entry is kept, and nothing is hit."""
        spec = bigrassmannian_model(list(enumerate_asms(4))[20])
        assert _Fillings(spec).fibers(set()) == ({}, {})

    def test_a_pool_that_fits_no_target(self):
        """On the 3-wide grid the one filling of (1,) at depth 1 has phi
        cell bit 0 and the one filling of (2,) bits 0 and 1.  A target of
        bit 0 alone holds the first entry but no entry of the second pool,
        so nothing is hit; the union of both, with labels 1, 1, 1, is."""
        fillings = _Fillings(PrismShapeSpec(((1,), (2,)), (1, 1)))
        assert fillings.fibers({0b1}) == ({}, {})
        assert fillings.fibers({0b11}) == ({0b11: 0x010101}, {0b11: (0x010101,)})

    def test_the_empty_spec(self):
        """With no component the one filling has no phi cell and no label,
        and it is stable."""
        assert _Fillings(PrismShapeSpec((), ())).fibers({0}) == ({0: 0}, {0: (0,)})

    def test_a_grid_wider_than_127_is_refused(self):
        """A label byte holds labels below 128, so the walk refuses a grid
        where one could reach the guard bit; the pools, which pack labels
        by shifts, still serve prism_set, and verify_bijection refuses the
        spec when it rebuilds A_{lambda, d}."""
        spec = PrismShapeSpec(((1,),), (127,))
        assert spec.ambient_size == 128
        with pytest.raises(ValueError, match="at most 127 wide, got 128"):
            _Fillings(spec).fibers(set())
        assert len(prism_set(spec)) == 127
        with pytest.raises(ValueError, match="127"):
            verify_bijection(spec)


def _walk_fiber(*components, depth=8):
    """The fiber walk over hand-made pools of components of one depth, each
    given by its fillings (rows bottom first) in the order it is walked.
    Every filling of a component that has more than one is also the one
    filling of an extra component placed before them all, so the whole
    product is one fiber and the given components hold the lowest label
    bytes.  Returns the product's tableaux in walk order, and the walk's
    maximum and stable members' labels."""
    covers = [[rows] for options in components if len(options) > 1 for rows in options]
    components = covers + list(components)
    spec = PrismShapeSpec(
        tuple(tuple(map(len, options[0])) for options in components), (depth,) * len(components))
    fillings = _Fillings(spec)
    fillings.pools = [
        [_entry(Rssyt(lam, depth, rows), fillings.n) for rows in options]
        for lam, options in zip(spec.lambdas, components)
    ]
    tableaux = [PrismTableau(spec, tuple(entry[0] for entry in combo))
                for combo in itertools.product(*fillings.pools)]
    [image] = set(map(brute_force_phi_image, tableaux))
    [(top, stable)] = phi_fibers(fillings, [image]).values()
    return tableaux, top, stable


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
            facet_sum = poly_from_monomials(Monomial.counting(i for i, _ in f.cells) for f in delta_facets(a))
            perm_sum = Polynomial.zero()
            for w in perm_set(a):
                perm_sum = perm_sum + schubert_polynomial(w, 4)
            assert facet_sum == perm_sum
            fmax_sum = poly_from_monomials(Monomial.counting(i for i, _ in f.cells) for f in delta_fmax(a))
            assert fmax_sum == min_perm_schubert_sum(a)
