import itertools
import operator

import pytest

from conftest import (
    all_prism_tableaux,
    brute_force_minimal_tableaux,
    brute_force_phi_image,
    brute_force_prism_set,
    brute_force_prism_weight,
    brute_force_unstable_triple,
    component_cells,
    has_unstable_triple,
    partition_leq,
    relaxed_unstable_triple,
    _replacement_valid,
)

from asmprism.algebra import Monomial, Polynomial, grid_cells, poly_from_monomials
from asmprism.asm import asm_leq, enumerate_asms, identity_asm, monotone_triangle
from asmprism.prism import (
    PrismShapeSpec,
    PrismTableau,
    Rssyt,
    _entry,
    _Fillings,
    _pool,
    _unstable,
    asm_polynomial,
    bigrassmannian_model,
    enumerate_rssyt,
    parabolic_model,
    partition,
    phi_cells,
    prism_min_degree,
    prism_set,
    prism_weight,
    rectangle,
    schur_polynomial_ssyt,
    serialize_prism_tableau,
)


def mono(**powers) -> Monomial:
    """mono(x1=3, x2=2) -> x1^3 x2^2"""
    return Monomial.from_powers({int(k[1:]): v for k, v in powers.items()})


# The biGrassmannian prism shape of the diagram example:
# shapes ((3), 1x1 column of depth 2, 1x1 column of depth 3).
BIGR_SPEC = PrismShapeSpec(((3,), (1, 1), (1, 1)), (1, 2, 3))


def bigr_tableau(pink_bottom: int, pink_top: int) -> PrismTableau:
    """The only freedom in the shape is the depth-3 column."""
    return PrismTableau(
        BIGR_SPEC,
        (
            Rssyt((3,), 1, ((1, 1, 1),)),
            Rssyt((1, 1), 2, ((2,), (1,))),
            Rssyt((1, 1), 3, ((pink_bottom,), (pink_top,))),
        ),
    )


T1 = bigr_tableau(3, 2)
T2 = bigr_tableau(3, 1)
T3 = bigr_tableau(2, 1)


class TestPartition:
    def test_normalization(self):
        assert partition((3, 2, 0, 0)) == (3, 2)
        assert partition(()) == ()

    def test_rejects_increase(self):
        with pytest.raises(ValueError):
            partition((1, 2))

    def test_containment(self):
        assert partition_leq((2, 1), (3, 1))
        assert not partition_leq((2, 2), (3, 1))


class TestRssyt:
    def test_single_box_two_labels(self):
        fillings = list(enumerate_rssyt((1,), 2))
        assert {f.rows for f in fillings} == {((1,),), ((2,),)}

    def test_row_of_two_depth_one_forced(self):
        fillings = list(enumerate_rssyt((2,), 1))
        assert [f.rows for f in fillings] == [((1, 1),)]

    def test_column_depth_two_forced(self):
        fillings = list(enumerate_rssyt((1, 1), 2))
        assert [f.rows for f in fillings] == [((2,), (1,))]

    def test_depth_too_small(self):
        with pytest.raises(ValueError):
            list(enumerate_rssyt((1, 1, 1), 2))

    def test_invalid_fillings_rejected(self):
        with pytest.raises(ValueError):
            Rssyt((2,), 2, ((1, 2),))  # row increases
        with pytest.raises(ValueError):
            Rssyt((1, 1), 2, ((1,), (1,)))  # column not strict
        with pytest.raises(ValueError):
            Rssyt((1,), 2, ((3,),))  # label too large

    def test_counts_match_ssyt_schur(self):
        # |RSSYT(lam, d)| = s_lam(1, ..., 1)
        for lam in [(1,), (2,), (2, 1), (2, 2), (3, 1), (1, 1, 1)]:
            for d in range(len(lam), 4):
                count = sum(1 for _ in enumerate_rssyt(lam, d))
                schur = schur_polynomial_ssyt(lam, d)
                assert count == sum(schur.terms.values())

    def test_grid_placement_bottom_aligned(self):
        t = Rssyt((2, 1), 3, ((2, 1), (1,)))
        assert sorted(t.cells()) == [(2, 1, 1), (3, 1, 2), (3, 2, 1)]

    def test_fillings_occupy_the_spec_shape(self):
        spec = PrismShapeSpec(((3, 1), (2, 2)), (2, 3))
        for c in range(spec.k):
            shape_cells = set(component_cells(spec, c))
            for t in enumerate_rssyt(spec.lambdas[c], spec.ds[c]):
                assert {(a, b) for a, b, _ in t.cells()} == shape_cells

    def test_generated_fillings_pass_validation(self):
        # enumerate_rssyt builds each filling through Rssyt(...), so its
        # checks run on every generated filling; rebuilding one must give
        # the same filling.  Each shape's fillings come out in strictly
        # increasing lexicographic order of the flattened rows, bottom first
        shapes = {
            (lam, d)
            for n in range(1, 6)
            for a in enumerate_asms(n)
            for spec in (bigrassmannian_model(a), parabolic_model(a))
            for lam, d in zip(spec.lambdas, spec.ds)
        }
        shapes |= {(rectangle(r, c), 6) for r in (1, 2, 3) for c in (1, 2, 3)}
        for lam, d in shapes:
            flats = []
            for t in enumerate_rssyt(lam, d):
                assert Rssyt(t.shape, t.depth, t.rows) == t
                flats.append(tuple(v for row in t.rows for v in row))
            assert all(map(operator.lt, flats, flats[1:]))


class TestWeight:
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
        assert prism_weight(t) == mono(x1=3, x2=2, x3=3, x6=1)

    def test_t1_weight(self):
        assert prism_weight(T1) == mono(x1=3, x2=1, x3=1)

    def test_empty_spec_weight_one(self):
        spec = PrismShapeSpec((), ())
        (t,) = list(all_prism_tableaux(spec))
        assert prism_weight(t) == Monomial.one()

    def test_component_order_irrelevant(self):
        spec = PrismShapeSpec(((1,), (3, 2), (2, 1, 1)), (2, 5, 6))
        comps = (
            Rssyt((1,), 2, ((1,),)),
            Rssyt((3, 2), 5, ((3, 3, 2), (1, 1))),
            Rssyt((2, 1, 1), 6, ((6, 3), (2,), (1,))),
        )
        base = prism_weight(PrismTableau(spec, comps))
        for perm in itertools.permutations(range(3)):
            spec2 = PrismShapeSpec(
                tuple(spec.lambdas[i] for i in perm), tuple(spec.ds[i] for i in perm))
            t2 = PrismTableau(spec2, tuple(comps[i] for i in perm))
            assert prism_weight(t2) == base


class TestUnstableTriples:
    def test_t2_has_triple(self):
        assert has_unstable_triple(T2)

    def test_t1_t3_stable(self):
        assert not has_unstable_triple(T1)
        assert not has_unstable_triple(T3)

    def test_lone_labels_never_form_triples(self):
        # single color: every antidiagonal carries distinct labels once
        for t in enumerate_rssyt((2, 1), 3):
            pt = PrismTableau(PrismShapeSpec(((2, 1),), (3,)), (t,))
            assert not has_unstable_triple(pt)


def assert_grid_layout(t: PrismTableau, width: int) -> None:
    """t's entries at the given grid width: the union of their phi cells
    decodes to phi(t), and each cell's candidate mask decodes to the
    pluses (v', D - v' + 1) of the larger labels v' the cell can take on
    its antidiagonal D, every v' at most the cell's grid row, so no bit
    wraps into another row."""
    union = 0
    for comp in t.components:
        _, cells, candidates = _entry(comp, width)
        union |= cells
        where = {}  # (label, antidiagonal) -> (filling row, grid row, grid column)
        for q, row in enumerate(comp.rows, start=1):
            a = comp.grid_row(q)
            for b, v in enumerate(row, start=1):
                where[v, a + b - 1] = (q, a, b)
        assert grid_cells(cells, width) == {(v, d - v + 1) for v, d in where}
        higher_of = {}
        for bit, higher in candidates:
            [(v, col)] = grid_cells(bit, width)
            higher_of[v, v + col - 1] = higher
        assert set(higher_of) <= set(where)
        for (v, d), (q, a, b) in where.items():
            labels = {
                u for u in range(v + 1, comp.depth + 1) if _replacement_valid(comp, q, b, u)}
            assert all(u <= a for u in labels)
            assert grid_cells(higher_of.get((v, d), 0), width) == {(u, d - u + 1) for u in labels}
    assert grid_cells(union, width) == brute_force_phi_image(t)


class TestGridLayout:
    """The entries on the algebra grid layout, at the spec's ambient size
    and at a wider grid, as the bijection check walks a spec at the n of
    its ASM."""

    def test_every_tableau_asm4(self):
        for n in (1, 2, 3, 4):
            for a in enumerate_asms(n):
                for spec in (bigrassmannian_model(a), parabolic_model(a)):
                    for width in (spec.ambient_size, spec.ambient_size + 2):
                        for t in all_prism_tableaux(spec):
                            assert_grid_layout(t, width)

    def test_width_below_the_ambient_size_rejected(self):
        with pytest.raises(ValueError):
            _Fillings(BIGR_SPEC, BIGR_SPEC.ambient_size - 1)


class TestUnstableTripleKernel:
    """The bitmask kernel against the per-antidiagonal oracle."""

    def test_every_tableau_asm4(self):
        for n in (1, 2, 3, 4):
            for a in enumerate_asms(n):
                for spec in (bigrassmannian_model(a), parabolic_model(a)):
                    for t in all_prism_tableaux(spec):
                        assert has_unstable_triple(t) == brute_force_unstable_triple(t)
                        assert phi_cells(t) == brute_force_phi_image(t)

    def test_minimal_fillings_asm5_and_asm6_sample(self):
        asms = list(enumerate_asms(5)) + list(enumerate_asms(6))[::500]
        unstable = 0
        for a in asms:
            for spec in (bigrassmannian_model(a), parabolic_model(a)):
                fillings = _Fillings(spec, spec.ambient_size)
                for f in fillings.minimal()[1]:
                    t = fillings.tableau(f)
                    assert _unstable(f) == has_unstable_triple(t) == brute_force_unstable_triple(t)
                    unstable += _unstable(f)
        assert unstable > 0


class TestPrismSet:
    def test_bigr_model_of_asmdiag(self, asmdiag):
        model = bigrassmannian_model(asmdiag)
        assert model == BIGR_SPEC
        tableaux = list(all_prism_tableaux(model))
        assert len(tableaux) == 3
        assert set(tableaux) == {T1, T2, T3}
        chosen = prism_set(model)
        assert set(chosen) == {T1, T3}
        assert asm_polynomial(model) == poly_from_monomials(
            [mono(x1=3, x2=1, x3=1), mono(x1=3, x2=2)])

    def test_parabolic_model_of_asmdiag(self, asmdiag):
        model = parabolic_model(asmdiag)
        assert model.lambdas == ((3,), (2, 1), (1, 1))
        assert model.ds == (1, 2, 3)
        tableaux = list(all_prism_tableaux(model))
        assert len(tableaux) == 6
        weights = sorted(prism_weight(t).render() for t in tableaux)
        assert weights == sorted([
            "x1^3*x2^2*x3", "x1^3*x2^2*x3",
            "x1^3*x2^2", "x1^3*x2^2",
            "x1^3*x2*x3", "x1^3*x2*x3",
        ])
        minimal = [t for t in tableaux if prism_weight(t).total_degree == 5]
        assert len(minimal) == 4
        chosen = prism_set(model)
        assert len(chosen) == 2
        assert asm_polynomial(model) == asm_polynomial(bigrassmannian_model(asmdiag))

    def test_models_are_valid_specs_every_asm5(self):
        # the models skip PrismShapeSpec's checks: rebuilding through them
        # gives the same spec, and the parabolic shapes are the triangle's
        for n in range(1, 6):
            for a in enumerate_asms(n):
                bigr, parab = bigrassmannian_model(a), parabolic_model(a)
                for spec in (bigr, parab):
                    rebuilt = PrismShapeSpec(spec.lambdas, spec.ds)
                    assert rebuilt == spec and hash(rebuilt) == hash(spec)
                mt = monotone_triangle(a)
                assert parab.lambdas == tuple(mt.partition(i) for i in parab.ds)

    def test_facet_example_polynomial(self, noneqi):
        for model in (bigrassmannian_model(noneqi), parabolic_model(noneqi)):
            assert model == PrismShapeSpec(((2,), (2,)), (1, 2))
        assert asm_polynomial(PrismShapeSpec(((2,), (2,)), (1, 2))) == poly_from_monomials([mono(x1=3)])

    def test_single_box_schur(self):
        assert asm_polynomial(PrismShapeSpec(((1,),), (2,))) == poly_from_monomials(
            [mono(x1=1), mono(x2=1)])

    def test_single_shapes_match_ssyt_schur(self):
        for lam in [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2, 1), (3, 3, 3)]:
            for d in range(len(lam), 4):
                spec = PrismShapeSpec((lam,), (d,))
                assert asm_polynomial(spec) == schur_polynomial_ssyt(lam, d), (lam, d)


def assert_matches_oracle(spec):
    """The minimal walk's fillings, ties and all, then prism_set and the
    polynomial, each in enumeration order against the full product."""
    minimal = brute_force_minimal_tableaux(spec)
    fillings = _Fillings(spec, spec.ambient_size)
    degree, found = fillings.minimal()
    assert [fillings.tableau(f) for f in found] == minimal
    assert degree == brute_force_prism_weight(minimal[0]).total_degree == prism_min_degree(spec)
    expected = [t for t in minimal if not brute_force_unstable_triple(t)]
    assert prism_set(spec) == expected
    assert asm_polynomial(spec) == poly_from_monomials(brute_force_prism_weight(t) for t in expected)


class TestPrismSetOracle:
    """The branch and bound against the full product of component fillings."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_asm(self, n):
        for a in enumerate_asms(n):
            assert_matches_oracle(bigrassmannian_model(a))
            assert_matches_oracle(parabolic_model(a))

    def test_asm6_sample(self):
        asms = list(enumerate_asms(6))
        # ASM 278's biGrassmannian spec has 48,000 fillings, the second
        # largest product in ASM(6)
        for a in asms[::500] + [asms[278]]:
            assert_matches_oracle(bigrassmannian_model(a))
            assert_matches_oracle(parabolic_model(a))

    def test_identity_has_one_empty_tableau(self):
        for spec in (
            bigrassmannian_model(identity_asm(6)),
            parabolic_model(identity_asm(6)),
            PrismShapeSpec((), ()),
        ):
            assert spec.k == 0
            assert prism_set(spec) == [PrismTableau(spec, ())]
            assert prism_min_degree(spec) == 0
            assert asm_polynomial(spec) == Polynomial.one()
            assert_matches_oracle(spec)

    def test_empty_shapes(self):
        for spec in (
            PrismShapeSpec(((), (2, 1), ()), (1, 3, 2)),
            PrismShapeSpec(((),), (4,)),
        ):
            assert_matches_oracle(spec)

    @pytest.mark.parametrize("spec", [
        # n = 1: empty shapes at depth 1 (the one ASM's models have none)
        PrismShapeSpec(((),), (1,)),
        PrismShapeSpec(((), ()), (1, 1)),
        # one component: the last component's loop is the whole walk
        PrismShapeSpec(((1,),), (1,)),
        PrismShapeSpec(((3,),), (2,)),
        PrismShapeSpec(((1, 1),), (3,)),
        PrismShapeSpec(((2, 1),), (3,)),
        PrismShapeSpec(((2, 2),), (3,)),
        PrismShapeSpec(((3, 2, 1),), (4,)),
    ], ids=lambda spec: f"{spec.lambdas}-{spec.ds}")
    def test_single_component_and_n1(self, spec):
        assert spec.ambient_size == 1 or spec.k == 1
        assert_matches_oracle(spec)

    def test_weight_is_the_antidiagonal_count(self):
        for a in enumerate_asms(4):
            for spec in (bigrassmannian_model(a), parabolic_model(a)):
                for t in all_prism_tableaux(spec):
                    assert prism_weight(t) == brute_force_prism_weight(t)


class TestModels:
    def test_identity_models_empty(self):
        for model in (bigrassmannian_model(identity_asm(4)), parabolic_model(identity_asm(4))):
            assert model.k == 0
        assert asm_polynomial(bigrassmannian_model(identity_asm(4))).render() == "1"

    def test_bigr_model_table(self, asmdiag):
        model = bigrassmannian_model(asmdiag)
        assert model.lambdas == ((3,), (1, 1), (1, 1))
        assert model.ds == (1, 2, 3)

    def test_models_agree_on_asm4(self):
        for a in enumerate_asms(4):
            assert asm_polynomial(bigrassmannian_model(a)) == asm_polynomial(parabolic_model(a))

    def test_minimal_weights_all_have_degree_deg(self):
        from asmprism.perm import deg

        for a in enumerate_asms(4):
            d = deg(a)
            for model in (bigrassmannian_model(a), parabolic_model(a)):
                for t in prism_set(model):
                    assert prism_weight(t).total_degree == d

    def test_poset_compatibility_asm4(self):
        # A <= B iff every triangle-row shape of A sits inside B's
        asms = list(enumerate_asms(4))
        for a, b in itertools.product(asms, repeat=2):
            ta, tb = monotone_triangle(a), monotone_triangle(b)
            contained = all(partition_leq(ta.partition(i), tb.partition(i)) for i in range(1, 5))
            assert contained == asm_leq(a, b)


class TestReadingToggle:
    def test_strict_and_relaxed_agree_on_minimal_tableaux(self):
        # the relaxed reading flags extra tableaux, but never minimal ones,
        # so the Schubert-sum identity is insensitive to the toggle here
        for n in (3, 4):
            for a in enumerate_asms(n):
                for model in (bigrassmannian_model(a), parabolic_model(a)):
                    tableaux = list(all_prism_tableaux(model))
                    lowest = min(prism_weight(t).total_degree for t in tableaux)
                    relaxed = [
                        t for t in tableaux
                        if prism_weight(t).total_degree == lowest
                        and not relaxed_unstable_triple(t)
                    ]
                    assert prism_set(model) == relaxed

    def test_readings_do_differ_somewhere(self):
        differs = 0
        for a in enumerate_asms(4):
            for model in (bigrassmannian_model(a), parabolic_model(a)):
                for t in all_prism_tableaux(model):
                    if has_unstable_triple(t) != relaxed_unstable_triple(t):
                        differs += 1
        assert differs > 0


class TestSerialization:
    def test_round_trip_stability(self):
        s = serialize_prism_tableau(T1)
        assert s == "1,1,1 | 2/1 | 3/2"


class TestPoolCache:
    """The component pools are cached per (shape, depth, width): the
    depth-2 box is a component of both specs, at widths 4 and 5.  A pool
    cached at the other width would put its bits among those of the
    other component."""

    SMALL = PrismShapeSpec(((1,), (1, 1)), (2, 3))
    LARGE = PrismShapeSpec(((1,), (3,)), (2, 2))

    @pytest.mark.parametrize("first,second", [(SMALL, LARGE), (LARGE, SMALL)])
    def test_warm_cache_of_another_stride(self, first, second):
        assert first.ambient_size != second.ambient_size
        _pool.cache_clear()
        prism_set(first)
        expected = brute_force_prism_set(second)
        assert prism_set(second) == expected
        assert asm_polynomial(second) == poly_from_monomials(
            brute_force_prism_weight(t) for t in expected)
        pools = _Fillings(second, second.ambient_size).pools
        assert all(isinstance(pool, tuple) for pool in pools)
        assert pools[0] is _pool((1,), 2, second.ambient_size)

    def test_bijection_width_then_ambient_size(self):
        """verify_bijection walks a spec at the n of its ASM; the
        polynomial and prism_set that follow, at the spec's ambient size,
        are their cold-cache values and the oracle's."""
        from asmprism.pipedream import verify_bijection

        wider = 0
        for a in enumerate_asms(4):
            for spec in (bigrassmannian_model(a), parabolic_model(a)):
                if spec.ambient_size == a.n:
                    continue
                wider += 1
                _pool.cache_clear()
                cold = asm_polynomial(spec), prism_set(spec)
                _pool.cache_clear()
                assert verify_bijection(spec, a).passed
                expected = brute_force_prism_set(spec)
                assert prism_set(spec) == cold[1] == expected
                assert asm_polynomial(spec) == cold[0] == poly_from_monomials(
                    brute_force_prism_weight(t) for t in expected)
        assert wider > 0
