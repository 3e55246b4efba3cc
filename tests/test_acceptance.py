"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time
from contextlib import contextmanager

from conftest import has_unstable_triple

from asmprism.algebra import Monomial, Polynomial, poly_from_monomials
from asmprism.asm import (
    asm_join,
    asm_meet,
    corner_rows,
    enumerate_asms,
    essential_set,
    inversions,
    join_all,
    validate_asm,
)
from asmprism.perm import (
    Perm,
    all_perms,
    bigr_of,
    bigrassmannian_encode,
    deg,
)
from asmprism.pipedream import (
    delta_facets,
    min_perm_schubert_sum,
    schubert_polynomial,
    verify_bijection,
)
from asmprism.prism import (
    PrismShapeSpec,
    asm_polynomial,
    bigrassmannian_model,
    parabolic_model,
    prism_set,
    prism_weight,
)
from asmprism.ideal import initial_ideal, multidegree, stanley_reisner_facets

from conftest import all_prism_tableaux, bruhat_leq, essential_by_corner_sums, schubert_oracle


ASMDIAG = validate_asm([[0, 0, 0, 1], [0, 1, 0, 0], [1, -1, 1, 0], [0, 1, 0, 0]])
NONEQI = validate_asm([[0, 0, 1, 0], [1, 0, -1, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
DEG_EXAMPLE = validate_asm([[0, 0, 1, 0], [0, 1, -1, 1], [1, -1, 1, 0], [0, 1, 0, 0]])


@contextmanager
def criterion(num: int, description: str, limit_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {num}: PASS - {description} ({elapsed:.2f}s)")
    assert elapsed < limit_seconds, f"criterion {num} exceeded {limit_seconds}s"


def test_criterion_1_counting():
    with criterion(1, "ASM counts 1, 2, 7, 42, 429 for n = 1..5", 10.0):
        counts = [sum(1 for _ in enumerate_asms(n)) for n in range(1, 6)]
        assert counts == [1, 2, 7, 42, 429]


def test_criterion_2_theorem_1_1_exhaustive():
    with criterion(2, "both prism models equal the MinPerm Schubert sum on ASM(4)", 300.0):
        asms = list(enumerate_asms(4))
        assert len(asms) == 42
        for a in asms:
            target = min_perm_schubert_sum(a)
            assert asm_polynomial(bigrassmannian_model(a)) == target
            assert asm_polynomial(parabolic_model(a)) == target


def test_criterion_3_worked_examples():
    with criterion(3, "diagram-example polynomials and prism classifications", 60.0):
        expected = poly_from_monomials(
            [Monomial((3, 1, 1)), Monomial((3, 2))])  # x1^3 x2 x3 + x1^3 x2^2
        bigr = bigrassmannian_model(ASMDIAG)
        para = parabolic_model(ASMDIAG)
        assert asm_polynomial(bigr) == expected
        assert asm_polynomial(para) == expected

        assert len(prism_set(bigr)) == 2
        all_para = list(all_prism_tableaux(para))
        assert len(all_para) == 6
        minimal = [t for t in all_para if prism_weight(t).total_degree == 5]
        assert len(minimal) == 4
        stable_minimal = [t for t in minimal if not has_unstable_triple(t)]
        assert len(stable_minimal) == 2
        assert len(prism_set(para)) == 2
        # the two non-minimal fillings carry the degree-6 weight x1^3 x2^2 x3
        heavy = [t for t in all_para if t not in minimal]
        assert all(prism_weight(t) == Monomial((3, 2, 1)) for t in heavy)


def test_criterion_4_bijection_theorem():
    with criterion(4, "facet/prism bijection for ASM(3) models and the 4x4 examples", 120.0):
        specs = []
        for a in enumerate_asms(3):
            specs.append(bigrassmannian_model(a))
            specs.append(parabolic_model(a))
        specs.append(bigrassmannian_model(ASMDIAG))
        specs.append(parabolic_model(ASMDIAG))
        specs.append(PrismShapeSpec(((2,), (2,)), (1, 2)))  # shared model of NONEQI
        for spec in specs:
            report = verify_bijection(spec)
            assert report.passed, report.failure


def test_criterion_5_schubert_cross_validation():
    with criterion(5, "pipe-dream Schubert equals divided-difference oracle", 60.0):
        for w in all_perms(4):
            assert schubert_polynomial(w, 4) == schubert_oracle(w)
        rng = random.Random(5)
        pool = list(itertools.permutations(range(1, 6)))
        for line in rng.sample(pool, 20):
            w = Perm(line)
            assert schubert_polynomial(w, 5) == schubert_oracle(w)
        assert schubert_polynomial(Perm((4, 1, 2, 3)), 4) == Polynomial({Monomial((3,)): 1})
        assert schubert_polynomial(Perm.identity(), 4) == Polynomial.one()


def test_criterion_6_groebner_correspondence():
    with criterion(6, "Stanley-Reisner facets equal subword facet complements", 120.0):
        targets = list(enumerate_asms(3)) + [NONEQI]
        for a in targets:
            sr = stanley_reisner_facets(initial_ideal(a), a.n)
            from_subword = frozenset(f.complement_cells() for f in delta_facets(a))
            assert sr.facets == from_subword


def test_criterion_7_lattice_and_base():
    with criterion(7, "lattice closure and biGrassmannian base properties on ASM(4)", 60.0):
        asms = list(enumerate_asms(4))
        universe = set(asms)
        for a, b in itertools.combinations(asms, 2):
            j, m = asm_join(a, b), asm_meet(a, b)
            assert j in universe
            assert m in universe
        for a in asms:
            bs = bigr_of(a)
            assert join_all([u.matrix(4) for u in bs], 4) == a
            for u, v in itertools.combinations(bs, 2):
                assert not bruhat_leq(u, v) and not bruhat_leq(v, u)
            assert essential_set(a) == essential_by_corner_sums(a)
        for i in range(1, 5):
            for j in range(1, 5):
                for r in range(0, min(i, j)):
                    if i + j - r > 4:
                        continue
                    family = [a for a in asms if corner_rows(a)[i - 1][j - 1] <= r]
                    meet = family[0]
                    for b in family[1:]:
                        meet = asm_meet(meet, b)
                    assert meet == bigrassmannian_encode(i, j, r, 4).matrix(4)


def test_criterion_8_deg_consistency():
    with criterion(8, "deg(A) equals the minimum prism weight degree on ASM(4)", 60.0):
        for a in enumerate_asms(4):
            d = deg(a)
            for model in (bigrassmannian_model(a), parabolic_model(a)):
                assert min(
                    prism_weight(t).total_degree for t in all_prism_tableaux(model)) == d
        assert deg(DEG_EXAMPLE) == 4
        assert len(inversions(DEG_EXAMPLE)) == 5
        assert deg(DEG_EXAMPLE) < len(inversions(DEG_EXAMPLE))


def test_criterion_9_multidegree():
    with criterion(9, "multidegree equals the prism polynomial on ASM(3)", 60.0):
        for a in enumerate_asms(3):
            md = multidegree(a)
            assert md == asm_polynomial(bigrassmannian_model(a))
            assert md == asm_polynomial(parabolic_model(a))
        assert multidegree(NONEQI) == poly_from_monomials([Monomial((3,))])
