import pytest
from hypothesis import given, strategies as st

from asmprism.algebra import (
    Monomial,
    Polynomial,
    _row_counts,
    grid_cells,
    grid_weight_sum,
    poly_from_monomials,
)

X1X1X2X3 = Monomial((3, 1, 1))   # x1^3 x2 x3
X1X2SQ = Monomial((3, 2))        # x1^3 x2^2


def test_monomial_normalizes_trailing_zeros():
    assert Monomial((1, 0, 2, 0, 0)).exponents == (1, 0, 2)
    assert Monomial(()).exponents == ()
    assert Monomial((0, 0)) == Monomial.one()


def test_monomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Monomial((1, -1))


def test_monomial_counting_counts_each_index():
    assert Monomial.counting([3, 1, 3, 1, 2, 1]) == X1X1X2X3 * Monomial.variable(3)
    assert Monomial.counting([2, 2]) == Monomial((0, 2))
    assert Monomial.counting([]) == Monomial.one()


def test_monomial_product_and_accessors():
    m = Monomial.variable(1, 3) * Monomial.variable(2) * Monomial.variable(3)
    assert m == X1X1X2X3
    assert m.total_degree == 5
    assert m.exponent(2) == 1
    assert m.exponent(9) == 0
    assert Monomial.from_powers({1: 3, 2: 2}) == X1X2SQ


def test_from_monomials_empty_is_zero():
    assert poly_from_monomials([]) == Polynomial.zero()


def test_from_monomials_paper_pair():
    p = poly_from_monomials([X1X1X2X3, X1X2SQ])
    assert p.coefficient(X1X1X2X3) == 1
    assert p.coefficient(X1X2SQ) == 1
    assert len(p.terms) == 2


def test_from_monomials_duplicates_count():
    p = poly_from_monomials([Monomial.variable(1), Monomial.variable(1)])
    assert p == Polynomial({Monomial.variable(1): 2})


def test_add_identity_and_cancellation():
    p = poly_from_monomials([X1X2SQ])
    assert p + Polynomial.zero() == p
    x1 = Polynomial({Monomial.variable(1): 1})
    neg = Polynomial({Monomial.variable(1): -1})
    assert x1 + neg == Polynomial.zero()


def test_add_builds_the_two_term_example():
    p = poly_from_monomials([X1X2SQ]) + poly_from_monomials([X1X1X2X3])
    assert p == poly_from_monomials([X1X1X2X3, X1X2SQ])


def test_render_format():
    p = poly_from_monomials([X1X1X2X3, X1X2SQ])
    assert p.render() == "x1^3*x2^2 + x1^3*x2*x3"
    assert Polynomial.zero().render() == "0"
    assert Polynomial.one().render() == "1"
    assert Polynomial({Monomial.variable(2): 3}).render() == "3*x2"
    assert Polynomial({Monomial.one(): 2, Monomial.variable(1): 1}).render() == "x1 + 2"


def test_constructor_rejects_keys_that_are_not_monomials():
    with pytest.raises(TypeError):
        Polynomial({(1,): 1})


# cell sets of a 4-by-4 grid, with empty last rows, an empty set and a repeat
CELL_SETS = [
    {(1, 1), (1, 2), (2, 3), (3, 1)},
    {(1, 4), (2, 2)},
    {(4, 4)},
    set(),
    {(1, 1), (2, 1), (2, 2)},
    {(1, 1), (1, 2), (2, 3), (3, 1)},
]


def _weight_sum(cell_sets, n: int) -> Polynomial:
    return grid_weight_sum((sum(1 << (i - 1) * n + j - 1 for i, j in cells) for cells in cell_sets), n)


def test_grid_weight_sum_does_not_depend_on_the_grid_width():
    narrow, wide = _weight_sum(CELL_SETS, 4), _weight_sum(CELL_SETS, 6)
    assert narrow == wide
    assert hash(narrow) == hash(wide)
    assert narrow.render() == wide.render() == "2*x1^2*x2*x3 + x1*x2^2 + x1*x2 + x4 + 1"


def test_grid_weight_sum_is_the_sum_of_row_counts():
    p = _weight_sum(CELL_SETS, 5)
    assert p == poly_from_monomials(Monomial.counting(i for i, _ in cells) for cells in CELL_SETS)
    assert all(type(m) is Monomial for m in p.terms)
    assert p.coefficient(Monomial((2, 1, 1))) == 2
    assert p.coefficient(Monomial((0, 0, 0, 1))) == 1
    assert p.coefficient(Monomial.one()) == 1
    assert p.coefficient(Monomial((5,))) == 0
    assert min(m.total_degree for m in p.terms) == 0
    assert min(m.total_degree for m in _weight_sum(CELL_SETS[:3], 5).terms) == 1


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * n) - 1))))
def test_row_counts_is_the_normalized_count_of_each_row(grid):
    n, mask = grid
    assert _row_counts(mask, n) == Monomial.counting(i for i, _ in grid_cells(mask, n)).exponents


def test_grid_weight_sum_cancels_to_zero():
    p = _weight_sum(CELL_SETS, 4)
    assert p - _weight_sum(reversed(CELL_SETS), 6) == Polynomial.zero()
    assert (p + -p) == Polynomial.zero()
    assert hash(p - p) == hash(Polynomial.zero())
    assert p - _weight_sum(CELL_SETS[1:], 4) != Polynomial.zero()


monomials = st.lists(
    st.lists(st.integers(min_value=0, max_value=4), max_size=4).map(tuple).map(Monomial),
    max_size=8,
)


@given(monomials, monomials, monomials)
def test_add_commutative_associative(ms1, ms2, ms3):
    p, q, r = (poly_from_monomials(ms) for ms in (ms1, ms2, ms3))
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)


@given(monomials)
def test_from_monomials_at_all_ones_counts(ms):
    p = poly_from_monomials(ms)
    assert sum(p.terms.values()) == len(ms)
