import itertools

import pytest

from conftest import (
    MinorSpec,
    antidiagonal_init,
    brute_force_minimal_hitting_sets,
    defining_generators,
    essential_generators,
    minimal_hitting_sets,
    minimalize,
    multidegree_from_sr_facets,
)

from asmprism.algebra import Monomial, poly_from_monomials
from asmprism.asm import embed, enumerate_asms, identity_asm, rank_conditions, validate_asm
from asmprism.ideal import (
    _antidiagonals,
    _hitting_masks,
    initial_ideal,
    multidegree,
    stanley_reisner_facets,
)
from asmprism.perm import bigrassmannian_encode
from asmprism.pipedream import delta_facets
from asmprism.prism import asm_polynomial, bigrassmannian_model, parabolic_model


def sq(*cells) -> frozenset:
    return frozenset(cells)


def brute_force_sr_facets(supports, n) -> frozenset[frozenset]:
    """Oracle: scan all 2^(n*n) subsets for maximal faces."""
    grid = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    faces = []
    for k in range(len(grid), -1, -1):
        for cells in itertools.combinations(grid, k):
            face = frozenset(cells)
            if any(s <= face for s in supports):
                continue
            if any(face < f for f in faces):
                continue
            faces.append(face)
    return frozenset(faces)


class TestGenerators:
    def test_identity_empty(self):
        assert essential_generators(identity_asm(3)) == frozenset()
        assert defining_generators(identity_asm(3)) == frozenset()

    def test_noneqi(self, noneqi):
        gens = essential_generators(noneqi)
        ones = {g for g in gens if g.size == 1}
        twos = {g for g in gens if g.size == 2}
        assert {(g.rows, g.cols) for g in ones} == {((1,), (1,)), ((1,), (2,))}
        assert {(g.rows, g.cols) for g in twos} == {
            ((1, 2), (1, 2)), ((1, 2), (1, 3)), ((1, 2), (2, 3))}
        assert all(g.region == (1, 2) for g in ones)
        assert all(g.region == (2, 3) for g in twos)

    def test_2_1_0_bigrassmannian(self):
        a = bigrassmannian_encode(2, 1, 0, 4).matrix(4)
        gens = essential_generators(a)
        assert {(g.rows, g.cols) for g in gens} == {((1,), (1,)), ((2,), (1,))}

    def test_minor_spec_validation(self):
        with pytest.raises(ValueError):
            MinorSpec((1, 2), (1,), (2, 2))
        with pytest.raises(ValueError):
            MinorSpec((3,), (1,), (2, 2))


class TestAntidiagonal:
    def test_1x1(self):
        assert antidiagonal_init(MinorSpec((1,), (1,), (1, 1))) == sq((1, 1))

    def test_rows12_cols13(self):
        m = MinorSpec((1, 2), (1, 3), (2, 3))
        assert antidiagonal_init(m) == sq((1, 3), (2, 1))

    def test_rows12_cols23(self):
        m = MinorSpec((1, 2), (2, 3), (2, 3))
        assert antidiagonal_init(m) == sq((1, 3), (2, 2))


class TestInitialIdeal:
    def test_identity_zero_ideal(self):
        assert initial_ideal(identity_asm(3)) == frozenset()

    def test_noneqi(self, noneqi):
        assert initial_ideal(noneqi) == {
            sq((1, 1)), sq((1, 2)), sq((1, 3), (2, 1)), sq((1, 3), (2, 2))}

    def test_1_2_0_bigrassmannian(self):
        a = bigrassmannian_encode(1, 2, 0, 4).matrix(4)
        assert initial_ideal(a) == {sq((1, 1)), sq((1, 2))}

    def test_generators_form_antichain(self):
        for a in enumerate_asms(4):
            gens = initial_ideal(a)
            for g, h in itertools.combinations(gens, 2):
                assert not g <= h and not h <= g

    def test_defining_equals_essential_after_minimalization_asm3(self):
        for a in enumerate_asms(3):
            ess = initial_ideal(a)
            full = minimalize(antidiagonal_init(g) for g in defining_generators(a))
            assert ess == full


class TestInitialIdealRoute:
    """initial_ideal reads its supports off the rank conditions; the minor
    objects, each lead term taken by antidiagonal_init and the family
    minimalized by a pairwise inclusion filter, are its oracle."""

    @staticmethod
    def assert_matches_minors(a):
        expected = minimalize(antidiagonal_init(g) for g in essential_generators(a))
        assert initial_ideal(a) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_asm(self, n):
        for a in enumerate_asms(n):
            self.assert_matches_minors(a)

    def test_asm6_every_50th(self):
        for a in list(enumerate_asms(6))[::50]:
            self.assert_matches_minors(a)

    def test_cached_supports_every_asm5(self):
        # a cold pass fills the cache and a warm one reads it back
        _antidiagonals.cache_clear()
        for _ in range(2):
            for a in enumerate_asms(5):
                self.assert_matches_minors(a)

    def test_cache_is_keyed_on_the_width(self):
        # A and its embedding have the same rank conditions, whose supports
        # sit on grids of different widths
        _antidiagonals.cache_clear()
        for a in enumerate_asms(4):
            assert initial_ideal(embed(a)) == initial_ideal(a)
        assert _antidiagonals.cache_info().currsize == 2 * len(
            {cond for a in enumerate_asms(4) for cond in rank_conditions(a)}
        )


def assert_hitting_sets_match(supports) -> None:
    """Both searches against the brute-force oracle: every minimal hitting
    set, and with ``smallest`` those of the fewest cells, each once.  The
    cells are numbered as in ``minimal_hitting_sets``."""
    expected = brute_force_minimal_hitting_sets(supports)
    assert minimal_hitting_sets(supports) == expected
    supports = [frozenset(s) for s in supports]
    cells = sorted(frozenset().union(*supports))
    masks = [sum(1 << cells.index(c) for c in s) for s in supports]
    smallest = _hitting_masks(masks, smallest=True)
    assert len(smallest) == len(set(smallest))
    fewest = min(map(len, expected))
    assert {frozenset(c for k, c in enumerate(cells) if h >> k & 1) for h in smallest} == {
        h for h in expected if len(h) == fewest}


class TestHittingSets:
    def test_empty_family(self):
        assert minimal_hitting_sets([]) == {frozenset()}

    def test_single_edge(self):
        hs = minimal_hitting_sets([frozenset({(1, 1), (1, 2)})])
        assert hs == {frozenset({(1, 1)}), frozenset({(1, 2)})}

    def test_superset_edges_dropped(self):
        hs = minimal_hitting_sets([
            frozenset({(1, 1)}), frozenset({(1, 1), (2, 2)})])
        assert hs == {frozenset({(1, 1)})}

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError):
            minimal_hitting_sets([frozenset()])
        for smallest in (False, True):
            for masks in ([0], [0b1, 0]):
                with pytest.raises(ValueError):
                    _hitting_masks(masks, smallest=smallest)

    def test_smallest_of_the_empty_family_is_the_empty_set(self):
        assert _hitting_masks([], smallest=True) == [0]

    def test_three_disjoint_pairs(self):
        pairs = [[(k, 1), (k, 2)] for k in (1, 2, 3)]
        hs = minimal_hitting_sets(pairs)
        assert len(hs) == 8
        assert hs == {frozenset(cells) for cells in itertools.product(*pairs)}

    @pytest.mark.parametrize("supports", [
        [],
        [[(1, 1)], [(1, 1), (2, 2)]],
        # repeated supports, given as lists in either order
        [[(1, 1), (2, 2)], [(1, 1), (2, 2)], [(2, 2), (1, 1)]],
        [[(1, 1), (1, 2)], [(1, 2), (2, 1)], [(2, 1), (1, 1)]],
        [[(k, 1), (k, 2)] for k in (1, 2, 3)],
        [[(1, 1), (1, 2), (1, 3)], [(1, 3), (2, 3), (3, 3)], [(1, 1), (2, 2), (3, 3)]],
        # cells off any square grid: the search numbers the cells it is given
        [[(0, 1), (9, 2)], [(9, 2), (1, 0)], [(0, 1), (-3, 7)], [(1, 0)]],
        # the first leaf reached holds four cells, and a later one holds one
        [[(k, 1), (9, 9)] for k in (1, 2, 3, 4)],
    ])
    def test_hand_made_families_match_brute_force(self, supports):
        assert_hitting_sets_match(supports)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_brute_force_asm(self, n):
        for a in enumerate_asms(n):
            assert_hitting_sets_match(initial_ideal(a))

    def test_matches_brute_force_asm6_sample(self):
        for a in [identity_asm(6)] + list(enumerate_asms(6))[::500]:
            assert_hitting_sets_match(initial_ideal(a))


def transposed(cells) -> frozenset:
    return frozenset((j, i) for i, j in cells)


class TestTranspose:
    """A metamorphic check that reads one route at a time: transposing A
    transposes the facets of its subword complex and the Stanley-Reisner
    facets of its initial ideal."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_facets_of_the_transpose(self, n):
        for a in enumerate_asms(n):
            at = validate_asm(list(zip(*a.entries)))
            assert {d.cells for d in delta_facets(at)} == {transposed(d.cells) for d in delta_facets(a)}
            sr, sr_t = (stanley_reisner_facets(initial_ideal(b), n).facets for b in (a, at))
            assert sr_t == {transposed(f) for f in sr}


class TestStanleyReisner:
    def test_no_generators_whole_grid(self):
        sr = stanley_reisner_facets([], 2)
        assert sr.facets == {frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})}
        for n in (1, 3):
            grid = frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1))
            assert stanley_reisner_facets([], n).facets == {grid}

    @pytest.mark.parametrize("cell", [(3, 1), (1, 3), (0, 1), (1, 0)])
    def test_support_off_the_grid_rejected(self, cell):
        with pytest.raises(ValueError, match="leaves the 2x2 grid"):
            stanley_reisner_facets([sq((1, 1)), sq((2, 2), cell)], 2)

    def test_single_variable_generator(self):
        sr = stanley_reisner_facets([sq((1, 1))], 2)
        assert sr.facets == {frozenset({(1, 2), (2, 1), (2, 2)})}

    def test_facets_match_subword_complement_noneqi(self, noneqi):
        sr = stanley_reisner_facets(initial_ideal(noneqi), 4)
        assert sr.facets == frozenset(f.complement_cells() for f in delta_facets(noneqi))

    def test_branch_and_bound_matches_brute_force_asm3(self):
        for a in enumerate_asms(3):
            gens = initial_ideal(a)
            sr = stanley_reisner_facets(gens, 3)
            assert sr.facets == brute_force_sr_facets(gens, 3)

    def test_facets_match_subword_complement_asm3(self):
        for a in enumerate_asms(3):
            sr = stanley_reisner_facets(initial_ideal(a), 3)
            assert sr.facets == frozenset(f.complement_cells() for f in delta_facets(a))

    def test_facets_match_subword_complement_asm4(self):
        for a in enumerate_asms(4):
            sr = stanley_reisner_facets(initial_ideal(a), 4)
            assert sr.facets == frozenset(f.complement_cells() for f in delta_facets(a))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_facets_are_grid_complements_of_the_hitting_sets(self, n):
        """The facets, taken in the kept grid, against the complements of
        the minimal hitting sets in a grid built here, every ASM(n)."""
        grid = frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1))
        for a in enumerate_asms(n):
            gens = initial_ideal(a)
            sr = stanley_reisner_facets(gens, n)
            assert sr.n == n
            assert sr.facets == frozenset(grid - h for h in minimal_hitting_sets(gens))
            assert sr.facets == frozenset(f.complement_cells() for f in delta_facets(a))


class TestMultidegree:
    def test_identity_one(self):
        # no generators: the search's one leaf is the empty set
        for n in (1, 3, 6):
            assert multidegree(identity_asm(n)).render() == "1"

    def test_noneqi(self, noneqi):
        assert multidegree(noneqi) == poly_from_monomials([Monomial((3,))])

    def test_asmdiag(self, asmdiag):
        assert multidegree(asmdiag).render() == "x1^3*x2^2 + x1^3*x2*x3"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_sr_facet_oracle(self, n):
        for a in enumerate_asms(n):
            assert multidegree(a) == multidegree_from_sr_facets(a)

    def test_matches_sr_facet_oracle_asm6_sample(self):
        for a in [identity_asm(6)] + list(enumerate_asms(6))[::500]:
            assert multidegree(a) == multidegree_from_sr_facets(a)

    def test_matches_prism_polynomials_asm3(self):
        for a in enumerate_asms(3):
            md = multidegree(a)
            assert md == asm_polynomial(bigrassmannian_model(a))
            assert md == asm_polynomial(parabolic_model(a))
