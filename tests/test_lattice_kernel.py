"""The packed lattice kernel of asmprism.asm against the corner-sum tables
of conftest: order, join, meet, join_all, Ess(A) and the Robbins-Rumsey
test, each checked against an oracle that never reads the packed sums."""

import itertools
import operator
import pickle
import random

import pytest

from conftest import (
    _table_diagram,
    corner_join,
    corner_join_all,
    corner_leq,
    corner_meet,
    decoded_entries_match,
    table_rank_conditions,
)

from asmprism import asm as asm_mod
from asmprism.asm import (
    Asm,
    AsmValidationError,
    _asm_of_sums,
    _is_corner_sums,
    _sums_at,
    asm_from_corner_sum,
    asm_join,
    asm_leq,
    asm_meet,
    corner_rows,
    embed,
    enumerate_asms,
    identity_asm,
    inversions,
    join_all,
    rank_conditions,
    validate_asm,
)
from asmprism.perm import Perm, bigr_of


def pack_rows(rows) -> int:
    """The packed layout written out: byte (i-1)*n + j-1 holds r(i, j)."""
    return int.from_bytes(bytes(itertools.chain.from_iterable(rows)), "little")


def assert_same_asm(got: Asm, want: Asm) -> None:
    """Equal entries at the same size, and packed sums that are the corner
    sums of those entries."""
    assert got.entries == want.entries
    assert got._sums == pack_rows(corner_rows(Asm(got.entries)))


def assert_lattice_ops(a: Asm, b: Asm) -> None:
    assert asm_leq(a, b) == corner_leq(a, b)
    assert_same_asm(asm_join(a, b), corner_join(a, b))
    assert_same_asm(asm_meet(a, b), corner_meet(a, b))


ASMS_1_TO_4 = [a for n in range(1, 5) for a in enumerate_asms(n)]


class TestAgainstTables:
    def test_every_pair_up_to_4(self):
        # mixed sizes included: 52 ASMs, 2,704 ordered pairs
        for a, b in itertools.product(ASMS_1_TO_4, repeat=2):
            assert_lattice_ops(a, b)

    def test_seeded_pairs_of_asm6(self):
        asms = list(enumerate_asms(6))
        rng = random.Random(18)
        for _ in range(2000):
            assert_lattice_ops(rng.choice(asms), rng.choice(asms))

    def test_join_all_of_bigr_on_asm5(self):
        for a in enumerate_asms(5):
            family = [u.matrix(5) for u in bigr_of(a)]
            j = join_all(family, 5)
            assert j == a
            assert_same_asm(j, corner_join_all(family, 5))

    def test_join_all_mixed_sizes(self):
        rng = random.Random(3)
        for _ in range(200):
            family = rng.sample(ASMS_1_TO_4, rng.randrange(1, 5))
            n = rng.choice([None, 4, 5])
            assert_same_asm(join_all(family, n), corner_join_all(family, n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rank_conditions_and_diagram(self, n):
        for a in enumerate_asms(n):
            rows = corner_rows(a)
            assert rank_conditions(a) == table_rank_conditions(rows)
            assert inversions(a) == _table_diagram(rows)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_robbins_rumsey_matches_validate_asm(self, n):
        # every n x n table with entries 0..n: 2, 81 and 262,144 of them
        accepted = 0
        for flat in itertools.product(range(n + 1), repeat=n * n):
            rows = [flat[s:s + n] for s in range(0, n * n, n)]
            try:
                want = asm_from_corner_sum(rows)
            except AsmValidationError:
                assert not _is_corner_sums(pack_rows(rows), n)
            else:
                accepted += 1
                assert_same_asm(_asm_of_sums(pack_rows(rows), n), want)
        assert accepted == {1: 1, 2: 2, 3: 7}[n]

    def test_rejected_sums_name_a_row_or_column(self):
        rng = random.Random(5)
        for _ in range(500):
            rows = [[rng.randrange(5) for _ in range(4)] for _ in range(4)]
            with pytest.raises(AsmValidationError) as want:
                asm_from_corner_sum(rows)
            with pytest.raises(AsmValidationError) as got:
                _asm_of_sums(pack_rows(rows), 4)
            assert str(got.value) == str(want.value)


class TestEdgeCases:
    def test_n1(self):
        one = identity_asm(1)
        assert asm_leq(one, one)
        assert asm_join(one, one).entries == asm_meet(one, one).entries == ((1,),)
        assert rank_conditions(one) == () and inversions(one) == frozenset()

    def test_permutation_matrices(self):
        # the identity, every w in S_4, and each padded with fixed points above its size
        assert_same_asm(Perm.identity().matrix(), identity_asm(1))
        for w in itertools.permutations(range(1, 5)):
            for n in (4, 5, 6):
                m = Perm(w).matrix(n)
                want = tuple(tuple(int(v == c) for c in range(1, n + 1)) for v in (*w, *range(5, n + 1)))
                assert_same_asm(m, Asm(want))

    def test_packed_sums_stay_out_of_eq_hash_repr_and_pickles(self):
        a = asm_join(*ASMS_1_TO_4[-2:])
        b = Asm(a.entries)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a.__reduce__() == (_asm_of_sums, (a._sums, a.n))  # a pickle carries the sums alone
        c = pickle.loads(pickle.dumps(a))
        assert c._sums == a._sums and not decoded(c) and c.entries == a.entries
        assert c == a and hash(c) == hash(a) and repr(c) == repr(a)

    def test_invalid_input_raises_through_validate_asm(self):
        bad = Asm(((1, 1), (0, 0)))  # never validated: row 1 sums to 2
        with pytest.raises(AsmValidationError, match="row 1 sums to 2"):
            asm_join(bad, bad)
        with pytest.raises(AsmValidationError, match="row 1 sums to 2"):
            join_all([bad])

    def test_unpickling_validates(self):
        # a pickle carries packed sums, and unpickling puts them to the
        # Robbins-Rumsey test, so an unvalidated Asm does not come back
        bad = Asm(((1, 1), (0, 0)))
        with pytest.raises(AsmValidationError, match="row 1 sums to 2"):
            pickle.loads(pickle.dumps(bad))

    def test_size_beyond_the_guard_bit(self):
        with pytest.raises(ValueError, match="n <= 127"):
            asm_leq(identity_asm(128), identity_asm(1))
        with pytest.raises(ValueError, match="n <= 127"):
            _sums_at(identity_asm(2), 128)


class TestSumsAtConstruction:
    """Every builder gives an Asm its size and packed corner sums at once;
    only the entries may wait for their first read."""

    @staticmethod
    def builders():
        x = ASMS_1_TO_4[-3]
        y = ASMS_1_TO_4[-7]
        return {
            "validate_asm": validate_asm(x.entries),
            "Asm": Asm(x.entries),
            "identity_asm": identity_asm(5),
            "embed": embed(x),
            "unpickle": pickle.loads(pickle.dumps(asm_meet(x, y))),
            "enumerate_asms": list(enumerate_asms(4))[17],
            "Perm.matrix": Perm((3, 1, 4, 2)).matrix(6),
            "join": asm_join(x, y),
            "meet": asm_meet(x, y),
            "join_all": join_all([x, y, identity_asm(2)], 5),
        }

    def test_every_builder_sets_n_and_sums(self):
        for name, a in self.builders().items():
            p = Asm._sums.__get__(a)  # the slot itself: raises if unset
            assert Asm.n.__get__(a) == len(a.entries), name
            assert p == pack_rows(corner_rows(a)), name

    def test_lattice_results_hold_no_entries_until_read(self):
        # Perm.matrix is left out: its matrices are kept per process, so an
        # earlier test may have read them
        lazy = {"unpickle", "join", "meet", "join_all"}
        for name, a in self.builders().items():
            if name != "Perm.matrix":
                assert decoded(a) == (name not in lazy), name
        j = asm_join(*ASMS_1_TO_4[-2:])
        assert not decoded(j)
        j.entries
        assert decoded(j) and j.entries is j.entries

    def test_rank_conditions_kept_from_the_first_read(self, monkeypatch):
        """No builder builds Ess(A).  The first read of rank_conditions
        builds it, as a tuple, and every later read returns that tuple, the
        hash included; an embedded or unpickled copy builds its own."""
        calls = []
        diagram_bytes = asm_mod._diagram_bytes
        monkeypatch.setattr(asm_mod, "_diagram_bytes", lambda a: calls.append(a) or diagram_bytes(a))
        for name, a in self.builders().items():
            if name == "Perm.matrix":  # kept per process, so maybe read before
                continue
            calls.clear()
            conds = rank_conditions(a)
            assert isinstance(conds, tuple) and all(type(c) is tuple for c in conds), name
            assert rank_conditions(a) is conds and hash(a) == hash(conds), name
            wider, copy = embed(a), pickle.loads(pickle.dumps(a))
            assert hash(wider) == hash(a) and rank_conditions(copy) == conds, name
            assert list(map(id, calls)) == [id(a), id(wider), id(copy)], name

    def test_construction_refuses_n_above_127(self):
        for build in (identity_asm, lambda n: Asm(identity_asm(1).entries * n)):
            with pytest.raises(ValueError, match="n <= 127"):
                build(128)
        top = identity_asm(127)
        assert top.n == 127 and top._sums >> 8 * (127 * 127 - 1) == 127
        assert asm_leq(top, top) and asm_join(top, identity_asm(3)) == top


def count_decodes(monkeypatch) -> list:
    """Spy on the corner-sum decoder: the list it returns grows by one
    entry per call from now on."""
    calls = []
    decode = asm_mod._entries_from_corner_rows
    monkeypatch.setattr(asm_mod, "_entries_from_corner_rows", lambda rows: calls.append(rows) or decode(rows))
    return calls


def decoded(a: Asm) -> bool:
    """Whether a holds its entries, read off the optional slot without
    decoding them."""
    return a._entries is not None


def assert_lazy_equals(got: Asm, want: Asm) -> None:
    """got comes from the lattice with its entries not yet decoded; want,
    built by validate_asm, holds entries and sums.  got equals want, at
    the same size and across sizes, in every way a caller can tell, and
    equality at the same size reads only the sums."""
    assert not decoded(got) and got.n == want.n
    assert got == want and want == got
    assert not decoded(got)
    assert got.entries == want.entries and decoded(got)
    assert hash(got) == hash(want) and repr(got) == repr(want) == f"Asm({want.entries!r})"
    wider = embed(want)
    assert got == wider and wider == got and hash(got) == hash(wider)
    assert got == asm_join(got, wider) and asm_join(got, wider).n == want.n + 1


class TestDecodeOnDemand:
    """Join, meet and join_all return ASMs that hold only their size and
    packed sums; the entries are decoded on first read."""

    ASM4 = list(enumerate_asms(4))

    def test_every_pair_of_asm4(self):
        for a, b in itertools.product(self.ASM4, repeat=2):
            for got, want in (
                (asm_join(a, b), corner_join(a, b)),
                (asm_meet(a, b), corner_meet(a, b)),
                (join_all([a, b]), corner_join_all([a, b])),
            ):
                assert_lazy_equals(got, validate_asm(want.entries))

    def test_equal_sums_compare_without_decoding(self):
        for a, b in itertools.product(self.ASM4, repeat=2):
            j, k = asm_join(a, b), asm_join(b, a)
            assert j == k and not decoded(j) and not decoded(k)
            assert (j == asm_meet(a, b)) == (corner_join(a, b) == corner_meet(a, b))
            assert not decoded(j)

    def test_equality_and_hash_across_sizes(self):
        # equal ASMs of sizes 4 and 5 have different packed sums: == widens
        # the smaller one's, and the hash reads Ess(A), which iota leaves alone
        for a, b in itertools.product(self.ASM4, repeat=2):
            small, large = asm_join(a, b), join_all([a, b], 5)
            assert small.n == 4 and large.n == 5
            assert small == large and large == small and hash(small) == hash(large)

    def test_mixed_sizes_leave_the_larger_undecoded(self):
        # the larger operand's sums are already at the common size, and the
        # smaller one's are widened bytewise, so neither is decoded
        for a, b in itertools.product(self.ASM4[::3], repeat=2):
            for u in enumerate_asms(3):
                x, y, wide = asm_join(a, b), asm_join(u, u), embed(u)
                assert (x == y) == (y == x) == (x == wide)
                assert asm_leq(y, x) == asm_leq(wide, x) and asm_leq(x, y) == asm_leq(x, wide)
                assert asm_join(x, y)._sums == asm_join(x, wide)._sums
                assert asm_meet(y, x)._sums == asm_meet(wide, x)._sums
                assert not decoded(x) and not decoded(y)

    MIXED_OPS = {"==": operator.eq, "asm_leq": asm_leq, "asm_join": asm_join, "asm_meet": asm_meet}
    ORACLES = {"==": lambda a, b: corner_leq(a, b) and corner_leq(b, a), "asm_leq": corner_leq,
               "asm_join": corner_join, "asm_meet": corner_meet}

    @pytest.mark.parametrize("small_first", [True, False], ids=["3,4", "4,3"])
    @pytest.mark.parametrize("op", sorted(MIXED_OPS))
    def test_no_size_change_decodes(self, monkeypatch, op, small_first):
        # both operands hold only their packed sums; the last pair is equal
        ASM3 = list(enumerate_asms(3))
        pairs = [(asm_meet(ASM3[u], ASM3[v]), asm_join(self.ASM4[a], self.ASM4[b]))
                 for u, v, a, b in [(1, 4, 9, 30), (0, 6, 41, 2), (3, 3, 17, 17)]]
        pairs.append((asm_join(ASM3[2], ASM3[2]), asm_join(embed(ASM3[2]), embed(ASM3[2]))))
        pairs = [pair if small_first else pair[::-1] for pair in pairs]
        calls = count_decodes(monkeypatch)
        got = [self.MIXED_OPS[op](*pair) for pair in pairs]
        assert calls == [] and not any(decoded(a) for pair in pairs for a in pair)
        assert got == [self.ORACLES[op](*pair) for pair in pairs]

    def test_join_all_widens_without_decoding(self, monkeypatch):
        # the running minimum of two ASM(3)s is widened when an ASM(4) arrives
        ASM3 = list(enumerate_asms(3))
        families = [[asm_join(ASM3[1], ASM3[4]), self.ASM4[9]], [asm_join(ASM3[6], ASM3[0]), self.ASM4[40]]]
        calls = count_decodes(monkeypatch)
        got = [join_all(family) for family in families]
        assert calls == [] and not any(decoded(family[0]) for family in families)
        for family, j in zip(families, got):
            assert_lazy_equals(j, validate_asm(corner_join_all(family).entries))

    def test_no_identity_operation_decodes(self, monkeypatch):
        # a pickle carries the packed sums and a hash reads the rank conditions
        joins = [asm_join(a, b) for a, b in itertools.product(self.ASM4, repeat=2)]
        calls = count_decodes(monkeypatch)
        assert pickle.dumps(joins[-1]) and calls == []
        assert len(set(joins)) == 42 and calls == []
        assert not any(map(decoded, joins))

    def test_decoded_entries_match_the_sums(self):
        assert decoded_entries_match(self.ASM4)

    def test_pickle_round_trip(self):
        for a, b in itertools.product(self.ASM4[::5], repeat=2):
            j = asm_meet(a, b)
            c = pickle.loads(pickle.dumps(j))
            assert c.n == j.n and c.entries == j.entries and c == j and hash(c) == hash(j)

    def test_attributes_cannot_be_set(self):
        j = asm_join(*self.ASM4[-2:])
        for name in ("entries", "n", "_sums", "other"):
            with pytest.raises(AttributeError):
                setattr(j, name, ())
            with pytest.raises(AttributeError):
                delattr(j, name)
        assert j.n == 4 and j == corner_join(*self.ASM4[-2:])

    def test_missing_attribute_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'other'"):
            asm_join(*self.ASM4[:2]).other


class TestOnePath:
    """asm_join, asm_meet and join_all each have one body: at equal sizes
    and at mixed sizes they reach the same min, max and Robbins-Rumsey
    kernels, and agree with the tables when one side is embedded."""

    ASM4 = list(enumerate_asms(4))

    # which kernel each operation must reach
    USES = {
        "_bytewise_min": {"asm_join", "join_all"},
        "_bytewise_max": {"asm_meet"},
        "_is_corner_sums": {"asm_join", "asm_meet", "join_all"},
    }
    OPS = {
        "asm_join": lambda a, b: asm_join(a, b),
        "asm_meet": lambda a, b: asm_meet(a, b),
        "join_all": lambda a, b: join_all([a, b, a]),
    }

    @pytest.mark.parametrize("kernel", sorted(USES))
    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
    def test_every_path_reaches_the_kernel(self, monkeypatch, kernel, op, mixed):
        a, b = self.ASM4[9], self.ASM4[30]
        if mixed:
            b = embed(b)
        real = getattr(asm_mod, kernel)
        calls = []
        monkeypatch.setattr(asm_mod, kernel, lambda *args: calls.append(args) or real(*args))
        got = self.OPS[op](a, b)
        assert bool(calls) == (op in self.USES[kernel])
        want = {"asm_join": corner_join, "asm_meet": corner_meet, "join_all": corner_join}[op](a, b)
        assert_same_asm(got, want)

    @pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
    def test_every_path_uses_what_the_kernel_returns(self, monkeypatch, mixed):
        a, b = self.ASM4[9], self.ASM4[30]
        if mixed:
            a = embed(embed(a))
        real_min, real_max = asm_mod._bytewise_min, asm_mod._bytewise_max
        monkeypatch.setattr(asm_mod, "_bytewise_min", real_max)
        monkeypatch.setattr(asm_mod, "_bytewise_max", real_min)
        assert_same_asm(asm_join(a, b), corner_meet(a, b))
        assert_same_asm(asm_meet(a, b), corner_join(a, b))
        assert_same_asm(join_all([b, a]), corner_meet(a, b))
        monkeypatch.setattr(asm_mod, "_is_corner_sums", lambda p, m: False)
        for op in self.OPS.values():
            with pytest.raises(AsmValidationError, match="Robbins-Rumsey"):
                op(a, b)

    def test_every_pair_of_asm4_with_one_side_embedded(self):
        for a, b in itertools.product(self.ASM4, repeat=2):
            wide = embed(b)
            assert asm_leq(a, wide) == corner_leq(a, wide) and asm_leq(wide, a) == corner_leq(wide, a)
            assert (a == wide) == (wide == a) == (a == b)
            assert_same_asm(asm_join(a, wide), corner_join(a, wide))
            assert_same_asm(asm_meet(wide, a), corner_meet(wide, a))
            # the minimum so far is re-embedded when a larger member comes last
            for family in ([a, wide], [wide, a], [a, b, wide]):
                assert_same_asm(join_all(family), corner_join_all(family))
            assert_same_asm(join_all(iter([a, b]), 5), corner_join_all([a, b], 5))
