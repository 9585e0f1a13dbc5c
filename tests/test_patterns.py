import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uhainf import (
    CPattern,
    ModuleParams,
    QValue,
    Signature,
    enumerate_basis,
    highest_weight_pattern,
)
from uhainf.patterns import (
    _interlaces,
    _position,
    basis_count,
    basis_rank,
    row_range,
    shift,
    shifted_if_valid,
    sign_s,
    theta,
    weight_eigenvalue,
)


def validate(p: CPattern) -> bool:
    """Full interlacing check: every stored row against the row above it."""
    return all(_interlaces(p.row(q), p.row(q + 1)) for q in range(1, p.N))


def entry(p: CPattern, i: int, row: int) -> int:
    """M(i, row) of p, read by entry index i; IndexError outside the row."""
    if row > len(p.rows):
        return p.sig.value(i)
    return p.rows[row - 1][_position(i, row)]


# ---------------------------------------------------------------------------
# Independent oracle.  Written in position space: row p is a tuple of p
# integers read left to right, and the interlacing condition between row p
# (below) and row p+1 (above) is the uniform two-sided sandwich
# above[t] >= below[t] >= above[t+1].  The library states the same rule
# once, in patterns._interlaces; this copy and the brute-force enumeration
# below share no code with it, so a change to the library's rule shows here.
# ---------------------------------------------------------------------------


def oracle_rows_interlace(below: tuple, above: tuple) -> bool:
    assert len(above) == len(below) + 1
    return all(above[t] >= below[t] >= above[t + 1] for t in range(len(below)))


def oracle_valid(sig: Signature, rows_bottom_up: list) -> bool:
    n_rows = len(rows_bottom_up)
    full = list(rows_bottom_up) + [list(sig.row(n_rows + 1))]
    return all(
        oracle_rows_interlace(tuple(full[p]), tuple(full[p + 1]))
        for p in range(n_rows)
    )


def oracle_enumerate(sig: Signature, N: int) -> set:
    """Brute-force enumeration: try every integer array bounded by the row
    above, independently of the library's recursive filler."""
    out = set()
    top = list(sig.row(N))
    # candidate entries for each row are bounded by the extremes of the row
    # above, so a full product scan over those ranges is exhaustive
    def rec(p: int, above: list, acc: list):
        if p == 0:
            out.add(tuple(tuple(r) for r in reversed(acc)))
            return
        lo, hi = min(above), max(above)
        for combo in itertools.product(range(lo, hi + 1), repeat=p):
            if oracle_rows_interlace(combo, tuple(above)):
                rec(p - 1, list(combo), acc + [list(combo)])

    rec(N - 1, top, [])
    return out


class TestBasics:
    def test_theta(self):
        assert [theta(i) for i in (-2, -1, 0, 1, 2)] == [0, 0, 1, 1, 1]

    def test_sign_s(self):
        assert sign_s(0, 0, 0) == 1
        assert sign_s(0, 0, 1) == -1
        assert sign_s(-1, 0, 0) == 1
        assert sign_s(1, 0, 1) == -1

    def test_row_range(self):
        assert list(row_range(1)) == [0]
        assert list(row_range(2)) == [-1, 0]
        assert list(row_range(3)) == [-1, 0, 1]
        assert list(row_range(4)) == [-2, -1, 0, 1]
        assert list(row_range(5)) == [-2, -1, 0, 1, 2]


class TestSignature:
    def test_constant_tails(self):
        s = Signature(-1, 1, (2, 1, 0))
        assert s.value(-5) == 2 and s.value(-1) == 2
        assert s.value(0) == 1
        assert s.value(1) == 0 and s.value(7) == 0

    def test_rows(self):
        s = Signature(-1, 1, (2, 1, 0))
        assert s.row(1) == (1,)
        assert s.row(2) == (2, 1)
        assert s.row(3) == (2, 1, 0)
        assert s.row(4) == (2, 2, 1, 0)

    def test_row_cache_is_invisible(self):
        s = Signature(-1, 1, (2, 1, 0))
        fresh = Signature(-1, 1, (2, 1, 0))
        assert s.row(5) is s.row(5)
        assert s.row(5) == (2, 2, 1, 0, 0)
        assert s.row(0) == ()
        assert s == fresh and hash(s) == hash(fresh)
        assert repr(s) == repr(fresh)
        assert s.to_json() == fresh.to_json()

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Signature(0, 1, (0, 1))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            Signature(2, 1, ())
        with pytest.raises(ValueError):
            Signature(0, 1, (1, 0, 0))

    def test_json_roundtrip(self):
        s = Signature(-2, 2, (3, 2, 2, 1, 0))
        assert Signature.from_json(s.to_json()) == s


_SIGNATURE_JSON = {"m": -1, "n": 1, "values": [2, 1, 0]}
_NON_INTEGERS = [("float", 1.7), ("whole float", 2.0), ("bool", True),
                 ("string", "1"), ("null", None)]


@pytest.mark.parametrize("value", [v for _, v in _NON_INTEGERS],
                         ids=[name for name, _ in _NON_INTEGERS])
class TestJsonRejectsNonIntegers:
    """A saved document's numbers are read as they are: a float or a bool is
    refused, never truncated to another module or pattern."""

    @pytest.mark.parametrize("where", ["m", "n", "values"])
    def test_signature(self, value, where):
        data = dict(_SIGNATURE_JSON)
        if where == "values":
            data["values"] = [2, value, 0]
        else:
            data[where] = value
        with pytest.raises(ValueError, match="expected an integer"):
            Signature.from_json(data)

    def test_signature_constructor(self, value):
        with pytest.raises(ValueError, match="expected an integer"):
            Signature(-1, 1, (2, value, 0))

    def test_pattern_rows(self, value):
        data = {"signature": _SIGNATURE_JSON, "N": 2, "rows": [[value]]}
        with pytest.raises(ValueError, match="expected an integer"):
            CPattern.from_json(data)

    @pytest.mark.parametrize("rows", ["row 1", "row 2"])
    def test_pattern_constructor(self, value, rows):
        sig = Signature.from_json(_SIGNATURE_JSON)
        rows = [(value,)] if rows == "row 1" else [(1,), (2, value)]
        with pytest.raises(ValueError, match="expected an integer"):
            CPattern(sig, rows)


class TestModuleParams:
    def test_capital_mode_constraint(self):
        s = Signature(0, 1, (1, 0))
        ModuleParams(s, 1, 0, QValue.quantum(2), "A_infinity")
        with pytest.raises(ValueError):
            ModuleParams(s, 2, 0, QValue.quantum(2), "A_infinity")
        # lowercase mode has free labels
        ModuleParams(s, 7, -3, QValue.quantum(2), "a_infinity")

    def test_hash_is_structural(self):
        s = Signature(-1, 1, (2, 1, 0))
        a = ModuleParams(s, Fraction(2), Fraction(0),
                         QValue.quantum(Fraction(3, 2)), "a_infinity")
        b = ModuleParams(Signature(-1, 1, (2, 1, 0)), 2, 0,
                         QValue.quantum(Fraction(3, 2)))
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        c = ModuleParams(s, Fraction(1), Fraction(0),
                         QValue.quantum(Fraction(3, 2)))
        assert a != c

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ModuleParams(Signature(0, 0, (0,)), 0, 0, QValue.classical(), "other")

    def test_negative_q_is_rejected(self):
        # QValue itself takes a negative q: the bracket identities hold there
        s = Signature(-1, 1, (2, 1, 0))
        for q in (Fraction(-2, 3), Fraction(-3, 2)):
            with pytest.raises(ValueError, match="q must be positive"):
                ModuleParams(s, 2, 0, QValue.quantum(q))
        ModuleParams(s, 2, 0, QValue.quantum(Fraction(2, 3)))


class TestCPattern:
    def test_highest_weight_rows(self, sig_small):
        hw = highest_weight_pattern(sig_small)
        assert hw.N == 2
        assert hw.row(1) == (1,)
        assert hw.row(2) == (1, 1)  # both upper values are M_0 = 1
        assert hw.row(3) == (1, 1, 0)

    def test_entry_indexing(self, sig_mid):
        p = CPattern(sig_mid, [(1,), (2, 0), (2, 1, 0)])
        assert entry(p, 0, 1) == 1
        assert entry(p, -1, 2) == 2 and entry(p, 0, 2) == 0
        assert entry(p, 1, 3) == 0
        with pytest.raises(IndexError):
            entry(p, 1, 2)

    def test_minimal_level_normalization(self, sig_mid):
        # explicitly storing signature rows must renormalize to the same N
        p1 = CPattern(sig_mid, [(2,), (2, 1), (2, 1, 0)])
        p2 = CPattern(sig_mid, [(2,)])
        assert p1 == p2 and p1.N == 2 and hash(p1) == hash(p2)

    def test_l_value(self, sig_mid):
        p = highest_weight_pattern(sig_mid)
        # L(i, p) = M(i, p) - i is strictly decreasing along every row of
        # a valid pattern
        for row in range(1, 6):
            ls = [entry(p, i, row) - i for i in row_range(row)]
            assert all(a > b for a, b in zip(ls, ls[1:]))

    def test_json_roundtrip(self, sig_mid):
        p = CPattern(sig_mid, [(1,), (2, 0)])
        assert CPattern.from_json(p.to_json()) == p
        assert p.to_json()["N"] == 3

    def test_immutability(self, sig_mid):
        p = highest_weight_pattern(sig_mid)
        with pytest.raises(AttributeError):
            p.rows = ()

    def test_rows_below_one_are_empty(self, sig_mid):
        # as Signature.row gives them, never a stored row read from the end
        p = CPattern(sig_mid, [(1,), (2, 0), (2, 0, 0), (2, 1, 0, 0)])
        assert p.N == 5
        assert p.row(0) == () and p.row(-1) == () and p.row(-4) == ()
        assert p.row(0) == sig_mid.row(0)
        assert p.row(1) == (1,) and p.row(4) == (2, 1, 0, 0)
        assert p.row(5) == sig_mid.row(5)


class TestValidate:
    def test_examples(self, sig_small):
        # row 2 above row 1 is (1, 1): only M(0,1) = 1 interlaces
        assert validate(CPattern(sig_small, [(1,)]))
        assert not validate(CPattern(sig_small, [(2,)]))
        assert not validate(CPattern(sig_small, [(0,)]))

    def test_matches_oracle_exhaustive(self, sig_mid):
        top = sig_mid.row(4)
        lo, hi = min(top), max(top)
        count = 0
        for r3 in itertools.product(range(lo, hi + 1), repeat=3):
            for r2 in itertools.product(range(lo, hi + 1), repeat=2):
                for r1 in itertools.product(range(lo, hi + 1), repeat=1):
                    rows = [list(r1), list(r2), list(r3)]
                    p = CPattern(sig_mid, rows)
                    want = oracle_valid(sig_mid, rows)
                    assert validate(p) == want, rows
                    count += 1
        assert count == (hi - lo + 1) ** 6


class TestEnumerate:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_matches_oracle(self, sig_mid, N):
        got = enumerate_basis(sig_mid, N)
        want = oracle_enumerate(sig_mid, N)
        as_rows = {tuple(p.row(q) for q in range(1, N)) for p in got}
        assert len(got) == len(set(got)), "duplicates"
        assert as_rows == want

    def test_small_signature(self, sig_small):
        # V_2 of this signature is a single pattern: row 1 pinned to 1
        basis = enumerate_basis(sig_small, 2)
        assert [p.row(1) for p in basis] == [(1,)]

    def test_all_valid_and_within_level(self, sig_mid):
        for N in (2, 3, 4, 5):
            for p in enumerate_basis(sig_mid, N):
                assert validate(p)
                assert p.N <= N

    def test_nested(self, sig_mid):
        b3 = set(enumerate_basis(sig_mid, 3))
        b4 = set(enumerate_basis(sig_mid, 4))
        assert b3 <= b4

    def test_deterministic_order(self, sig_mid):
        a = enumerate_basis(sig_mid, 4)
        b = enumerate_basis(sig_mid, 4)
        assert a == b
        # lexicographic top-down: sort keys strictly increase
        keys = [p.sort_key(4) for p in a]
        assert keys == sorted(keys)

    def test_acceptance_scale_dimension(self, sig_mid):
        assert len(enumerate_basis(sig_mid, 5)) == 75


RANKED = [((-1, 1, (2, 1, 0)), M) for M in range(2, 8)] + [
    ((0, 2, (4, 1, 1)), M) for M in (2, 3, 4, 5)
] + [
    ((0, 0, (0,)), M) for M in (2, 3, 4)
] + [
    ((-2, 2, (3, 3, 1, 0, -1)), M) for M in (2, 3, 4, 5)
]


class TestBasisIndex:
    """enumerate_basis is the oracle: counting must reproduce its length and
    each pattern's position in it, without building the basis."""

    @pytest.mark.parametrize("sig_args,M", RANKED)
    def test_count_and_rank_match_enumeration(self, sig_args, M):
        sig = Signature(*sig_args)
        basis = enumerate_basis(sig, M)
        assert basis_count(sig, M) == len(basis)
        assert [basis_rank(sig, M, p) for p in basis] == list(range(len(basis)))

    @pytest.mark.parametrize("sig_args,M", RANKED)
    def test_rank_is_none_above_level(self, sig_args, M):
        sig = Signature(*sig_args)
        higher = [p for p in enumerate_basis(sig, M + 2) if p.N > M]
        assert all(basis_rank(sig, M, p) is None for p in higher)
        assert higher or sig_args == (0, 0, (0,))  # V_N of 0:0:0 is one pattern

    def test_rejects_level_below_two(self, sig_mid):
        with pytest.raises(ValueError):
            basis_count(sig_mid, 1)
        with pytest.raises(ValueError):
            basis_rank(sig_mid, 1, highest_weight_pattern(sig_mid))


class TestShift:
    def test_shift_roundtrip(self, sig_mid):
        p = highest_weight_pattern(sig_mid)
        q = shift(p, [(0, 1, -1)])
        assert entry(q, 0, 1) == entry(p, 0, 1) - 1
        assert shift(q, [(0, 1, +1)]) == p

    def test_shift_materializes_upper_rows(self, sig_mid):
        p = highest_weight_pattern(sig_mid)
        q = shift(p, [(1, 4, -1)])
        assert q.N == 5
        assert entry(q, 1, 4) == sig_mid.row(4)[3] - 1

    def test_shift_copies_only_moved_rows(self, sig_mid):
        p = CPattern(sig_mid, [(1,), (2, 0), (2, 0, 0), (2, 1, 0, 0)])
        q = shift(p, [(0, 2, +1), (-1, 3, -1)])
        assert q.rows == ((1,), (2, 1), (1, 0, 0), (2, 1, 0, 0))
        assert q.rows[0] is p.rows[0] and q.rows[3] is p.rows[3]
        # two moves on one row both land in its one copy
        r = shift(p, [(-2, 4, +1), (0, 4, -1)])
        assert r.rows == ((1,), (2, 0), (2, 0, 0), (3, 1, -1, 0))
        # a row moved back to the signature is dropped, as CPattern drops it
        back = shift(CPattern(sig_mid, [(1,), (2, 0), (2, 1, 0)]), [(0, 2, +1)])
        assert back == CPattern(sig_mid, [(1,)]) and back.N == 2
        assert back.rows == ((1,),)

    def test_shifted_if_valid_agrees_with_full_validate(self, sig_mid):
        rng = random.Random(5)
        basis = enumerate_basis(sig_mid, 4)
        for _ in range(400):
            p = rng.choice(basis)
            row = rng.randint(1, 5)
            i = rng.choice(list(row_range(row)))
            delta = rng.choice((-1, 1))
            moves = [(i, row, delta)]
            got = shifted_if_valid(p, moves)
            full = shift(p, moves)
            assert (got is not None) == validate(full)
            if got is not None:
                assert got == full

    def test_shifted_if_valid_two_moves(self, sig_mid):
        rng = random.Random(6)
        basis = enumerate_basis(sig_mid, 4)
        for _ in range(400):
            p = rng.choice(basis)
            row = rng.randint(1, 4)
            i = rng.choice(list(row_range(row)))
            j = rng.choice(list(row_range(row + 1)))
            delta = rng.choice((-1, 1))
            moves = [(i, row, delta), (j, row + 1, delta)]
            got = shifted_if_valid(p, moves)
            full = shift(p, moves)
            assert (got is not None) == validate(full)

    def test_out_of_range_move_raises(self, sig_mid):
        p = highest_weight_pattern(sig_mid)
        for moves in ([(1, 1, 1)], [(0, 1, -1), (2, 3, -1)], [(0, 0, 1)]):
            with pytest.raises(IndexError):
                shift(p, moves)
            with pytest.raises(IndexError):
                shifted_if_valid(p, moves)


class TestWideSignature:
    """The exhaustive oracle tests and the shifted_if_valid tests above, run
    again with sig_mid bound to the five-entry window -2:2:3,3,1,0,-1, whose
    rows mix repeated and distinct values."""

    @pytest.fixture
    def sig_mid(self, sig_wide):
        return sig_wide

    test_validate_matches_oracle_exhaustive = (
        TestValidate.test_matches_oracle_exhaustive)
    test_enumerate_matches_oracle = TestEnumerate.test_matches_oracle
    test_shifted_if_valid_agrees_with_full_validate = (
        TestShift.test_shifted_if_valid_agrees_with_full_validate)
    test_shifted_if_valid_two_moves = TestShift.test_shifted_if_valid_two_moves


V5_MID = enumerate_basis(Signature(-1, 1, (2, 1, 0)), 5)


@st.composite
def moves_on_v5(draw):
    """A pattern of V_5 on -1:1:2,1,0 and one or two in-range moves; the
    second move lands in the same row or an adjacent one half the time."""
    p = draw(st.sampled_from(V5_MID))
    moves = []
    row = draw(st.integers(1, 6))
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.sampled_from(list(row_range(row))))
        moves.append((i, row, draw(st.sampled_from((-2, -1, 1, 2)))))
        row = draw(st.one_of(st.integers(1, 6),
                             st.sampled_from((max(row - 1, 1), row, row + 1))))
    return p, moves


@settings(max_examples=400, deadline=None)
@given(moves_on_v5())
def test_property_shifted_if_valid_is_shift_then_validate(case):
    p, moves = case
    full = shift(p, moves)
    got = shifted_if_valid(p, moves)
    if validate(full):
        assert got == full
    else:
        assert got is None


class TestWeights:
    def test_hw_closed_form(self, params_mid):
        hw = highest_weight_pattern(params_mid.signature)
        # eigenvalue is M_i - xi0 for i <= 0 and M_i - xi1 for i >= 1
        assert weight_eigenvalue(hw, -1, params_mid) == 0
        assert weight_eigenvalue(hw, 0, params_mid) == -1
        assert weight_eigenvalue(hw, 1, params_mid) == 0
        assert weight_eigenvalue(hw, -4, params_mid) == 0
        assert weight_eigenvalue(hw, 4, params_mid) == 0

    def test_rational_labels(self, sig_mid):
        params = ModuleParams(sig_mid, Fraction(1, 3), Fraction(-1, 2),
                              QValue.quantum(2), "a_infinity")
        hw = highest_weight_pattern(sig_mid)
        assert weight_eigenvalue(hw, 0, params) == Fraction(1) - Fraction(1, 3)
        assert weight_eigenvalue(hw, 1, params) == Fraction(0) - Fraction(-1, 2)

    @staticmethod
    def _three_fractions(p, i, params):
        """The row-sum difference as a Fraction plus both label terms."""
        hi_row = 2 * abs(i) + theta(i)
        val = Fraction(sum(p.row(hi_row)) - sum(p.row(hi_row - 1)))
        return val + (params.xi1 - params.xi0) * theta(-i) - params.xi1

    @pytest.mark.parametrize("xi0", [Fraction(2), Fraction(5, 2)])
    def test_int_where_the_label_is_integral(self, sig_mid, xi0):
        params = ModuleParams(sig_mid, xi0, Fraction(0),
                              QValue.quantum(Fraction(3, 2)), "a_infinity")
        for p in enumerate_basis(sig_mid, 5):
            for i in range(-4, 5):
                got = weight_eigenvalue(p, i, params)
                assert got == self._three_fractions(p, i, params), (p, i)
                # i <= 0 reads xi0, i > 0 reads xi1 = 0
                integral = i > 0 or xi0.denominator == 1
                assert type(got) is (int if integral else Fraction), (p, i)


@st.composite
def signatures(draw):
    m = draw(st.integers(-2, 1))
    width = draw(st.integers(0, 3))
    n = m + width
    start = draw(st.integers(-3, 4))
    steps = draw(st.lists(st.integers(0, 2), min_size=width, max_size=width))
    values = [start]
    for d in steps:
        values.append(values[-1] - d)
    return Signature(m, n, tuple(values))


@settings(max_examples=40, deadline=None)
@given(signatures(), st.integers(2, 4))
def test_property_enumeration_matches_oracle(sig, N):
    got = {tuple(p.row(q) for q in range(1, N)) for p in enumerate_basis(sig, N)}
    assert got == oracle_enumerate(sig, N)


@settings(max_examples=40, deadline=None)
@given(signatures())
def test_property_hw_is_valid_and_minimal(sig):
    hw = highest_weight_pattern(sig)
    assert validate(hw)
    assert hw.N == 2
    for p in range(1, 6):
        assert hw.row(p) == sig.row(p)
