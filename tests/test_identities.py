import hashlib
import importlib
import json
import random
from fractions import Fraction
from math import prod

import pytest

import uhainf

from uhainf import (
    Assignment,
    IdentityId,
    PoleError,
    QValue,
    evaluate_identity,
    fuzz_identity,
)
from uhainf.identities import (
    CORPUS,
    IDENTITY_TAGS,
    _REJECTION_BUDGET,
    _ROWS,
    _Q_POOL,
    _RANGE,
    _ROW_SUMS,
    _SIZED,
    _a21_factors,
    _as_row,
    _double_sum,
    _randranges,
    _row_numbers,
    _sample_raw,
    _single_sum,
)
from uhainf.action import apply_word, label
from uhainf.patterns import enumerate_basis, row_range
from uhainf.qnum import qbracket

Q2 = QValue.quantum(2)
Q32 = QValue.quantum(Fraction(3, 2))


def random_generic_assignment(ident: IdentityId, seed: int) -> Assignment:
    """Deterministic generic assignment: resample until no pole is hit."""
    rng = random.Random(seed)
    for _ in range(_REJECTION_BUDGET):
        a = _sample_raw(ident, rng)
        try:
            evaluate_identity(ident, a)
        except PoleError:
            continue
        return a
    raise PoleError(
        f"no generic assignment for {ident} within {_REJECTION_BUDGET} tries")


class TestIdentityId:
    def test_sized_validation(self):
        IdentityId("I23a", 1)
        IdentityId("A21", 2)
        with pytest.raises(ValueError):
            IdentityId("I23a")
        with pytest.raises(ValueError):
            IdentityId("A21", 1)
        with pytest.raises(ValueError):
            IdentityId("I27", 3)
        with pytest.raises(ValueError):
            IdentityId("nope")


class TestFrozenEvaluations:
    def test_i27(self):
        for a in range(-6, 7):
            assert evaluate_identity(
                IdentityId("I27"), Assignment(Q2, scalars={"a": a})
            ) == 0

    def test_i26(self):
        assert evaluate_identity(
            IdentityId("I26"), Assignment(Q2, scalars={"a": 3, "b": 1})
        ) == 0

    def test_i26_pole(self):
        # b = a + 1 makes [a - b + 1] vanish
        with pytest.raises(PoleError):
            evaluate_identity(
                IdentityId("I26"), Assignment(Q2, scalars={"a": 3, "b": 4})
            )

    def test_i25(self):
        a = Assignment(Q32, scalars={"a": 5, "b": 2, "c": 1, "d": 8, "e": -3})
        assert evaluate_identity(IdentityId("I25"), a) == 0

    def test_a46_both_sides(self):
        a = Assignment(Q32, scalars={"a": 4, "b": 1, "c": 7, "d": -2})
        assert evaluate_identity(IdentityId("A46L"), a) == 0
        assert evaluate_identity(IdentityId("A46R"), a) == 0

    def test_i23a_size1(self):
        # rows of lengths 0, 1, 2, 3
        a = Assignment(Q2, arrays={
            "row_below": [], "row_a": [4], "row_b": [7, 1],
            "row_above": [9, 5, -2],
        })
        assert evaluate_identity(IdentityId("I23a", 1), a) == 0

    def test_i23b_size1(self):
        a = Assignment(Q2, arrays={
            "row_below": [3], "row_a": [6, 1], "row_b": [8, 4, -1],
            "row_above": [11, 7, 2, -5],
        })
        assert evaluate_identity(IdentityId("I23b", 1), a) == 0

    def test_i24a_size2(self):
        a = Assignment(Q32, arrays={
            "row_a": [9, 4, -1], "row_b": [11, 6, 2, -4],
            "row_above": [13, 8, 3, 0, -6],
        }, excluded={"labels": (-1, 1)})
        assert evaluate_identity(IdentityId("I24a", 2), a) == 0

    def test_a26_n2(self):
        a = Assignment(Q2, arrays={"a": [5, 1], "b": [3], "c": [-2]})
        assert evaluate_identity(IdentityId("A26", 2), a) == 0

    def test_a21_n2(self):
        q = Fraction(3, 2)
        a = Assignment(QValue.quantum(q), arrays={
            "A": [q ** 2], "B": [q ** 4, q ** -2], "C": [q ** 6, 1, q ** -4],
            "D": [],
        })
        assert evaluate_identity(IdentityId("A21", 2), a) == 0

    def test_a21_int_and_fraction_arrays_agree(self):
        """A21 reads each variable as its integer pair, so ints, the equal
        Fractions and a mix of both give one value.  A21 holds at any
        nonzero variables off its poles, not only at powers of q, so that
        value is 0."""
        arrays = {
            2: {"A": [2], "B": [3, -5], "C": [7, 11, -13], "D": []},
            3: {"A": [2, -3], "B": [5, 7, -11], "C": [13, 17, -19, 23],
                "D": [29]},
        }
        for n, ints in arrays.items():
            fractions = {x: [Fraction(v) for v in vs] for x, vs in ints.items()}
            mixed = {x: [Fraction(v) if i % 2 else v for i, v in enumerate(vs)]
                     for x, vs in ints.items()}
            for q in (Fraction(3, 2), Fraction(7, 4)):
                qv = QValue.quantum(q)
                values = [evaluate_identity(IdentityId("A21", n),
                                            Assignment(qv, arrays=a))
                          for a in (ints, fractions, mixed)]
                assert values == [0, 0, 0]

    def test_a21_rejects_classical(self):
        with pytest.raises(PoleError):
            evaluate_identity(
                IdentityId("A21", 2),
                Assignment(QValue.classical(), arrays={
                    "A": [1], "B": [1, 2], "C": [1, 2, 3], "D": [],
                }),
            )

    def test_array_length_validation(self):
        with pytest.raises(ValueError):
            evaluate_identity(
                IdentityId("A26", 2),
                Assignment(Q2, arrays={"a": [5], "b": [3], "c": [-2]}),
            )


class TestSampling:
    def test_deterministic(self):
        for tag in IDENTITY_TAGS:
            ident = IdentityId(tag, _SIZED.get(tag, None) and max(_SIZED[tag], 2))
            a1 = random_generic_assignment(ident, seed=7)
            a2 = random_generic_assignment(ident, seed=7)
            assert (a1.qv, a1.scalars, a1.arrays, a1.excluded) == (
                a2.qv, a2.scalars, a2.arrays, a2.excluded
            )

    def test_generic_points_evaluate_to_zero(self):
        for tag in IDENTITY_TAGS:
            ident = IdentityId(tag, _SIZED.get(tag, None) and max(_SIZED[tag], 2))
            for seed in range(5):
                a = random_generic_assignment(ident, seed=seed)
                assert evaluate_identity(ident, a) == 0, (tag, seed)


class TestSamplerStream:
    """The sampler draws its bounded integers from getrandbits as randrange
    does, so every seed gives the draws, and leaves the generator in the
    state, that randrange would: the pinned reports stay as they are."""

    def test_randrange_widths(self):
        # the sampler's widths 25, 7 and 3 (5, 3 and 2 bits), a power of 2
        # and widths of 1 and 32, at counts 0 and up, one call per count
        ranges = ((-12, 13), (10, 17), (1, 4), (0, 1), (5, 37), (-3, 5))
        for seed in range(50):
            ours, ref = random.Random(seed), random.Random(seed)
            for start, stop in ranges:
                for count in (0, 1, 2, 5, 20):
                    got = _randranges(ours, start, stop, count)
                    want = [ref.randrange(start, stop) for _ in range(count)]
                    assert got == want, (seed, start, stop, count)
                    assert ours.getstate() == ref.getstate()

    def test_a21_variables_are_powers_of_q(self):
        """A21's variables come from each pool entry's table of q^(2e),
        e in -12 .. 12."""
        for qv, powers in _Q_POOL:
            assert powers == tuple(qv.q ** (2 * e) for e in range(*_RANGE))
            assert all(type(v) is Fraction for v in powers)

    def test_sampler_against_randrange(self, monkeypatch):
        import uhainf.identities as idm

        def sample(ident, seed, draws=8):
            rng = random.Random(seed)
            out = [_sample_raw(ident, rng) for _ in range(draws)]
            return [(a.qv, a.scalars, a.arrays, a.excluded) for a in out], rng.getstate()

        idents = sorted(set(CORPUS), key=str)
        got = {(i, seed): sample(i, seed) for i in idents for seed in range(40)}
        # the reference: each bounded draw is the generator's own randrange
        monkeypatch.setattr(
            idm, "_randranges", lambda rng, start, stop, count:
            [rng.randrange(start, stop) for _ in range(count)])
        for (ident, seed), draws in got.items():
            assert sample(ident, seed) == draws, (ident, seed)


class TestFuzz:
    @pytest.mark.parametrize("tag", IDENTITY_TAGS)
    def test_all_tags(self, tag):
        size = None
        if tag in _SIZED:
            size = max(_SIZED[tag], 2)
        rep = fuzz_identity(IdentityId(tag, size), trials=10, seed=123)
        assert rep.passed, rep.to_json()
        assert rep.checked == 10
        assert rep.params["tag"] == tag

    def test_minimum_sizes(self):
        for tag, kmin in _SIZED.items():
            rep = fuzz_identity(IdentityId(tag, kmin), trials=5, seed=11)
            assert rep.passed, rep.to_json()

    def test_larger_sizes(self):
        for tag, size in (("I23a", 3), ("A26", 4), ("A21", 4), ("I24c", 3)):
            rep = fuzz_identity(IdentityId(tag, size), trials=3, seed=5)
            assert rep.passed, rep.to_json()

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_i23b_k3_within_budget(self, seed):
        # I23b at k = 3 rejects hundreds of pole draws per trial (992 for
        # 3 trials at seed 7); a true identity must not run out of budget
        rep = fuzz_identity(IdentityId("I23b", 3), trials=3, seed=seed)
        assert rep.passed, rep.to_json()
        assert rep.checked == 3

    def test_reports_deterministic(self):
        r1 = fuzz_identity(IdentityId("I25"), trials=20, seed=99)
        r2 = fuzz_identity(IdentityId("I25"), trials=20, seed=99)
        assert r1.to_json() == r2.to_json()

    def test_detects_false_identity(self, monkeypatch):
        import uhainf.identities as idm
        orig = idm._eval_i27
        monkeypatch.setattr(idm, "_eval_i27", lambda a: orig(a) + 1)
        rep = fuzz_identity(IdentityId("I27"), trials=3, seed=1)
        assert not rep.passed


# --- cross-encoding substitutions ----------------------------------------

def a21_assignment_from_i23a(a: Assignment, k: int) -> Assignment:
    """Push an additive assignment into the multiplicative encoding:
    each variable becomes q^(2L) over the matching row, with n = 2k."""
    q = a.qv.q
    pw = lambda vals: [q ** (2 * v) for v in vals]
    return Assignment(a.qv, arrays={
        "A": pw(a.arrays["row_a"]),
        "B": pw(a.arrays["row_b"]),
        "C": pw(a.arrays["row_above"]),
        "D": pw(a.arrays["row_below"]),
    })


def a26_assignment_from_i24a(a: Assignment, k: int) -> Assignment:
    """Relabel the removed-label identity into the generic n-row form:
    a over the even row, b over the inner part of the row above, c over the
    surviving labels of the row below plus the two outer values above."""
    below = _as_row(2 * k - 1, a.arrays["row_a"])
    above = _as_row(2 * k + 1, a.arrays["row_above"])
    labels = a.excluded["labels"]
    keep = [v for i, v in zip(row_range(2 * k - 1), below) if i not in labels]
    return Assignment(a.qv, arrays={
        "a": _as_row(2 * k, a.arrays["row_b"]),
        "b": above[:-2],
        "c": keep + above[-2:],
    })


def a26_assignment_from_i24c(a: Assignment, k: int) -> Assignment:
    """Relabel the other removed-label identity: a over the odd row plus one,
    b over the row below, c over the surviving labels of the row above."""
    above = _as_row(2 * k, a.arrays["row_b"])
    labels = a.excluded["labels"]
    return Assignment(a.qv, arrays={
        "a": [v + 1 for v in _as_row(2 * k - 1, a.arrays["row_a"])],
        "b": _as_row(2 * k - 2, a.arrays["row_below"]),
        "c": [v for i, v in zip(row_range(2 * k), above) if i not in labels],
    })


class TestCrossEncodings:
    """The removed-label and multiplicative identities are re-encodings of
    the row-sum ones: pushing a sampled assignment through the substitution
    must land on a vanishing point of the target identity."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_i23a_to_a21(self, k):
        src = IdentityId("I23a", k)
        tgt = IdentityId("A21", 2 * k)
        for seed in range(6):
            a = random_generic_assignment(src, seed=seed)
            b = a21_assignment_from_i23a(a, k)
            assert evaluate_identity(tgt, b) == 0, seed

    @pytest.mark.parametrize("k", [2, 3])
    def test_i24a_to_a26(self, k):
        src = IdentityId("I24a", k)
        tgt = IdentityId("A26", 2 * k)
        for seed in range(6):
            a = random_generic_assignment(src, seed=seed)
            b = a26_assignment_from_i24a(a, k)
            assert evaluate_identity(tgt, b) == 0, seed

    @pytest.mark.parametrize("k", [2, 3])
    def test_i24c_to_a26(self, k):
        src = IdentityId("I24c", k)
        tgt = IdentityId("A26", 2 * k - 1)
        for seed in range(6):
            a = random_generic_assignment(src, seed=seed)
            b = a26_assignment_from_i24c(a, k)
            assert evaluate_identity(tgt, b) == 0, seed


class TestPinnedReports:
    """sha256 of the canonical JSON of fuzz reports at sizes the CLI never
    runs, recorded from the per-identity evaluators the row-sum table
    replaced, and for A21 from its standalone evaluator before it shared
    the double-sum kernel.  I23b at k = 3 with seed 7 is pinned from the
    1000-per-trial rejection budget: it passes after 992 poles for 3 trials
    (the old budget of 200 ran out at 601, with nothing checked)."""

    PINS = [
        ("I23a", 1, 20, "efea6b0db4d327219346de4b6fbcb66c8abff02ca72a68748b7d1f7ca0c5510d"),
        ("I23a", 3, 5, "b24388cab76e6c8a7d44e5a8d5c3bc8295ce072de60f8f6a53d240afb26bcdf1"),
        ("I23b", 1, 20, "0e0930c61cc4ae8bb256c5d50253dd3e6320eee0d0cfadf52192b0eab64184ec"),
        ("I23b", 3, 3, "dd0ab47e6931ba17a4651641774cc15abb09e191e797e12d56b519151e8432c9"),
        ("I24b", 1, 20, "2ee3f529f333a7e14fd96686d3609a07ab8bc3a5f8b7479909d7f7f96babdccd"),
        ("I24d", 1, 20, "7a37be8255c19bf9e694d1ea0c42aaf80e9e7072fd5763a9b880f7127d2c7f41"),
        ("I24a", 3, 20, "363c23f8ceaf32c85924e806f732b8cf5994c4051f29ec25f55c486a266135e8"),
        ("I24c", 3, 20, "c26d702dc24978fd994b56a89df46b3afe921b1dac0031585f3672bf1de994cc"),
        ("A26", 5, 20, "7d934d660f1e2e4aa22fb16bf2b51971657fe09a307e836d562580ab294fab6d"),
        ("A21", 2, 20, "9e0f088718ed994eee9523b1c733e6158618d0488159fe65b2564ee7f252ff55"),
        ("A21", 3, 20, "b6673a4de97c49cbee5c219db596e79bf24dde49f7de800b10cb344d7d25d7d8"),
        ("A21", 4, 20, "d93969acce40fd4743c9116196216e45382e0c98d09dbed62c8c61b412ce3da0"),
        ("A21", 5, 20, "cdf9bd13e85a68e60b45f6b691a242baafc858328454e0474c2b215aaf331520"),
    ]

    @pytest.mark.parametrize("tag,size,trials,digest", PINS,
                             ids=[f"{t}-{k}" for t, k, _, _ in PINS])
    def test_report_digest(self, tag, size, trials, digest):
        rep = fuzz_identity(IdentityId(tag, size), trials=trials, seed=7)
        text = json.dumps(rep.to_json(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestRowSumTable:
    """Negative control: a wrong row in ``_ROW_SUMS`` must make the fuzzer
    fail.  The sampler reads the same table, so each mutation still yields
    well-formed assignments.

    Two mutations are invisible and are not asserted: flipping sigma (the
    identities are invariant under L -> -L) and shifting the bottom row by
    one (only the parity of the row lengths changes); the identities hold
    either way.
    """

    @staticmethod
    def _mutations(case):
        other = next(r for r in _ROWS if r not in (case.summed, case.cut, case.unused))
        return {
            "swap-summed-cut": case._replace(summed=case.cut, cut=case.summed),
            "other-unused": case._replace(unused=other),
        }

    @pytest.mark.parametrize("mutation", ["swap-summed-cut", "other-unused"])
    @pytest.mark.parametrize("tag", ["I24a", "I24b", "I24c", "I24d"])
    def test_wrong_row_fails(self, monkeypatch, tag, mutation):
        case = self._mutations(_ROW_SUMS[tag])[mutation]
        monkeypatch.setitem(_ROW_SUMS, tag, case)
        rep = fuzz_identity(IdentityId(tag, 2), trials=5, seed=3)
        assert not rep.passed
        assert any("residual" in f for f in rep.failures), rep.to_json()


class TestDoubleSumKernel:
    """Negative control: A21 runs through the shared double-sum kernel, so a
    broken kernel must make the A21 fuzzer fail.  Flipping sigma, which
    I23a/b cannot see, breaks A21 because its weight is not symmetric."""

    @staticmethod
    def _mutations(orig):
        def flip_sigma(f, g, D, A, B, C, sigma, what, weight=None):
            return orig(f, g, D, A, B, C, -sigma, what, weight)

        def drop_weight(f, g, D, A, B, C, sigma, what, weight=None):
            return orig(f, g, D, A, B, C, sigma, what)

        def shift_offset(f, g, D, A, B, C, sigma, what, weight=None):
            return orig(lambda vs, x, off: f(vs, x, off + 1), g, D, A, B, C,
                        sigma, what, weight)

        return {"flip-sigma": flip_sigma, "drop-weight": drop_weight,
                "shift-offset": shift_offset}

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("mutation", ["flip-sigma", "drop-weight", "shift-offset"])
    def test_broken_kernel_fails_a21(self, monkeypatch, mutation, n):
        import uhainf.identities as idm
        broken = self._mutations(idm._double_sum)[mutation]
        monkeypatch.setattr(idm, "_double_sum", broken)
        rep = fuzz_identity(IdentityId("A21", n), trials=5, seed=3)
        assert not rep.passed
        assert any("residual" in f for f in rep.failures), rep.to_json()


class TestPoleTest:
    """The row test that rejects a draw before any bracket is evaluated
    rejects exactly the draws on which the per-factor kernel meets a
    vanishing denominator, also under the TestRowSumTable mutations."""

    DRAWS = 60

    @staticmethod
    def _raises_pole(ident, a) -> bool:
        try:
            evaluate_identity(ident, a)
        except PoleError:
            return True
        return False

    def _compare(self, monkeypatch, ident, seed):
        rng = random.Random(seed)
        return self._compare_draws(
            monkeypatch, ident, (_sample_raw(ident, rng) for _ in range(self.DRAWS)))

    def _compare_draws(self, monkeypatch, ident, draws):
        import uhainf.identities as idm
        seen = set()
        for a in draws:
            with monkeypatch.context() as m:  # the row test alone
                m.setattr(idm, "_single_sum", lambda *args: (0, 1))
                m.setattr(idm, "_double_sum", lambda *args, **kw: (0, 1))
                rows = self._raises_pole(ident, a)
            with monkeypatch.context() as m:  # the kernel alone
                m.setattr(idm, "_reject_poles", lambda rows, what: None)
                m.setattr(idm, "_reject_ratio_poles", lambda rows, q, what: None)
                kernel = self._raises_pole(ident, a)
            assert rows == kernel, (ident, a.arrays, a.excluded)
            seen.add(rows)
        return seen

    @pytest.mark.parametrize("tag", [*_ROW_SUMS, "A26", "A21"])
    def test_rows_reject_exactly_the_kernel_poles(self, monkeypatch, tag):
        seen = set()
        for size in range(max(_SIZED[tag], 1), 5):
            seen |= self._compare(monkeypatch, IdentityId(tag, size), seed=size)
        assert seen == {True, False}

    @pytest.mark.parametrize("tag", [*_ROW_SUMS, "A26"])
    def test_rejected_draws_build_no_bracket_factor(self, monkeypatch, tag):
        """A draw that the row test rejects never builds the bracket
        factor: _brackets runs once per accepted draw and on no other."""
        import uhainf.identities as idm
        built = []
        brackets = idm._brackets
        monkeypatch.setattr(idm, "_brackets",
                            lambda qv: built.append(qv) or brackets(qv))
        rng = random.Random(1)
        ident = IdentityId(tag, max(_SIZED[tag], 2))
        accepted = 0
        for _ in range(self.DRAWS):
            accepted += not self._raises_pole(ident, _sample_raw(ident, rng))
        assert 0 < accepted < self.DRAWS
        assert len(built) == accepted

    def test_a21_off_the_image(self, monkeypatch):
        """A21 at signed rational variables, with the last entry of A or B
        set equal to, or q^2 or q^-2 times, its first on most draws."""
        rng = random.Random(5)
        var = lambda: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                               rng.randint(1, 9))

        def draws(n):
            for _ in range(self.DRAWS):
                qv = rng.choice([Q2, Q32])
                arrays = {x: [var() for _ in range(m)]
                          for x, m in zip("ABCD", (n - 1, n, n + 1, n - 2))}
                ratio = rng.choice([1, qv.q ** 2, qv.q ** -2, None])
                row = arrays[rng.choice("AB" if n > 2 else "B")]
                if ratio is not None:
                    row[-1] = row[0] * ratio
                yield Assignment(qv, arrays=arrays)

        seen = set()
        for n in range(2, 5):
            seen |= self._compare_draws(monkeypatch, IdentityId("A21", n), draws(n))
        assert seen == {True, False}

    @pytest.mark.parametrize("mutation", ["swap-summed-cut", "other-unused"])
    @pytest.mark.parametrize("tag", ["I24a", "I24b", "I24c", "I24d"])
    def test_under_table_mutations(self, monkeypatch, tag, mutation):
        case = TestRowSumTable._mutations(_ROW_SUMS[tag])[mutation]
        monkeypatch.setitem(_ROW_SUMS, tag, case)
        seen = set()
        for size in range(_SIZED[tag], 5):
            seen |= self._compare(monkeypatch, IdentityId(tag, size), seed=size)
        assert seen == {True, False}


# Fraction-product references for the integer kernels: the factor fr
# returns a Fraction and every product and quotient is taken in Fractions.

def _ref_single_sum(fr, row, others, sigma):
    total = Fraction(0)
    for s in (0, 1):
        t = sigma * s
        for j, x in enumerate(row):
            num = prod(fr(v, x, t) for v in others)
            den = prod(fr(v, x, t) * fr(v, x, t - sigma)
                       for i, v in enumerate(row) if i != j)
            total += (-1) ** s * num / den
    return total


def _ref_double_sum(fr, D, A, B, C, sigma, weight=None, halves=(0, 1)):
    total = Fraction(0)
    for s in halves:
        t = sigma * s
        for j, x in enumerate(A):
            rest_a = A[:j] + A[j + 1:]
            den_a = prod(fr(v, x, t) * fr(v, x, t - sigma) for v in rest_a)
            for l, y in enumerate(B):
                rest_b = B[:l] + B[l + 1:]
                den_b = prod(fr(v, y, t) * fr(v, y, t - sigma) for v in rest_b)
                num1 = prod(fr(v, x, t - sigma) for v in D + rest_b)
                num2 = prod(fr(v, y, t) for v in C + rest_a)
                term = (-1) ** s * num1 / den_a * num2 / den_b
                total += term if weight is None else term * weight(s, x, y)
    return total


def _base(qv):
    """The kernels' base g at qv: |uw| at q = u/w, 1 classically."""
    return 1 if qv.is_classical else abs(qv.q.numerator * qv.q.denominator)


def _factor(fr, g):
    """A Fraction-valued factor fr in the kernels' form: over vs, the ints
    n and the exponents e with fr(v, x, off) = n / g^e, e read off fr's
    denominator, which must be a power of g."""
    def f(vs, x, off):
        ns, es = [], []
        for v in vs:
            r = fr(v, x, off)
            e = 0
            while g > 1 and g ** e < r.denominator:
                e += 1
            assert r.denominator == g ** e, (r, g)
            ns.append(r.numerator)
            es.append(e)
        return ns, es
    return f


def _a21_k(rows):
    """K of _a21_factors: the product of the variables' denominators over
    A and B divided by that over C and D, for rows D, A, B, C."""
    D, A, B, C = rows
    den = lambda vs: prod(Fraction(v).denominator for v in vs)
    return Fraction(den(A + B), den(C + D))


def _spread_row(rng, length):
    """Entries 5 apart or more, so no denominator factor vanishes at an
    offset shift of up to 2."""
    return rng.sample(range(-40, 41, 5), length)


class TestIntegerKernels:
    """The integer kernels equal the Fraction-product references exactly,
    on rows and factors chosen so that the value is not zero."""

    @staticmethod
    def _bracket(qv, shift):
        return lambda v, x, off: qbracket(v - x + off + shift, qv)

    @pytest.mark.parametrize("shift", [0, 1, -2])
    @pytest.mark.parametrize("sigma", [1, -1])
    def test_single_sum(self, sigma, shift):
        rng = random.Random(10 * sigma + shift)
        for qv in (Q2, Q32, QValue.classical()):
            for n in range(1, 5):
                fr = self._bracket(qv, shift)
                row = _spread_row(rng, n)
                # with an even count of others up to 2n - 2 some of these
                # sums vanish identically
                others = [rng.randint(-12, 12) for _ in range(2 * n - 1)]
                want = _ref_single_sum(fr, row, others, sigma)
                assert want != 0, (row, others)
                g = _base(qv)
                got = _single_sum(_factor(fr, g), g, row, others, sigma, "test")
                assert Fraction(*got) == want

    @pytest.mark.parametrize("shift", [0, 1, -2])
    @pytest.mark.parametrize("sigma", [1, -1])
    def test_double_sum(self, sigma, shift):
        rng = random.Random(10 * sigma + shift)
        for qv in (Q2, Q32, QValue.classical()):
            for k in range(1, 4):
                fr = self._bracket(qv, shift)
                D, C = ([rng.randint(-12, 12) for _ in range(m)]
                        for m in (k - 1, k + 2))
                A, B = _spread_row(rng, k), _spread_row(rng, k + 1)
                want = _ref_double_sum(fr, D, A, B, C, sigma)
                assert want != 0, (D, A, B, C)
                g = _base(qv)
                got = _double_sum(_factor(fr, g), g, D, A, B, C, sigma, "test")
                assert Fraction(*got) == want

    # Zero numerator factors: one entry is set so that a factor at s = 0 is
    # the zero bracket.  The leave-one-out products then vanish for every
    # index but one, so building them by dividing a full product by one
    # factor would divide 0 by 0.

    @pytest.mark.parametrize("shift", [0, 1])
    @pytest.mark.parametrize("sigma", [1, -1])
    def test_single_sum_zero_factor(self, sigma, shift):
        rng = random.Random(10 * sigma + shift)
        for qv in (Q2, Q32, QValue.classical()):
            for n in range(1, 5):
                fr = self._bracket(qv, shift)
                row = _spread_row(rng, n)
                others = [rng.randint(-12, 12) for _ in range(2 * n - 1)]
                others[0] = row[0] - shift
                assert fr(others[0], row[0], 0) == 0
                want = _ref_single_sum(fr, row, others, sigma)
                assert want != 0, (row, others)
                g = _base(qv)
                got = _single_sum(_factor(fr, g), g, row, others, sigma, "test")
                assert Fraction(*got) == want

    @staticmethod
    def _zero_factor(where, D, A, B, C, sigma, shift):
        """Set one entry so that a factor of the s = 0 terms is [0]; return
        that factor's (v, x, off)."""
        if where == "D":  # over D at x = A[0]
            D[0] = A[0] + sigma - shift
            return D[0], A[0], -sigma
        if where == "C":  # over C at y = B[0]
            C[0] = B[0] - shift
            return C[0], B[0], 0
        if where == "B minus l":  # over B minus l at x = A[0], for l != 0
            B[0] = A[0] + sigma - shift
            return B[0], A[0], -sigma
        A[0] = B[0] - shift  # over A minus j at y = B[0], for j != 0
        return A[0], B[0], 0

    @pytest.mark.parametrize("where", ["D", "C", "B minus l", "A minus j"])
    @pytest.mark.parametrize("shift", [0, 1])
    @pytest.mark.parametrize("sigma", [1, -1])
    def test_double_sum_zero_factor(self, sigma, shift, where):
        rng = random.Random(f"{sigma} {shift} {where}")
        for qv in (Q2, Q32, QValue.classical()):
            for k in range(2, 4):
                fr = self._bracket(qv, shift)
                while True:  # until no denominator factor vanishes
                    D, C = ([rng.randint(-12, 12) for _ in range(m)]
                            for m in (k - 1, k + 2))
                    A, B = _spread_row(rng, k), _spread_row(rng, k + 1)
                    zero = self._zero_factor(where, D, A, B, C, sigma, shift)
                    try:
                        want = _ref_double_sum(fr, D, A, B, C, sigma)
                    except ZeroDivisionError:
                        continue
                    break
                assert fr(*zero) == 0
                assert want != 0, (D, A, B, C)
                g = _base(qv)
                got = _double_sum(_factor(fr, g), g, D, A, B, C, sigma, "test")
                assert Fraction(*got) == want

    @pytest.mark.parametrize("q", [Fraction(5, 3), Fraction(-3, 7)])
    @pytest.mark.parametrize("sigma", [1, -1])
    def test_a21_factors(self, sigma, q):
        """A21's factor, base and weight, at variables off the identity's
        image: the double sum over them is the one over x - q^(2 off) v with
        the weight q^(-2 sigma s)/(K x y), and at sigma = +1, times q K, the
        one with A21's weight q^(1 - 2s)/(xy)."""
        f, g, weight = _a21_factors(q)
        fr = lambda v, x, off: x - q ** (2 * off) * v
        rng = random.Random(sigma)
        var = lambda: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                               rng.randint(1, 9))
        # each factor is exactly q^-off (x - q^(2 off) v) xd vd
        for _ in range(20):
            v, x = var(), var()
            for off in range(-3, 4):
                [n], [e] = f([v.as_integer_ratio()], x.as_integer_ratio(), off)
                assert Fraction(n, g ** e) == (
                    q ** -off * fr(v, x, off) * x.denominator * v.denominator)
        for n in range(2, 5):
            rows = [[var() for _ in range(m)] for m in (n - 2, n - 1, n, n + 1)]
            k = _a21_k(rows)
            want = _ref_double_sum(fr, *rows, sigma, lambda s, x, y:
                                   q ** (-2 * sigma * s) / (k * x * y))
            assert want != 0
            pairs = ([v.as_integer_ratio() for v in vs] for vs in rows)
            got = Fraction(*_double_sum(f, g, *pairs, sigma, "test", weight=weight))
            assert got == want
            if sigma == 1:
                assert q * k * got == _ref_double_sum(
                    fr, *rows, 1, lambda s, x, y: q ** (1 - 2 * s) / (x * y))


class TestPairSums:
    """The sums add their terms as ints over one denominator and return an
    integer pair, from which the caller builds one Fraction.  On broken
    inputs, where the value is not 0, that Fraction equals the per-term
    Fraction sum of the same factors, and a failing draw's witness keeps
    the value string that sum gives."""

    # (identity, broken input, the first witness's "value" at seed 3).  A21's
    # kernel factor is q^-off (x - q^(2 off) v) xd vd, so shifting its
    # offset by one divides the sum by q^2 against shifting x - q^(2 off) v:
    # at this draw (q = 2) the witness reads S/4 - rhs where it read S - rhs
    # when the kernel's factor was x - q^(2 off) v.
    WITNESSES = [
        ("I24b", "swap-summed-cut",
         "-9551063005759468637399405635141946860269/"
         "112054255551263532604650219215650816"),
        ("A21", "shift-offset", "-54491959593397079607241671/11013369563768"),
    ]

    @staticmethod
    def _break(monkeypatch, tag, broken):
        """Swap the summed and cut rows of a single sum's table row, or
        shift the double sum's factor by one; return the kernel that runs."""
        if broken == "swap-summed-cut":
            case = TestRowSumTable._mutations(_ROW_SUMS[tag])[broken]
            monkeypatch.setitem(_ROW_SUMS, tag, case)
            return "_single_sum", _single_sum
        return "_double_sum", TestDoubleSumKernel._mutations(_double_sum)[broken]

    @staticmethod
    def _spy(monkeypatch, name, kernel):
        """Run kernel as identities.<name>, recording each call's arguments
        and value."""
        import uhainf.identities as idm
        calls = []

        def spy(*args, **kw):
            value = kernel(*args, **kw)
            calls.append((args, kw, value))
            return value
        monkeypatch.setattr(idm, name, spy)
        return calls

    @staticmethod
    def _fractions(f, g, shift=0):
        """A kernel factor as a Fraction-valued one, at offset + shift."""
        def fr(v, x, off):
            [n], [e] = f([v], x, off + shift)
            return Fraction(n) / Fraction(g) ** e
        return fr

    @pytest.mark.parametrize("tag", ["I24a", "I24b", "I24c", "I24d"])
    def test_single_sum_with_swapped_rows(self, monkeypatch, tag):
        calls = self._spy(monkeypatch, *self._break(monkeypatch, tag,
                                                    "swap-summed-cut"))
        rep = fuzz_identity(IdentityId(tag, 2), trials=5, seed=3)
        assert len(rep.failures) == len(calls) == 5
        for (f, g, row, others, sigma, _), _, value in calls:
            value = Fraction(*value)
            assert value != 0
            assert value == _ref_single_sum(self._fractions(f, g), row, others,
                                            sigma)

    @pytest.mark.parametrize("tag,size", [("I23a", 2), ("I23b", 2), ("A21", 2),
                                          ("A21", 4)])
    def test_double_sum_with_shifted_factor(self, monkeypatch, tag, size):
        calls = self._spy(monkeypatch, *self._break(monkeypatch, tag,
                                                    "shift-offset"))
        rep = fuzz_identity(IdentityId(tag, size), trials=5, seed=3)
        assert len(rep.failures) == len(calls) == 5
        for (f, g, D, A, B, C, sigma, _), kw, value in calls:
            weight = kw.get("weight")
            fr_weight = None if weight is None else (
                lambda s, x, y: Fraction(*weight(x)) * Fraction(*weight(y)))
            value = Fraction(*value)
            assert value != 0
            assert value == _ref_double_sum(self._fractions(f, g, shift=1),
                                            D, A, B, C, sigma, fr_weight)

    @pytest.mark.parametrize("tag,broken,value", WITNESSES,
                             ids=[t for t, _, _ in WITNESSES])
    def test_witness_value(self, monkeypatch, tag, broken, value):
        self._spy(monkeypatch, *self._break(monkeypatch, tag, broken))
        rep = fuzz_identity(IdentityId(tag, 2), trials=5, seed=3)
        assert rep.failures[0]["residual"]["value"] == value


class TestA21Poles:
    """A21's kernel raises PoleError exactly when the Fraction reference
    divides by zero, and otherwise returns the reference's value; the row
    test before it (TestPoleTest) rejects those same draws."""

    @staticmethod
    def _draws():
        for n in range(2, 6):
            rng = random.Random(n)
            for _ in range(40):
                yield _sample_raw(IdentityId("A21", n), rng)
        rng = random.Random(0)
        for n in range(3, 6):  # A has two entries or more from n = 3 on
            for name in ("A", "B"):
                for _ in range(5):
                    a = _sample_raw(IdentityId("A21", n), rng)
                    a.arrays[name][1] = a.arrays[name][0]
                    yield a

    def test_kernel_poles_are_the_reference_poles(self):
        seen = set()
        for a in self._draws():
            q = a.qv.q
            rows = [a.arrays[x] for x in "DABC"]
            fr = lambda v, x, off: x - q ** (2 * off) * v
            fr_weight = lambda s, x, y: q ** (1 - 2 * s) / (x * y)
            try:
                want = _ref_double_sum(fr, *rows, +1, fr_weight)
            except ZeroDivisionError:
                want = None
            f, g, weight = _a21_factors(q)
            pairs = ([v.as_integer_ratio() for v in vs] for vs in rows)
            try:
                got = q * _a21_k(rows) * Fraction(
                    *_double_sum(f, g, *pairs, +1, "A21", weight=weight))
            except PoleError:
                got = None
            assert got == want, a.arrays
            seen.add(want is None)
        assert seen == {True, False}


def _oracle(ident: IdentityId, a: Assignment) -> Fraction:
    """LHS - RHS of the identity from its definition, multiplying qbracket
    Fractions (A21: Fractions in q and its variables); ZeroDivisionError at
    a pole."""
    tag, qv, s = ident.tag, a.qv, a.scalars
    br = lambda x: qbracket(x, qv)
    fr = lambda v, x, off: br(v - x + off)
    serre = lambda x, y: (br(x - 1) * br(y - 1) - br(2) * br(x) * br(y - 1)
                          + br(x) * br(y))
    if tag in _ROW_SUMS:
        case = _ROW_SUMS[tag]
        if case.summed is None:
            D, A, B, C = (list(a.arrays[name]) for name in _ROWS)
            rhs = br(case.sigma * (sum(A) + sum(B) - sum(C) - sum(D)) - 1)
            return _ref_double_sum(fr, D, A, B, C, case.sigma) - rhs
        [other] = (name for name in _ROWS
                   if name not in (case.summed, case.cut, case.unused))
        cut = row_range(_row_numbers(case, ident.size)[case.cut])
        others = list(a.arrays[other]) + [
            v for i, v in zip(cut, a.arrays[case.cut])
            if i not in a.excluded["labels"]]
        return _ref_single_sum(fr, list(a.arrays[case.summed]), others,
                               case.sigma)
    if tag == "A26":
        return _ref_single_sum(fr, list(a.arrays["a"]),
                               list(a.arrays["b"]) + list(a.arrays["c"]), +1)
    if tag == "A21":
        q = qv.q
        D, A, B, C = (list(a.arrays[x]) for x in "DABC")
        total = _ref_double_sum(lambda v, x, off: x - q ** (2 * off) * v,
                                D, A, B, C, +1,
                                lambda s, x, y: q ** (1 - 2 * s) / (x * y))
        return total - (q - 1 / q) * (1 - q * q * prod(D + C) / prod(A + B))
    if tag == "I27":
        return br(s["a"] - 1) - br(2) * br(s["a"]) + br(s["a"] + 1)
    if tag == "I26":
        x, y = s["a"], s["b"]
        return serre(x, y) / br(x - y + 1) + serre(y, x) / br(x - y - 1)
    if tag == "I25":
        sa, sb, sc, sd, se = (s[x] for x in "abcde")
        q1 = (br(sa - sd) * br(sc - se - 1) / (br(sd - se - 1) * br(sc - sa - 1))
              + br(sc - sd - 1) * br(sa - se) / (br(sd - se + 1) * br(sc - sa - 1)))
        q2 = (br(sa - se - 1) * br(sc - sd) / (br(sd - se - 1) * br(sc - sa + 1))
              + br(sa - sd - 1) * br(sc - se) / (br(sd - se + 1) * br(sc - sa + 1)))
        return serre(sa - sb, sc - sb) * q1 + q2 * serre(sc - sb, sa - sb)
    sa, sb, sc, sd = (s[x] for x in "abcd")
    if tag == "A46L":
        return (br(sa - sb) * br(sc - sd - 1) / br(sc - sb - 1)
                + br(sa - sc + 1) * br(sb - sd) / br(sb - sc + 1) - br(sa - sd))
    assert tag == "A46R"
    return (-br(sa - sb + 1) * br(sc - sd) / br(sc - sb + 1)
            - br(sa - sc) * br(sb - sd - 1) / br(sb - sc - 1) + br(sa - sd))


class TestCorpusOracle:
    """Every corpus entry's evaluation equals the Fraction oracle, or both
    find a pole, on raw draws (rejected ones included) at seeds 1-3: at the
    draw's own q, at q = -2/3 and classically (not A21, which needs a
    rational q).  TestIntegerKernels and TestPairSums compare the kernels
    with the same Fraction sums where their values are not 0."""

    QS = (QValue.quantum(Fraction(-2, 3)), QValue.classical())

    @staticmethod
    def _outcome(fn, ident, a):
        try:
            return fn(ident, a)
        except (PoleError, ZeroDivisionError):
            return "pole"

    @pytest.mark.parametrize("ident", CORPUS,
                             ids=[f"{i.tag}-{i.size}" for i in CORPUS])
    def test_evaluation_equals_oracle(self, ident):
        qs, outcomes = set(), set()
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            for _ in range(20):
                a = _sample_raw(ident, rng)
                for qv in (a.qv, *self.QS):
                    if qv.is_classical and ident.tag == "A21":
                        continue
                    qs.add(qv)
                    b = Assignment(qv, a.scalars, a.arrays, a.excluded)
                    got = self._outcome(evaluate_identity, ident, b)
                    assert got == self._outcome(_oracle, ident, b), (
                        seed, qv, b.scalars, b.arrays, b.excluded)
                    outcomes.add(got)
        assert qs >= {qv for qv, _ in _Q_POOL} | set(self.QS) - (
            {QValue.classical()} if ident.tag == "A21" else set())
        # poles and values both compared (I27 has no denominator)
        assert outcomes == ({0} if ident.tag == "I27" else {0, "pole"})


class TestCartanDiagonals:
    """The relations reduce to the identity corpus, measured on V_5 of
    -1:1:2,1,0: read D, A, B, C from the L-rows of a pattern p that I23a or
    I23b at index 1 reads.  Then the diagonal coefficient of E_k F_k at p,
    a rational, is the s = 1 half of the double sum, and that of
    F_k E_k is minus the s = 0 half, at every p where the double sum has no
    pole."""

    CASES = [(0, "I23a", 60), (-2, "I23b", 28)]  # rows 2k .. 2k+3, -2k-3 .. -2k

    @staticmethod
    def _l_values(p, r):
        """L(i, r) = entry - i across row r of p; rows 0 and below are empty."""
        return [x - i for i, x in zip(row_range(r), p.row(r))]

    @staticmethod
    def _diagonal(g1, g2, p, params):
        """The coefficient of p in g1 g2 p, from apply_word.  A diagonal
        entry does not change when the basis is rescaled, so it is
        rational."""
        c = apply_word((g1, g2), p, params).terms.get(p)
        if c is None:
            return Fraction(0)
        [(k, r)] = c.terms.items()
        assert k == 1
        return r

    @pytest.mark.parametrize("k,tag,count", CASES, ids=[t for _, t, _ in CASES])
    @pytest.mark.parametrize("params_name", ["params_mid", "params_mid_classical"])
    def test_diagonals_are_double_sum_halves(self, request, params_name,
                                             k, tag, count):
        params = request.getfixturevalue(params_name)
        qv, sigma = params.qv, _ROW_SUMS[tag].sigma
        fr = lambda v, x, off: qbracket(v - x + off, qv)
        rows = _row_numbers(_ROW_SUMS[tag], 1)
        e, f = label("E", k), label("F", k)
        generic = 0
        for p in enumerate_basis(params.signature, 5):
            D, A, B, C = (self._l_values(p, rows[name]) for name in _ROWS)
            try:
                s0, s1 = (_ref_double_sum(fr, D, A, B, C, sigma, halves=(s,))
                          for s in (0, 1))
            except ZeroDivisionError:
                continue
            generic += 1
            assert self._diagonal(e, f, p, params) == s1, p
            assert self._diagonal(f, e, p, params) == -s0, p
        assert generic == count


class TestModuleLayout:
    def test_check_report_still_resolves(self):
        from uhainf.relations import CheckReport
        from uhainf.report import CheckReport as Moved
        assert uhainf.CheckReport is CheckReport is Moved

    @pytest.mark.parametrize("module", ["qnum", "patterns", "report",
                                        "identities", "action", "relations",
                                        "cli"])
    def test_every_exported_name_resolves(self, module):
        mod = importlib.import_module(f"uhainf.{module}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, missing

    def test_every_package_name_resolves(self):
        for name in ("GeneratorLabel", "PatternVector", "apply_generator",
                     "apply_to_vector", "apply_word", "check_boundary_f",
                     "check_cartan", "check_charge", "check_highest_weight",
                     "check_restrictedness", "check_serre"):
            assert getattr(uhainf, name) is not None, name
