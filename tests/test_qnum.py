import ast
import contextlib
import decimal
import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import uhainf
from uhainf import identities
from uhainf.action import clear_caches
from uhainf.cli import main
from uhainf.qnum import (
    InvalidQValueError,
    NegativeRadicandError,
    QValue,
    RadicalSum,
    _BracketPairs,
    _bracket_pairs,
    _cyclotomic_values,
    _piece_kernel,
    _square_decompose,
    qbracket,
    radical_of,
)

Q2 = QValue.quantum(2)
Q32 = QValue.quantum(Fraction(3, 2))
CL = QValue.classical()
_KERNEL_QS = [Q32, QValue.quantum(Fraction(7, 4)), QValue.quantum(Fraction(2, 3)),
              QValue.quantum(Fraction(5, 3)), Q2, CL]
_KERNEL_IDS = ["q3_2", "q7_4", "q2_3", "q5_3", "q2", "classical"]
_MODULE = ["--signature=-1:1:2,1,0", "--xi0", "2", "--xi1", "0", "--q", "3/2"]
# the five-entry window module of the CI pins
_WIDE_MODULE = ["--signature=-2:2:3,3,1,0,-1", "--xi0", "3", "--xi1", "-1",
                "--q", "7/4"]


class TestQBracket:
    def test_zero(self):
        assert qbracket(0, Q32) == 0
        assert qbracket(0, Q2) == 0

    def test_one(self):
        assert qbracket(1, Q32) == 1

    def test_three_at_two(self):
        # (8 - 1/8) / (2 - 1/2)
        assert qbracket(3, Q2) == Fraction(21, 4)

    def test_classical(self):
        for x in range(-10, 11):
            assert qbracket(x, CL) == x

    def test_invalid_q(self):
        for bad in (0, 1, -1):
            with pytest.raises(InvalidQValueError):
                QValue.quantum(bad)
        with pytest.raises(InvalidQValueError):
            QValue("quantum")
        with pytest.raises(InvalidQValueError):
            QValue("weird")

    @given(st.integers(-40, 40))
    def test_antisymmetry(self, x):
        assert qbracket(-x, Q32) == -qbracket(x, Q32)

    @given(st.integers(-30, 30))
    def test_second_order_recurrence(self, a):
        # [a-1] - [2][a] + [a+1] = 0
        lhs = qbracket(a - 1, Q32) - qbracket(2, Q32) * qbracket(a, Q32) + qbracket(a + 1, Q32)
        assert lhs == 0

    def test_nonzero_for_nonzero_argument(self):
        for qv in (Q2, Q32, QValue.quantum(Fraction(-5, 3))):
            for x in range(1, 15):
                assert qbracket(x, qv) != 0

    @pytest.mark.parametrize("qv", [Q32, QValue.quantum(Fraction(7, 4)),
                                    QValue.quantum(Fraction(2, 3)), Q2, CL],
                             ids=["q3_2", "q7_4", "q2_3", "q2", "classical"])
    def test_bracket_table_holds_reduced_pairs(self, qv):
        """Each entry of q's bracket table is a reduced pair with a positive
        denominator, equal to the bracket computed here from its
        definition, and qbracket reads it."""
        table = _bracket_pairs(qv)
        for x in range(-15, 16):
            n, d = table[x]
            assert d > 0 and gcd(n, d) == 1
            if qv.is_classical:
                want = Fraction(x)
            else:
                q = qv.q
                want = (q ** x - q ** -x) / (q - 1 / q)
            assert Fraction(n, d) == want
            assert qbracket(x, qv) == Fraction(n, d)
        assert _bracket_pairs(qv) is table

    @pytest.mark.parametrize("q", [Fraction(3, 2), Fraction(2), Fraction(5, 3),
                                   Fraction(7, 4), Fraction(2, 3), Fraction(-2, 3)],
                             ids=str)
    def test_bracket_denominator_is_a_power_of_uv(self, q):
        """At q = u/v in lowest terms the reduced denominator of [n] is
        |uv|^(|n| - 1), 1 at n = 0: the numerator, the sum of
        u^(2i) v^(2(|n| - 1 - i)), is prime to u and to v.  The identity
        kernels read each bracket as its numerator and this exponent."""
        table = _bracket_pairs(QValue.quantum(q))
        uv = abs(q.numerator * q.denominator)
        for n in range(-40, 41):
            assert table[n][1] == uv ** max(abs(n) - 1, 0), n

    def test_classical_bracket_denominator_is_one(self):
        table = _bracket_pairs(CL)
        assert all(table[n][1] == 1 for n in range(-40, 41))


class TestRadicalOf:
    def test_zero(self):
        assert radical_of(0).is_zero()

    def test_perfect_square(self):
        assert radical_of(4) == RadicalSum.from_rational(2)

    def test_eight_thirds(self):
        assert radical_of(Fraction(8, 3)) == RadicalSum({6: Fraction(2, 3)})

    def test_negative(self):
        with pytest.raises(NegativeRadicandError):
            radical_of(Fraction(-1, 2))

    def test_square_roundtrip_randomized(self):
        rng = random.Random(1234)
        for _ in range(1000):
            r = Fraction(rng.randint(0, 400), rng.randint(1, 400))
            s = radical_of(r)
            assert s * s == RadicalSum.from_rational(r)

    def test_multiplicative(self):
        rng = random.Random(99)
        for _ in range(200):
            a = Fraction(rng.randint(0, 60), rng.randint(1, 60))
            b = Fraction(rng.randint(0, 60), rng.randint(1, 60))
            assert radical_of(a * b) == radical_of(a) * radical_of(b)



def _square_split_oracle(n):
    """(s, k) with n = s^2 * k and k squarefree, from sympy's factorization."""
    factorint = pytest.importorskip("sympy").factorint
    s = k = 1
    for p, e in factorint(n).items():
        s *= p ** (e // 2)
        k *= p ** (e % 2)
    return s, k


class TestSquareDecompose:
    decompose = staticmethod(_square_decompose)

    def test_small_range_matches_factorint(self):
        for n in range(1, 20_001):
            assert self.decompose(n) == _square_split_oracle(n), n

    @given(st.integers(min_value=1, max_value=10**12))
    def test_large_matches_factorint(self, n):
        assert self.decompose(n) == _square_split_oracle(n)

    @pytest.mark.parametrize("n", [13, 97, 2_809, 3_127, 20_467, 148_877, 165_731,
                                   190_747, 1621 * 2657 * 5261])
    def test_cofactors(self, n):
        # 13 and 97 are left whole, primes, once p^3 > rem; so are
        # 2809 = 53^2, 3127 = 53*59 and 20467 = 97*211, the square and the
        # two products of two primes; 53^3, 53^2*59, 53*59*61 and
        # 1621*2657*5261 have a prime factor below their cube root, which
        # the trial division reaches
        assert self.decompose(n) == _square_split_oracle(n)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            self.decompose(0)


class TestBracketKernels:
    """The bracket table's kernels: the square class of each [x], found
    from its cyclotomic pieces, never from the product."""

    @pytest.mark.parametrize("qv", _KERNEL_QS, ids=_KERNEL_IDS)
    def test_kernels_are_the_square_classes(self, qv):
        """kernels[x] is the squarefree kernel of |n|·d, [x] = n/d, by
        sympy's factorization of the whole product, for x in -30..30;
        [0] = 0 = 0²·1 has kernel 1."""
        pytest.importorskip("sympy")
        table = _BracketPairs(qv)  # a fresh table: no process-wide memo
        assert not table.kernels
        for x in range(-30, 31):
            n, d = table[x]
            want = _square_split_oracle(abs(n) * d)[1] if n else 1
            assert table.kernels[x] == want, x

    @pytest.mark.parametrize("q", [Fraction(3, 2), Fraction(7, 4), Fraction(2, 3),
                                   Fraction(5, 3), Fraction(2), Fraction(-2, 3)],
                             ids=str)
    def test_cyclotomic_pieces_multiply_to_the_numerator(self, q):
        """At q = u/w, _cyclotomic_values(u, w, 2m) holds w^φ(e)·Φ_e(u/w)
        for each divisor e of 2m, by sympy's cyclotomic polynomials; the
        pieces e >= 3 are positive, prime to uw, and multiply to the
        numerator of [±m]."""
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        u, w = q.numerator, q.denominator
        table = _BracketPairs(QValue.quantum(q))
        for m in range(1, 31):
            values = _cyclotomic_values(u, w, 2 * m)
            assert list(values) == [e for e in range(1, 2 * m + 1)
                                    if 2 * m % e == 0]
            for e, value in values.items():
                poly = sympy.Poly(sympy.cyclotomic_poly(e, t), t)
                want = w ** poly.degree() * poly.eval(sympy.Rational(u, w))
                assert value == want, (m, e)
            pieces = [v for e, v in values.items() if e >= 3]
            assert all(v > 0 and gcd(v, u * w) == 1 for v in pieces), m
            assert prod(pieces) == abs(table[m][0]) == abs(table[-m][0]), m

    @pytest.mark.parametrize("q", [Fraction(3, 2), Fraction(2), Fraction(5, 3),
                                   Fraction(7, 4)], ids=str)
    def test_piece_kernels_match_trial_division(self, q):
        """_piece_kernel, which divides Φ_e(u, w) only by the divisors of e
        and by 1 + t·e (t·2e for odd e), finds the kernel that plain trial
        division finds, on every piece of [x] for |x| <= 30."""
        u, w = q.numerator, q.denominator
        for m in range(1, 31):
            for e, value in _cyclotomic_values(u, w, 2 * m).items():
                if e >= 3:
                    assert _piece_kernel(value, e) == _square_decompose(value)[1], (m, e)

    @pytest.mark.parametrize("q", [Fraction(3, 2), Fraction(2), Fraction(5, 3),
                                   Fraction(7, 4)], ids=str)
    def test_piece_kernels_match_factorint(self, q):
        """The same pieces against sympy's factorization."""
        pytest.importorskip("sympy")
        u, w = q.numerator, q.denominator
        for m in range(1, 31):
            for e, value in _cyclotomic_values(u, w, 2 * m).items():
                if e >= 3:
                    assert _piece_kernel(value, e) == _square_split_oracle(value)[1], (m, e)

    def test_piece_kernel_rests(self):
        """What the division leaves is 1, a prime, a prime square or a
        product of two primes: Φ_3(2, 1) = 7 and Φ_4(8, 1) = 65 = 5·13 are
        left whole, Φ_3(18, 1) = 343 = 7^3 leaves 1, Φ_4(7, 1) = 50 = 2·5²
        and Φ_4(41, 1) = 1682 = 2·29² leave a square, and
        Φ_6(59, 1) = 3423 = 3·7·163 is divided by 3, a divisor of 6, and
        by 7 = 1 + 6, leaving the prime 163.  Φ_4(18, 1) = 325 = 5²·13 needs
        the candidate 5, which is 1 mod 4 but not 1 mod 8: the step is 2e
        for odd e only."""
        cases = [(7, 3), (65, 4), (343, 3), (50, 4), (1682, 4), (3423, 6),
                 (325, 4)]
        assert [_piece_kernel(v, e) for v, e in cases] == [7, 65, 7, 2, 2, 3423, 13]

    def test_identity_pass_leaves_kernels_empty(self):
        """The identity corpus reads the bracket tables but never the
        kernels, so it does not pay for them."""
        clear_caches()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["check", *_MODULE, "--suite", "identities",
                         "--trials", "60", "--seed", "1"]) == 0
        tables = [_bracket_pairs(qv) for qv, _ in identities._Q_POOL]
        assert all(tables)
        assert not any(table.kernels for table in tables)


# The relation runs of the benchmark's relations workload.
_RELATION_RUNS = [
    (["--suite", "cartan", "--level", "5", "--window", "2"], 0),
    (["--suite", "serre", "--level", "4", "--window", "4"], 0),
    (["--suite", "restricted", "--level", "5"], 0),
    (["--suite", "boundary", "--level", "4"], 0),
    (["--suite", "hw", "--level", "5"], 0),
    (["--suite", "charge", "--level", "5"], 0),
    (["--suite", "charge", "--level", "5", "--xi0", "0"], 1),
]

_NO_SYMPY_SCRIPT = """
import contextlib, io, sys
from uhainf.cli import main
for extra, code in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([{command!r}, *{module!r}, *extra]) == code, extra
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "sympy")
assert not loaded, loaded
"""


def _assert_runs_never_import_sympy(command, runs, module=_MODULE):
    src = os.path.dirname(os.path.dirname(os.path.abspath(uhainf.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    script = _NO_SYMPY_SCRIPT.format(command=command, runs=runs, module=module)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_relation_runs_never_import_sympy():
    _assert_runs_never_import_sympy("check", _RELATION_RUNS)


# The matrix exports of the benchmark's export workload.
_EXPORT_RUNS = [
    (["--level", "7", "--generator", g], 0)
    for g in ("E:0", "F:0", "E:1", "F:1", "E:-1", "F:-1", "E:-2", "F:-2", "H:0", "C")
]


def test_export_runs_never_import_sympy():
    _assert_runs_never_import_sympy("matrix", _EXPORT_RUNS)


# Runs whose ladder coefficients have large radicands: a Cartan run at
# level 8 and every suite on the five-entry window module at q = 7/4.
def test_large_radicand_runs_never_import_sympy():
    _assert_runs_never_import_sympy(
        "check", [(["--suite", "cartan", "--level", "8", "--window", "3"], 0)])
    _assert_runs_never_import_sympy(
        "check", [(["--suite", "all", "--level", "4", "--window", "3",
                    "--trials", "20"], 0)], _WIDE_MODULE)


def _imports_sympy(node) -> bool:
    """Whether an ast node imports sympy: an import statement, or a call
    such as __import__ or importlib.import_module on a literal name."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    elif isinstance(node, ast.Call):
        names = [a.value for a in node.args
                 if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    else:
        return False
    return any(name.split(".")[0] == "sympy" for name in names)


def test_no_source_file_imports_sympy():
    """sympy is the tests' oracle only: no module of the package imports
    it, at the top or inside a function."""
    package = Path(uhainf.__file__).parent
    files = sorted(package.rglob("*.py"))
    assert len(files) >= 8
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found = [node.lineno for node in ast.walk(tree) if _imports_sympy(node)]
        assert not found, (path.name, found)


def _rand_radsum(rng):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        k = rng.choice([1, 2, 3, 5, 6, 10, 15])
        terms[k] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return RadicalSum(terms)


class TestRadicalSum:
    def test_add_cancel(self):
        s = RadicalSum({2: Fraction(1)})
        assert (s + -s).is_zero()

    def test_add_distinct_kernels(self):
        s = RadicalSum({2: Fraction(1)}) + RadicalSum({3: Fraction(1)})
        assert s.terms == {2: Fraction(1), 3: Fraction(1)}

    def test_add_same_kernel(self):
        s = RadicalSum({6: Fraction(1, 2)}) + RadicalSum({6: Fraction(1, 3)})
        assert s == RadicalSum({6: Fraction(5, 6)})

    def test_mul_same_kernel(self):
        s = RadicalSum({2: Fraction(1)})
        assert s * s == RadicalSum.from_rational(2)

    def test_mul_distinct(self):
        assert RadicalSum({2: Fraction(1)}) * RadicalSum({3: Fraction(1)}) \
            == RadicalSum({6: Fraction(1)})

    def test_mul_gcd_extraction(self):
        # 2*sqrt(6) * sqrt(10) = 4*sqrt(15)
        assert RadicalSum({6: Fraction(2)}) * RadicalSum({10: Fraction(1)}) \
            == RadicalSum({15: Fraction(4)})

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            RadicalSum({0: Fraction(1)})

    def test_assoc_comm_randomized(self):
        rng = random.Random(7)
        for _ in range(150):
            a, b, c = (_rand_radsum(rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_zero_iff_empty(self):
        assert RadicalSum().is_zero()
        assert not RadicalSum({2: Fraction(1)}).is_zero()
        assert RadicalSum({2: Fraction(0), 3: Fraction(1)}).terms == {3: Fraction(1)}
        # the constructor alone drops the terms that cancel: (1+√2)(1−√2)
        a = RadicalSum({1: Fraction(1), 2: Fraction(1)})
        b = RadicalSum({1: Fraction(1), 2: Fraction(-1)})
        assert a * b == RadicalSum({1: Fraction(-1)})
        assert (a + a.scale(-1)).terms == {}
        assert RadicalSum.from_rational(0).terms == {}

    def test_scale(self):
        s = RadicalSum({1: Fraction(-3, 4), 6: Fraction(2, 3)})
        assert s.scale(1) is s  # immutable, so no copy is built
        assert s.scale(Fraction(-2)) == RadicalSum({1: Fraction(3, 2), 6: Fraction(-4, 3)})
        assert s.scale(0).is_zero()
        assert (s * RadicalSum()).terms == {} and (RadicalSum() * s).terms == {}

    def test_json_roundtrip(self):
        s = RadicalSum({1: Fraction(-3, 4), 6: Fraction(2, 3)})
        assert RadicalSum.from_json(s.to_json()) == s

    def test_equal_sums_hash_equal(self):
        # the hash reads the canonical terms: kernel order, zero
        # coefficients and the way a sum was built do not change it, and a
        # second read agrees
        a = RadicalSum({1: Fraction(-3, 4), 6: Fraction(2, 3)})
        sums = [
            a,
            RadicalSum([(6, Fraction(4, 6)), (5, Fraction(0)), (1, Fraction(-3, 4))]),
            radical_of(Fraction(8, 3)) + RadicalSum.from_rational(Fraction(-3, 4)),
            radical_of(6) * RadicalSum.from_rational(Fraction(2, 3))
            - RadicalSum.from_rational(Fraction(3, 4)),
            RadicalSum.from_json(a.to_json()),
        ]
        first = [hash(s) for s in sums]
        assert all(s == a for s in sums) and len(set(first)) == 1
        assert [hash(s) for s in sums] == first
        assert len(set(sums)) == 1
        assert hash(RadicalSum({2: Fraction(0)})) == hash(RadicalSum())

    def test_to_json_result_is_the_callers_own(self):
        s = RadicalSum({1: Fraction(-3, 4), 6: Fraction(2, 3)})
        expected = [{"coeff": "-3/4", "kernel": 1}, {"coeff": "2/3", "kernel": 6}]
        got = s.to_json()
        got[0]["coeff"] = "0"
        got[1]["kernel"] = 99
        del got[1]["coeff"]
        got.append({"coeff": "1", "kernel": 1})
        assert s.to_json() == expected
        # an equal sum built apart reads the same rendering
        assert RadicalSum({6: Fraction(4, 6), 1: Fraction(-3, 4)}).to_json() == expected
        a, b = s.to_json(), s.to_json()
        assert a is not b and not any(x is y for x, y in zip(a, b))

    def test_decimal_rendering(self):
        s = RadicalSum({2: Fraction(1)})
        assert s.to_decimal().startswith("1.4142135623730950488")

    def test_decimal_rendering_keeps_caller_precision(self):
        s = RadicalSum({2: Fraction(1, 3), 1: Fraction(1)})
        with decimal.localcontext() as ctx:
            ctx.prec = 7
            text = s.to_decimal()
            assert decimal.getcontext().prec == 7
        # the rendering depends on its own digits only, not on the caller's
        assert s.to_decimal() == text
        assert len(text.split(".")[1]) >= 50
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            assert s.to_decimal() == text
            assert decimal.getcontext().prec == 80


class TestRationalSerialization:
    # a coefficient serializes as str(Fraction): "p/q", or "p" when integral
    def test_integral(self):
        assert RadicalSum.from_rational(5).to_json() == [{"coeff": "5", "kernel": 1}]

    def test_fractional(self):
        s = RadicalSum({3: Fraction(-7, 3)})
        assert s.to_json() == [{"coeff": "-7/3", "kernel": 3}]

    def test_roundtrip(self):
        for c in ("5", "-7/3", "22/7"):
            data = [{"coeff": c, "kernel": 2}]
            assert RadicalSum.from_json(data).to_json() == data
