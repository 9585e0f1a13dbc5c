"""Exact scalar arithmetic: rationals, q-brackets, and canonical radical sums.

All quantities in this package bottom out in :class:`fractions.Fraction`
(arbitrary precision, always in lowest terms with positive denominator) and
in :class:`RadicalSum`, a finite sum ``sum_i c_i * sqrt(k_i)`` with rational
coefficients ``c_i`` and distinct squarefree integer kernels ``k_i``.  Since
square roots of distinct squarefree integers are linearly independent over
the rationals, a RadicalSum is zero exactly when it has no terms, which makes
every verification verdict in this package decidable.  The constructor is
the only place that drops a zero term; every operation builds through it.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from itertools import chain, count
from math import gcd, isqrt
from typing import Iterable, Mapping, Optional, Union

RationalLike = Union[Fraction, int]

__all__ = [
    "QValue",
    "RadicalSum",
    "InvalidQValueError",
    "NegativeRadicandError",
    "qbracket",
    "radical_of",
]


class InvalidQValueError(ValueError):
    """Raised when a quantum deformation parameter is 0, 1 or -1."""


class NegativeRadicandError(ValueError):
    """Raised when a square root of a negative rational is requested."""


def _immutable(self, *args):
    """__setattr__ and __delattr__ of _Frozen and CPattern, which store
    each slot once, through object.__setattr__."""
    raise AttributeError(f"{type(self).__name__} is immutable")


class _Value:
    """Base of the slotted value classes: equality and the dataclass-style
    repr over the class's own ``__slots__``, its fields, in order.

    Equality compares the field tuples, so a field shared by both
    instances (an interned Signature, QValue or ModuleParams) is matched
    by identity without a call of its own ``__eq__``; another class gets
    NotImplemented.  Defining ``__eq__`` leaves ``__hash__`` None, so a
    subclass is unhashable unless it defines its own.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__name__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__))


class _Frozen(_Value):
    """An immutable, hashable value: __init__ validates, then stores its
    fields and their hash once through ``_set``.

    Each subclass keeps its own two-line ``__hash__`` returning ``_hash``:
    every memo hit hashes its key, and one inherited ``__hash__`` shared by
    the key classes measured slower on the warm passes.
    """

    __slots__ = ("_hash",)

    __setattr__ = __delattr__ = _immutable

    def _set(self, *values, key=None) -> None:
        """Store ``values`` as the fields, in ``__slots__`` order, and the
        hash of ``key``, the fields themselves when it is None."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash(values if key is None else key))


class QValue(_Frozen):
    """Deformation parameter: either a fixed rational q, or the classical limit.

    A rational q with ``|q| not in {0, 1}`` is never a root of unity, so
    q-brackets of nonzero integers never vanish.  In classical mode the
    bracket of x is x itself.
    """

    __slots__ = ("mode", "q")  # mode: "quantum" | "classical"

    def __init__(self, mode: str, q: Optional[Fraction] = None):
        if mode == "quantum":
            if q is None:
                raise InvalidQValueError("quantum mode requires a rational q")
            q = Fraction(q)
            if q in (0, 1, -1):
                raise InvalidQValueError(f"q must not be 0, 1 or -1 (got {q})")
        elif mode == "classical":
            if q is not None:
                raise InvalidQValueError("classical mode takes no q")
        else:
            raise InvalidQValueError(f"unknown mode {mode!r}")
        # every memo keyed on a QValue hashes it; the Fraction is slow to hash
        self._set(mode, q)

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def quantum(cls, q: RationalLike) -> "QValue":
        return cls("quantum", Fraction(q))

    @classmethod
    def classical(cls) -> "QValue":
        return cls("classical")

    @property
    def is_classical(self) -> bool:
        return self.mode == "classical"


class _BracketPairs(dict):
    """{x: the q-bracket [x] as its (numerator, denominator) pair of ints}
    for one q, the form the ladder and identity kernels multiply.  A
    missing x is computed once, on first read, so a hit is a plain dict
    lookup that hashes no QValue.  ``kernels`` holds the square classes of
    the same brackets; only the ladder kernel reads it."""

    __slots__ = ("qv", "kernels")

    def __init__(self, qv: QValue):
        self.qv = qv
        self.kernels = _BracketKernels(qv)

    def __missing__(self, x: int) -> tuple[int, int]:
        qv = self.qv
        if qv.is_classical or x == 0:
            b = Fraction(x)
        else:
            q = qv.q
            # (q^x - q^-x)/(q - q^-1) = (q^(2x) - 1) / (q^(x-1) * (q^2 - 1))
            b = (q ** (2 * x) - 1) / (q ** (x - 1) * (q * q - 1))
        pair = self[x] = b.numerator, b.denominator
        return pair


class _BracketKernels(dict):
    """{x: the squarefree kernel of |n|·d, where n/d is the reduced pair of
    [x]}: the square class of the bracket, so sqrt|[x]| = (s/d)·sqrt(k)
    with |n|·d = s²·k.  [0] = 0 = 0²·1 has kernel 1, and classically the
    kernel of [x] is that of |x|.

    At q = u/w in lowest terms, [x] = ±N/D with D = |uw|^(|x|-1) and
    N = (u^(2|x|) - w^(2|x|)) / (u² - w²), the product of the homogeneous
    cyclotomic values Φ_e(u, w) over the divisors e >= 3 of 2|x|
    (_cyclotomic_values), each positive and prime to uw.  So the kernel is
    found piece by piece, on ints of degree φ(e) rather than on N, and
    combined without factoring: sqrt(k1)·sqrt(k2) = h·sqrt(k1·k2/h²) with
    h = gcd(k1, k2).  D adds the kernel of |uw| when |x| is even.  A
    missing x is computed once, on first read."""

    __slots__ = ("qv",)

    def __init__(self, qv: QValue):
        self.qv = qv

    def __missing__(self, x: int) -> int:
        m = abs(x)
        if not m:
            k = 1
        elif self.qv.is_classical:
            k = _square_decompose(m)[1]
        else:
            u, w = self.qv.q.numerator, self.qv.q.denominator
            k = 1 if m % 2 else _square_decompose(abs(u * w))[1]
            for e, value in _cyclotomic_values(u, w, 2 * m).items():
                if e >= 3:
                    ke = _piece_kernel(value, e)
                    h = gcd(k, ke)
                    k = (k // h) * (ke // h)
        self[x] = k
        return k


def _cyclotomic_values(u: int, w: int, n: int) -> dict[int, int]:
    """{e: Φ_e(u, w)} for each divisor e of n, ascending: the homogeneous
    cyclotomic values, u^e - w^e divided by Φ_f(u, w) over the proper
    divisors f of e.  Each division is exact."""
    values: dict[int, int] = {}
    for e in range(1, n + 1):
        if n % e == 0:
            v = u ** e - w ** e
            for f, vf in values.items():
                if e % f == 0:
                    v //= vf
            values[e] = v
    return values


def _piece_kernel(v: int, e: int) -> int:
    """The squarefree kernel of v = Φ_e(u, w), e >= 3, u and w coprime.

    A prime that divides v and not e has u/w of order e modulo it, so it
    is 1 mod e, and 1 mod 2e for odd e.  So the trial divisors are the
    divisors of e, then 1 + t·e (1 + t·2e for odd e).  A composite
    candidate never divides the rest, since its prime factors are smaller
    candidates already divided out, so _square_decompose's closing test
    holds for this sequence too."""
    step = e if e % 2 == 0 else 2 * e
    divisors = (f for f in range(2, e + 1) if e % f == 0)
    return _square_decompose(v, chain(divisors, count(1 + step, step)))[1]


@cache
def _bracket_pairs(qv: QValue) -> _BracketPairs:
    """The one bracket table of qv, shared by every reader.  Memoised for
    the life of the process (see ``action.clear_caches``)."""
    return _BracketPairs(qv)


def qbracket(x: int, qv: QValue) -> Fraction:
    """The q-bracket of an integer: (q^x - q^-x) / (q - q^-1), or x
    classically, read from qv's bracket table."""
    return Fraction(*_bracket_pairs(qv)[x])


# --- squarefree decomposition -------------------------------------------------


def _square_decompose(n: int, candidates: Optional[Iterable[int]] = None
                      ) -> tuple[int, int]:
    """Write n > 0 as s^2 * k with k squarefree; returns (s, k).

    Trial division by the ascending candidates, by default 2 and the odd
    numbers, up to the cube root of what is left.  The rest has no factor
    below the last divisor p tried and is below p^3, so it is 1, a prime,
    a prime square or a product of two distinct primes: exact for every n,
    and fast for the small values it is given (bracket pieces, and
    radical_of's radicands)."""
    if n <= 0:
        raise ValueError("positive integer required")
    s, k, rem = 1, 1, n
    for p in chain((2,), count(3, 2)) if candidates is None else candidates:
        if p * p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                k *= p
    r = isqrt(rem)
    if r * r == rem:
        return s * r, k
    return s, k * rem


class RadicalSum:
    """Canonical finite sum of rational multiples of square roots.

    Stored as a mapping from squarefree kernel (a positive integer; kernel 1
    is the rational part) to a nonzero rational coefficient.  Instances are
    immutable and hashable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Fraction] | Iterable[tuple[int, Fraction]] = ()):
        items = dict(terms)
        for k, c in list(items.items()):
            if k < 1:
                raise ValueError(f"kernel must be a positive integer (got {k})")
            if c == 0:
                del items[k]
        self._terms = dict(sorted(items.items()))

    # -- constructors --

    @classmethod
    def from_rational(cls, r: RationalLike) -> "RadicalSum":
        return cls({1: Fraction(r)})

    # -- predicates --

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    # -- arithmetic --

    def __add__(self, other: "RadicalSum") -> "RadicalSum":
        merged = dict(self._terms)
        for k, c in other._terms.items():
            merged[k] = merged.get(k, 0) + c
        return RadicalSum(merged)

    def __neg__(self) -> "RadicalSum":
        return RadicalSum({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "RadicalSum") -> "RadicalSum":
        return self + (-other)

    def __mul__(self, other: "RadicalSum") -> "RadicalSum":
        out: dict[int, Fraction] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                # sqrt(k1)*sqrt(k2) = g*sqrt(k1*k2/g^2) with g = gcd(k1, k2);
                # the cofactors are coprime and squarefree, so no factoring.
                g = gcd(k1, k2)
                k = (k1 // g) * (k2 // g)
                out[k] = out.get(k, 0) + c1 * c2 * g
        return RadicalSum(out)

    def scale(self, r: RationalLike) -> "RadicalSum":
        if r == 1:
            return self  # immutable, so the caller may share it
        r = Fraction(r)
        return RadicalSum({k: c * r for k, c in self._terms.items()})

    # -- comparisons and rendering --

    def __eq__(self, other) -> bool:
        return isinstance(other, RadicalSum) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "RadicalSum(0)"
        parts = []
        for k, c in self._terms.items():
            parts.append(str(c) if k == 1 else f"{c}*sqrt({k})")
        return "RadicalSum(" + " + ".join(parts) + ")"

    def to_decimal(self) -> str:
        """At least 50 significant digits, computed with 10 guard digits in a
        local context, so the caller's decimal precision is left alone."""
        with localcontext() as ctx:
            ctx.prec = 60
            total = Decimal(0)
            for k, c in self._terms.items():
                val = Decimal(c.numerator) / Decimal(c.denominator)
                if k != 1:
                    val *= Decimal(k).sqrt()
                total += val
            return str(+total)

    def to_json(self) -> list:
        """{"coeff": string, "kernel": k} for each term, in kernel order: a
        new list of new dicts on every call, so a caller may change it."""
        return [{"coeff": str(c), "kernel": k} for k, c in self._terms.items()]

    @classmethod
    def from_json(cls, data: list) -> "RadicalSum":
        return cls({int(t["kernel"]): Fraction(t["coeff"]) for t in data})


# The canonical JSON text of a value: sorted keys, no spaces.  Every
# document and every pre-encoded matrix entry is encoded by it; the values
# are trees built fresh for each call, so no cycle needs checking.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                   check_circular=False).encode


@cache
def _rendered(k: int, n: int, d: int) -> tuple[str, str]:
    """The "coeff" and "decimal" values of a matrix entry whose coefficient
    is the monomial (n/d)·sqrt(k), k squarefree, d > 0, gcd(n, d) = 1 and
    n != 0, each already encoded as canonical JSON text: the list of
    RadicalSum.to_json and the string of to_decimal.  Keyed on the ints
    that action.monomial_image holds, so a repeated coefficient is found
    without building a sum and is encoded once.  Memoised for the life of
    the process (see ``action.clear_caches``); strings, so no caller can
    change them."""
    s = RadicalSum({k: Fraction(n, d)})
    return _canonical_json(s.to_json()), _canonical_json(s.to_decimal())


def radical_of(r: RationalLike) -> RadicalSum:
    """Canonical form of sqrt(r) for a nonnegative rational r.

    With r = a/b in lowest terms and a*b = k*s^2 (k squarefree), the result
    is (s/b)*sqrt(k): exact for every rational, by trial division of a*b
    (_square_decompose), so its time grows with the size of a*b.  The
    boundary suite's closed form calls it on one bracket rather than read
    the bracket table's kernels, so that it stays independent of the
    ladder kernel that it checks.
    """
    r = Fraction(r)
    if r < 0:
        raise NegativeRadicandError(f"negative radicand {r}")
    if r == 0:
        return RadicalSum()
    a, b = r.numerator, r.denominator
    s, k = _square_decompose(a * b)
    return RadicalSum({k: Fraction(s, b)})
