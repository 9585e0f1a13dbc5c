"""Exact evaluators and a seeded fuzzer for the q-bracket identity corpus.

Each identity is a rational-function identity in q and a handful of integer
(or nonzero rational) slots.  Evaluation is exact: the result is a Fraction
that must be zero at every generic assignment.  Assignments where some
denominator bracket vanishes are poles; they raise PoleError and the fuzzer
rejects and resamples them.  The row sums and A26 test for poles on their
summed rows before evaluating any bracket (see ``_reject_poles``).

The row-sum identities (the double sums I23a/b and the removed-label single
sums I24a-d) read four consecutive L-rows: below, a, b and above.  They are
one kernel driven by the table ``_ROW_SUMS``, which gives per tag the bottom
row's offset from 2k, the sign sigma of the ``s`` offset, and for the single
sums the summed row, the row losing the two excluded labels, and the unused
row.  Each term is summed over s in {0, 1} with sign (-1)^s and, with
t = sigma*s and x the summed entry, is a product of numerator factors
f(v, x, off) over the other rows divided by f(v_i, x, t) f(v_i, x, t - sigma)
over the rest of the summed row.  The double sum is built from the same two
products and the caller subtracts [sigma(sum a + sum b - sum above -
sum below) - 1].  A26 is the single sum with sigma = +1, summed over a,
with b and c as the other rows: its brackets [a_i - v - s] = -[v - a_i + s]
come in an even number, and its two denominator brackets change sign
together.

A factor is an integer pair (numerator, denominator).  The kernels multiply
ints, test a denominator factor's numerator for 0 and skip a term whose
numerator is 0.  They keep the running sum as an integer pair, add each
other term by cross-multiplying and reduce it by one gcd (``_add``), and
build one Fraction at the end; Fractions are canonical, so the value is the
one a sum of Fractions gives.  A product of numerator factors times the
reciprocal of a product of denominator factors first cancels the common
factor of the two products' denominators (``_reduced``).  Each draw does
its arithmetic once.  The row sums read the bracket f(v, x, off) =
[v - x + off] as an integer pair from q's one bracket table,
``qnum._bracket_pairs``, which the ladder kernel shares (``_brackets``),
and test their summed rows for poles before they read the other rows.
The denominator products over a summed row are built once per offset,
and the offset-0 factors serve both s (``_dens``).  Per s, the double sum
builds the parts of the terms that depend on x alone or on y alone once,
and reads the products over B minus y at x and over A minus x at y from
prefix and suffix products (``_leave_one_out``), never by dividing a full
product by one factor, which can be 0.

A21 is I23a in the variables q^(2L).  It runs through the same double sum
with f(v, x, off) = x - q^(2 off) v, on the variables' integer pairs and
unreduced: for x = q^(2L) and v = q^(2M) this is
-q^(L+M+off)(q - q^-1)[M - L + off], and the per-term weight q^(1-2s)/(xy),
also a pair, absorbs those monomials.  Each power of q is computed once per
evaluation.  A21 tests A and B for poles before the kernel
(``_reject_ratio_poles``), the multiplicative form of ``_reject_poles``.

Two changes to a table row leave every identity true, so no test can tell
them apart: flipping sigma (the identities are invariant under L -> -L),
and shifting the bottom row by one (only the parity of the row lengths
changes).  Swapping the summed and the cut row, or dropping another row,
breaks the identity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .qnum import QValue, _bracket_pairs, qbracket
from .patterns import row_range
from .report import CheckReport

__all__ = [
    "IDENTITY_TAGS",
    "CORPUS",
    "IdentityId",
    "Assignment",
    "PoleError",
    "evaluate_identity",
    "fuzz_identity",
]

IDENTITY_TAGS = (
    "I23a", "I23b", "I24a", "I24b", "I24c", "I24d",
    "I25", "I26", "I27", "A21", "A26", "A46L", "A46R",
)

# identities whose size parameter is meaningful, with allowed minimum
_SIZED = {
    "I23a": 1, "I23b": 1, "I24a": 2, "I24b": 1, "I24c": 2, "I24d": 1,
    "A21": 2, "A26": 2,
}


class PoleError(ArithmeticError):
    """An assignment hit a vanishing denominator; it is not generic."""


@dataclass(frozen=True)
class IdentityId:
    tag: str
    size: Optional[int] = None

    def __post_init__(self):
        if self.tag not in IDENTITY_TAGS:
            raise ValueError(f"unknown identity tag {self.tag!r}")
        if self.tag in _SIZED:
            if self.size is None or self.size < _SIZED[self.tag]:
                raise ValueError(
                    f"{self.tag} requires size >= {_SIZED[self.tag]}"
                )
        elif self.size is not None:
            raise ValueError(f"{self.tag} takes no size parameter")


# the corpus the identities suite fuzzes, in report order
CORPUS = (
    *(IdentityId(tag, 2) for tag in ("I23a", "I23b", "I24a", "I24b", "I24c", "I24d")),
    *(IdentityId(tag) for tag in ("I25", "I26", "I27", "A46L", "A46R")),
    IdentityId("A21", 2), IdentityId("A21", 4),
    IdentityId("A26", 2), IdentityId("A26", 3), IdentityId("A26", 4),
)


@dataclass
class Assignment:
    """Concrete values for an identity's slots.

    scalars: named integers (a, b, c, d, e).  arrays: named integer rows
    (the L-rows of the sum identities) or nonzero rationals (the
    multiplicative variables of the product-form identities).
    excluded: identity-specific removed labels.
    """

    qv: QValue
    scalars: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)
    excluded: dict = field(default_factory=dict)


def _div(num: Fraction, den: Fraction, what: str) -> Fraction:
    if den == 0:
        raise PoleError(f"vanishing denominator: {what}")
    return num / den


# --- row sums ------------------------------------------------------------
# Rows hold L-values in index order over the ranges patterns use: row p
# covers row_range(p).  The four rows of a row-sum identity are, bottom up:

_ROWS = ("row_below", "row_a", "row_b", "row_above")


class _RowSum(NamedTuple):
    bottom: int  # row number of row_below, minus 2k
    sigma: int  # sign of the s offset
    summed: Optional[str] = None  # single sums only
    cut: Optional[str] = None  # loses the two excluded labels
    unused: Optional[str] = None


_ROW_SUMS = {
    "I23a": _RowSum(-2, +1),
    "I23b": _RowSum(-1, -1),
    "I24a": _RowSum(-2, +1, "row_b", "row_a", "row_below"),
    "I24b": _RowSum(-1, -1, "row_b", "row_a", "row_below"),
    "I24c": _RowSum(-2, -1, "row_a", "row_b", "row_above"),
    "I24d": _RowSum(-1, +1, "row_a", "row_b", "row_above"),
}


def _row_numbers(case: _RowSum, k: int) -> dict:
    return {name: 2 * k + case.bottom + r for r, name in enumerate(_ROWS)}


def _as_row(p: int, values) -> list:
    if len(values) != len(row_range(p)):
        raise ValueError(f"row {p} needs {len(row_range(p))} values, got {len(values)}")
    return list(values)


def _brackets(qv: QValue):
    """The row-sum factor f(v, x, off) = [v - x + off] as an integer pair,
    read from qv's bracket table, which is looked up once per evaluation."""
    table = _bracket_pairs(qv)
    return lambda v, x, off: table[v - x + off]


def _reject_poles(rows, what: str) -> None:
    """PoleError when two entries of a summed row are equal or differ by 1.

    The denominator factors over a summed row are f(v_i, x, t) and
    f(v_i, x, t - sigma) with t in {0, sigma}, i.e. the brackets [v_i - x],
    [v_i - x + 1] and [v_i - x - 1], and q is never a root of unity, so this
    is exactly when the kernel would meet a vanishing denominator."""
    for row in rows:
        ordered = sorted(row)
        if any(w - v <= 1 for v, w in zip(ordered, ordered[1:])):
            raise PoleError(f"vanishing denominator: {what}")


def _reject_ratio_poles(rows, q: Fraction, what: str) -> None:
    """PoleError when two entries of a row of integer pairs are equal or in
    ratio q^2.

    A21's denominator factors over a row are x - q^(2 off) v with off in
    {-1, 0, 1}, for every two entries v and x of the row, so this is exactly
    when its kernel would meet a vanishing denominator."""
    qn, qd = q.numerator ** 2, q.denominator ** 2
    for row in rows:
        for j, (xn, xd) in enumerate(row):
            for vn, vd in row[:j]:
                a, b = xn * vd, vn * xd  # x / v = a / b
                if a == b or a * qd == b * qn or a * qn == b * qd:
                    raise PoleError(f"vanishing denominator: {what}")


def _num(f, values, x, off: int) -> tuple[int, int]:
    """Product of f(v, x, off) over values, as an unreduced integer pair."""
    n = d = 1
    for v in values:
        a, b = f(v, x, off)
        n *= a
        d *= b
    return n, d


def _dens(f, row: list, sigma: int, what: str) -> tuple[list, list]:
    """For s = 0 and s = 1, with t = sigma*s, the products
    f(v, x, t) f(v, x, t - sigma) over the entries v of the row other than
    x = row[j], for every j, as unreduced integer pairs.  The offset-0
    factor serves both s.  PoleError at a vanishing factor."""
    out = [], []
    for j, x in enumerate(row):
        n0 = d0 = n1 = d1 = 1
        for v in row[:j] + row[j + 1:]:
            a, b = f(v, x, 0)
            a0, b0 = f(v, x, -sigma)
            a1, b1 = f(v, x, sigma)
            if not (a and a0 and a1):
                raise PoleError(f"vanishing denominator: {what} at j={j}")
            n0 *= a * a0
            d0 *= b * b0
            n1 *= a * a1
            d1 *= b * b1
        out[0].append((n0, d0))
        out[1].append((n1, d1))
    return out


def _reduced(n: int, d: int, a: int, b: int) -> tuple[int, int]:
    """(n/d) (a/b) as an integer pair, with gcd(a, d) cancelled.  The
    kernels pass a product of numerator factors as n/d and the reciprocal
    of a product of denominator factors as a/b, so d and a are both
    products of factor denominators: for q = u/v a bracket's denominator is
    a power of uv, so they share a large factor."""
    g = math.gcd(a, d)
    return n * (a // g), (d // g) * b


def _add(tn: int, td: int, n: int, d: int) -> tuple[int, int]:
    """tn/td + n/d as an integer pair in lowest terms (its denominator may
    be negative).  Reducing after every term keeps the denominator from
    growing to the product of every term's."""
    n = tn * d + n * td
    d *= td
    g = math.gcd(n, d)
    return n // g, d // g


def _single_sum(f, row: list, others: list, sigma: int, what: str) -> Fraction:
    tn, td = 0, 1
    for s, dens in enumerate(_dens(f, row, sigma, what)):
        t = sigma * s
        for x, (dn, dd) in zip(row, dens):
            nn, nd = _num(f, others, x, t)
            if nn:
                tn, td = _add(tn, td, *_reduced(-nn if s else nn, nd, dd, dn))
    return Fraction(tn, td)


def _leave_one_out(pairs: list) -> list:
    """For each j the product of the integer pairs other than pairs[j],
    unreduced, from prefix and suffix products.  A full product is never
    divided by one factor: a numerator factor can be 0."""
    out = []
    n = d = 1
    for a, b in pairs:
        out.append((n, d))
        n *= a
        d *= b
    n = d = 1
    for j in range(len(pairs) - 1, -1, -1):
        pn, pd = out[j]
        out[j] = pn * n, pd * d
        a, b = pairs[j]
        n *= a
        d *= b
    return out


def _double_sum(f, D: list, A: list, B: list, C: list, sigma: int,
                what: str, weight=None) -> Fraction:
    """The double sum over x = A[j] and y = B[l], each term times the integer
    pair weight(s, x, y) when a weight is given.  With t = sigma*s, the term
    is (-1)^s times the products of f(v, x, t - sigma) over D and B minus l
    and of f(v, y, t) over C and A minus j, over the _dens products at x in
    A and at y in B.

    Each factor is evaluated once per s: the parts that depend on x alone
    or on y alone are built once, and the products over B minus l at x and
    over A minus j at y come from _leave_one_out."""
    tn, td = 0, 1
    dens = zip(_dens(f, A, sigma, what), _dens(f, B, sigma, what))
    for s, (den_a, den_b) in enumerate(dens):
        t = sigma * s
        ys = []
        for y, (bn, bd) in zip(B, den_b):
            yn, yd = _reduced(*_num(f, C, y, t), bd, bn)
            ys.append((y, yn, yd, _leave_one_out([f(v, y, t) for v in A])))
        for j, (x, (an, ad)) in enumerate(zip(A, den_a)):
            xn, xd = _num(f, D, x, t - sigma)
            if not xn:
                continue
            xn, xd = _reduced(-xn if s else xn, xd, ad, an)
            rest_b = _leave_one_out([f(v, x, t - sigma) for v in B])
            for (n1, d1), (y, yn, yd, rest_a) in zip(rest_b, ys):
                n2, d2 = rest_a[j]
                num = (xn * n1) * (yn * n2)
                if not num:
                    continue
                den = (xd * d1) * (yd * d2)
                if weight is not None:
                    wn, wd = weight(s, x, y)
                    num, den = num * wn, den * wd
                tn, td = _add(tn, td, num, den)
    return Fraction(tn, td)


def _eval_row_sum(a: Assignment, tag: str, k: int) -> Fraction:
    """The summed rows are tested for poles before the other rows are read,
    so a rejected draw costs no more than that test."""
    case = _ROW_SUMS[tag]
    p = _row_numbers(case, k)

    def row(name):
        return _as_row(p[name], a.arrays[name])

    f = _brackets(a.qv)
    if case.summed is None:
        A, B = row("row_a"), row("row_b")
        _reject_poles((A, B), tag)
        D, C = row("row_below"), row("row_above")
        rhs = qbracket(case.sigma * (sum(A) + sum(B) - sum(C) - sum(D)) - 1, a.qv)
        return _double_sum(f, D, A, B, C, case.sigma, tag) - rhs
    summed = row(case.summed)
    _reject_poles((summed,), tag)
    [other] = (name for name in _ROWS
               if name not in (case.summed, case.cut, case.unused))
    labels = a.excluded["labels"]
    others = row(other) + [v for i, v in zip(row_range(p[case.cut]), row(case.cut))
                           if i not in labels]
    return _single_sum(f, summed, others, case.sigma, tag)


def _eval_a26(a: Assignment, n: int) -> Fraction:
    aa, bb, cc = (list(a.arrays[x]) for x in "abc")
    if [len(aa), len(bb), len(cc)] != [n, n - 1, n - 1]:
        raise ValueError("A26 arrays must have lengths n, n-1, n-1")
    _reject_poles((aa,), "A26")
    return _single_sum(_brackets(a.qv), aa, bb + cc, +1, "A26")


def _serre(br, x: int, y: int) -> Fraction:
    """[x-1][y-1] - [2][x][y-1] + [x][y]."""
    return br(x - 1) * br(y - 1) - br(2) * br(x) * br(y - 1) + br(x) * br(y)


def _eval_i25(a: Assignment) -> Fraction:
    br = lambda x: qbracket(x, a.qv)
    sa, sb, sc, sd, se = (a.scalars[x] for x in "abcde")
    q1 = _div(br(sa - sd) * br(sc - se - 1),
              br(sd - se - 1) * br(sc - sa - 1), "I25 [d-e-1][c-a-1]")
    q1 += _div(br(sc - sd - 1) * br(sa - se),
               br(sd - se + 1) * br(sc - sa - 1), "I25 [d-e+1][c-a-1]")
    q2 = _div(br(sa - se - 1) * br(sc - sd),
              br(sd - se - 1) * br(sc - sa + 1), "I25 [d-e-1][c-a+1]")
    q2 += _div(br(sa - sd - 1) * br(sc - se),
               br(sd - se + 1) * br(sc - sa + 1), "I25 [d-e+1][c-a+1]")
    return _serre(br, sa - sb, sc - sb) * q1 + q2 * _serre(br, sc - sb, sa - sb)


def _eval_i26(a: Assignment) -> Fraction:
    br = lambda x: qbracket(x, a.qv)
    sa, sb = a.scalars["a"], a.scalars["b"]
    t1 = _div(_serre(br, sa, sb), br(sa - sb + 1), "I26 [a-b+1]")
    t2 = _div(_serre(br, sb, sa), br(sa - sb - 1), "I26 [a-b-1]")
    return t1 + t2


def _eval_i27(a: Assignment) -> Fraction:
    br = lambda x: qbracket(x, a.qv)
    sa = a.scalars["a"]
    return br(sa - 1) - br(2) * br(sa) + br(sa + 1)


def _eval_a46(a: Assignment, side: str) -> Fraction:
    br = lambda x: qbracket(x, a.qv)
    sa, sb, sc, sd = (a.scalars[x] for x in "abcd")
    if side == "L":
        t1 = _div(br(sa - sb) * br(sc - sd - 1), br(sc - sb - 1), "A46L [c-b-1]")
        t2 = _div(br(sa - sc + 1) * br(sb - sd), br(sb - sc + 1), "A46L [b-c+1]")
        return t1 + t2 - br(sa - sd)
    t1 = _div(br(sa - sb + 1) * br(sc - sd), br(sc - sb + 1), "A46R [c-b+1]")
    t2 = _div(br(sa - sc) * br(sb - sd - 1), br(sb - sc - 1), "A46R [b-c-1]")
    return -t1 - t2 + br(sa - sd)


def _a21_factors(q: Fraction):
    """A21's factor f(v, x, off) = x - q^(2 off) v and per-term weight
    q^(1 - 2s)/(x y), both on integer pairs and unreduced."""
    qn, qd = q.numerator, q.denominator
    powers = {}  # each power of q once per evaluation

    def q_pow(e: int) -> tuple[int, int]:
        pair = powers.get(e)
        if pair is None:
            pair = powers[e] = (qn ** e, qd ** e) if e >= 0 else (qd ** -e, qn ** -e)
        return pair

    def f(v, x, off):
        (vn, vd), (xn, xd) = v, x
        cn, cd = q_pow(2 * off)
        return xn * cd * vd - cn * vn * xd, xd * cd * vd

    def weight(s, x, y):
        cn, cd = q_pow(1 - 2 * s)
        return cn * x[1] * y[1], cd * x[0] * y[0]

    return f, weight


def _eval_a21(a: Assignment, n: int) -> Fraction:
    if a.qv.is_classical:
        raise PoleError("A21 is a multiplicative identity; it needs a rational q")
    q = a.qv.q
    # each variable, an int or a Fraction, as its integer pair, read once
    A, B, C, D = ([v.as_integer_ratio() for v in a.arrays[x]] for x in "ABCD")
    if [len(A), len(B), len(C), len(D)] != [n - 1, n, n + 1, n - 2]:
        raise ValueError("A21 arrays must have lengths n-1, n, n+1, n-2")
    if any(vn == 0 for vn, _ in A + B + C + D):
        raise PoleError("A21 variables must be nonzero")
    _reject_ratio_poles((A, B), q, "A21")
    f, weight = _a21_factors(q)
    total = _double_sum(f, D, A, B, C, +1, "A21", weight=weight)
    # prod(D + C) / prod(A + B) = (tn / td) / (bn / bd); neither side is empty
    (tn, td), (bn, bd) = (map(math.prod, zip(*vs)) for vs in (D + C, A + B))
    return total - (q - 1 / q) * (1 - q * q * Fraction(tn * bd, td * bn))


def evaluate_identity(ident: IdentityId, a: Assignment) -> Fraction:
    """Exact value of LHS - RHS; zero at every generic assignment."""
    tag = ident.tag
    if tag in _ROW_SUMS:
        return _eval_row_sum(a, tag, ident.size)
    if tag == "A26":
        return _eval_a26(a, ident.size)
    if tag == "A21":
        return _eval_a21(a, ident.size)
    if tag == "I25":
        return _eval_i25(a)
    if tag == "I26":
        return _eval_i26(a)
    if tag == "I27":
        return _eval_i27(a)
    if tag in ("A46L", "A46R"):
        return _eval_a46(a, tag[-1])
    raise ValueError(tag)


# --- sampling ------------------------------------------------------------

# QValue objects, not rationals: every draw reuses one of these, so the
# bracket-table lookup finds the key by identity and never runs the
# dataclass __eq__
_Q_POOL = tuple(QValue.quantum(q) for q in (Fraction(3, 2), 2, Fraction(5, 3),
                                            Fraction(7, 4)))
# a free slot's values -12 .. 12, as randrange bounds; randrange(a, b + 1)
# is what randint(a, b) calls, so the stream, and every pinned report, is
# randint's
_RANGE = (-12, 13)


def _randranges(rng: random.Random, start: int, stop: int,
                count: int) -> list[int]:
    """count draws of rng.randrange(start, stop), each drawn as randrange
    draws it: getrandbits(k), k the bit length of the width, until the draw
    is below the width.  The stream, and the generator's state after it,
    are randrange's, without its argument checks or a call per draw."""
    n = stop - start
    k = n.bit_length()
    bits = rng.getrandbits
    out = []
    while len(out) < count:
        r = bits(k)
        if r < n:
            out.append(start + r)
    return out


def _sample_row(rng: random.Random, length: int, decreasing: bool) -> list[int]:
    if not decreasing:
        return _randranges(rng, *_RANGE, length)
    # strictly decreasing rows mimic genuine L-rows (gap >= 1), from a top
    # entry in 10 .. 16; the gap below the last entry is drawn and unused
    vals = []
    [cur] = _randranges(rng, 10, 17, 1)
    for gap in _randranges(rng, 1, 4, length):
        vals.append(cur)
        cur -= gap
    return vals


def _sample_raw(ident: IdentityId, rng: random.Random) -> Assignment:
    qv = rng.choice(_Q_POOL)
    tag, k = ident.tag, ident.size
    if tag in ("I25", "I26", "I27", "A46L", "A46R"):
        names = {"I25": "abcde", "I26": "ab", "I27": "a",
                 "A46L": "abcd", "A46R": "abcd"}[tag]
        return Assignment(qv, scalars=dict(
            zip(names, _randranges(rng, *_RANGE, len(names)))))
    dec = rng.random() < 0.5
    if tag in _ROW_SUMS:
        case = _ROW_SUMS[tag]
        p = _row_numbers(case, k)
        rows = {name: _sample_row(rng, p[name], dec) for name in _ROWS}
        if case.summed is None:
            return Assignment(qv, arrays=rows)
        del rows[case.unused]
        labels = rng.sample(list(row_range(p[case.cut])), 2)
        return Assignment(qv, arrays=rows, excluded={"labels": tuple(labels)})
    if tag == "A21":
        q = qv.q
        # powers of q keep the variables in the identity's natural image
        return Assignment(qv, arrays={
            x: [q ** (2 * e) for e in _randranges(rng, *_RANGE, m)]
            for x, m in zip("ABCD", (k - 1, k, k + 1, k - 2))
        })
    if tag == "A26":
        return Assignment(qv, arrays={
            "a": _sample_row(rng, k, dec),
            "b": _sample_row(rng, k - 1, dec),
            "c": _sample_row(rng, k - 1, dec),
        })
    raise ValueError(tag)


# Pole rejections allowed per trial by fuzz_identity.
_REJECTION_BUDGET = 1000


def fuzz_identity(ident: IdentityId, trials: int, seed: int) -> CheckReport:
    """Evaluate the identity at many seeded generic points; all must vanish."""
    rng = random.Random(seed)
    report = CheckReport(
        "identity",
        {"tag": ident.tag, "size": ident.size, "trials": trials,
         "seed": seed, "rejections": 0},
    )
    done = 0
    while done < trials:
        a = _sample_raw(ident, rng)
        try:
            value = evaluate_identity(ident, a)
        except PoleError:
            report.params["rejections"] += 1
            if report.params["rejections"] > _REJECTION_BUDGET * trials:
                report.record(None, None, note="rejection budget exhausted")
                return report
            continue
        done += 1
        report.checked += 1
        if value != 0:
            report.record(None, {
                "value": str(value),
                "scalars": a.scalars,
                "arrays": {n: [str(v) for v in vs] for n, vs in a.arrays.items()},
                "excluded": {n: list(v) for n, v in a.excluded.items()},
                "q": str(a.qv.q),
            })
    return report
