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

The kernels read a factor as an int and an exponent: f(vs, x, off) gives,
for v in vs, ints n and exponents e with f(v, x, off) = n / g^e, g being
the kernel's base.  At q = u/w in lowest terms q's bracket table,
``qnum._bracket_pairs``, which the ladder kernel shares, holds [n] as
(N, |uw|^(|n| - 1)) (N is prime to u and w), so the row sums read each
bracket [v - x + off] as N and |v - x + off| - 1 with g = |uw|, or g = 1
classically (``_brackets``).  A term is then (-1)^s times a product of ints
over a product of ints times g^E, E being the exponents of its denominator
factors minus those of its numerator factors.  Each draw puts its terms
over one denominator: the lcm of the int denominators, times g to the
lowest E, so the sum is a sum of int products, each times g to its E minus
the lowest, with no gcd per term.  The kernels test a denominator factor
for 0, skip a term whose numerator is 0, and return the sum as an integer
pair, from which the caller builds one Fraction; Fractions are canonical, so the
value is the one a sum of Fractions gives.  The denominator products over a
summed row are built once per offset, and the offset-0 factors serve both
s (``_dens``).  Per s, the double sum builds the parts of the terms that
depend on x alone or on y alone once, and reads the products over B minus
y at x and over A minus x at y from prefix and suffix products
(``_leave_one_out``), never by dividing a full product by one factor, which
can be 0; a term's exponent is the sum of its x part, its y part and the
exponents of the two left-out factors.  The row sums test their summed
rows for poles before they read the other rows.

A21 is I23a in the variables q^(2L).  It runs through the same double sum
on the variables' integer pairs, with the factor q^-off (x - q^(2 off) v)
xd vd, an int over |uw|^|off|, and the weight 1/(vn vd) at x and at y.  On
A21's rows, the monomials that this factor leaves out, times A21's weight
q^(1-2s)/(xy), are q K times this weight in every term, K being one
constant per draw, so the caller multiplies the kernel's sum by q K
(``_a21_factors``).  A21 tests A and B for poles before the kernel
(``_reject_ratio_poles``), the multiplicative form of ``_reject_poles``.
The closed-form identities I25-I27 and A46 multiply, divide and add their
brackets as unreduced integer pairs from the same table.

Two changes to a table row leave every identity true, so no test can tell
them apart: flipping sigma (the identities are invariant under L -> -L),
and shifting the bottom row by one (only the parity of the row lengths
changes).  Swapping the summed and the cut row, or dropping another row,
breaks the identity.
"""

from __future__ import annotations

import random
from math import lcm, prod
from fractions import Fraction
from typing import NamedTuple, Optional

from .qnum import QValue, _bracket_pairs, _Frozen, _Value
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


class IdentityId(_Frozen):
    __slots__ = ("tag", "size")

    def __init__(self, tag: str, size: Optional[int] = None):
        if tag not in IDENTITY_TAGS:
            raise ValueError(f"unknown identity tag {tag!r}")
        if tag in _SIZED:
            if size is None or size < _SIZED[tag]:
                raise ValueError(f"{tag} requires size >= {_SIZED[tag]}")
        elif size is not None:
            raise ValueError(f"{tag} takes no size parameter")
        self._set(tag, size)

    def __hash__(self) -> int:
        return self._hash


# the corpus the identities suite fuzzes, in report order
CORPUS = (
    *(IdentityId(tag, 2) for tag in ("I23a", "I23b", "I24a", "I24b", "I24c", "I24d")),
    *(IdentityId(tag) for tag in ("I25", "I26", "I27", "A46L", "A46R")),
    IdentityId("A21", 2), IdentityId("A21", 4),
    IdentityId("A26", 2), IdentityId("A26", 3), IdentityId("A26", 4),
)


class Assignment(_Value):
    """Concrete values for an identity's slots.

    scalars: named integers (a, b, c, d, e).  arrays: named integer rows
    (the L-rows of the sum identities) or nonzero rationals (the
    multiplicative variables of the product-form identities).
    excluded: identity-specific removed labels.  Each dict left out is a
    new empty one.
    """

    __slots__ = ("qv", "scalars", "arrays", "excluded")

    def __init__(self, qv: QValue, scalars: Optional[dict] = None,
                 arrays: Optional[dict] = None, excluded: Optional[dict] = None):
        self.qv = qv
        self.scalars = {} if scalars is None else scalars
        self.arrays = {} if arrays is None else arrays
        self.excluded = {} if excluded is None else excluded


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
    """The row-sum factor f(vs, x, off) over the brackets [v - x + off], v
    in vs, and its base g: |uw| at q = u/w, 1 classically.

    f returns the brackets' numerators, read from qv's bracket table,
    which is looked up once per evaluation, and their exponents: the table
    holds [n] as (N, g^(|n| - 1)) for n != 0 (N is prime to u and w), and
    [0] = 0 whatever its exponent."""
    table = _bracket_pairs(qv)
    g = 1 if qv.is_classical else abs(qv.q.numerator * qv.q.denominator)

    def f(vs, x, off):
        ns, es = [], []
        c = x - off
        for v in vs:
            d = v - c
            ns.append(table[d][0])
            es.append(abs(d) - 1)
        return ns, es

    return f, g


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

    A21's denominator factors over a row vanish where x - q^(2 off) v does,
    off in {-1, 0, 1}, for every two entries v and x of the row, so this is
    exactly when its kernel would meet a vanishing denominator."""
    qn, qd = q.numerator ** 2, q.denominator ** 2
    for row in rows:
        for j, (xn, xd) in enumerate(row):
            for vn, vd in row[:j]:
                a, b = xn * vd, vn * xd  # x / v = a / b
                if a == b or a * qd == b * qn or a * qn == b * qd:
                    raise PoleError(f"vanishing denominator: {what}")


def _dens(f, row: list, sigma: int, what: str) -> tuple[list, list]:
    """For s = 0 and s = 1, with t = sigma*s, the products
    f(v, x, t) f(v, x, t - sigma) over the entries v of the row other than
    x = row[j], for every j, as (int, exponent).  The offset-0 factors
    serve both s.  PoleError at a vanishing factor."""
    out = [], []
    for j, x in enumerate(row):
        rest = row[:j] + row[j + 1:]
        n0, e0 = f(rest, x, 0)
        n1, e1 = f(rest, x, -sigma)
        n2, e2 = f(rest, x, sigma)
        p0, p1, p2 = prod(n0), prod(n1), prod(n2)
        if not (p0 and p1 and p2):
            raise PoleError(f"vanishing denominator: {what} at j={j}")
        e = sum(e0)
        out[0].append((p0 * p1, e + sum(e1)))
        out[1].append((p0 * p2, e + sum(e2)))
    return out


def _scaled(num: int, den: int, g: int, lo: int) -> tuple[int, int]:
    """num g^lo / den as an integer pair."""
    return (num * g ** lo, den) if lo >= 0 else (num, den * g ** -lo)


def _single_sum(f, g: int, row: list, others: list, sigma: int,
                what: str) -> tuple[int, int]:
    """The sum over x = row[j] and s of (-1)^s n/d g^e, n and d being the
    int products of the numerator and the denominator factors, over one
    denominator: the lcm of the d times g to the lowest e."""
    terms = []
    for s, dens in enumerate(_dens(f, row, sigma, what)):
        t = sigma * s
        for x, (d, e) in zip(row, dens):
            ns, es = f(others, x, t)
            n = prod(ns)
            if n:
                terms.append((-n if s else n, d, e - sum(es)))
    if not terms:
        return 0, 1
    lcm_d = lcm(*[d for _, d, _ in terms])
    lo = min([e for _, _, e in terms])
    num = 0
    for n, d, e in terms:
        num += n * (lcm_d // d) * g ** (e - lo)
    return _scaled(num, lcm_d, g, lo)


def _leave_one_out(ns: list) -> list:
    """For each j the product of the ints other than ns[j], from prefix and
    suffix products.  A full product is never divided by one factor: a
    numerator factor can be 0."""
    out = []
    p = 1
    for n in ns:
        out.append(p)
        p *= n
    p = 1
    for j in range(len(ns) - 1, -1, -1):
        out[j] *= p
        p *= ns[j]
    return out


def _double_sum(f, g: int, D: list, A: list, B: list, C: list, sigma: int,
                what: str, weight=None) -> tuple[int, int]:
    """The double sum over x = A[j] and y = B[l], each term times the
    integer pairs weight(x) and weight(y) when a weight is given.  With
    t = sigma*s, the term is (-1)^s times the products of f(v, x, t - sigma)
    over D and B minus l and of f(v, y, t) over C and A minus j, over the
    _dens products at x in A and at y in B.

    Each factor is evaluated once per s: the parts that depend on x alone
    or on y alone are built once, the products over B minus l at x and over
    A minus j at y come from _leave_one_out, and a term's exponent is its
    x part, its y part and the exponents of the two left-out factors.  The
    x parts go over the lcm of their denominators and so do the y parts, so
    the sum is a sum of int dot products over one denominator."""
    halves = []
    dens = zip(_dens(f, A, sigma, what), _dens(f, B, sigma, what))
    for s, (den_a, den_b) in enumerate(dens):
        t = sigma * s
        ys = []
        for y, (d, e) in zip(B, den_b):
            (nc, ec), (na, ea) = f(C, y, t), f(A, y, t)
            n = prod(nc)
            if weight is not None:
                wn, wd = weight(y)
                n, d = n * wn, d * wd
            ys.append((n, d, e - sum(ec) - sum(ea), _leave_one_out(na), ea))
        xs = []
        for j, (x, (d, e)) in enumerate(zip(A, den_a)):
            nd, ed = f(D, x, t - sigma)
            n = prod(nd)
            if not n:
                continue
            nb, eb = f(B, x, t - sigma)
            if weight is not None:
                wn, wd = weight(x)
                n, d = n * wn, d * wd
            e -= sum(ed) + sum(eb)
            exps = [e + ey + ebl + eay[j] for (_, _, ey, _, eay), ebl in zip(ys, eb)]
            xs.append((-n if s else n, d, j, _leave_one_out(nb), exps))
        halves.append((xs, ys))
    every = [e for xs, _ in halves for x in xs for e in x[4]]
    if not every:
        return 0, 1
    lcm_a = lcm(*(x[1] for xs, _ in halves for x in xs))
    lcm_b = lcm(*(y[1] for _, ys in halves for y in ys))
    lo = min(every)
    num = 0
    for xs, ys in halves:
        scaled = [n * (lcm_b // d) for n, d, *_ in ys]
        rest_a = [y[3] for y in ys]
        for n, d, j, rest_b, exps in xs:
            row = 0
            for rb, ra, e, m in zip(rest_b, rest_a, exps, scaled):
                row += rb * ra[j] * g ** (e - lo) * m
            num += n * (lcm_a // d) * row
    return _scaled(num, lcm_a * lcm_b, g, lo)


def _eval_row_sum(a: Assignment, tag: str, k: int) -> Fraction:
    """The summed rows are tested for poles before the other rows are read
    and the bracket factor is built, so a rejected draw costs no more than
    that test."""
    case = _ROW_SUMS[tag]
    p = _row_numbers(case, k)

    def row(name):
        return _as_row(p[name], a.arrays[name])

    if case.summed is None:
        A, B = row("row_a"), row("row_b")
        _reject_poles((A, B), tag)
        D, C = row("row_below"), row("row_above")
        n, d = _double_sum(*_brackets(a.qv), D, A, B, C, case.sigma, tag)
        rn, rd = _bracket_pairs(a.qv)[
            case.sigma * (sum(A) + sum(B) - sum(C) - sum(D)) - 1]
        return Fraction(n * rd - rn * d, d * rd)
    summed = row(case.summed)
    _reject_poles((summed,), tag)
    [other] = (name for name in _ROWS
               if name not in (case.summed, case.cut, case.unused))
    labels = a.excluded["labels"]
    others = row(other) + [v for i, v in zip(row_range(p[case.cut]), row(case.cut))
                           if i not in labels]
    return Fraction(*_single_sum(*_brackets(a.qv), summed, others, case.sigma,
                                 tag))


def _eval_a26(a: Assignment, n: int) -> Fraction:
    aa, bb, cc = (list(a.arrays[x]) for x in "abc")
    if [len(aa), len(bb), len(cc)] != [n, n - 1, n - 1]:
        raise ValueError("A26 arrays must have lengths n, n-1, n-1")
    _reject_poles((aa,), "A26")
    return Fraction(*_single_sum(*_brackets(a.qv), aa, bb + cc, +1, "A26"))


# The closed-form identities multiply, divide and add the brackets as
# integer pairs, unreduced, and build one Fraction at the end.

def _mul(*pairs) -> tuple[int, int]:
    n = d = 1
    for a, b in pairs:
        n *= a
        d *= b
    return n, d


def _div(num: tuple, den: tuple, what: str) -> tuple[int, int]:
    if not den[0]:
        raise PoleError(f"vanishing denominator: {what}")
    return num[0] * den[1], num[1] * den[0]


def _plus(*pairs) -> tuple[int, int]:
    n, d = 0, 1
    for a, b in pairs:
        n, d = n * b + a * d, d * b
    return n, d


def _serre(br, x: int, y: int) -> tuple[int, int]:
    """[x-1][y-1] - [2][x][y-1] + [x][y]."""
    n, d = _mul(br[2], br[x], br[y - 1])
    return _plus(_mul(br[x - 1], br[y - 1]), (-n, d), _mul(br[x], br[y]))


def _eval_i25(a: Assignment) -> Fraction:
    br = _bracket_pairs(a.qv)
    sa, sb, sc, sd, se = (a.scalars[x] for x in "abcde")
    q1 = _plus(
        _div(_mul(br[sa - sd], br[sc - se - 1]),
             _mul(br[sd - se - 1], br[sc - sa - 1]), "I25 [d-e-1][c-a-1]"),
        _div(_mul(br[sc - sd - 1], br[sa - se]),
             _mul(br[sd - se + 1], br[sc - sa - 1]), "I25 [d-e+1][c-a-1]"))
    q2 = _plus(
        _div(_mul(br[sa - se - 1], br[sc - sd]),
             _mul(br[sd - se - 1], br[sc - sa + 1]), "I25 [d-e-1][c-a+1]"),
        _div(_mul(br[sa - sd - 1], br[sc - se]),
             _mul(br[sd - se + 1], br[sc - sa + 1]), "I25 [d-e+1][c-a+1]"))
    return Fraction(*_plus(_mul(_serre(br, sa - sb, sc - sb), q1),
                           _mul(q2, _serre(br, sc - sb, sa - sb))))


def _eval_i26(a: Assignment) -> Fraction:
    br = _bracket_pairs(a.qv)
    sa, sb = a.scalars["a"], a.scalars["b"]
    t1 = _div(_serre(br, sa, sb), br[sa - sb + 1], "I26 [a-b+1]")
    t2 = _div(_serre(br, sb, sa), br[sa - sb - 1], "I26 [a-b-1]")
    return Fraction(*_plus(t1, t2))


def _eval_i27(a: Assignment) -> Fraction:
    br = _bracket_pairs(a.qv)
    sa = a.scalars["a"]
    n, d = _mul(br[2], br[sa])
    return Fraction(*_plus(br[sa - 1], (-n, d), br[sa + 1]))


def _eval_a46(a: Assignment, side: str) -> Fraction:
    br = _bracket_pairs(a.qv)
    sa, sb, sc, sd = (a.scalars[x] for x in "abcd")
    if side == "L":
        t1 = _div(_mul(br[sa - sb], br[sc - sd - 1]), br[sc - sb - 1], "A46L [c-b-1]")
        t2 = _div(_mul(br[sa - sc + 1], br[sb - sd]), br[sb - sc + 1], "A46L [b-c+1]")
        rn, rd = br[sa - sd]
        return Fraction(*_plus(t1, t2, (-rn, rd)))
    t1 = _div(_mul(br[sa - sb + 1], br[sc - sd]), br[sc - sb + 1], "A46R [c-b+1]")
    t2 = _div(_mul(br[sa - sc], br[sb - sd - 1]), br[sb - sc - 1], "A46R [b-c-1]")
    (n1, d1), (n2, d2) = t1, t2
    return Fraction(*_plus((-n1, d1), (-n2, d2), br[sa - sd]))


def _a21_factors(q: Fraction):
    """A21's factor F as the kernel reads it, its base g and its weight.

    At q = u/w and variables v = vn/vd, x = xn/xd as integer pairs,
    F(v, x, off) = q^-off (x - q^(2 off) v) xd vd is an int over g^|off|,
    g = |uw|: (w^(2 off) xn vd - u^(2 off) vn xd) / (uw)^off for off >= 0,
    with u and w swapped for off < 0.  The weight is 1/(vn vd) at x and at
    y.  Per term, the q^off and the 1/(xd vd) that F leaves out of each
    factor multiply to q^(2t) K / (xd yd)^2 on A21's rows (lengths n - 2,
    n - 1, n, n + 1), K being the product of the vd over A and B divided by
    that over C and D.  So with sigma = +1 the double sum over F and this
    weight, times q K, is the one over x - q^(2 off) v with the weight
    q^(1 - 2s)/(xy)."""
    u, w = q.numerator, q.denominator
    coeffs = {}  # per offset, once per evaluation

    def f(vs, x, off):
        c = coeffs.get(off)
        if c is None:
            o = abs(off)
            a, b = w ** (2 * o), u ** (2 * o)
            if off < 0:
                a, b = b, a
            if u < 0 and o % 2:  # (uw)^off = -g^off
                a, b = -a, -b
            c = coeffs[off] = a, b, o
        a, b, o = c
        xa, xb = x[0] * a, x[1] * b
        ns = []
        for vn, vd in vs:
            ns.append(xa * vd - vn * xb)
        return ns, [o] * len(ns)

    return f, abs(u * w), lambda v: (1, v[0] * v[1])


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
    f, g, weight = _a21_factors(q)
    sn, sd = _double_sum(f, g, D, A, B, C, +1, "A21", weight=weight)
    # prod(D + C) = tn / td and prod(A + B) = bn / bd; neither side is empty
    (tn, td), (bn, bd) = (map(prod, zip(*vs)) for vs in (D + C, A + B))
    # with q = u/w the double sum is q K sn/sd = u bd sn / (w td sd), and the
    # right-hand side (q - 1/q)(1 - q^2 (tn/td) / (bn/bd)) is
    # rn / (u w^3 td bn); both go over w td sd m with m = u w^2 bn
    u, w = q.numerator, q.denominator
    m = u * w * w * bn
    rn = (u * u - w * w) * (w * w * td * bn - u * u * tn * bd)
    return Fraction(u * bd * sn * m - rn * sd, w * td * sd * m)


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

# a free slot's values -12 .. 12, as randrange bounds; randrange(a, b + 1)
# is what randint(a, b) calls, so the stream, and every pinned report, is
# randint's
_RANGE = (-12, 13)
# QValue objects, not rationals: every draw reuses one of these, so the
# bracket-table lookup finds the key by identity and never runs
# QValue.__eq__.  Each comes with A21's variables q^(2e) for e in
# _RANGE, built once.
_Q_POOL = tuple((qv, tuple(qv.q ** (2 * e) for e in range(*_RANGE)))
                for qv in map(QValue.quantum, (Fraction(3, 2), 2, Fraction(5, 3),
                                               Fraction(7, 4))))


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
    qv, q_powers = rng.choice(_Q_POOL)
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
        # powers of q keep the variables in the identity's natural image
        return Assignment(qv, arrays={
            x: [q_powers[e - _RANGE[0]] for e in _randranges(rng, *_RANGE, m)]
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
