"""Generator actions on patterns and on finite linear combinations.

The lowering/raising generators move one entry in an odd row and one in the
even row directly above it by +-1; the coefficient is a square root of an
absolute value of a product/quotient of q-brackets of L-differences, where
L(i, p) = M(i, p) - i.  Candidate targets that break the interlacing
conditions are dropped (their coefficients are the ill-defined ones).  This
is decided on integers, before any arithmetic and before any pattern is
built, by patterns._interlaces on the moved rows and their neighbours, and
only a candidate that passes becomes a target pattern.
All of that reads only four rows of the pattern, the window around the two
rows that move (_window), so it is solved once per window (_ladder_window),
whose L-values are read only if some candidate interlaces.  The solution is
each target's two moved rows and its coefficient; monomial_image, the one
memo of g·p, splices them between slices of the pattern's rows and looks
the result up in patterns._canonical, so a target met before is not built
again.  One kernel, _ladder_window, builds every E/F coefficient from
_Ladder's bracket arguments.  For index -1 the lower row of the pair is
the empty row 0, so only the bottom entry moves and every factor read
from row 0 or the row below it is an empty product.
The kernel multiplies each bracket as its pair of ints, read from q's one
bracket table (qnum._bracket_pairs, which the identity corpus shares), and
combines the brackets' square classes, read from the same table's
kernels, so every E/F coefficient comes out as one monomial
(n/d)·sqrt(k), k squarefree, given as the ints (k, n, d), and no product
is ever factored.
Diagonal generators multiply the pattern by an exact rational eigenvalue,
the monomial with k = 1.  The relations' word sum and the matrix export
read these ints directly (the export encodes each distinct coefficient
once, as JSON text, through qnum._rendered).
apply_generator builds a fresh PatternVector of RadicalSums from
monomial_image; with apply_to_vector and apply_word it is the RadicalSum
oracle that the suites' int word sum is tested against, and the hw,
restrictedness and boundary suites read it for their witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt
from typing import Optional

from .qnum import QValue, RadicalSum, _bracket_pairs, _Frozen, _rendered
from .patterns import (
    CPattern,
    ModuleParams,
    Signature,
    _canonical,
    _fillings,
    _interlaces,
    _trimmed,
    basis_rank,
    enumerate_basis,
    module_params,
    row_range,
    sign_s,
    weight_eigenvalue,
)

__all__ = [
    "GeneratorLabel",
    "PatternVector",
    "ZeroDenominatorError",
    "apply_generator",
    "apply_to_vector",
    "apply_word",
    "clear_caches",
    "label",
    "monomial_image",
]


class ZeroDenominatorError(ArithmeticError):
    """A coefficient denominator vanished on a valid target: a bug signal."""


class GeneratorLabel(_Frozen):
    """One of the generators: E/F carry an integer index, H too; C has none."""

    __slots__ = ("kind", "index")  # kind: "E" | "F" | "H" | "C"

    def __init__(self, kind: str, index: Optional[int] = None):
        if kind not in ("E", "F", "H", "C"):
            raise ValueError(f"unknown generator kind {kind!r}")
        if kind == "C":
            if index is not None:
                raise ValueError("C carries no index")
        elif index is None:
            raise ValueError(f"{kind} requires an index")
        # hashed on every action-cache lookup.  hash(-1) == hash(-2), so
        # (kind, index) would make E_-1 and E_-2 collide in every memo and
        # compare fields; 2·index is never -1
        self._set(kind, index, key=(kind, None if index is None else 2 * index))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.kind if self.kind == "C" else f"{self.kind}_{self.index}"


@cache
def label(kind: str, index: Optional[int] = None) -> GeneratorLabel:
    """The shared GeneratorLabel of (kind, index), so that a memo keyed on a
    label finds it by identity, without comparing fields.  Memoised for
    the life of the process."""
    return GeneratorLabel(kind, index)


class PatternVector:
    """Finite linear combination of patterns with RadicalSum coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = {p: c for p, c in (terms or {}).items() if c}

    @classmethod
    def unit(cls, p: CPattern) -> "PatternVector":
        return cls({p: RadicalSum.from_rational(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, p: CPattern, c: RadicalSum) -> None:
        cur = self.terms.get(p)
        new = cur + c if cur is not None else c
        if new:
            self.terms[p] = new
        else:
            self.terms.pop(p, None)

    def __add__(self, other: "PatternVector") -> "PatternVector":
        out = PatternVector(self.terms)
        for p, c in other.terms.items():
            out.add_term(p, c)
        return out

    def scale(self, c: RadicalSum) -> "PatternVector":
        return PatternVector({p: v * c for p, v in self.terms.items()})

    def scale_rational(self, r) -> "PatternVector":
        return self.scale(RadicalSum.from_rational(Fraction(r)))

    def __eq__(self, other) -> bool:
        return isinstance(other, PatternVector) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "PatternVector(0)"
        return "PatternVector(" + ", ".join(
            f"{c!r}*{p!r}" for p, c in self.terms.items()
        ) + ")"

    def to_json(self) -> list:
        """Terms sorted by their rows, read top-down from the highest level
        among them."""
        if not self.terms:
            return []
        level = max(p.N for p in self.terms)
        items = sorted(self.terms.items(), key=lambda pc: pc[0].sort_key(level))
        return [
            {"pattern": p.to_json(), "coeff": c.to_json()}
            for p, c in items
        ]


# Offsets for the four ladder cases, keyed by (kind, is_negative_side):
# (o1, d1, o2, d2, delta).  o1/o2 shift the numerator bracket arguments of
# the two square-root factors, d1/d2 the second denominator bracket, delta
# is the entry shift applied at both target slots.
_CASES = {
    ("E", False): (-1, -1, 0, -1, +1),
    ("F", False): (0, +1, +1, +1, -1),
    ("E", True): (+1, +1, 0, +1, -1),
    ("F", True): (0, -1, -1, -1, +1),
}


def _ladder_rows(index: int) -> tuple[int, int]:
    """(row_a, nu) of E_index and F_index: the lower of the two rows that
    move, and the parity that sign_s reads."""
    return (2 * index + 1, 0) if index >= 0 else (-2 * index - 2, 1)


def _window_rows(index: int) -> range:
    """The row numbers row_a - 1 .. row_a + 2, the only rows that E_index
    and F_index read; rows 0 and -1 are empty."""
    row_a = _ladder_rows(index)[0]
    return range(row_a - 1, row_a + 3)


def _window(p: CPattern, index: int) -> tuple[tuple[int, ...], ...]:
    """p's rows in _window_rows(index), the key of the ladder kernel: a
    slice of the stored rows when the window ends inside them, after as
    many empty rows as it holds rows below row 1."""
    rows = _window_rows(index)
    if rows.stop > len(p.rows) + 1:
        return tuple(map(p.row, rows))
    if rows.start >= 1:
        return p.rows[rows.start - 1:rows.stop - 1]
    return ((),) * (1 - rows.start) + p.rows[:rows.stop - 1]


def _l_row(row: tuple[int, ...]) -> dict[int, int]:
    """{i: L(i, row)} across a row, read from its entries in one pass; empty
    for rows 0 and -1, which index -1 reads as empty products."""
    return {i: x - i for i, x in zip(row_range(len(row)), row)}


class _Ladder:
    """The rows and L-values that E_index or F_index reads from a window,
    the rows row_a - 1 .. row_b + 1 of a pattern (see _window).

    A candidate (j, l) moves (j, row_a) and (l, row_b) by delta, where
    row_b = row_a + 1; its coefficient is a signed square root of a ratio
    of bracket products over the L-values of the rows below, at and above.
    For index -1, row_a is the empty row 0: j takes the single slot 0, which
    moves nothing and reads nothing, and the sign -sign_s(0, 0, 1) is +1.
    """

    def __init__(self, kind: str, index: int,
                 window: tuple[tuple[int, ...], ...]):
        self.row_a, self.nu = _ladder_rows(index)
        self.row_b = self.row_a + 1
        self.o1, self.d1, self.o2, self.d2, self.delta = _CASES[(kind, index < 0)]
        below, ra, rb, above = window
        self.la = _l_row(ra)
        self.lb = _l_row(rb)
        self.lbelow = list(_l_row(below).values())
        self.labove = list(_l_row(above).values())
        self.slots_a = row_range(self.row_a) or range(1)

    def arguments(self, j: int, l: int) -> tuple[list[int], list[int]]:
        """Numerator and denominator bracket arguments of candidate (j, l):
        its coefficient is the square root of the absolute value of
        prod [num] / prod [den], up to the sign."""
        la_rest = [v for i, v in self.la.items() if i != j]
        lb_rest = [v for i, v in self.lb.items() if i != l]
        ll, o2, d2 = self.lb[l], self.o2, self.d2
        num = [v - ll + o2 for v in self.labove + la_rest]
        den = [v - ll + d for v in lb_rest for d in (0, d2)]
        if self.la:
            lj, o1, d1 = self.la[j], self.o1, self.d1
            num += [v - lj + o1 for v in lb_rest + self.lbelow]
            den += [v - lj + d for v in la_rest for d in (0, d1)]
        return num, den


def _each_moved(row: tuple[int, ...], slots: range, delta: int):
    """(i, row with the entry of index i moved by delta) for each index i
    in slots, in order.  The empty row 0 has the one slot 0, which moves
    nothing."""
    for t, i in enumerate(slots):
        yield i, row[:t] + (row[t] + delta,) + row[t + 1:] if row else row


def _products(args: list[int], pairs: dict, k: int = 1) -> tuple[int, int, int]:
    """(product of numerators, product of denominators, square class) of
    the brackets of args, read from pairs, the bracket table of q
    (qnum._bracket_pairs), and its kernels.  The square class is the
    squarefree kernel of k times |n|·d of each bracket, combined without
    factoring: sqrt(k)·sqrt(kx) = h·sqrt((k/h)·(kx/h)) with h = gcd(k, kx).
    """
    kernels = pairs.kernels
    n = d = 1
    for x in args:
        xn, xd = pairs[x]
        n *= xn
        d *= xd
        kx = kernels[x]
        h = gcd(k, kx)
        k = (k // h) * (kx // h)
    return n, d, k


@cache
def _ladder_window(
    kind: str, index: int, window: tuple[tuple[int, ...], ...], qv: QValue
) -> tuple[tuple[int, int, tuple, tuple, int, int, int], ...]:
    """E_index or F_index on every pattern with this window: check, then
    solve.

    Returns (j, l, row_a moved, row_b moved, k, n, d) for each candidate
    whose target interlaces and whose coefficient (n/d)·sqrt(k) is
    nonzero, in (j, l) order, with k squarefree, d > 0 and gcd(n, d) = 1.
    A candidate whose denominator vanishes ends the tuple with d = 0, a
    marker that the caller raises on: an exception is not memoised and
    could not name the caller's pattern.

    A candidate moves (j, row_a) and (l, row_b = row_a + 1) by the same
    delta.  Only three pairs of rows change, and the window holds all of
    them, so three _interlaces checks decide a candidate exactly: row_a
    with j moved over the row below it (once per j), row_b with l moved
    under the row above it (once per l), and the two moved rows (once per
    pair that passes both).  For index -1, row_a is the empty row 0, which
    interlaces under any row, moves nothing and is returned as ().  The
    checks run first, and _Ladder reads the L-values only if a pair passes.
    The brackets of each candidate's arguments (_Ladder.arguments), read from
    q's bracket table, are multiplied as int pairs into a/b over c/d, and
    their kernels, from the same table, are combined into the squarefree
    kernel k of |a|·b·|c|·d.  |a·d| / |b·c| is reduced by one gcd to N/D;
    N·D differs from that product by a square, so N·D = s²·k with
    s = isqrt(N·D // k), and the coefficient is ±(s/D)·sqrt(k).  No
    product is factored and no Fraction is built.

    The window holds every row these steps read, and no pattern, so every
    pattern with the same four rows shares one entry.  _CASES and sign_s
    are read here, at call time, so a patch of either reaches the kernel
    once clear_caches() has emptied it.  Memoised for the life of the
    process.
    """
    row_a, delta = _ladder_rows(index)[0], _CASES[(kind, index < 0)][4]
    below, ra, rb, above = window
    slots_a = row_range(row_a) or range(1)
    js = [(j, ra_j) for j, ra_j in _each_moved(ra, slots_a, delta)
          if _interlaces(below, ra_j)]
    ls = [(l, rb_l) for l, rb_l in _each_moved(rb, row_range(row_a + 1), delta)
          if _interlaces(rb_l, above)]
    passed = [(j, l, ra_j, rb_l) for j, ra_j in js for l, rb_l in ls
              if _interlaces(ra_j, rb_l)]
    if not passed:
        return ()
    lad = _Ladder(kind, index, window)
    pairs = _bracket_pairs(qv)
    out = []
    for j, l, ra_j, rb_l in passed:
        num_args, den_args = lad.arguments(j, l)
        # num/den = (a/b) / (c/d) = (a*d) / (b*c); b and d are positive
        a, b, k = _products(num_args, pairs)
        if not a:
            continue
        c, d, k = _products(den_args, pairs, k)
        if not c:
            out.append((j, l, ra_j, rb_l, 0, 0, 0))
            return tuple(out)
        num, den = abs(a * d), abs(b * c)
        g = gcd(num, den)
        num, den = num // g, den // g
        s = isqrt(num * den // k)
        g = gcd(s, den)
        out.append((j, l, ra_j, rb_l, k, -sign_s(j, l, lad.nu) * (s // g),
                    den // g))
    return tuple(out)


def apply_generator(
    g: GeneratorLabel, p: CPattern, params: ModuleParams
) -> PatternVector:
    """g·p as a new PatternVector with the coefficient
    RadicalSum({k: n/d}) of each entry of monomial_image (read through
    this module's name, so a patched image reaches it), summing entries of
    one target.  Not memoised: the caller may change the vector.  Only
    the suites' witnesses and the RadicalSum oracle read it.  A zero
    denominator raises, naming p."""
    v = PatternVector()
    for target, k, n, d in monomial_image(g, p, params):
        v.add_term(target, RadicalSum({k: Fraction(n, d)}))
    return v


def apply_to_vector(
    g: GeneratorLabel, v: PatternVector, params: ModuleParams
) -> PatternVector:
    """Linear extension of apply_generator."""
    out = PatternVector()
    for p, c in v.terms.items():
        image = apply_generator(g, p, params)
        for p2, c2 in image.terms.items():
            out.add_term(p2, c2 * c)
    return out


def apply_word(
    word, p: CPattern, params: ModuleParams
) -> PatternVector:
    """Apply a product of generators, rightmost factor first."""
    v = PatternVector.unit(p)
    for g in reversed(list(word)):
        if v.is_zero():
            break
        v = apply_to_vector(g, v, params)
    return v


@cache
def monomial_image(
    g: GeneratorLabel, p: CPattern, params: ModuleParams
) -> tuple[tuple[CPattern, int, int, int], ...]:
    """g·p as (target, k, n, d) for each term (n/d)·sqrt(k), k squarefree,
    d > 0 and gcd(n, d) = 1: one entry per canonical target, in the
    kernel's (j, l) order.  H and C give (p, 1, n, d), or nothing for a zero
    eigenvalue.  E and F splice the moved rows of p's window solution
    (_ladder_window) between slices of p's rows, padded with signature rows
    up to row_b, and look the result up in patterns._canonical, which
    builds a pattern only for rows it has not met; a zero denominator
    raises on every call, naming (j, l) and p.  Ints and shared patterns
    only, so no caller can change what a later call returns.  Memoised for
    the life of the process.
    """
    if g.kind in ("H", "C"):
        r = (weight_eigenvalue(p, g.index, params) if g.kind == "H"
             else params.xi0 - params.xi1)
        return ((p, 1, r.numerator, r.denominator),) if r else ()
    solved = _ladder_window(g.kind, g.index, _window(p, g.index), params.qv)
    if not solved:
        return ()
    row_a = _ladder_rows(g.index)[0]
    sig = p.sig
    rows = p.rows + tuple(map(sig.row, range(len(p.rows) + 1, row_a + 2)))
    head, tail = rows[:row_a - 1] if row_a else (), rows[row_a + 1:]
    out = []
    for j, l, ra_j, rb_l, k, n, d in solved:
        if not d:
            raise ZeroDenominatorError(
                f"{g}: zero denominator on valid target "
                f"(j={j}, l={l}) of {p!r}"
            )
        moved = (ra_j, rb_l) if row_a else (rb_l,)
        out.append((_canonical(sig, _trimmed(sig, head + moved + tail)),
                    k, n, d))
    return tuple(out)


def _eigenvalue(d: GeneratorLabel, p: CPattern,
                params: ModuleParams) -> Optional[int | Fraction]:
    """The rational r with d·p = r·p, read from monomial_image: an int when
    integral, a Fraction otherwise, None when d·p has another form."""
    image = monomial_image(d, p, params)
    if not image:
        return 0
    if len(image) != 1:
        return None
    target, k, n, den = image[0]
    if k != 1 or target != p:
        return None
    return n if den == 1 else Fraction(n, den)


# The memos, captured at import, so that a name rebound later (a test patch,
# a tracing wrapper) can neither hide one nor make clear_caches() raise.
_MEMOS = (_bracket_pairs, _rendered,
          module_params, Signature.row, enumerate_basis, _fillings,
          basis_rank, _canonical, label, _ladder_window, monomial_image)


def clear_caches() -> None:
    """Empty every memo, 11 in all: the bracket tables (_bracket_pairs, one
    per q, which qbracket and both kernels read, each with the square
    classes that only the ladder kernel reads), the JSON-encoded
    coefficients and decimals of the matrix export
    (_rendered, keyed on the ints (k, n, d)), module_params, Signature.row,
    enumerate_basis, _fillings, basis_rank, the canonical patterns, labels,
    the ladder windows, and monomial_image, the one memo of g·p
    (apply_generator is a view of it, not a memo).
    Patterns and labels built after this are new objects, and a patched
    _CASES or sign_s reaches every window.  The Cartan suite's
    relations.ShiftTable is no memo: each run of the suite builds its
    own."""
    for memo in _MEMOS:
        memo.cache_clear()
