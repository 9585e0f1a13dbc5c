"""Pattern bases for highest-weight modules over the deformed algebras.

A pattern is a triangular integer array: row p (counted from the bottom,
p >= 1) holds p entries M(i, p) indexed by i in [-floor(p/2), ceil(p/2)-1].
Far enough up, every row coincides with a fixed nonincreasing boundary
sequence (the signature); the smallest such level is the stabilization
level N.  Adjacent rows interlace: read left to right by position, row p
(below) and row p + 1 (above) satisfy above[t] >= below[t] >= above[t+1]
for every position t of row p.  These arrays label an orthogonal-style
basis of the module, and the finite truncation V_N (all patterns
stabilizing at or below N) is finite dimensional, which is what makes
exhaustive verification possible.  Entry indices i appear only where the
formulas need them: the ladder coefficients, sign_s and shift.

V_N is listed by enumerate_basis, which walks the fillings table
(_fillings) level by level, top row first; numbered by basis_rank, from
the same table; and counted by basis_count, with Weyl's dimension formula,
without listing a row, so that a V_N too large to list can be refused.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, pairwise, product
from typing import Callable, Optional, Sequence

from .qnum import QValue, _Frozen, _immutable

__all__ = [
    "Signature",
    "ModuleParams",
    "module_params",
    "CPattern",
    "theta",
    "sign_s",
    "row_range",
    "shift",
    "shifted_if_valid",
    "highest_weight_pattern",
    "enumerate_basis",
    "basis_count",
    "basis_rank",
]


def theta(i: int) -> int:
    """1 for i >= 0, else 0."""
    return 1 if i >= 0 else 0


def sign_s(j: int, l: int, nu: int) -> int:
    """Sign factor: (-1)^nu when j = l, +1 when j < l, -1 when j > l."""
    if j == l:
        return -1 if nu else 1
    return 1 if j < l else -1


def row_range(p: int) -> range:
    """Index range of row p: i in [-floor(p/2), ceil(p/2)-1]."""
    if p < 1:
        return range(0, 0)
    return range(-(p // 2), (p + 1) // 2)


def _integer(value) -> int:
    """value itself when it is an int; ValueError for anything else, a bool
    included, so that a float or true read from JSON is not truncated.
    Signature, CPattern and the CLI's integer config fields read through
    it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


class Signature(_Frozen):
    """Nonincreasing boundary sequence with constant tails outside [m, n].

    values[j] is M_{m+j}; M_i = M_m for i < m and M_i = M_n for i > n.
    """

    __slots__ = ("m", "n", "values")

    def __init__(self, m: int, n: int, values: tuple[int, ...]):
        _integer(m)
        _integer(n)
        values = tuple(map(_integer, values))
        if m > n:
            raise ValueError("window requires m <= n")
        if len(values) != n - m + 1:
            raise ValueError(
                f"expected {n - m + 1} values for window "
                f"[{m}, {n}], got {len(values)}"
            )
        if any(a < b for a, b in zip(values, values[1:])):
            raise ValueError("signature values must be nonincreasing")
        # hashed on every pattern build and every enumerate_basis lookup
        self._set(m, n, values)

    def __hash__(self) -> int:
        return self._hash

    def value(self, i: int) -> int:
        if i < self.m:
            return self.values[0]
        if i > self.n:
            return self.values[-1]
        return self.values[i - self.m]

    @cache
    def row(self, p: int) -> tuple[int, ...]:
        """Row p of the stabilized region: entries M_i over the row's range.
        Memoised for the life of the process (see ``action.clear_caches``)."""
        return tuple(self.value(i) for i in row_range(p))

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "values": list(self.values)}

    @classmethod
    def from_json(cls, data: dict) -> "Signature":
        return cls(data["m"], data["n"], tuple(data["values"]))


MODES = ("a_infinity", "A_infinity")


class ModuleParams(_Frozen):
    """Module labels: signature, the two scalar labels, and the q setting."""

    __slots__ = ("signature", "xi0", "xi1", "qv", "mode")

    def __init__(self, signature: Signature, xi0: Fraction, xi1: Fraction,
                 qv: QValue, mode: str = "a_infinity"):
        xi0, xi1 = Fraction(xi0), Fraction(xi1)
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        # for q < 0 brackets change sign with parity, and the coefficients,
        # square roots of bracket ratios, no longer satisfy the relations
        if qv.q is not None and qv.q < 0:
            raise ValueError(f"q must be positive for a module (got {qv.q})")
        if mode == "A_infinity":
            if (xi0 != signature.value(signature.m)
                    or xi1 != signature.value(signature.n)):
                raise ValueError(
                    "A_infinity mode requires xi0 = M_m and xi1 = M_n"
                )
        # every action-cache lookup hashes the params; the Fractions are
        # slow to hash
        self._set(signature, xi0, xi1, qv, mode)

    def __hash__(self) -> int:
        return self._hash


@cache
def module_params(signature: Signature, xi0: Fraction, xi1: Fraction,
                  qv: QValue, mode: str) -> ModuleParams:
    """One shared ModuleParams per module, memoised for the life of the
    process (see ``action.clear_caches``).

    The memo keyed on a module (action.monomial_image) then finds an entry
    made by an earlier command by identity, without comparing the
    fields; qnum._bracket_pairs does the same with the shared
    ``qv``.
    """
    return ModuleParams(signature, xi0, xi1, qv, mode)


class CPattern:
    """Immutable pattern with explicit rows 1..N-1 and signature rows above.

    Rows are stored bottom-up (rows[0] is row 1).  Construction normalizes
    to the minimal stabilization level: trailing stored rows equal to the
    corresponding signature row are dropped (always keeping row 1, so
    N >= 2).  Equality and hashing are structural.  An entry that is not an
    int, a bool or a float included, raises ValueError, as in Signature.
    """

    __slots__ = ("sig", "rows", "_hash")

    def __init__(self, sig: Signature, rows: Sequence[Sequence[int]]):
        rows = [tuple(map(_integer, r)) for r in rows]
        if not rows:
            rows = [sig.row(1)]
        for p, r in enumerate(rows, start=1):
            if len(r) != p:
                raise ValueError(f"row {p} must have {p} entries, got {len(r)}")
        self._store(sig, _trimmed(sig, rows))

    def _store(self, sig: Signature, rows: tuple) -> None:
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", hash((sig, rows)))

    __setattr__ = __delattr__ = _immutable

    @property
    def N(self) -> int:
        """Stabilization level: rows at and above N equal the signature."""
        return len(self.rows) + 1

    def row(self, p: int) -> tuple[int, ...]:
        """Row p; the signature row above the stored rows, and the empty
        row for p < 1, as Signature.row gives."""
        if 1 <= p <= len(self.rows):
            return self.rows[p - 1]
        return self.sig.row(p)

    def __eq__(self, other):
        if not isinstance(other, CPattern):
            return NotImplemented
        return (self._hash == other._hash
                and (self.sig is other.sig or self.sig == other.sig)
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"CPattern(N={self.N}, rows={list(self.rows)})"

    def sort_key(self, level: int) -> tuple:
        """Deterministic ordering key: rows top-down from the given level."""
        return tuple(self.row(p) for p in range(level - 1, 0, -1))

    def to_json(self) -> dict:
        return {
            "signature": self.sig.to_json(),
            "N": self.N,
            "rows": [list(r) for r in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CPattern":
        return cls(Signature.from_json(data["signature"]), data["rows"])


def _trimmed(sig: Signature, rows: Sequence[tuple[int, ...]]) -> tuple:
    """rows (int tuples, row p of length p) in stored form: without the
    trailing rows that equal the signature's, row 1 always kept."""
    n = len(rows)
    while n > 1 and rows[n - 1] == sig.row(n):
        n -= 1
    return tuple(rows[:n])


@cache
def _canonical(sig: Signature, rows: tuple[tuple[int, ...], ...]) -> CPattern:
    """The one pattern of sig and rows, given in stored form (_trimmed),
    built on the first call, so that the patterns shift, enumerate_basis,
    highest_weight_pattern and the ladder branch of action.monomial_image
    return are one object per (signature, rows), and a hit builds none.
    One of three interners, with module_params and action.label.

    The memos keyed on patterns (action.monomial_image, basis_rank) and a
    PatternVector's terms then find a ladder target by identity, without
    comparing rows.  Memoised for the life of the process (see
    ``action.clear_caches``).
    """
    p = object.__new__(CPattern)
    p._store(sig, rows)
    return p


def _interlaces(below: Sequence[int], above: Sequence[int]) -> bool:
    """Row below interlaces with the row above it: above[t] >= below[t] >=
    above[t+1] at every position t of the row below."""
    for b, a, c in zip(below, above, above[1:]):
        if not a >= b >= c:
            return False
    return True


def _position(i: int, row: int) -> int:
    """Offset of entry (i, row) within its row; IndexError when outside."""
    pos = i + row // 2
    if not 0 <= pos < row:
        raise IndexError(f"index {i} outside row {row}")
    return pos


def _moved(row_of: Callable[[int], Sequence[int]],
           moves: Sequence[tuple[int, int, int]]) -> dict[int, list[int]]:
    """{row: its entries with the moves applied} for each row a move
    touches, copied from row_of; an out-of-range move raises IndexError."""
    moved: dict[int, list[int]] = {}
    for i, row, delta in moves:
        pos = _position(i, row)
        if row not in moved:
            moved[row] = list(row_of(row))
        moved[row][pos] += delta
    return moved


def shift(p: CPattern, moves: Sequence[tuple[int, int, int]]) -> CPattern:
    """Apply entry replacements M(i, row) -> M(i, row) + delta, no validation.

    Rows at or above the stabilization level are materialized as needed.
    The result is the canonical pattern of its rows (see _canonical).
    """
    if not moves:
        return p
    moved = _moved(p.row, moves)
    top = max(len(p.rows), *moved)
    rows = [*p.rows, *map(p.sig.row, range(len(p.rows) + 1, top + 1))]
    for row, r in moved.items():
        rows[row - 1] = tuple(r)
    return _canonical(p.sig, _trimmed(p.sig, rows))


def shifted_if_valid(
    p: CPattern, moves: Sequence[tuple[int, int, int]]
) -> Optional[CPattern]:
    """Shift p if the result still interlaces; None if it does not.

    Each moved row is checked with _interlaces against the rows below and
    above it, both as moved; no other pair of rows changes, and row 0,
    under row 1, is empty.  The pattern is built only when every check
    passes.  Assumes p itself is valid.

    The ladder kernel (action._ladder_window) decides its own candidates
    and never calls this.  It exists for relations.check_boundary_f, which
    builds the closed form's target here, independently of the kernel, so
    that a fault in the kernel's interlacing checks cannot hide in both
    sides of that comparison.
    """
    moved = _moved(p.row, moves)

    def row(q: int) -> Sequence[int]:
        return moved[q] if q in moved else p.row(q)

    if all(_interlaces(row(q - 1), r) and _interlaces(r, row(q + 1))
           for q, r in moved.items()):
        return shift(p, moves)
    return None


def highest_weight_pattern(sig: Signature) -> CPattern:
    """The pattern with every row equal to the signature (canonical)."""
    return _canonical(sig, (sig.row(1),))


@cache
def enumerate_basis(sig: Signature, N: int) -> tuple[CPattern, ...]:
    """All valid patterns with stabilization level <= N, in deterministic order.

    Rows are filled top-down, one level at a time: each walk (row N, row
    N-1, ..., row p+1) is extended by every key of _fillings(p, row p+1),
    in order, and each full walk is stored bottom-up without row N.  The
    order is lexicographic in (row N-1, row N-2, ..., row 1) with entries
    compared left to right, the order basis_rank counts.

    Memoised for the life of the process (see ``action.clear_caches``); the
    tuple is shared by every caller with an equal signature and level, and
    holds canonical patterns (see _canonical).
    """
    if N < 2:
        raise ValueError("N must exceed 1")
    walks = [(sig.row(N),)]
    for p in range(N - 1, 0, -1):
        walks = [w + (row,) for w in walks for row in _fillings(p, w[-1])[0]]
    return tuple(_canonical(sig, _trimmed(sig, w[:0:-1])) for w in walks)


@cache
def _fillings(p: int, above: tuple[int, ...]) -> tuple[dict, int]:
    """Given row p + 1: ({row p: fillings of rows p..1 listed before it},
    total fillings of rows p..1).

    The keys are the rows p in basis order, as enumerate_basis and
    basis_rank read them: entry t runs over above[t+1]..above[t].

    Depends on the row above only, not on the signature, so every module
    and level shares one table.  Memoised for the life of the process (see
    ``action.clear_caches``).
    """
    offsets: dict[tuple[int, ...], int] = {}
    total = 0
    for row in product(*(range(c, a + 1) for a, c in pairwise(above))):
        offsets[row] = total
        total += _fillings(p - 1, row)[1] if p > 1 else 1
    return offsets, total


def basis_count(sig: Signature, M: int) -> int:
    """len(enumerate_basis(sig, M)), found without listing a pattern or a
    row, so in time and memory that grow with M only.

    V_M holds every interlacing filling of rows M-1..1 under row M, and
    for that row (l_0, l_1, ...) Weyl's dimension formula counts them: the
    product over positions s < t of (l_s - l_t + t - s) / (t - s).

    Row M is read past the Signature.row memo: cli.RunConfig.build counts
    with each command's new Signature, which a memo hit would compare field
    by field with the first command's."""
    if M < 2:
        raise ValueError("M must exceed 1")
    num = den = 1
    for (s, a), (t, b) in combinations(
            enumerate(Signature.row.__wrapped__(sig, M)), 2):
        num *= a - b + t - s
        den *= t - s
    return num // den


@cache
def basis_rank(sig: Signature, M: int, x: CPattern) -> Optional[int]:
    """x's position in enumerate_basis(sig, M); None when x.N > M.

    x is assumed to be a valid pattern over sig.  Since the basis order is
    lexicographic on rows M-1..1, the position is the sum over rows of the
    fillings that precede x's row p under its own row p + 1.

    Memoised for the life of the process (see ``action.clear_caches``):
    a matrix export ranks each target once, however many columns reach
    it, and finds a canonical target (see _canonical) by identity.
    """
    if M < 2:
        raise ValueError("M must exceed 1")
    if x.N > M:
        return None
    r = 0
    above = sig.row(M)
    for p in range(M - 1, 0, -1):
        row = x.row(p)
        r += _fillings(p, above)[0][row]
        above = row
    return r


def _row_sum(p: CPattern, row: int) -> int:
    return sum(p.row(row))


def weight_eigenvalue(p: CPattern, i: int,
                      params: ModuleParams) -> int | Fraction:
    """Diagonal action at index i: difference of two adjacent row sums
    minus xi0 (i <= 0) or xi1 (i > 0), to which the label corrections
    (xi1 - xi0)·theta(-i) - xi1 reduce; an int when that label is
    integral, a Fraction otherwise."""
    hi_row = 2 * abs(i) + theta(i)
    val = _row_sum(p, hi_row) - _row_sum(p, hi_row - 1)
    xi = params.xi0 if i <= 0 else params.xi1
    return val - xi.numerator if xi.denominator == 1 else val - xi
