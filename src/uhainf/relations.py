"""Exact verification suites for the defining relations and truncation bounds.

Every check computes a residual vector in exact arithmetic and passes only
when the residual is identically zero (the empty radical sum on every
pattern).  Failures carry the offending pattern and residual as witnesses.
A relation given as words is summed once, on ints (_word_sum): the same
sum decides it and, where it is nonzero, is its witness.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Optional, Sequence

from .qnum import RadicalSum, qbracket, radical_of
from .patterns import (
    CPattern,
    ModuleParams,
    Signature,
    enumerate_basis,
    highest_weight_pattern,
    shifted_if_valid,
    theta,
    weight_eigenvalue,
)
from .action import (GeneratorLabel, PatternVector, ZeroDenominatorError,
                     _eigenvalue, _window_rows, apply_generator, label,
                     monomial_image)
from .report import CheckReport

__all__ = [
    "CheckReport",
    "ShiftTable",
    "check_cartan",
    "check_serre",
    "check_highest_weight",
    "check_restrictedness",
    "check_boundary_f",
    "check_charge",
]


def _E(i: int) -> GeneratorLabel:
    return label("E", i)


def _F(i: int) -> GeneratorLabel:
    return label("F", i)


def _H(i: int) -> GeneratorLabel:
    return label("H", i)


def _C() -> GeneratorLabel:
    return label("C")


@contextmanager
def _witness_zero_denominator(report: CheckReport, p: Optional[CPattern]):
    """A ZeroDenominatorError in the block ends it as a failure witness of p."""
    try:
        yield
    except ZeroDenominatorError as exc:
        report.record(p, None, note=f"zero denominator: {exc}")


# A relation at p is a sum of rational multiples of words applied to p,
# words given leftmost factor first; the empty word is the identity.
Terms = Sequence[tuple[Fraction, tuple[GeneratorLabel, ...]]]


def _commutator(a: GeneratorLabel, b: GeneratorLabel) -> list:
    return [(1, (a, b)), (-1, (b, a))]


def _add_pair(acc: dict, key, n: int, d: int) -> None:
    """acc[key] += n/d on unreduced (numerator, denominator) int pairs."""
    cur = acc.get(key)
    if cur is not None:
        n0, d0 = cur
        n, d = (n0 + n, d) if d0 == d else (n0 * d + n * d0, d0 * d)
    acc[key] = (n, d)


def _word_sum(terms: Terms, p: CPattern, params: ModuleParams) -> dict:
    """The terms summed on p, exactly on ints: {(pattern, k): (n, d)} for
    each nonzero term (n/d)·sqrt(k)·pattern of the residual.

    Each E/F coefficient is a sum of monomials (n/d)·sqrt(k), k squarefree
    (action.monomial_image), and sqrt(k1)·sqrt(k2) = h·sqrt(k1·k2/h^2)
    with h = gcd(k1, k2), so the words' paths sum per (pattern, k).  Roots
    of distinct squarefree ints are linearly independent over the
    rationals, so the residual is zero exactly when the sum is empty.  The
    sums run on unreduced int pairs, so no gcd is taken of a sum: a sum is
    zero exactly when its numerator is.  Words are applied in the order of
    the terms, so the first ZeroDenominatorError raised is always the same.
    """
    total: dict[tuple[CPattern, int], tuple[int, int]] = {}
    for c, word in terms:
        # ints have a numerator and a denominator too
        v = {(p, 1): (c.numerator, c.denominator)}
        for g in reversed(word):
            out: dict[tuple[CPattern, int], tuple[int, int]] = {}
            for (p1, k1), (n1, d1) in v.items():
                for p2, k2, n2, d2 in monomial_image(g, p1, params):
                    h = gcd(k1, k2)
                    _add_pair(out, (p2, k1 * k2 // (h * h)), n1 * n2 * h,
                              d1 * d2)
            v = {key: nd for key, nd in out.items() if nd[0]}
        for key, (n, d) in v.items():
            _add_pair(total, key, n, d)
    return {key: nd for key, nd in total.items() if nd[0]}


def _record_residual(report: CheckReport, terms: Terms, p: CPattern,
                     params: ModuleParams, note: str = "") -> bool:
    """Whether the terms vanish on p (_word_sum).  A nonzero sum is
    recorded as the witness of p, and a zero denominator as its note."""
    try:
        total = _word_sum(terms, p, params)
    except ZeroDenominatorError as exc:
        report.record(p, None, note=f"zero denominator: {exc}")
        return False
    if not total:
        return True
    coeffs: dict[CPattern, dict[int, Fraction]] = {}
    for (q, k), (n, d) in total.items():
        coeffs.setdefault(q, {})[k] = Fraction(n, d)
    report.record(p, PatternVector({q: RadicalSum(c)
                                    for q, c in coeffs.items()}), note=note)
    return False


def _apart(i: int, j: int) -> bool:
    """Whether neither index moves a row in the other's window: E_k and F_k
    move the middle two rows of _window_rows(k), |row_a(i) - row_a(j)| >= 3."""
    wi, wj = _window_rows(i), _window_rows(j)
    return not (set(wi[1:3]) & set(wj) or set(wj[1:3]) & set(wi))


def _commute_by_locality(a: GeneratorLabel, b: GeneratorLabel, p: CPattern,
                         params: ModuleParams) -> bool:
    """Whether [a, b] = 0 at p follows from _apart: each letter sees the
    same window before and after the other acts.  False when a·p or b·p
    raises a zero denominator, which the words then record."""
    try:
        monomial_image(a, p, params), monomial_image(b, p, params)
    except ZeroDenominatorError:
        return False
    return True


def _decide_words(report: CheckReport, letters: tuple[GeneratorLabel, ...],
                  params: ModuleParams):
    """words(terms, p, note="") for one report: decide at p a relation whose
    words use only the two letters (E or F), once per window of rows.

    E_k and F_k read and move only the rows of action._window(p, k), and
    their coefficients depend on those rows alone (the ladder is solved
    per window).  So a word's residual at p depends only on p's rows in
    the union of its letters' windows, and a proof at one pattern holds at
    every pattern with the same rows there: its residual is the same sum,
    carried to other patterns by the same moves.  The key is p's rows at
    those row numbers (action._window_rows), the signature rows filling in
    those that p does not store, so that equal rows give one key; rows
    between two far-apart windows are read by no letter and stay out.
    A key is kept only after the exact sum (_record_residual), or
    locality, proves the relation at a pattern; a pattern that fails, or
    raises a zero denominator, records its own witness, and the next
    pattern with its key is decided again.

    Letters that are _apart (Serre b/c and Cartan i == j never are) form a
    commutator, and a new key of theirs is proved by locality without the
    sum unless a letter raises at p (_commute_by_locality).  Two equal
    letters (Serre a at i == j) form [a, a], whose two words are the same:
    a new key is proved by applying the word once, a·p and then a on each
    target, with no sum; a zero denominator there is recorded as
    _record_residual records it.
    """
    a, b = letters
    same, apart = a == b, _apart(a.index, b.index)
    rows = sorted({r for g in letters for r in _window_rows(g.index)
                   if r >= 1})
    key_of = itemgetter(*(r - 1 for r in rows))
    sig_rows = tuple(map(params.signature.row, range(1, rows[-1] + 1)))
    decided: set[tuple[tuple[int, ...], ...]] = set()

    def words(terms: Terms, p: CPattern, note: str = "") -> None:
        key = key_of(p.rows + sig_rows[len(p.rows):])
        if key in decided:
            return
        if same:
            with _witness_zero_denominator(report, p):
                for target, *_ in monomial_image(a, p, params):
                    monomial_image(a, target, params)
                decided.add(key)
        elif ((apart and _commute_by_locality(a, b, p, params))
                or _record_residual(report, terms, p, params, note)):
            decided.add(key)

    return words


class _Eigenvalues(dict):
    """{p: the eigenvalue of d at p}, read through _eigenvalue on first ask:
    an int when integral, a Fraction otherwise, None when d·p is not a
    rational multiple of p."""

    def __init__(self, d: GeneratorLabel, params: ModuleParams):
        super().__init__()
        self.d, self.params = d, params

    def __missing__(self, p: CPattern):
        r = self[p] = _eigenvalue(self.d, p, self.params)
        return r


class ShiftTable:
    """The Cartan suite's diagonal families on one basis, decided once for
    every index pair that reports them.

    A family [d, g] = shift·g has d diagonal (C or H_i) and g one of H_j,
    E_j, F_j.  Where d acts on p and on every target p' of g·p by rational
    eigenvalues with d(p') - d(p) = shift, [d, g]·p - shift·g·p = sum a_p'
    (d(p') - d(p) - shift)·p' is zero exactly; it holds too when g·p = 0.
    The eigenvalues and targets are read from action.monomial_image, as the
    words read them, so a broken H or C action is seen.  failing(d, g,
    shift) is the set of basis positions where this test does not decide
    the family: the report builds the word residual there, and records it
    if nonzero.

    Each eigenvalue of a pattern is read once, each g·p once, and each
    (d, g, shift) cell is decided once, so [c, e_j] is decided once for
    every i.  A g·p that raises a zero denominator is not kept: its position
    fails in each of g's cells, and the report calls g·p again at that
    family, so it raises in every report that meets it.  The table holds
    no memo: it lives as long as its owner keeps it, one run of the suite
    in cli._run_suite.
    """

    def __init__(self, basis: Sequence[CPattern], params: ModuleParams):
        self.basis, self.params = basis, params
        self._eigenvalues: dict[GeneratorLabel, _Eigenvalues] = {}
        self._targets: dict[GeneratorLabel, list] = {}
        self._cells: dict[tuple, frozenset[int]] = {}

    def _targets_of(self, g: GeneratorLabel) -> list:
        """The monomial_image of g·p for each basis pattern p, None where it
        raises."""
        targets = self._targets.get(g)
        if targets is None:
            targets = []
            for p in self.basis:
                try:
                    targets.append(monomial_image(g, p, self.params))
                except ZeroDenominatorError:
                    targets.append(None)
            self._targets[g] = targets
        return targets

    def failing(self, d: GeneratorLabel, g: GeneratorLabel,
                shift: int) -> frozenset[int]:
        """The basis positions where [d, g] = shift·g is not decided."""
        key = (d, g, shift)
        cell = self._cells.get(key)
        if cell is not None:
            return cell
        ev = self._eigenvalues.get(d)
        if ev is None:
            ev = self._eigenvalues[d] = _Eigenvalues(d, self.params)
        fails = []
        for pos, (p, targets) in enumerate(zip(self.basis,
                                               self._targets_of(g))):
            base = None if targets is None else ev[p]
            if base is None:
                fails.append(pos)
                continue
            for t, _, _, _ in targets:
                e = ev[t]
                if e is None or e - base != shift:
                    fails.append(pos)
                    break
        cell = self._cells[key] = frozenset(fails)
        return cell


def _diagonal_residuals(report: CheckReport, failing: list, pos: int,
                        p: CPattern, params: ModuleParams) -> bool:
    """Record the word residual of each family in failing that fails at
    position pos; False when a zero denominator ends pattern p.

    g·p is applied first, outside _record_residual (which records a zero
    denominator and returns), so a zero denominator ends p at the first
    family that meets it and skips p's later families and its words, as
    in a report built from words alone.
    """
    with _witness_zero_denominator(report, p):
        for d, g, shift, note, fails in failing:
            if pos in fails:
                monomial_image(g, p, params)
                _record_residual(report, _commutator(d, g) + [(-shift, (g,))],
                                 p, params, note)
        return True
    return False


def check_cartan(i: int, j: int, basis: Sequence[CPattern],
                 params: ModuleParams,
                 shifts: Optional[ShiftTable] = None) -> CheckReport:
    """All Cartan-type relations for the index pair (i, j) on the given basis.

    Covers: centrality of the central element, commuting diagonal
    generators, the diagonal action on raising/lowering generators, the
    bracket pairing at equal index, and vanishing mixed brackets.  The
    four families whose left factor is diagonal are read from the shift
    table (a new one unless the caller shares one across index pairs), and
    [e_i, f_j] is first decided by locality when i and j are far apart, or
    else by an exact int sum over its words, which is recorded as the
    witness where it is nonzero (_record_residual).

    [e_i, f_j] is decided once per window of rows (see _decide_words).
    The diagonal families are decided per pattern, and the bracket
    argument of [e_i, f_i] with its non-integer check stays per pattern: a
    diagonal generator may read rows outside any window (h_0 does under
    the H-reads-next-index mutation).  `checked` counts patterns.
    """
    if shifts is None:
        shifts = ShiftTable(basis, params)
    elif shifts.basis is not basis or shifts.params != params:
        raise ValueError("the shift table was built for another basis or module")
    report = CheckReport("cartan", {"i": i, "j": j})
    delta = (1 if i == j else 0) - (1 if i == j + 1 else 0)
    # (d, g, shift): [d, g] = shift·g with d diagonal.  c is central,
    # diagonal generators commute, and [h_i, e_j] = (delta_ij - delta_i,j+1) e_j
    # with the opposite shift on f_j
    diagonal = [(_C(), g, 0, f"[c,{g}] != 0") for g in (_H(j), _E(j), _F(j))] + [
        (_H(i), _H(j), 0, f"[h_{i},h_{j}] != 0"),
        (_H(i), _E(j), delta, f"[h_{i},e_{j}] mismatch"),
        (_H(i), _F(j), -delta, f"[h_{i},f_{j}] mismatch"),
    ]
    failing = [(d, g, shift, note, fails) for d, g, shift, note in diagonal
               if (fails := shifts.failing(d, g, shift))]
    if i != j:
        terms, note = _commutator(_E(i), _F(j)), f"[e_{i},f_{j}] != 0"
    else:
        # the c term of [e_i, f_i]'s bracket argument
        c_term = (theta(-i) - theta(-i - 1)) * (params.xi0 - params.xi1)
        if c_term.denominator == 1:
            c_term = c_term.numerator
    words = _decide_words(report, (_E(i), _F(j)), params)
    for pos, p in enumerate(basis):
        report.checked += 1
        if failing and not _diagonal_residuals(report, failing, pos, p, params):
            continue
        if i == j:
            # [e_i, f_i] = bracket of the integer eigenvalue of
            # h_i - h_{i+1} + (theta(-i) - theta(-i-1)) c; h_i and
            # h_{i+1} read only rows of window i
            lam = (weight_eigenvalue(p, i, params)
                   - weight_eigenvalue(p, i + 1, params) + c_term)
            if lam.denominator != 1:
                report.record(p, None, note=f"non-integer bracket argument {lam}")
                continue
            terms = _commutator(_E(i), _F(i)) + [
                (-qbracket(int(lam), params.qv), ())]
            note = f"[e_{i},f_{i}] mismatch"
        words(terms, p, note)
    return report


def check_serre(family: str, variant: str, i: int, j: Optional[int],
                basis: Sequence[CPattern], params: ModuleParams) -> CheckReport:
    """One Serre relation instance on every basis pattern.

    family "E" or "F"; variant "a" ([x_i, x_j] = 0 for |i-j| != 1),
    "b" (x_i^2 x_{i+1} - [2] x_i x_{i+1} x_i + x_{i+1} x_i^2 = 0) or
    "c" (the mirror with i and i+1 swapped).

    Each instance is decided once per window of rows (see _decide_words),
    and `checked` counts patterns.
    """
    if family not in ("E", "F"):
        raise ValueError("family must be E or F")
    mk = _E if family == "E" else _F
    if variant == "a":
        if j is None or abs(i - j) == 1:
            raise ValueError("variant a requires j with |i-j| != 1")
        letters = (mk(i), mk(j))
        terms = _commutator(*letters)
    elif variant in ("b", "c"):
        a, b = (mk(i), mk(i + 1)) if variant == "b" else (mk(i + 1), mk(i))
        terms = [(1, (a, a, b)), (-qbracket(2, params.qv), (a, b, a)),
                 (1, (b, a, a))]
        letters = (a, b)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    report = CheckReport(f"serre-{family}{variant}", {"i": i, "j": j})
    words = _decide_words(report, letters, params)
    for p in basis:
        report.checked += 1
        words(terms, p)
    return report


def check_highest_weight(params: ModuleParams,
                         window: tuple[int, int]) -> CheckReport:
    """Raising generators kill the top pattern; diagonal eigenvalues match
    the closed forms M_i - xi1 (i >= 1) and M_i - xi0 (i <= 0), read both
    from the action (action._eigenvalue, with the apply_generator view as
    the witness) and straight from the row-sum formula."""
    report = CheckReport("highest-weight", {"window": list(window)})
    hw = highest_weight_pattern(params.signature)
    sig = params.signature
    for i in range(window[0], window[1] + 1):
        report.checked += 1
        with _witness_zero_denominator(report, hw):
            ev = apply_generator(_E(i), hw, params)
            if not ev.is_zero():
                report.record(hw, ev, note=f"e_{i} does not annihilate")
        expected = Fraction(sig.value(i)) - (params.xi1 if i >= 1 else params.xi0)
        if _eigenvalue(_H(i), hw, params) != expected:
            report.record(hw, apply_generator(_H(i), hw, params),
                          note=f"h_{i} eigenvalue != {expected}")
        # independent evaluation straight from the row-sum formula
        if weight_eigenvalue(hw, i, params) != expected:
            report.record(hw, None, note=f"row-sum eigenvalue mismatch at {i}")
    return report


def _vanishing_bounds(
    sig: Signature, N: int
) -> tuple[dict[str, tuple[Fraction, Fraction]], Fraction]:
    """The vanishing intervals on V_N and the common radius r_N.

    Each kind maps to (lo, hi): it may act nonzero on V_N only for
    lo < k < hi.  Every interval lies inside |k| < r_N (-r_N <= lo and
    hi <= r_N), so beyond the radius every generator acts as zero.
    """
    m, n = sig.m, sig.n
    intervals = {
        "E": (Fraction(-(N + 1), 2), Fraction(N - 2, 2)),
        "F": (min(Fraction(-(N + 3), 2), Fraction(m - 1)),
              max(Fraction(N, 2), Fraction(n))),
        "H": (min(Fraction(-(N + 1), 2), Fraction(m)),
              max(Fraction(N, 2), Fraction(n))),
    }
    return intervals, max(Fraction(N + 3, 2), Fraction(1 - m), Fraction(n))


def check_restrictedness(params: ModuleParams, N: int) -> CheckReport:
    """Vanishing of high-index generators on the truncation V_N.

    Verifies the three vanishing intervals and stability of V_N under
    in-range raising generators, at every index up to two past the common
    radius.  The intervals lie inside the radius, so an index past it is
    outside every interval and its vanishing is checked there.  Witness
    searches for the innermost index on each side of each interval are
    recorded under params["tightness"].
    """
    basis = enumerate_basis(params.signature, N)
    intervals, r_N = _vanishing_bounds(params.signature, N)
    span = int(r_N) + 2
    indices = range(-span, span + 1)
    report = CheckReport(
        "restrictedness",
        {"N": N, "r_N": str(r_N), "span": span, "tightness": {}},
    )

    def nonzero_witness(kind: str, k: int):
        g = label(kind, k)
        for p in basis:
            if monomial_image(g, p, params):
                return p
        return None

    for k in indices:
        report.checked += 1
        with _witness_zero_denominator(report, None):
            for kind, (lo, hi) in intervals.items():
                g = label(kind, k)
                if not lo < k < hi:
                    w = nonzero_witness(kind, k)
                    if w is not None:
                        image = None if kind == "H" else apply_generator(g, w, params)
                        report.record(w, image,
                                      note=f"{kind.lower()}_{k} nonzero outside interval")
                elif kind == "E":
                    # stability: in-range raising generators keep V_N inside V_N
                    for p in basis:
                        for p2, _, _, _ in monomial_image(g, p, params):
                            if p2.N > N:
                                report.record(p, None,
                                              note=f"e_{k} escapes V_{N} to level {p2.N}")

    tight = report.params["tightness"]
    with _witness_zero_denominator(report, None):
        for kind, (lo, hi) in intervals.items():
            # never empty: for N >= 2 the E interval holds -1, F and H hold 0
            inside = [k for k in indices if lo < k < hi]
            for side, k in (("low", min(inside)), ("high", max(inside))):
                w = nonzero_witness(kind, k)
                tight[f"{kind}:{side}"] = {
                    "index": k,
                    "witness": None if w is None else w.to_json(),
                }
    return report


def check_boundary_f(params: ModuleParams, N: int, k: int) -> CheckReport:
    """For k >= N/2 the lowering action collapses to a single closed-form
    term (or to zero once the signature is constant past k)."""
    if 2 * k < N:
        raise ValueError("requires k >= N/2")
    sig = params.signature
    report = CheckReport("boundary-f", {"N": N, "k": k})
    basis = enumerate_basis(sig, N)
    mk, mk1 = sig.value(k), sig.value(k + 1)
    for p in basis:
        report.checked += 1
        with _witness_zero_denominator(report, p):
            general = apply_generator(_F(k), p, params)
            if k >= sig.n and not general.is_zero():
                report.record(p, general, note=f"f_{k} nonzero with k >= n")
            # general minus the closed form -sqrt|[M_{k+1} - M_k]|·target
            res = PatternVector(general.terms)
            if mk1 != mk:
                target = shifted_if_valid(p, [(k, 2 * k + 1, -1), (k, 2 * k + 2, -1)])
                if target is not None:
                    res.add_term(target, radical_of(abs(qbracket(mk1 - mk, params.qv))))
            if not res.is_zero():
                report.record(p, res, note="general vs closed form mismatch")
    return report


def check_charge(params: ModuleParams, window_cap: int) -> CheckReport:
    """Eigenvalue of the summed diagonal operator on the top pattern.

    The tails of the eigenvalue series vanish exactly when the scalar
    labels match the signature tails; then the partial sums over |i| <= W
    stabilize at W = max(|m|, n).  A mismatched label makes the series
    divergent, which is reported as a failure.
    """
    sig = params.signature
    m, n = sig.m, sig.n
    hw = highest_weight_pattern(sig)
    report = CheckReport("charge", {"window_cap": window_cap})
    tail_lo = Fraction(sig.value(m)) - params.xi0
    tail_hi = Fraction(sig.value(n)) - params.xi1
    if tail_lo != 0 or tail_hi != 0:
        report.checked += 1
        report.record(hw, None,
                      note=f"divergent: tail terms {tail_lo} (low), {tail_hi} (high)")
        return report
    total = sum(
        (Fraction(sig.value(i)) - params.xi0 for i in range(m, 1)), Fraction(0)
    ) + sum((Fraction(sig.value(i)) - params.xi1 for i in range(1, n + 1)), Fraction(0))
    w_star = max(abs(m), n)
    report.params["eigenvalue"] = str(total)
    report.params["stabilizes_at"] = w_star
    for w in range(0, window_cap + 1):
        report.checked += 1
        partial = sum(
            (weight_eigenvalue(hw, i, params) for i in range(-w, w + 1)), Fraction(0)
        )
        if w >= w_star and partial != total:
            report.record(hw, None, note=f"partial sum at W={w} is {partial}")
    return report
