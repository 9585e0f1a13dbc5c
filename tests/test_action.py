import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from uhainf import (
    CPattern,
    GeneratorLabel,
    ModuleParams,
    PatternVector,
    QValue,
    RadicalSum,
    Signature,
    apply_generator,
    apply_to_vector,
    apply_word,
    enumerate_basis,
    highest_weight_pattern,
)
from uhainf import action, cli, identities, patterns, qnum, relations
from uhainf.action import ZeroDenominatorError, _Ladder, _window, clear_caches
from uhainf.patterns import (module_params, row_range, shift, shifted_if_valid,
                             sign_s, weight_eigenvalue)
from uhainf.qnum import qbracket


def E(i):
    return GeneratorLabel("E", i)


def F(i):
    return GeneratorLabel("F", i)


def H(i):
    return GeneratorLabel("H", i)


C = GeneratorLabel("C")

ONE = RadicalSum.from_rational(1)

MID = ["--signature=-1:1:2,1,0", "--xi0", "2", "--xi1", "0", "--q", "3/2"]


class TestGeneratorLabel:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorLabel("X", 0)
        with pytest.raises(ValueError):
            GeneratorLabel("E")
        with pytest.raises(ValueError):
            GeneratorLabel("C", 3)

    def test_str(self):
        assert str(E(-2)) == "E_-2"
        assert str(C) == "C"


class TestPatternVector:
    def test_zero_terms_dropped(self, sig_mid):
        hw = highest_weight_pattern(sig_mid)
        v = PatternVector({hw: RadicalSum()})
        assert v.is_zero()
        v = PatternVector.unit(hw) + PatternVector.unit(hw).scale_rational(-1)
        assert v.is_zero()
        assert PatternVector.unit(hw).scale(RadicalSum()).is_zero()
        other = CPattern(sig_mid, [(2,)])
        v = PatternVector.unit(hw)
        v.add_term(other, RadicalSum())  # absent pattern
        v.add_term(hw, RadicalSum())  # present pattern
        assert v.terms == {hw: ONE}
        v.add_term(hw, -ONE)  # the term's negation removes the pattern
        assert v.terms == {}

    def test_linear_ops(self, sig_mid):
        hw = highest_weight_pattern(sig_mid)
        other = CPattern(sig_mid, [(2,)])
        v = PatternVector.unit(hw) + PatternVector.unit(other).scale_rational(2)
        w = v.scale(RadicalSum({2: Fraction(1)}))
        assert w.terms[hw] == RadicalSum({2: Fraction(1)})
        assert w.terms[other] == RadicalSum({2: Fraction(2)})
        assert (v + v.scale_rational(-1)).is_zero()
        assert (v.scale_rational(-1) + v).is_zero()

    def test_to_json_sorted_deterministic(self, sig_mid):
        a = CPattern(sig_mid, [(1,)])
        b = CPattern(sig_mid, [(2,)])
        v = PatternVector.unit(b) + PatternVector.unit(a)
        w = PatternVector.unit(a) + PatternVector.unit(b)
        assert v.to_json() == w.to_json()
        assert [t["pattern"]["rows"] for t in v.to_json()] == [[[1]], [[2]]]


class TestDiagonal:
    def test_central_scalar(self, params_mid):
        hw = highest_weight_pattern(params_mid.signature)
        for p in enumerate_basis(params_mid.signature, 3):
            v = apply_generator(C, p, params_mid)
            assert v.terms == {p: RadicalSum.from_rational(Fraction(2))}
        assert apply_generator(C, hw, params_mid).terms[hw] == RadicalSum.from_rational(2)

    def test_h_diagonal(self, params_mid):
        for p in enumerate_basis(params_mid.signature, 3):
            for i in range(-3, 4):
                v = apply_generator(H(i), p, params_mid)
                lam = weight_eigenvalue(p, i, params_mid)
                if lam == 0:
                    assert v.is_zero()
                else:
                    assert v.terms == {p: RadicalSum.from_rational(lam)}


class TestLadder:
    def test_e_kills_highest_weight(self, params_mid):
        hw = highest_weight_pattern(params_mid.signature)
        for i in range(-6, 7):
            assert apply_generator(E(i), hw, params_mid).is_zero()

    def test_frozen_f0_on_hw(self, params_mid):
        # hand evaluation: single surviving candidate, bracket ratio [1][-1]
        # over an empty denominator, net coefficient -1
        hw = highest_weight_pattern(params_mid.signature)
        v = apply_generator(F(0), hw, params_mid)
        target = CPattern(params_mid.signature, [(0,), (2, 0)])
        assert v.terms == {target: RadicalSum.from_rational(-1)}

    def test_frozen_f_minus1_on_hw(self, params_mid):
        # bottom-entry action: coefficient sqrt([1][1]) = 1, raising M(0,1)
        hw = highest_weight_pattern(params_mid.signature)
        v = apply_generator(F(-1), hw, params_mid)
        target = CPattern(params_mid.signature, [(2,)])
        assert v.terms == {target: ONE}

    def test_e_minus1_f_minus1_roundtrip(self, params_mid):
        hw = highest_weight_pattern(params_mid.signature)
        v = apply_word([E(-1), F(-1)], hw, params_mid)
        # [e_{-1}, f_{-1}] eigenvalue on hw, with E_{-1} hw = 0:
        # e f = [lambda] with lambda = 1 here
        assert v.terms == {hw: ONE}

    def test_each_term_differs_by_two_entries(self, params_mid):
        sig = params_mid.signature
        basis = enumerate_basis(sig, 4)
        for p in basis:
            for k in range(-4, 5):
                for kind in ("E", "F"):
                    g = GeneratorLabel(kind, k)
                    for p2 in apply_generator(g, p, params_mid).terms:
                        diffs = [
                            (a, b, row)
                            for row in range(1, max(p.N, p2.N) + 1)
                            for a, b in zip(p.row(row), p2.row(row))
                            if a != b
                        ]
                        assert 1 <= len(diffs) <= 2
                        for a, b, row in diffs:
                            assert abs(a - b) == 1
                        # moved slots sit in the two designated adjacent rows
                        rows = sorted({row for _, _, row in diffs})
                        if k == -1:
                            assert rows == [1]
                        elif len(rows) == 2:
                            assert rows[1] == rows[0] + 1

    def test_level_growth_bounded(self, params_mid):
        sig = params_mid.signature
        for p in enumerate_basis(sig, 3):
            for k in range(-5, 6):
                for kind in ("E", "F"):
                    for p2 in apply_generator(GeneratorLabel(kind, k), p,
                                              params_mid).terms:
                        top_row = 2 * abs(k) + 2 if k >= 0 else 2 * abs(k)
                        assert p2.N <= max(p.N, top_row + 1)

    def test_adjointness(self, params_mid):
        """The lowering matrix is the transpose of the raising matrix
        (real symmetric pairing in this basis)."""
        sig = params_mid.signature
        basis = enumerate_basis(sig, 4)
        inside = set(basis)
        for k in range(-4, 5):
            fw = {p: apply_generator(F(k), p, params_mid) for p in basis}
            ew = {p: apply_generator(E(k), p, params_mid) for p in basis}
            for u in basis:
                for v, c in fw[u].terms.items():
                    if v in inside:
                        assert ew[v].terms.get(u) == c

    def test_classical_mode(self, params_mid_classical):
        hw = highest_weight_pattern(params_mid_classical.signature)
        v = apply_generator(F(0), hw, params_mid_classical)
        target = CPattern(params_mid_classical.signature, [(0,), (2, 0)])
        assert v.terms == {target: RadicalSum.from_rational(-1)}
        assert apply_word([E(0), F(0)], hw, params_mid_classical).terms[hw] == ONE


def _moves(lad, j, l):
    """The entry moves of candidate (j, l) of a _Ladder, as shift takes
    them: (j, row_a) and (l, row_b) by delta, or (l, row_b) alone when
    row_a is the empty row 0 (index -1)."""
    move_b = (l, lad.row_b, lad.delta)
    return ((j, lad.row_a, lad.delta), move_b) if lad.la else (move_b,)


def _factors(lad, j, l, qv):
    """The numerator and denominator brackets of candidate (j, l), as
    Fractions from qbracket of _Ladder.arguments."""
    num_args, den_args = lad.arguments(j, l)
    return ([qbracket(x, qv) for x in num_args],
            [qbracket(x, qv) for x in den_args])


def deletion_diagnostics(
    kind: str, index: int, p: CPattern, params: ModuleParams
) -> list[tuple[int, int, bool, bool, bool]]:
    """Per-candidate view of the deletion convention for a ladder generator.

    Returns (j, l, target_valid, numerator_zero, denominator_zero) for every
    candidate target, evaluating the coefficient factors unconditionally.
    TestDeletionConvention uses it to confirm that skipped targets are
    exactly the ill-defined ones: valid targets never divide by zero, and
    invalid targets always have a vanishing numerator or denominator.
    Unlike apply_generator it sweeps every (j, l) pair and decides each
    one on the built pattern (shifted_if_valid), not on the window's rows,
    so it is an oracle for the kernel's interlacing checks.  It shares
    _interlaces and the bracket arguments (_Ladder.arguments) with the
    action, so it does not check those.  A product of exact brackets
    vanishes exactly when one of its factors does.  For index -1 the only
    candidates are (0, l).
    """
    lad = _Ladder(kind, index, _window(p, index))
    out = []
    for j in lad.slots_a:
        for l in row_range(lad.row_b):
            valid = shifted_if_valid(p, _moves(lad, j, l)) is not None
            num_f, den_f = _factors(lad, j, l, params.qv)
            out.append((j, l, valid, 0 in num_f, 0 in den_f))
    return out


class TestDeletionConvention:
    def test_bidirectional(self, params_mid):
        """Skipped candidates are exactly the ill-defined coefficients:
        invalid targets have a vanishing numerator or denominator, and valid
        targets never divide by zero."""
        basis = enumerate_basis(params_mid.signature, 4)
        seen_invalid = 0
        for p in basis:
            for k in range(-4, 4):
                for kind in ("E", "F"):
                    for j, l, valid, num0, den0 in deletion_diagnostics(
                        kind, k, p, params_mid
                    ):
                        if valid:
                            assert not den0, (kind, k, j, l, p)
                        else:
                            seen_invalid += 1
                            assert num0 or den0, (kind, k, j, l, p)
        assert seen_invalid > 0

    def test_targets_are_the_valid_candidates(self, params_mid):
        """The pruned action reaches exactly the targets that the full
        candidate sweep calls valid, on V_5 for every ladder index in
        [-4, 4]; indices 3, 4 and -4 act only on rows above level 5.  Rows
        and shifts are spelled out here, independently of the library's
        case table; index -1 moves only the bottom entry."""
        basis = enumerate_basis(params_mid.signature, 5)
        reached = 0
        for p in basis:
            for k in range(-4, 5):
                row_a = 2 * k + 1 if k >= 0 else -2 * k - 2
                for kind in ("E", "F"):
                    delta = 1 if (kind == "E") == (k >= 0) else -1
                    want = {
                        shift(p, [(l, 1, delta)] if k == -1 else
                              [(j, row_a, delta), (l, row_a + 1, delta)])
                        for j, l, valid, num0, den0 in deletion_diagnostics(
                            kind, k, p, params_mid
                        )
                        if valid
                    }
                    got = apply_generator(GeneratorLabel(kind, k), p, params_mid)
                    assert set(got.terms) == want, (kind, k, p)
                    reached += len(want)
        assert reached > 0


class TestWords:
    def test_apply_word_order(self, params_mid):
        # rightmost first: H after F sees the lowered weight
        hw = highest_weight_pattern(params_mid.signature)
        target = CPattern(params_mid.signature, [(2,)])
        lam = weight_eigenvalue(target, 0, params_mid)
        assert lam == 0  # lowered weight, not the hw eigenvalue -1
        assert apply_word([H(0), F(-1)], hw, params_mid).is_zero()
        lam1 = weight_eigenvalue(target, -1, params_mid)
        assert lam1 == -1
        v = apply_word([H(-1), F(-1)], hw, params_mid)
        assert v.terms == {target: RadicalSum.from_rational(lam1)}

    def test_apply_word_empty(self, params_mid):
        hw = highest_weight_pattern(params_mid.signature)
        assert apply_word([], hw, params_mid).terms == {hw: ONE}

    def test_apply_to_vector_linear(self, params_mid):
        sig = params_mid.signature
        a = highest_weight_pattern(sig)
        b = CPattern(sig, [(2,)])
        v = PatternVector.unit(a).scale_rational(3) + PatternVector.unit(b)
        lhs = apply_to_vector(F(0), v, params_mid)
        rhs = apply_generator(F(0), a, params_mid).scale_rational(3) + \
            apply_generator(F(0), b, params_mid)
        assert lhs == rhs


class TestMemo:
    def test_cached_result_is_read_only(self, params_mid):
        # the memo holds the F_0 image of the top pattern as ints, and each
        # call builds a new vector from it, so adding to one vector leaves
        # what every later call returns unchanged
        sig = params_mid.signature
        hw = highest_weight_pattern(sig)
        target = CPattern(sig, [(0,), (2, 0)])
        v = apply_generator(F(0), hw, params_mid)
        v.add_term(CPattern(sig, [(2,)]), ONE)
        again = apply_generator(F(0), hw, params_mid)
        assert again is not v
        assert again.terms == {target: RadicalSum.from_rational(-1)}
        assert action.monomial_image(F(0), hw, params_mid) == ((target, 1, -1, 1),)

    def test_arithmetic_on_a_cached_result_is_writable(self, params_mid):
        hw = highest_weight_pattern(params_mid.signature)
        v = apply_generator(F(0), hw, params_mid)
        w = v + PatternVector()
        w.add_term(hw, ONE)
        assert len(w.terms) == 2 and len(v.terms) == 1

    def test_clear_caches_empties_all_four_memos(self, params_mid):
        hw = highest_weight_pattern(params_mid.signature)
        apply_word([E(0), F(0), F(-1)], hw, params_mid)
        enumerate_basis(params_mid.signature, 3)
        memos = (qnum._bracket_pairs, action._ladder_window,
                 action.monomial_image, enumerate_basis)
        assert all(m.cache_info().currsize > 0 for m in memos)
        assert qnum._bracket_pairs(params_mid.qv).kernels
        clear_caches()
        assert [m.cache_info().currsize for m in memos] == [0, 0, 0, 0]
        # the square classes hang off the bracket table, so they go with it
        assert not qnum._bracket_pairs(params_mid.qv).kernels

    def test_clear_caches_empties_the_word_sum_and_module_memos(self, params_mid):
        hw = highest_weight_pattern(params_mid.signature)
        module_params(params_mid.signature, params_mid.xi0, params_mid.xi1,
                      params_mid.qv, params_mid.mode)
        assert action.monomial_image(F(0), hw, params_mid)
        memos = (module_params, action.monomial_image)
        assert all(m.cache_info().currsize > 0 for m in memos)
        clear_caches()
        assert [m.cache_info().currsize for m in memos] == [0, 0]

    def test_both_kernels_fill_one_bracket_table(self, params_mid):
        """A ladder solve and an I23a trial at the same q fill the one
        table of qnum._bracket_pairs, and clear_caches() replaces it by a
        new, empty one."""
        clear_caches()
        table = qnum._bracket_pairs(params_mid.qv)
        assert not table
        hw = highest_weight_pattern(params_mid.signature)
        assert action.monomial_image(F(0), hw, params_mid)
        solved = set(table)
        assert solved
        # an equal QValue built anew finds the same table
        a = identities.Assignment(QValue.quantum(Fraction(3, 2)), arrays={
            "row_below": [], "row_a": [4], "row_b": [7, 1],
            "row_above": [9, 5, -2],
        })
        assert identities.evaluate_identity(
            identities.IdentityId("I23a", 1), a) == 0
        assert qnum._bracket_pairs(a.qv) is table
        assert set(table) > solved
        clear_caches()
        fresh = qnum._bracket_pairs(params_mid.qv)
        assert fresh is not table and not fresh

    @staticmethod
    def _every_memo():
        """The 11 memos, as the modules bind them before any patch."""
        memos = (qnum._bracket_pairs, qnum._rendered, module_params,
                 Signature.row, enumerate_basis, patterns._fillings,
                 patterns.basis_rank, patterns._canonical, action.label,
                 action._ladder_window, action.monomial_image)
        assert len(memos) == 11  # the count the clear_caches docstring gives
        # apply_generator is a view of monomial_image, and qbracket a view
        # of the bracket table: neither is a memo; nor is the squarefree
        # decomposition, whose results the bracket table's kernels keep
        assert not hasattr(apply_generator, "cache_info")
        assert not hasattr(qnum.qbracket, "cache_info")
        assert not hasattr(qnum._square_decompose, "cache_info")
        return memos

    @staticmethod
    def _fill(params_mid):
        """Put an entry in every memo, reading each function through its
        module's name, as the suites and the CLI do."""
        params = patterns.module_params(params_mid.signature, params_mid.xi0,
                                        params_mid.xi1, params_mid.qv,
                                        params_mid.mode)
        hw = highest_weight_pattern(params.signature)
        action.apply_word([E(0), F(0), F(-1)], hw, params)
        qnum.radical_of(12)
        assert action.monomial_image(F(0), hw, params)
        basis = patterns.enumerate_basis(params.signature, 3)
        assert relations.check_cartan(0, 0, basis, params).passed
        assert patterns.basis_count(params.signature, 4) == 20
        assert patterns.basis_rank(params.signature, 4, hw) is not None
        out = io.StringIO()
        with contextlib.redirect_stdout(out):  # renders through _rendered
            assert cli.main(["matrix", *MID, "--level", "3",
                             "--generator", "H:0"]) == 0
        assert '"entries":[{' in out.getvalue()
        ident = identities.IdentityId("I23a", 2)
        assert identities.fuzz_identity(ident, trials=1, seed=1).passed

    def test_clear_caches_empties_every_memo(self, params_mid):
        memos = self._every_memo()
        # clear_caches() empties these and no other: the Cartan suite's
        # shift table is built per run, not memoised
        assert set(action._MEMOS) == set(memos)
        self._fill(params_mid)
        assert all(m.cache_info().currsize > 0 for m in memos)
        clear_caches()
        assert [m.cache_info().currsize for m in memos] == [0] * len(memos)

    def test_clear_caches_survives_rebound_names(self, params_mid,
                                                 monkeypatch):
        """bench/tracing.py wraps enumerate_basis and qbracket in plain
        functions and rebinds every uhainf name that held one; so may a
        test that patches monomial_image.  clear_caches() must still empty
        every memo, the bracket table that the wrapped qbracket reads
        included, without raising AttributeError on a wrapper."""
        memos = self._every_memo()
        image = action.monomial_image
        for memo in (enumerate_basis, image, qnum.qbracket):
            def traced(*args, _memo=memo, **kwargs):
                return _memo(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name == "uhainf" or name.startswith("uhainf."):
                    for key, value in list(vars(module).items()):
                        if value is memo:
                            monkeypatch.setattr(module, key, traced)
        assert action.monomial_image is not image
        assert relations.monomial_image is not image
        self._fill(params_mid)
        assert all(m.cache_info().currsize > 0 for m in memos)
        clear_caches()
        assert [m.cache_info().currsize for m in memos] == [0] * len(memos)

    def test_new_targets_meet_the_basis_signature_by_identity(
            self, capsys, monkeypatch):
        """A ladder target and the basis pattern it is interned to share
        one Signature object, so comparing them compares no fields: a cold
        matrix export calls Signature.__eq__ nowhere."""
        calls = []
        dataclass_eq = Signature.__eq__

        def spy(self, other):
            calls.append(other)
            return dataclass_eq(self, other)

        clear_caches()
        monkeypatch.setattr(Signature, "__eq__", spy)
        assert cli.main(["matrix", *MID, "--level", "5",
                         "--generator", "E:1"]) == 0
        assert '"entries":[{' in capsys.readouterr().out
        assert calls == []

    @pytest.mark.parametrize("fixture", ["params_mid", "params_mid_classical"])
    def test_memo_hits_are_identity_hits(self, request, fixture):
        params = request.getfixturevalue(fixture)
        clear_caches()
        basis = enumerate_basis(params.signature, 5)
        canonical = {p: p for p in basis}
        targets = 0
        for p in basis:
            for g in [relations._E(k) for k in range(-3, 4)] + \
                     [relations._F(k) for k in range(-3, 4)]:
                for target in apply_generator(g, p, params).terms:
                    if target.N <= 5:
                        assert canonical[target] is target
                        targets += 1
        assert targets > len(basis)
        # the suites' labels, and the CLI's, are one object per (kind, index)
        assert relations._E(1) is relations._E(1) is action.label("E", 1)
        assert relations._F(-2) is relations._F(-2)
        assert relations._H(0) is relations._H(0)
        assert cli._parse_generator("E:1") is relations._E(1)
        assert cli._parse_generator("C") is relations._C() is action.label("C")
        # and labels that differ hash apart, so a memo never compares them
        # (hash(-1) == hash(-2) for ints)
        assert len({hash(g(k)) for g in (E, F, H) for k in range(-3, 4)}) == 21
        clear_caches()
        again = enumerate_basis(params.signature, 5)
        assert again == basis
        assert not any(a is b for a, b in zip(again, basis))

    # the ten generators of the benchmark's export workload, on V_7
    EXPORT = ("E:0", "F:0", "E:1", "F:1", "E:-1", "F:-1", "E:-2", "F:-2",
              "H:0", "C")

    def test_export_renders_each_distinct_coefficient_once(self, capsys,
                                                           params_mid):
        """The ten exports hold 4,922 entries and 28 distinct coefficients:
        _rendered misses once per distinct (k, n, d), hits on every other
        entry, and each entry it holds is the RadicalSum rendering, encoded
        as canonical JSON text."""
        clear_caches()
        pairs, entries = set(), 0
        for generator in self.EXPORT:
            assert cli.main(["matrix", *MID, "--level", "7",
                             "--generator", generator]) == 0
            doc = json.loads(capsys.readouterr().out)
            for entry in doc["entries"]:
                [term] = entry["coeff"]
                pairs.add((term["coeff"], term["kernel"]))
                entries += 1
        info = qnum._rendered.cache_info()
        assert info.misses == 28 == len(pairs) == info.currsize
        assert info.hits + info.misses == entries == 4922
        basis = enumerate_basis(params_mid.signature, 7)
        monomials = {(k, n, d)
                     for generator in self.EXPORT
                     for p in basis
                     for _, k, n, d in action.monomial_image(
                         cli._parse_generator(generator), p, params_mid)}
        assert len(monomials) == 28
        for k, n, d in monomials:
            s = RadicalSum({k: Fraction(n, d)})
            assert qnum._rendered(k, n, d) == (
                json.dumps(s.to_json(), separators=(",", ":")),
                json.dumps(s.to_decimal()))
        # every lookup above hit: these are the memo's 28 entries
        assert qnum._rendered.cache_info().misses == 28

    def test_export_builds_only_the_basis(self, capsys, monkeypatch,
                                          params_mid):
        """A cold export of the ten generators on V_7 builds its 784 basis
        patterns and no other: every ladder target is a V_7 pattern, found
        in the interner by its signature and rows without a CPattern being
        built for the lookup, and is the very object the basis holds."""
        stores = []
        store = CPattern._store

        def counted(self, sig, rows):
            stores.append(rows)
            store(self, sig, rows)

        clear_caches()
        monkeypatch.setattr(CPattern, "_store", counted)
        for generator in self.EXPORT:
            assert cli.main(["matrix", *MID, "--level", "7",
                             "--generator", generator]) == 0
        assert '"entries":[{' in capsys.readouterr().out
        assert len(stores) == 784  # 4,348 when each target was built
        assert len(set(map(tuple, stores))) == 784
        basis = enumerate_basis(params_mid.signature, 7)
        assert len(basis) == 784
        members = {id(p) for p in basis}
        targets = [t for generator in self.EXPORT for p in basis
                   for t, *_ in action.monomial_image(
                       cli._parse_generator(generator), p, params_mid)]
        assert len(targets) == 4922
        assert all(id(t) in members for t in targets)
        assert len(stores) == 784  # the lookups above built nothing either

    @pytest.mark.parametrize("argv", [
        [*MID, "--level", "5", "--generator", "E:1"],
        [*MID, "--level", "3", "--generator", "F:1"],  # targets escape V_3
        [*MID, "--level", "5", "--generator", "H:0"],
        [*MID, "--level", "4", "--generator", "C"],
        # every target lies beyond V_{N+2}, so every row is null
        ["--signature=-3:0:5,2,2,0", "--xi0", "2", "--xi1", "0",
         "--level", "3", "--generator", "F:-3"],
    ], ids=["E1", "F1-escaped", "H0", "C", "row-null"])
    def test_matrix_bytes_warm_and_after_clearing(self, capsys, argv):
        outs = []
        for clear in (True, False, True):
            if clear:
                clear_caches()
            assert cli.main(["matrix", *argv]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2] and '"entries":[{' in outs[0]

    def test_basis_is_one_shared_tuple_until_cleared(self, sig_mid):
        clear_caches()
        first = enumerate_basis(sig_mid, 4)
        assert isinstance(first, tuple)
        # an equal signature parsed separately finds the same memo entry
        assert enumerate_basis(Signature(-1, 1, [2, 1, 0]), 4) is first
        clear_caches()
        again = enumerate_basis(sig_mid, 4)
        assert again is not first and again == first


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(
    lambda q: q not in (0, 1, -1))


@st.composite
def _signatures(draw):
    m = draw(st.integers(-3, 1))
    n = draw(st.integers(m, m + 4))
    values = [draw(st.integers(-3, 4))]
    for _ in range(n - m):
        values.append(values[-1] - draw(st.integers(0, 2)))
    return m, n, values


class TestCachedHashes:
    """QValue and Signature hash once, at construction; the cached hash
    must be the hash of every equal instance, however it was built."""

    @settings(max_examples=60, deadline=None)
    @given(_fractions)
    def test_qvalue(self, q):
        a = QValue.quantum(q)
        b = QValue("quantum", Fraction(q.numerator * 3, q.denominator * 3))
        assert a == b and hash(a) == hash(b) == hash(("quantum", q))
        assert hash(QValue.classical()) == hash(QValue("classical"))

    @settings(max_examples=60, deadline=None)
    @given(_signatures())
    def test_signature(self, args):
        m, n, values = args
        a = Signature(m, n, tuple(values))
        a.row(5)  # fills the row cache, which is not part of the hash
        b = Signature(m, n, list(values))
        assert a == b and hash(a) == hash(b) == hash((m, n, tuple(values)))


# Differential oracle for the ladder coefficients: the action as it was
# computed with Fraction products of qbracket, built from the same
# _Ladder.arguments, swept over every candidate pair and shifted into
# targets by shift.  The action multiplies the integer pairs of the
# bracket table (qnum._bracket_pairs) instead and splices the moved rows
# itself, so the two must agree term by term, signs included (the bracket
# of a negative argument is negative).

def _fraction_ladder(kind, index, p, params):
    lad = _Ladder(kind, index, _window(p, index))
    out = PatternVector()
    for j in lad.slots_a:
        for l in row_range(lad.row_b):
            target = shifted_if_valid(p, _moves(lad, j, l))
            if target is None:
                continue
            num_f, den_f = _factors(lad, j, l, params.qv)
            num = prod(num_f, start=Fraction(1))
            if not num:
                continue
            den = prod(den_f, start=Fraction(1))
            if not den:
                raise ZeroDenominatorError(f"{kind}_{index}")
            out.add_term(target, qnum.radical_of(abs(num / den)).scale(
                -sign_s(j, l, lad.nu)))
    return out


_ORACLE_MODULES = {
    "V5 of -1:1:2,1,0": (Signature(-1, 1, (2, 1, 0)), 2, 0, 5),
    "V4 of -2:2:3,3,1,0,-1": (Signature(-2, 2, (3, 3, 1, 0, -1)), 3, -1, 4),
}
_ORACLE_Q = {
    "q=3/2": QValue.quantum(Fraction(3, 2)),
    "q=7/4": QValue.quantum(Fraction(7, 4)),
    "q=2/3": QValue.quantum(Fraction(2, 3)),
    "classical": QValue.classical(),
}


class TestCoefficientOracle:
    @pytest.mark.parametrize("qname", sorted(_ORACLE_Q))
    @pytest.mark.parametrize("module", sorted(_ORACLE_MODULES))
    def test_matches_fraction_products(self, module, qname):
        sig, xi0, xi1, level = _ORACLE_MODULES[module]
        params = ModuleParams(sig, Fraction(xi0), Fraction(xi1),
                              _ORACLE_Q[qname], "a_infinity")
        nonzero = 0
        for p in enumerate_basis(sig, level):
            for k in range(-3, 4):
                for kind in ("E", "F"):
                    got = apply_generator(GeneratorLabel(kind, k), p, params)
                    want = _fraction_ladder(kind, k, p, params)
                    assert dict(got.terms) == want.terms, (kind, k, p)
                    nonzero += bool(want.terms)
        assert nonzero > 0


class TestLadderWindow:
    """_ladder_window is keyed on the four rows a ladder reads, not on the
    pattern, so a memo hit serves a pattern that it was not solved for."""

    @pytest.mark.parametrize("qname", ["q=3/2", "q=7/4", "classical"])
    @pytest.mark.parametrize("module", sorted(_ORACLE_MODULES))
    def test_memo_hits_match_fraction_products(self, module, qname):
        sig, xi0, xi1, level = _ORACLE_MODULES[module]
        params = ModuleParams(sig, Fraction(xi0), Fraction(xi1),
                              _ORACLE_Q[qname], "a_infinity")
        basis = enumerate_basis(sig, level)
        labels = [GeneratorLabel(kind, k)
                  for k in range(-4, 5) for kind in ("E", "F")]
        clear_caches()
        # warm every window, then read each pattern's action from a fresh
        # monomial_image memo, so that most kernel calls are hits
        for g in labels:
            for p in basis:
                apply_generator(g, p, params)
        action.monomial_image.cache_clear()
        before = action._ladder_window.cache_info()
        for g in labels:
            for p in basis:
                got = apply_generator(g, p, params)
                want = _fraction_ladder(g.kind, g.index, p, params)
                assert dict(got.terms) == want.terms, (g, p)
        after = action._ladder_window.cache_info()
        assert after.misses == before.misses
        assert after.hits - before.hits == len(labels) * len(basis)
        # windows are shared between patterns
        assert after.currsize < len(labels) * len(basis)

    @pytest.mark.parametrize("sig", [Signature(-1, 1, (2, 1, 0)),
                                     Signature(-2, 2, (3, 3, 1, 0, -1))],
                             ids=["mid", "wide"])
    def test_window_is_the_row_map(self, sig):
        """_window slices the stored rows when the window lies inside them,
        pads the slice with empty rows when the window starts below row 1
        (E_0, F_0, E_-1 and F_-1 read rows 0 and -1) and maps p.row when
        it ends above them; all three give p.row over _window_rows on
        every pattern of V_6, at indices -4..4."""
        basis = enumerate_basis(sig, 6)
        ways = {"sliced": 0, "padded": 0, "mapped": 0}
        for p in basis:
            for k in range(-4, 5):
                rows = action._window_rows(k)
                want = tuple(map(p.row, rows))
                assert _window(p, k) == want, (p, k)
                assert all(type(r) is tuple for r in _window(p, k))
                if rows.stop > len(p.rows) + 1:
                    ways["mapped"] += 1
                else:
                    ways["sliced" if rows.start >= 1 else "padded"] += 1
        assert all(ways.values()), ways  # every branch is taken
        assert sum(ways.values()) == 9 * len(basis)

    def test_replayed_zero_denominator_names_its_pattern(self, params_mid):
        """Under the E+side-d1-1 offset mutation E_k divides by zero on some
        window that two patterns of V_5 share.  Both calls raise, and each
        message names its own pattern, as a cold call on it would."""
        basis = enumerate_basis(params_mid.signature, 5)
        clear_caches()
        try:
            with pytest.MonkeyPatch.context() as mp:
                o1, d1, o2, d2, delta = action._CASES[("E", False)]
                mp.setitem(action._CASES, ("E", False),
                           (o1, d1 - 1, o2, d2, delta))
                pair = None
                for k in range(0, 3):
                    raising = {}
                    for p in basis:
                        try:
                            apply_generator(E(k), p, params_mid)
                        except ZeroDenominatorError as exc:
                            raising.setdefault(_window(p, k), []).append(
                                (p, str(exc)))
                    pair = next((ps[:2] for ps in raising.values()
                                 if len(ps) > 1), None)
                    if pair:
                        break
                assert pair, "no window on which E_k raises for two patterns"
                (p1, msg1), (p2, msg2) = pair
                assert repr(p1) in msg1 and repr(p2) in msg2
                assert msg1 != msg2
                # the second was a memo hit; a cold call says the same
                clear_caches()
                with pytest.raises(ZeroDenominatorError) as cold:
                    apply_generator(E(k), p2, params_mid)
                assert str(cold.value) == msg2
        finally:
            clear_caches()


class TestSplicedTargets:
    """_ladder_window returns each candidate's two moved rows and the ints
    (k, n, d) of its coefficient (n/d)·sqrt(k); monomial_image splices the
    rows into a copy of the pattern's.  Each apply_generator coefficient is
    the RadicalSum of its reduced ints, and each target is the canonical
    pattern that shift builds from the candidate's moves."""

    @pytest.mark.parametrize("qname", sorted(_ORACLE_Q))
    @pytest.mark.parametrize("module", sorted(_ORACLE_MODULES))
    def test_monomials_and_targets(self, module, qname):
        sig, xi0, xi1, level = _ORACLE_MODULES[module]
        params = ModuleParams(sig, Fraction(xi0), Fraction(xi1),
                              _ORACLE_Q[qname], "a_infinity")
        kernels = set()
        seen = {"bottom": 0, "above_N": 0}
        for p in enumerate_basis(sig, level):
            for k in range(-3, 4):
                for kind in ("E", "F"):
                    image = apply_generator(GeneratorLabel(kind, k), p, params)
                    solved = action._ladder_window(kind, k, _window(p, k),
                                                   params.qv)
                    assert len(image.terms) == len(solved), (kind, k, p)
                    lad = _Ladder(kind, k, _window(p, k))
                    for (target, coeff), (j, l, _, _, k_, n, d) in zip(
                            image.terms.items(), solved):
                        assert target is shift(p, _moves(lad, j, l))
                        assert d > 0 and gcd(n, d) == 1
                        # the square of (n/d)·sqrt(k) is the bracket ratio
                        num, den = lad.arguments(j, l)
                        ratio = (prod(qbracket(x, params.qv) for x in num)
                                 / prod(qbracket(x, params.qv) for x in den))
                        assert Fraction(n, d) ** 2 * k_ == abs(ratio)
                        [(kernel, r)] = coeff.terms.items()
                        assert (kernel, r) == (k_, Fraction(n, d))
                        assert coeff == RadicalSum({k_: Fraction(n, d)})
                        kernels.add(kernel)
                        seen["bottom"] += k == -1
                        seen["above_N"] += target.N > p.N
        assert all(seen.values()), seen
        factorint = pytest.importorskip("sympy").factorint
        assert all(max(factorint(k).values(), default=1) == 1 for k in kernels)

    def test_diagonal_images_are_the_k1_monomials(self, params_mid):
        """H and C are the k = 1 case of the same memo: the eigenvalue as a
        rational sum, and no term for a zero eigenvalue."""
        hw = highest_weight_pattern(params_mid.signature)
        assert (apply_generator(F(0), hw, params_mid).terms
                == {CPattern(params_mid.signature, [(0,), (2, 0)]):
                    RadicalSum.from_rational(-1)})
        r = params_mid.xi0 - params_mid.xi1
        assert (apply_generator(C, hw, params_mid).terms[hw]
                == RadicalSum.from_rational(r))
        zero = 0
        for p in enumerate_basis(params_mid.signature, 4):
            for i in range(-2, 3):
                r = weight_eigenvalue(p, i, params_mid)
                terms = apply_generator(H(i), p, params_mid).terms
                if r:
                    assert terms[p] == RadicalSum.from_rational(r)
                else:
                    zero += 1
                    assert not terms
        assert zero > 0
