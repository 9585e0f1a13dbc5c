import json
from contextlib import contextmanager
from fractions import Fraction

import pytest

from uhainf import (
    CheckReport,
    ModuleParams,
    QValue,
    Signature,
    check_boundary_f,
    check_cartan,
    check_charge,
    check_highest_weight,
    check_restrictedness,
    check_serre,
    enumerate_basis,
)
from uhainf import action, relations
from uhainf.action import (GeneratorLabel, PatternVector, ZeroDenominatorError,
                           apply_generator, apply_word, clear_caches)
from uhainf.patterns import highest_weight_pattern, sign_s, theta, weight_eigenvalue
from uhainf.qnum import RadicalSum, qbracket


class TestCheckReport:
    def test_schema(self):
        r = CheckReport("demo", {"i": 1})
        r.checked = 3
        doc = r.to_json()
        assert set(doc) == {"relation", "params", "checked", "failures"}
        assert r.passed
        r.record(None, None, note="boom")
        assert not r.passed
        assert json.dumps(r.to_json())  # serializable

    def test_nothing_checked_is_not_a_pass(self):
        r = CheckReport("demo")
        assert r.checked == 0 and not r.failures
        assert not r.passed
        r.checked = 1
        assert r.passed


class TestCartan:
    def test_small_grid(self, params_small):
        basis = enumerate_basis(params_small.signature, 3)
        for i in range(-2, 3):
            for j in range(-2, 3):
                rep = check_cartan(i, j, basis, params_small)
                assert rep.passed, rep.to_json()
                assert rep.checked == len(basis)

    def test_mid_diagonal(self, params_mid):
        basis = enumerate_basis(params_mid.signature, 4)
        for i in (-2, -1, 0, 1, 2):
            assert check_cartan(i, i, basis, params_mid).passed

    def test_mid_offdiagonal(self, params_mid):
        basis = enumerate_basis(params_mid.signature, 4)
        for i, j in ((0, 1), (1, 0), (-1, 0), (-2, 1), (2, -2)):
            assert check_cartan(i, j, basis, params_mid).passed

    def test_classical(self, params_mid_classical):
        basis = enumerate_basis(params_mid_classical.signature, 4)
        for i, j in ((0, 0), (1, 1), (-1, -1), (0, 1), (-2, 0)):
            assert check_cartan(i, j, basis, params_mid_classical).passed

    def test_bracket_argument_is_integer(self, params_mid):
        # the equal-index bracket eigenvalue must always be an integer
        basis = enumerate_basis(params_mid.signature, 4)
        for p in basis:
            for i in range(-4, 5):
                lam = (
                    weight_eigenvalue(p, i, params_mid)
                    - weight_eigenvalue(p, i + 1, params_mid)
                    + (theta(-i) - theta(-i - 1))
                    * (params_mid.xi0 - params_mid.xi1)
                )
                assert lam.denominator == 1

    def test_free_labels_still_satisfy_relations(self, params_mid):
        # the scalar labels are free in lowercase mode: they shift the
        # diagonal eigenvalues and the central correction coherently
        shifted = ModuleParams(params_mid.signature, Fraction(5), Fraction(-1, 3),
                               params_mid.qv, "a_infinity")
        basis = enumerate_basis(shifted.signature, 3)
        for i, j in ((0, 0), (1, 1), (-1, 0)):
            assert check_cartan(i, j, basis, shifted).passed

    def test_detects_broken_relation(self, params_mid, monkeypatch):
        # sanity: if the action is perturbed, the checker must notice
        import uhainf.relations as rel
        orig = rel.apply_word

        def doubled(word, p, params):
            return orig(word, p, params).scale_rational(2)

        monkeypatch.setattr(rel, "apply_word", doubled)
        basis = enumerate_basis(params_mid.signature, 3)
        rep = check_cartan(0, 0, basis, params_mid)
        assert not rep.passed


class TestSerre:
    def test_variant_a(self, params_mid):
        basis = enumerate_basis(params_mid.signature, 3)
        for fam in ("E", "F"):
            for i, j in ((0, 2), (-1, 1), (-2, 0), (1, 1), (-2, 2)):
                assert check_serre(fam, "a", i, j, basis, params_mid).passed

    def test_variant_a_rejects_adjacent(self, params_mid):
        basis = enumerate_basis(params_mid.signature, 3)
        with pytest.raises(ValueError):
            check_serre("E", "a", 0, 1, basis, params_mid)

    def test_variants_bc(self, params_mid):
        basis = enumerate_basis(params_mid.signature, 3)
        for fam in ("E", "F"):
            for var in ("b", "c"):
                for i in range(-3, 3):
                    rep = check_serre(fam, var, i, None, basis, params_mid)
                    assert rep.passed, rep.to_json()

    def test_classical(self, params_mid_classical):
        basis = enumerate_basis(params_mid_classical.signature, 3)
        for fam in ("E", "F"):
            assert check_serre(fam, "b", 0, None, basis, params_mid_classical).passed
            assert check_serre(fam, "c", -1, None, basis, params_mid_classical).passed

    def test_bad_family(self, params_mid):
        with pytest.raises(ValueError):
            check_serre("H", "a", 0, 2, [], params_mid)


class TestHighestWeight:
    def test_suite(self, params_small, params_mid, params_mid_classical):
        for params in (params_small, params_mid, params_mid_classical):
            rep = check_highest_weight(params, (-8, 8))
            assert rep.passed, rep.to_json()
            assert rep.checked == 17

    def test_eigenvalues_recorded_against_closed_form(self, params_mid):
        hw = highest_weight_pattern(params_mid.signature)
        sig = params_mid.signature
        for i in range(-8, 9):
            expected = Fraction(sig.value(i)) - (
                params_mid.xi1 if i >= 1 else params_mid.xi0
            )
            assert weight_eigenvalue(hw, i, params_mid) == expected


class TestRestrictedness:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_passes(self, params_mid, N):
        rep = check_restrictedness(params_mid, N)
        assert rep.passed, rep.to_json()

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_tightness_witnesses(self, params_mid, N):
        """The vanishing intervals are tight: at every innermost in-range
        index on both sides of each interval some pattern maps to a nonzero
        vector."""
        rep = check_restrictedness(params_mid, N)
        tight = rep.params["tightness"]
        for kind in ("E", "F", "H"):
            for side in ("low", "high"):
                entry = tight[f"{kind}:{side}"]
                assert entry["witness"] is not None, (N, kind, side)

    def test_classical(self, params_mid_classical):
        rep = check_restrictedness(params_mid_classical, 3)
        assert rep.passed, rep.to_json()

    def test_interval_shapes(self, params_mid):
        rep = check_restrictedness(params_mid, 3)
        assert rep.params["N"] == 3
        assert Fraction(rep.params["r_N"]) == Fraction(3)


class TestBoundary:
    def test_passes(self, params_mid):
        for N, k in ((2, 1), (3, 2), (4, 2), (4, 3)):
            rep = check_boundary_f(params_mid, N, k)
            assert rep.passed, rep.to_json()

    def test_vanishes_past_window(self, params_mid):
        # k >= n: the signature is constant there, so the closed form is empty
        rep = check_boundary_f(params_mid, 2, params_mid.signature.n)
        assert rep.passed

    def test_requires_boundary_index(self, params_mid):
        with pytest.raises(ValueError):
            check_boundary_f(params_mid, 4, 1)

    def test_classical(self, params_mid_classical):
        assert check_boundary_f(params_mid_classical, 3, 2).passed


class TestCharge:
    def test_matched_labels(self, params_mid):
        rep = check_charge(params_mid, 8)
        assert rep.passed, rep.to_json()
        # hand sum: (2-2) + (1-2) + (0-0) = -1
        assert rep.params["eigenvalue"] == "-1"
        assert rep.params["stabilizes_at"] == 1

    def test_small_module(self, params_small):
        rep = check_charge(params_small, 6)
        assert rep.passed
        # (1-1) + (0-0) = 0
        assert rep.params["eigenvalue"] == "0"

    def test_divergence_detected(self, sig_mid):
        params = ModuleParams(sig_mid, Fraction(0), Fraction(0),
                              QValue.quantum(2), "a_infinity")
        rep = check_charge(params, 8)
        assert not rep.passed
        assert "divergent" in rep.failures[0]["note"]

    def test_wide_signature(self):
        sig = Signature(-2, 3, (3, 3, 2, 1, 0, 0))
        params = ModuleParams(sig, Fraction(3), Fraction(0),
                              QValue.quantum(Fraction(5, 3)), "a_infinity")
        rep = check_charge(params, 10)
        assert rep.passed, rep.to_json()
        # (3-3)+(3-3)+(2-3) + (1-0)+(0-0)+(0-0) = 0
        assert rep.params["eigenvalue"] == "0"
        assert rep.params["stabilizes_at"] == 3


# Negative control: the Cartan suite must fail, not raise, under any single
# +-1 change to a ladder offset (o1, d1, o2, d2 of each action._CASES row)
# and under a flipped sign_s parity.  apply_generator's memo outlives a
# patch, so it is cleared before and after each one: otherwise it would
# hide the mutation, or carry it into later tests.

def _offset_mutation(key, slot, step):
    def mutate(mp):
        case = list(action._CASES[key])
        case[slot] += step
        mp.setitem(action._CASES, key, tuple(case))
    return mutate


MUTATIONS = {
    f"{kind}{'-' if neg else '+'}side-{name}{step:+d}":
        _offset_mutation((kind, neg), slot, step)
    for kind, neg in action._CASES
    for slot, name in enumerate(("o1", "d1", "o2", "d2"))
    for step in (-1, 1)
}
MUTATIONS["sign_s-parity"] = lambda mp: mp.setattr(
    action, "sign_s", lambda j, l, nu: sign_s(j, l, 1 - nu))


def _h_reads_next_index(mp, index=0):
    """H_index acts by the eigenvalue of H_{index+1}; other H are intact."""
    orig = action.weight_eigenvalue
    mp.setattr(action, "weight_eigenvalue", lambda p, i, params:
               orig(p, i + 1 if i == index else i, params))


def _c_depends_on_pattern(mp):
    """C acts on p by xi0 - xi1 plus the h_0 eigenvalue of p."""
    orig = action.apply_generator

    def mutated(g, p, params):
        if g.kind != "C":
            return orig(g, p, params)
        ev = params.xi0 - params.xi1 + weight_eigenvalue(p, 0, params)
        return PatternVector({p: RadicalSum.from_rational(ev)})

    # apply_to_vector (words) and the suites both read the module names
    mp.setattr(action, "apply_generator", mutated)
    mp.setattr(relations, "apply_generator", mutated)


# Mutations of the diagonal branches of apply_generator.  The Cartan suite
# tests [c, g], [h_i, h_j], [h_i, e_j] and [h_i, f_j] by eigenvalue shifts
# read through apply_generator, so a broken H or C branch must still fail.
DIAGONAL_MUTATIONS = {
    "H-reads-next-index": _h_reads_next_index,
    "C-depends-on-pattern": _c_depends_on_pattern,
}


@contextmanager
def _mutated(mutation):
    """Apply a mutation with apply_generator's memo cleared on both sides."""
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mutation(mp)
            yield
    finally:
        clear_caches()


def _cartan_reports_under(mutation, params):
    """check_cartan on V_4 for indices -2..2, up to the first failing report."""
    basis = enumerate_basis(params.signature, 4)
    reports = []
    with _mutated(mutation):
        for i in range(-2, 3):
            for j in range(-2, 3):
                reports.append(check_cartan(i, j, basis, params))
                if not reports[-1].passed:
                    return reports
    return reports


class TestNegativeControl:
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_cartan_fails_under_mutation(self, params_mid, name):
        reports = _cartan_reports_under(MUTATIONS[name], params_mid)
        assert not reports[-1].passed, name

    @pytest.mark.parametrize("name", sorted(DIAGONAL_MUTATIONS))
    def test_cartan_fails_under_diagonal_mutation(self, params_mid, name):
        reports = _cartan_reports_under(DIAGONAL_MUTATIONS[name], params_mid)
        assert not reports[-1].passed, name

    @pytest.mark.parametrize("name", [f"{kind}-side-o2{step:+d}"
                                      for kind in "EF" for step in (-1, 1)])
    def test_bottom_pair_fails_under_o2_mutation(self, params_mid, name):
        # index -1 reads only o2 of the negative-side cases, so [e_-1, f_-1]
        # alone must see each change to it
        basis = enumerate_basis(params_mid.signature, 4)
        with _mutated(MUTATIONS[name]):
            assert not check_cartan(-1, -1, basis, params_mid).passed, name

    def test_zero_denominator_is_a_witness(self, params_mid):
        # d1 - 1 on the positive E ladder makes a denominator bracket
        # vanish on a valid target; the suite records it and returns
        reports = _cartan_reports_under(MUTATIONS["E+side-d1-1"], params_mid)
        notes = [f.get("note", "") for f in reports[-1].failures]
        assert any(n.startswith("zero denominator: E_") for n in notes), notes

    def test_no_mutation_outlives_its_patch(self, params_mid):
        _cartan_reports_under(MUTATIONS["E+side-o1+1"], params_mid)
        basis = enumerate_basis(params_mid.signature, 4)
        for i in range(-2, 3):
            for j in range(-2, 3):
                assert check_cartan(i, j, basis, params_mid).passed, (i, j)


# Differential oracle: the Cartan suite with every residual built from
# words, as the suite computed it before the eigenvalue-shift test.  The
# shift test may only skip residuals that are zero, so the two reports must
# serialize identically, passing or failing, on any action.

def _E(i):
    return GeneratorLabel("E", i)


def _F(i):
    return GeneratorLabel("F", i)


def _H(i):
    return GeneratorLabel("H", i)


_C = GeneratorLabel("C")


def _commutator(a, b, p, params):
    return apply_word([a, b], p, params) - apply_word([b, a], p, params)


def _word_cartan(i, j, basis, params):
    report = CheckReport("cartan", {"i": i, "j": j})
    delta = (1 if i == j else 0) - (1 if i == j + 1 else 0)
    for p in basis:
        report.checked += 1
        try:
            for g in (_H(j), _E(j), _F(j)):
                res = _commutator(_C, g, p, params)
                if not res.is_zero():
                    report.record(p, res, note=f"[c,{g}] != 0")
            res = _commutator(_H(i), _H(j), p, params)
            if not res.is_zero():
                report.record(p, res, note=f"[h_{i},h_{j}] != 0")
            res = _commutator(_H(i), _E(j), p, params) - apply_generator(
                _E(j), p, params
            ).scale_rational(delta)
            if not res.is_zero():
                report.record(p, res, note=f"[h_{i},e_{j}] mismatch")
            res = _commutator(_H(i), _F(j), p, params) + apply_generator(
                _F(j), p, params
            ).scale_rational(delta)
            if not res.is_zero():
                report.record(p, res, note=f"[h_{i},f_{j}] mismatch")
            if i == j:
                lam = (
                    weight_eigenvalue(p, i, params)
                    - weight_eigenvalue(p, i + 1, params)
                    + (theta(-i) - theta(-i - 1)) * (params.xi0 - params.xi1)
                )
                if lam.denominator != 1:
                    report.record(p, None, note=f"non-integer bracket argument {lam}")
                    continue
                res = _commutator(_E(i), _F(i), p, params) - PatternVector.unit(
                    p
                ).scale(RadicalSum.from_rational(qbracket(int(lam), params.qv)))
                if not res.is_zero():
                    report.record(p, res, note=f"[e_{i},f_{i}] mismatch")
            else:
                res = _commutator(_E(i), _F(j), p, params)
                if not res.is_zero():
                    report.record(p, res, note=f"[e_{i},f_{j}] != 0")
        except ZeroDenominatorError as exc:
            report.record(p, None, note=f"zero denominator: {exc}")
    return report


def _cartan_json(check, basis, params, indices):
    return [check(i, j, basis, params).to_json()
            for i in indices for j in indices]


class TestCartanOracle:
    @pytest.mark.parametrize("level", [4, 5])
    @pytest.mark.parametrize("classical", [False, True], ids=["q=3/2", "classical"])
    def test_matches_word_residuals(self, params_mid, params_mid_classical,
                                    level, classical):
        params = params_mid_classical if classical else params_mid
        basis = enumerate_basis(params.signature, level)
        indices = range(-3, 4)
        assert (_cartan_json(check_cartan, basis, params, indices)
                == _cartan_json(_word_cartan, basis, params, indices))

    @pytest.mark.parametrize("name", sorted(MUTATIONS) + sorted(DIAGONAL_MUTATIONS))
    def test_matches_word_residuals_under_mutation(self, params_mid, name):
        mutation = {**MUTATIONS, **DIAGONAL_MUTATIONS}[name]
        basis = enumerate_basis(params_mid.signature, 4)
        indices = range(-2, 3)
        with _mutated(mutation):
            got = _cartan_json(check_cartan, basis, params_mid, indices)
            want = _cartan_json(_word_cartan, basis, params_mid, indices)
        assert got == want
        assert any(r["failures"] for r in want), name
