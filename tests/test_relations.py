import hashlib
import json
from contextlib import contextmanager
from fractions import Fraction
from functools import cache, partial
from math import gcd

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
from uhainf.patterns import (_interlaces, highest_weight_pattern, sign_s, theta,
                             weight_eigenvalue)
from uhainf.qnum import RadicalSum, qbracket
from uhainf.relations import ShiftTable


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

    def test_shift_table_belongs_to_one_basis(self, params_mid):
        # the table's cells are positions in its own basis
        shifts = ShiftTable(enumerate_basis(params_mid.signature, 3), params_mid)
        with pytest.raises(ValueError):
            check_cartan(0, 0, enumerate_basis(params_mid.signature, 4),
                         params_mid, shifts)

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

    def test_detects_broken_relation(self, params_mid):
        # sanity: if the action is perturbed, the checker must notice.  E_0
        # acts twice over; the words and the exact sum both read it
        # through action.monomial_image
        def doubled_e0(mp):
            orig = _intact_action()

            def mutated(g, p, params):
                image = orig(g, p, params)
                return image.scale_rational(2) if g == _E(0) else image

            _patch_action(mp, mutated)

        basis = enumerate_basis(params_mid.signature, 3)
        with _mutated(doubled_e0):
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

    @pytest.mark.parametrize("N", range(2, 13))
    def test_intervals_lie_inside_the_radius(self, sig_small, sig_mid,
                                             sig_wide, N):
        # so an index with |k| >= r_N is outside every interval, and the
        # interval check alone covers vanishing beyond the common radius
        for sig in (sig_small, sig_mid, sig_wide):
            intervals, r_N = relations._vanishing_bounds(sig, N)
            assert set(intervals) == {"E", "F", "H"}
            for kind, (lo, hi) in intervals.items():
                assert -r_N <= lo < hi <= r_N, (sig, N, kind)


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


# Fault injection.  Each mutation breaks the action in one way: a +-1 change
# to a ladder offset (o1, d1, o2, d2 of each action._CASES row), a flipped
# sign_s parity, or a broken H or C branch of the action.  KILLS pins, for
# each one, every suite's reports and the set of suites that fail.  The
# memos outlive a patch, so they are cleared before and after each one:
# otherwise they would hide the mutation, or carry it into later tests.

def _intact_action():
    """The apply_generator view of the monomial_image memo bound now, before
    a patch, so that a mutation built on it does not read itself."""
    image = action.monomial_image

    def view(g, p, params):
        v = PatternVector()
        for target, k, n, d in image(g, p, params):
            v.add_term(target, RadicalSum({k: Fraction(n, d)}))
        return v

    return view


def _patch_action(mp, mutated):
    """Make mutated(g, p, params), a PatternVector, the action: patch it
    into monomial_image where action and relations read it, listed as
    (target, k, n, d) for each term of each coefficient, so that the word
    sum, the eigenvalues, the scans and the apply_generator view see it."""
    def image(g, p, params):
        return tuple((target, k, r.numerator, r.denominator)
                     for target, c in mutated(g, p, params).terms.items()
                     for k, r in c.terms.items())

    mp.setattr(action, "monomial_image", image)
    mp.setattr(relations, "monomial_image", image)


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
LADDER_MUTATIONS = frozenset(MUTATIONS)


def _h_reads_next_index(mp, index=0):
    """H_index acts by the eigenvalue of H_{index+1}; other H are intact."""
    orig = action.weight_eigenvalue
    mp.setattr(action, "weight_eigenvalue", lambda p, i, params:
               orig(p, i + 1 if i == index else i, params))


def _c_depends_on_pattern(mp):
    """C acts on p by xi0 - xi1 plus the h_0 eigenvalue of p."""
    orig = _intact_action()

    def mutated(g, p, params):
        if g.kind != "C":
            return orig(g, p, params)
        ev = params.xi0 - params.xi1 + weight_eigenvalue(p, 0, params)
        return PatternVector({p: RadicalSum.from_rational(ev)})

    _patch_action(mp, mutated)


# The Cartan suite tests [c, g], [h_i, h_j], [h_i, e_j] and [h_i, f_j] by
# eigenvalue shifts read from monomial_image, so a broken H or C branch
# must still fail.
MUTATIONS["H-reads-next-index"] = _h_reads_next_index
MUTATIONS["C-depends-on-pattern"] = _c_depends_on_pattern
DIAGONAL_MUTATIONS = frozenset(MUTATIONS) - LADDER_MUTATIONS
MUTATIONS["unmutated"] = lambda mp: None


@contextmanager
def _mutated(mutation):
    """Apply a mutation with every memo cleared on both sides."""
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mutation(mp)
            yield
    finally:
        clear_caches()


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


def _minus(v, w):
    """v - w, term by term."""
    out = PatternVector(dict(v.terms))
    for p, c in w.terms.items():
        out.add_term(p, -c)
    return out


def _commutator(a, b, p, params):
    return _minus(apply_word([a, b], p, params), apply_word([b, a], p, params))


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
            # action.apply_generator, read at call time as the words read
            # it, so that a patch of E or F reaches both sides
            res = _minus(_commutator(_H(i), _E(j), p, params), action.apply_generator(
                _E(j), p, params
            ).scale_rational(delta))
            if not res.is_zero():
                report.record(p, res, note=f"[h_{i},e_{j}] mismatch")
            res = _commutator(_H(i), _F(j), p, params) + action.apply_generator(
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
                res = _minus(_commutator(_E(i), _F(i), p, params), PatternVector.unit(
                    p
                ).scale(RadicalSum.from_rational(qbracket(int(lam), params.qv))))
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

    @pytest.mark.parametrize("name", sorted(LADDER_MUTATIONS | DIAGONAL_MUTATIONS))
    def test_matches_word_residuals_under_mutation(self, params_mid,
                                                   params_boundary, name):
        runs, words = _row(name, params_mid, params_boundary)
        assert [r.to_json() for r in _reports(runs, "cartan")] == words
        assert any(r["failures"] for r in words), name


# The fault-injection table.  Under each mutation every suite runs once, on
# V_4 with indices -2..2, plus the boundary suite on a module whose boundary
# index k = 2 has M_{k+1} != M_k (so its closed form is nonzero).  A row of
# KILLS holds the sha256 of all those reports and the suites that fail, so
# a rewrite of any suite must leave every failure witness as it was, byte
# for byte, and fail exactly where it failed before.

WINDOW = range(-2, 3)


@pytest.fixture
def params_boundary():
    return ModuleParams(Signature(0, 3, (4, 2, 1, 0)), Fraction(4), Fraction(0),
                        QValue.quantum(Fraction(3, 2)), "a_infinity")


def _every_suite(params, params_boundary):
    """(suite, report) pairs, in the order the digests hash the reports.
    The Cartan reports share one shift table, as cli._run_suite's do."""
    basis = enumerate_basis(params.signature, 4)
    shifts = ShiftTable(basis, params)
    runs = [("cartan", check_cartan(i, j, basis, params, shifts))
            for i in WINDOW for j in WINDOW]
    for fam in "EF":
        for i in WINDOW:
            runs += [("serre-a", check_serre(fam, "a", i, j, basis, params))
                     for j in WINDOW if abs(i - j) != 1]
            runs += [("serre-bc", check_serre(fam, v, i, None, basis, params))
                     for v in "bc"]
    # the CLI's boundary suite at level 4 is k = 2, 3, 4
    runs += [("boundary", check_boundary_f(params, 4, 2))] + [
        ("boundary", check_boundary_f(params_boundary, 4, k)) for k in (2, 3, 4)]
    runs.append(("restricted", check_restrictedness(params, 4)))
    runs.append(("hw", check_highest_weight(params, (-2, 2))))
    return runs


def _digest(reports):
    text = json.dumps([r.to_json() for r in reports], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


KILLS = {
    "C-depends-on-pattern": (
        "57976859312fa82cfd7f6e2c97638d31abb750aac302985cd1a4c16755166711",
        {"cartan"}),
    "E+side-d1+1": (
        "1939d32a9195fac1f4973e2d820573b26aabdcfe8d8ef4ea4fe0af3dc29958ff",
        {"cartan"}),
    "E+side-d1-1": (
        "1b4b8b715137feb60b88d35a211ac6c185aeb6e74f1f25ecc7a03ca8f185ee2f",
        {"cartan"}),
    "E+side-d2+1": (
        "977d2734dd7e5d7d409a70ffb179808f8d0ffbf1ca9e8da27e7950d38fa1759f",
        {"cartan", "serre-a"}),
    "E+side-d2-1": (
        "2ec97111ee22d968c3a8dbbc27b47624f1e770774803739fc25e4a1414f29d62",
        {"cartan", "serre-a", "serre-bc", "restricted"}),
    "E+side-o1+1": (
        "f13d749df1b26395fbe4550cff9308ead2f3ba79180a6f09dd8f8ede8039f3d9",
        {"cartan", "serre-a", "serre-bc"}),
    "E+side-o1-1": (
        "38c38ffdb46aaf9493d5a5c342e3c80725fe69e6e741a2cb358cec5614861e63",
        {"cartan", "serre-a", "serre-bc"}),
    "E+side-o2+1": (
        "b9de5bd3bed4e523286f06bc299308d0ed6eb104470f47780a13776cec290f44",
        {"cartan", "serre-a"}),
    "E+side-o2-1": (
        "c5643e20d42c42ce230f44f420a62c14084673cc1eecbc1871f9220d0e01c27f",
        {"cartan", "serre-a"}),
    "E-side-d1+1": (
        "a00d882e7610949cb1389a9ac4344b810910ef204cdd68891fb988ad1ef2e2c6",
        {"cartan", "serre-a", "serre-bc", "restricted"}),
    "E-side-d1-1": (
        "39b47e23dd5542363ecf26a7c4f304d0f6b0b363f4baef1f7ec0c41431c2b0e6",
        {"cartan", "serre-a"}),
    "E-side-d2+1": (
        "e0de2ffc7eb10d417bf4123ecb46c598683a3153c3593071e6917eadcf27f3d9",
        {"cartan", "serre-a", "serre-bc", "restricted"}),
    "E-side-d2-1": (
        "77ca7b3701a5c019512133aa6f13067a08a5aa20678a27ec37dcc9f0c89dcf01",
        {"cartan"}),
    "E-side-o1+1": (
        "9702e7e25c62b9279da0f3aa58d16e69af6d47db82e77d4d2da63f52d3833ff8",
        {"cartan", "serre-a", "serre-bc"}),
    "E-side-o1-1": (
        "7f8bd05b22342fe00d5fc5681f2a40026838fe8029138d813656ce44470e2c05",
        {"cartan", "serre-a", "serre-bc"}),
    "E-side-o2+1": (
        "21d93fe02d85d70bb42d89eda46fe02848dad0b355f8c2355d7325f6af193a2a",
        {"cartan", "serre-bc"}),
    "E-side-o2-1": (
        "fc2453b7e14dbda312f3b05811444a194a5acb0e9915ed359627c534480cb5c7",
        {"cartan", "serre-bc"}),
    "F+side-d1+1": (
        "526ca488465b00a167904d7765903557e14fb3346115c8f1982d268cdc9fabf1",
        {"cartan", "serre-a", "serre-bc", "boundary", "restricted"}),
    "F+side-d1-1": (
        "9baf616de96dcfc35d1a64232fea56de66763572f4e3bac8ea04c909bd6a08fe",
        {"cartan", "serre-a", "boundary"}),
    "F+side-d2+1": (
        "3ce026a086df09f6e0cb3eed429d84d80bab3373b15225e35c3dd95793993e9b",
        {"cartan", "serre-a", "serre-bc", "boundary", "restricted"}),
    "F+side-d2-1": (
        "bdba0cd7de67599025afb30672da240af3d5feb173713192f40c96e79a2095d2",
        {"cartan", "serre-a", "boundary"}),
    "F+side-o1+1": (
        "3a62b332dafc211935d3d7a6ba445a6c5b1ca3e52906940fd496b0b625c5d626",
        {"cartan", "serre-a", "serre-bc", "boundary"}),
    "F+side-o1-1": (
        "edba617d0a86c1fb6abaf6a3d24dea973a0bc183641f53ac2fe16dc066962bfe",
        {"cartan", "serre-a", "serre-bc", "boundary"}),
    "F+side-o2+1": (
        "70b77a2c446edf3914cbc2db3dd82c4d3d68434e784a26daf650f210f22cd3d5",
        {"cartan", "serre-a", "boundary"}),
    "F+side-o2-1": (
        "e5c7b3b36dfd12d4e15373853d259d966faf364aecb929c4ea97fa2ad192edd2",
        {"cartan", "serre-a", "boundary"}),
    "F-side-d1+1": (
        "8a719f057ffc1def256ac508e915d97dd4ec61adcf58f225d1c92de40756c7d7",
        {"cartan", "serre-a"}),
    "F-side-d1-1": (
        "efe7d1cfc632d464fd01db6f920a6515fe22074f96b56bf661667f4ce3d7e6df",
        {"cartan", "serre-a", "serre-bc", "restricted"}),
    "F-side-d2+1": (
        "e18e9141bd06238e411a8bec5cea12b10f7fe04f22b29e235954fb6cf00a1434",
        {"cartan", "serre-a"}),
    "F-side-d2-1": (
        "b95bb0499e4d1824ddd175d0ff893976a9f52de6b5911c55e80c461a16115ee4",
        {"cartan", "serre-a", "serre-bc", "restricted"}),
    "F-side-o1+1": (
        "c4ff1fb776e6cdb06495f36c92112a79eb7980ea1f737a3211f6c7cd4b70ba65",
        {"cartan", "serre-a", "serre-bc"}),
    "F-side-o1-1": (
        "eeb1bd3218f7a2ea551f771104caa7a7eba73ad9618d14fb2c1e463992a1f4c8",
        {"cartan", "serre-a", "serre-bc"}),
    "F-side-o2+1": (
        "580f9282b0b134ba362a3809503b196048715e3f93246c741d1859d6fe59415a",
        {"cartan", "serre-a", "serre-bc"}),
    "F-side-o2-1": (
        "cb7851f2519cedbebaf073b35eaa4254c30d21fbb37e9b05464fdf422b5d51a0",
        {"cartan", "serre-a", "serre-bc"}),
    "H-reads-next-index": (
        "603311f5134dcfc58dea900eb82e0a01c55fd474d3fb44a78c4d3d3928c6e4b5",
        {"cartan", "hw"}),
    "sign_s-parity": (
        "3c51ca92738c6701883ca3baa2c35a9af93d7745b3481e98c9cc8f0e3d73fa8e",
        {"cartan", "serre-a", "serre-bc", "boundary"}),
    "unmutated": (
        "96caf6afae88b7010d7f8167b564d10ef849781354da3a15497584055b22bfd6",
        set()),
}

# Serre b/c misses these 13 of the 33 ladder mutations.
SERRE_BC_MISSES = {
    "E+side-d1+1", "E+side-d1-1", "E+side-d2+1", "E+side-o2+1", "E+side-o2-1",
    "E-side-d1-1", "E-side-d2-1", "F+side-d1-1", "F+side-d2-1", "F+side-o2+1",
    "F+side-o2-1", "F-side-d1+1", "F-side-d2+1",
}
# The boundary suite reads only F_k with k >= N/2 >= 1, so it can see only
# the positive-side F offsets and the sign; at k = 2 it catches all nine.
BOUNDARY_CATCHES = {f"F+side-{name}{step:+d}" for name in ("o1", "d1", "o2", "d2")
                    for step in (-1, 1)} | {"sign_s-parity"}
# E_-1 and F_-1 read only o2 of the negative-side rows, so each change to it
# must fail [e_-1, f_-1] alone, and it records 14 failures on V_4.
BOTTOM_PAIR_CATCHES = {f"{kind}-side-o2{step:+d}" for kind in "EF"
                       for step in (-1, 1)}


# Each row runs once per session: the tests below read its cells from the
# cached run, so every mutation applies once and every suite runs once
# under it, whichever test asks first.  The parameters are hashable, so
# equal fixtures share a row.
@cache
def _row(name, params, params_boundary):
    """The (suite, report) pairs and the word-only Cartan JSON under one
    mutation, computed under the same patch."""
    basis = enumerate_basis(params.signature, 4)
    with _mutated(MUTATIONS[name]):
        runs = _every_suite(params, params_boundary)
        words = _cartan_json(_word_cartan, basis, params, WINDOW)
    return runs, words


def _reports(runs, suite):
    return [r for s, r in runs if s == suite]


class TestFaultInjection:
    @pytest.mark.parametrize("name", sorted(KILLS))
    def test_row(self, params_mid, params_boundary, name):
        runs, _ = _row(name, params_mid, params_boundary)
        assert {suite for suite, r in runs if not r.passed} == KILLS[name][1]


class TestFailureWitnesses:
    @pytest.mark.parametrize("name", sorted(KILLS))
    def test_reports_pinned(self, params_mid, params_boundary, name):
        runs, _ = _row(name, params_mid, params_boundary)
        assert _digest([r for _, r in runs]) == KILLS[name][0]

    def test_every_mutation_pinned(self):
        assert set(KILLS) == set(MUTATIONS)


class TestNegativeControl:
    @pytest.mark.parametrize("name", sorted(LADDER_MUTATIONS))
    def test_cartan_fails_under_mutation(self, params_mid, params_boundary,
                                         name):
        runs, _ = _row(name, params_mid, params_boundary)
        assert not all(r.passed for r in _reports(runs, "cartan")), name

    @pytest.mark.parametrize("name", sorted(DIAGONAL_MUTATIONS))
    def test_cartan_fails_under_diagonal_mutation(self, params_mid,
                                                  params_boundary, name):
        runs, _ = _row(name, params_mid, params_boundary)
        assert not all(r.passed for r in _reports(runs, "cartan")), name

    @pytest.mark.parametrize("name", sorted(BOTTOM_PAIR_CATCHES))
    def test_bottom_pair_fails_under_o2_mutation(self, params_mid,
                                                 params_boundary, name):
        runs, _ = _row(name, params_mid, params_boundary)
        bottom = next(r for r in _reports(runs, "cartan")
                      if r.params == {"i": -1, "j": -1})
        assert len(bottom.failures) == 14, name

    def test_zero_denominator_is_a_witness(self, params_mid):
        # d1 - 1 on the positive E ladder makes a denominator bracket
        # vanish on a valid target; the suite records it and returns
        basis = enumerate_basis(params_mid.signature, 4)
        with _mutated(MUTATIONS["E+side-d1-1"]):
            first = next(r for r in (check_cartan(i, j, basis, params_mid)
                                     for i in WINDOW for j in WINDOW)
                         if not r.passed)
        notes = [f.get("note", "") for f in first.failures]
        assert any(n.startswith("zero denominator: E_") for n in notes), notes

    def test_shared_table_records_every_zero_denominator(self, params_mid):
        """Under E+side-d1-1, E_1 divides by zero on 23 patterns of V_5 (on
        V_4 only inside words).  The shift table keeps no raising E_1·p, so
        every report that meets one through one shared table records it as
        the word-only oracle does: [c, e_1] is one cell for every i, and it
        raises in each of their reports."""
        basis = enumerate_basis(params_mid.signature, 5)
        indices = range(-1, 3)
        with _mutated(MUTATIONS["E+side-d1-1"]):
            shifts = ShiftTable(basis, params_mid)
            got = [check_cartan(i, j, basis, params_mid, shifts).to_json()
                   for i in indices for j in indices]
            words = _cartan_json(_word_cartan, basis, params_mid, indices)
        assert got == words
        meets = {(r["params"]["i"], r["params"]["j"]) for r in got
                 if any(f.get("note", "").startswith("zero denominator: E_1:")
                        for f in r["failures"])}
        assert {(i, 1) for i in indices} <= meets, meets

    def test_no_mutation_outlives_its_patch(self, params_mid):
        basis = enumerate_basis(params_mid.signature, 4)
        with _mutated(MUTATIONS["E+side-o1+1"]):
            assert not all(check_cartan(i, j, basis, params_mid).passed
                           for i in WINDOW for j in WINDOW)
        for i in WINDOW:
            for j in WINDOW:
                assert check_cartan(i, j, basis, params_mid).passed, (i, j)


class TestKillLists:
    def test_list_sizes(self):
        caught = {suite: {name for name, (_, kills) in KILLS.items()
                          if suite in kills}
                  for suite in ("cartan", "serre-a", "serre-bc", "boundary",
                                "restricted", "hw")}
        assert len(LADDER_MUTATIONS) == 33 and len(MUTATIONS) == 36
        assert caught["cartan"] == set(MUTATIONS) - {"unmutated"}
        assert LADDER_MUTATIONS - caught["serre-bc"] == SERRE_BC_MISSES
        assert len(SERRE_BC_MISSES) == 13
        assert caught["boundary"] == BOUNDARY_CATCHES
        assert len(BOUNDARY_CATCHES) == 9
        assert (len(caught["serre-a"]), len(caught["restricted"]),
                len(caught["hw"])) == (28, 7, 1)

    @pytest.mark.parametrize("name", sorted(LADDER_MUTATIONS))
    def test_serre_bc(self, params_mid, params_boundary, name):
        runs, _ = _row(name, params_mid, params_boundary)
        caught = not all(r.passed for r in _reports(runs, "serre-bc"))
        assert caught == (name not in SERRE_BC_MISSES), name

    @pytest.mark.parametrize("name", sorted(LADDER_MUTATIONS))
    def test_boundary(self, params_mid, params_boundary, name):
        runs, _ = _row(name, params_mid, params_boundary)
        reports = _reports(runs, "boundary")
        caught = not all(r.passed for r in reports)
        assert caught == (name in BOUNDARY_CATCHES), name
        if caught:
            notes = {f["note"] for r in reports for f in r.failures}
            assert notes == {"general vs closed form mismatch"}, notes

    def test_boundary_closed_form_is_reached(self, params_boundary):
        # on this module F_2 has nonzero closed-form terms on V_4
        assert all(check_boundary_f(params_boundary, 4, k).passed
                   for k in (2, 3, 4))
        basis = enumerate_basis(params_boundary.signature, 4)
        assert any(not apply_generator(_F(2), p, params_boundary).is_zero()
                   for p in basis)


# The ladder kernel keeps only candidates whose target interlaces.  On an
# intact action a candidate that breaks interlacing has a vanishing bracket
# product (TestDeletionConvention), so dropping one of the kernel's checks
# shows only under a broken formula: there every target must still be a
# valid pattern.

@pytest.mark.parametrize("name", sorted(LADDER_MUTATIONS))
def test_targets_stay_valid_under_mutation(params_mid, name):
    basis = enumerate_basis(params_mid.signature, 4)
    with _mutated(MUTATIONS[name]):
        for p in basis:
            for k in range(-3, 4):
                for g in (_E(k), _F(k)):
                    try:
                        targets = apply_generator(g, p, params_mid).terms
                    except ZeroDenominatorError:
                        continue
                    for t in targets:
                        assert all(_interlaces(t.row(q), t.row(q + 1))
                                   for q in range(1, t.N)), (name, g, p, t)


# The exact word sum.  check_cartan's [e_i, f_j] and every Serre instance
# are decided by relations._record_residual, which sums the words on ints
# and records the sum as the witness where it is nonzero, unless their
# letters are far enough apart to commute by locality.  The spy counts
# every outcome.

@contextmanager
def _decider_spy():
    """{True: proofs, False: witnessed failures} of _record_residual in the
    block (word relations, and the diagonal families the shift table does
    not decide), and {"locality": proofs} of _commute_by_locality."""
    counts = {True: 0, False: 0, "locality": 0}
    orig = relations._record_residual
    orig_local = relations._commute_by_locality

    def spy(report, terms, p, params, note=""):
        proved = orig(report, terms, p, params, note)
        counts[proved] += 1
        return proved

    def local_spy(a, b, p, params):
        proved = orig_local(a, b, p, params)
        counts["locality"] += proved
        return proved

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relations, "_record_residual", spy)
        mp.setattr(relations, "_commute_by_locality", local_spy)
        yield counts


@pytest.fixture
def params_wide(sig_wide):
    return ModuleParams(sig_wide, Fraction(3), Fraction(-1),
                        QValue.quantum(Fraction(7, 4)), "a_infinity")


DECIDER_MODULES = [("params_mid", 5), ("params_mid_classical", 5),
                   ("params_wide", 4)]


def _word_checks():
    """(indices, check) for every Cartan pair and Serre instance over
    WINDOW, indices being those of the relation's E/F letters;
    check(basis, params) returns the report."""
    runs = [((i, j), partial(check_cartan, i, j))
            for i in WINDOW for j in WINDOW]
    for fam in "EF":
        for i in WINDOW:
            runs += [((i, j), partial(check_serre, fam, "a", i, j))
                     for j in WINDOW if abs(i - j) != 1]
            runs += [((i, i + 1), partial(check_serre, fam, v, i, None))
                     for v in "bc"]
    return runs


def _window_key(p, indices):
    """p's rows in the windows of the relation's letters, read through
    action._window: the only rows its words read or move."""
    return tuple(action._window(p, k) for k in sorted(set(indices)))


def _far_apart(i, j):
    """Whether E/F at indices i and j move rows at least three apart."""
    return abs(action._ladder_rows(i)[0] - action._ladder_rows(j)[0]) >= 3


def _f0_times_root2(mp):
    """F_0 scaled by sqrt(2): every coefficient stays one monomial, and
    [e_0, f_0] picks up a root that its bracket term lacks."""
    root2 = RadicalSum({2: Fraction(1)})
    orig = _intact_action()

    def mutated(g, p, params):
        image = orig(g, p, params)
        return image.scale(root2) if g == _F(0) else image

    _patch_action(mp, mutated)


EXACTNESS_ACTIONS = {"intact": lambda mp: None, "F_0*sqrt2": _f0_times_root2,
                     **{name: MUTATIONS[name]
                        for name in ("E+side-o1+1", "F-side-d1-1")}}


class TestWordSum:
    """The exact word sum, relations._word_sum, as _record_residual decides
    and records it, and its memo action.monomial_image."""

    @pytest.mark.parametrize("fixture,level", DECIDER_MODULES)
    def test_monomial_entries(self, request, fixture, level):
        # each entry (n/d)·sqrt(k) is apply_generator's coefficient, with
        # n/d in lowest terms
        params = request.getfixturevalue(fixture)
        for p in enumerate_basis(params.signature, level):
            for g in [_E(i) for i in WINDOW] + [_F(i) for i in WINDOW]:
                image = action.monomial_image(g, p, params)
                entries = apply_generator(g, p, params).terms
                assert [t for t, *_ in image] == list(entries)
                for target, k, n, d in image:
                    assert d > 0 and gcd(n, d) == 1
                    assert RadicalSum({k: Fraction(n, d)}) == entries[target]

    @pytest.mark.parametrize("action_name", sorted(EXACTNESS_ACTIONS))
    @pytest.mark.parametrize("fixture,level", [("params_mid", 5),
                                               ("params_wide", 4)])
    def test_decider_is_exact(self, request, fixture, level, action_name):
        # at every pattern of every word relation, with no window key kept,
        # _record_residual's verdict and witness are those of the residual
        # summed over RadicalSum coefficients by apply_word
        params = request.getfixturevalue(fixture)
        basis = enumerate_basis(params.signature, level)
        verdicts = []

        def decide_every_pattern(report, letters, params):
            def words(terms, p, note=""):
                probe, expected = CheckReport("probe"), CheckReport("probe")
                proved = relations._record_residual(probe, terms, p, params,
                                                    note)
                try:
                    res = PatternVector()
                    for c, word in terms:
                        res = res + apply_word(word, p,
                                               params).scale_rational(c)
                    if not res.is_zero():
                        expected.record(p, res, note=note)
                except ZeroDenominatorError as exc:
                    expected.record(p, None, note=f"zero denominator: {exc}")
                assert proved == (not expected.failures), (report.relation, p)
                assert probe.failures == expected.failures, (report.relation, p)
                verdicts.append(proved)
            return words

        with (_mutated(EXACTNESS_ACTIONS[action_name]),
              pytest.MonkeyPatch.context() as mp):
            mp.setattr(relations, "_decide_words", decide_every_pattern)
            for _, check in _word_checks():
                check(basis, params)
        assert True in verdicts
        assert (False in verdicts) == (action_name != "intact")

    def test_non_monomial_coefficient_is_not_proved(self, params_mid):
        # E_0 scaled by 1 + sqrt(2): its coefficients are two-term sums,
        # listed term by term, and the exact sum fails [e_0, f_0] with the
        # witnesses of the residual built from words
        one_plus_root2 = RadicalSum({1: Fraction(1), 2: Fraction(1)})

        def e0_two_terms(mp):
            orig = _intact_action()

            def mutated(g, p, params):
                image = orig(g, p, params)
                return image.scale(one_plus_root2) if g == _E(0) else image

            _patch_action(mp, mutated)

        basis = enumerate_basis(params_mid.signature, 4)
        with _mutated(e0_two_terms):
            moved = 0
            for p in basis:
                targets = list(action.apply_generator(_E(0), p,
                                                      params_mid).terms)
                image = action.monomial_image(_E(0), p, params_mid)
                assert [t for t, *_ in image] == [t for t in targets
                                                  for _ in range(2)]
                moved += bool(targets)
            rep = check_cartan(0, 0, basis, params_mid)
            words = _word_cartan(0, 0, basis, params_mid)
        assert moved
        assert rep.to_json() == words.to_json()
        assert len(rep.failures) == 14

    @pytest.mark.parametrize("fixture,level", DECIDER_MODULES)
    def test_decides_every_word_relation(self, request, fixture, level):
        # every instance is proved, with no witness recorded, once per
        # window key of each report: by locality when the letters are far
        # apart, with no sum when they are equal (Serre a at i == j), by
        # the exact sum otherwise
        params = request.getfixturevalue(fixture)
        basis = enumerate_basis(params.signature, level)
        runs = _word_checks()
        proofs = 0
        for indices, check in runs:
            with _decider_spy() as counts:
                report = check(basis, params)
            assert report.passed and report.checked == len(basis)
            keys = len({_window_key(p, indices) for p in basis})
            local = keys if _far_apart(*indices) else 0
            same = report.relation.startswith("serre") and len(set(indices)) == 1
            assert counts == {True: 0 if same else keys - local, False: 0,
                              "locality": local}, (report.relation, indices)
            proofs += keys
        assert proofs < len(runs) * len(basis)

    @pytest.mark.parametrize("fixture,level", DECIDER_MODULES)
    def test_variant_a_at_equal_indices_sums_no_words(self, request, monkeypatch,
                                                      fixture, level):
        # [x_i, x_i] has two identical words: each key is proved by applying
        # the word once, and no word sum is built
        params = request.getfixturevalue(fixture)
        basis = enumerate_basis(params.signature, level)
        calls = []
        orig = relations._word_sum

        def spy(terms, p, params):
            calls.append(p)
            return orig(terms, p, params)

        monkeypatch.setattr(relations, "_word_sum", spy)
        for fam in ("E", "F"):
            for i in WINDOW:
                rep = check_serre(fam, "a", i, i, basis, params)
                assert rep.passed and rep.checked == len(basis)
        assert calls == []
        assert check_serre("E", "b", 0, None, basis, params).passed
        assert calls  # the spy sees the sums of other relations

    def test_far_apart_windows_leave_the_rows_between(self, params_mid):
        # E_-1/F_-1 read rows 1, 2 and E_2/F_2 rows 4 to 7; row 3 is read by
        # neither, so patterns that differ only there share one proof, here
        # by locality
        basis = enumerate_basis(params_mid.signature, 5)
        with _decider_spy() as counts:
            report = check_cartan(-1, 2, basis, params_mid)
        assert report.passed and len(basis) == 75
        assert counts == {True: 0, False: 0, "locality": 36}

    def test_inconsistent_edge_is_witnessed(self, params_mid):
        basis = enumerate_basis(params_mid.signature, 4)
        with _mutated(_f0_times_root2), _decider_spy() as counts:
            moved = [p for p in basis
                     if not action.apply_generator(_F(0), p, params_mid).is_zero()]
            assert moved
            rep = check_cartan(0, 0, basis, params_mid)
        assert not rep.passed
        assert counts[False] == len(rep.failures) > 0

    @pytest.mark.parametrize("name", ["E+side-o1+1", "F-side-d1-1"])
    def test_failing_sum_keeps_the_row(self, params_mid, params_boundary,
                                       name):
        with _decider_spy() as counts, _mutated(MUTATIONS[name]):
            runs = _every_suite(params_mid, params_boundary)
        assert counts[False] > 0 and counts[True] > 0
        assert _digest([r for _, r in runs]) == KILLS[name][0]
        assert {suite for suite, r in runs if not r.passed} == KILLS[name][1]


# Locality.  E_k and F_k move only the middle two rows of their window, so
# letters at indices whose windows miss each other's moved rows commute:
# _decide_words proves such a commutator without the exact sum.

class TestLocality:
    INDICES = range(-6, 7)

    def test_apart_is_three_rows(self):
        for i in self.INDICES:
            for j in self.INDICES:
                assert relations._apart(i, j) == _far_apart(i, j), (i, j)

    def test_no_pair_is_apart_with_one_window(self):
        # the window memo negative control's key over every row
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relations, "_window_rows", lambda k: range(1, 9))
            assert not any(relations._apart(i, j)
                           for i in self.INDICES for j in self.INDICES)

    @pytest.mark.parametrize("fixture,level", [("params_mid", 5),
                                               ("params_wide", 4)])
    def test_apart_letters_commute_as_words(self, request, fixture, level):
        params = request.getfixturevalue(fixture)
        basis = enumerate_basis(params.signature, level)
        pairs = [(i, j) for i in range(-4, 5) for j in range(-4, 5)
                 if relations._apart(i, j)]
        assert pairs
        for i, j in pairs:
            for x in (_E(i), _F(i)):
                for y in (_E(j), _F(j)):
                    for p in basis:
                        assert (apply_word((x, y), p, params)
                                == apply_word((y, x), p, params)), (x, y, p)


# Window memo negative control.  check_cartan and check_serre decide an
# E/F word relation once per window of rows, which is sound only while E_k
# and F_k read no row outside action._window(p, k).  This mutation breaks
# that: E_0 doubles its image on patterns whose row 4, outside E_0's rows 0
# to 3, is the signature row.  The memo then hides failures that a check
# of every pattern finds, and the pins below record how many.

def _e0_reads_row_4(mp):
    orig = _intact_action()

    def mutated(g, p, params):
        image = orig(g, p, params)
        if g == _E(0) and p.row(4) == p.sig.row(4):
            return image.scale_rational(2)
        return image

    _patch_action(mp, mutated)


class TestWindowMemoNegativeControl:
    # (relation, {"i", "j"}) -> (failures reported, failures on every pattern)
    PINS = {
        ("cartan", 0, 0): (2, 14),
        ("cartan", 0, 1): (6, 6),
        ("serre-Eb", 0, None): (8, 8),
        ("serre-Ec", 0, None): (6, 6),
    }

    @staticmethod
    def _failing(params, basis):
        reports = [check(basis, params) for _, check in _word_checks()]
        return {(r.relation, r.params["i"], r.params["j"]): len(r.failures)
                for r in reports if not r.passed}

    def test_reads_outside_the_window(self, params_mid):
        basis = enumerate_basis(params_mid.signature, 5)
        with _mutated(_e0_reads_row_4):
            reported = self._failing(params_mid, basis)
        # a key over every row makes each pattern its own window
        with _mutated(_e0_reads_row_4), pytest.MonkeyPatch.context() as mp:
            mp.setattr(relations, "_window_rows", lambda k: range(1, 9))
            every = self._failing(params_mid, basis)
        # both suites still fail, though the memo hides 12 of cartan (0, 0)'s
        assert {k: (reported.get(k), every.get(k)) for k in every} == self.PINS

    def test_oracle_reads_the_patch(self, params_mid):
        """Under this mutation [h_i, e_0] still holds, since E_0 is doubled
        on both sides of it, so the word oracle must report no [h_i,e_0]
        mismatch that check_cartan does not."""
        basis = enumerate_basis(params_mid.signature, 5)

        def mismatches(check):
            return {(i, json.dumps(f.get("pattern"), sort_keys=True))
                    for i in WINDOW
                    for f in check(i, 0, basis, params_mid).failures
                    if f.get("note") == f"[h_{i},e_0] mismatch"}

        with _mutated(_e0_reads_row_4):
            oracle = mismatches(_word_cartan)
            suite = mismatches(check_cartan)
        assert oracle <= suite


# Restrictedness negative control.  No ladder mutation reaches the failure
# branches of check_restrictedness (they only raise zero denominators), so
# this one breaks the generators it reads: E, F and H at index 5 act as the
# identity, and E_0 sends every pattern to one level-5 pattern.

def _break_restrictedness(mp, params):
    level5 = next(p for p in enumerate_basis(params.signature, 5) if p.N == 5)
    orig = _intact_action()

    def mutated(g, p, params):
        if g.kind != "C" and g.index == 5:
            return PatternVector.unit(p)
        if g == _E(0):
            return PatternVector.unit(level5)
        return orig(g, p, params)

    _patch_action(mp, mutated)


# The digest is that of the report recorded while check_restrictedness also
# scanned for "nonzero beyond common radius", with those three records (at
# k = 5, each paired with an "outside interval" record) removed.
RESTRICTEDNESS_BROKEN_DIGEST = (
    "a34349ad6213aadaeba4973ac50da34f721b3bee0c2b96af1784fe978914f0db")


class TestRestrictednessNegativeControl:
    def test_every_failure_branch(self, params_mid):
        with _mutated(lambda mp: _break_restrictedness(mp, params_mid)):
            rep = check_restrictedness(params_mid, 4)
        notes = [f["note"] for f in rep.failures]
        assert set(notes) == {
            "e_5 nonzero outside interval", "f_5 nonzero outside interval",
            "h_5 nonzero outside interval", "e_0 escapes V_4 to level 5",
        }
        # every one of the 20 patterns of V_4 escapes under E_0
        assert len(notes) == 23
        assert notes.count("e_0 escapes V_4 to level 5") == 20
        assert _digest([rep]) == RESTRICTEDNESS_BROKEN_DIGEST


# Negative controls for the failure notes that no mutation in KILLS records.
# Each patches the name the suite reads, relations.apply_generator or
# relations.weight_eigenvalue, so the action and its memos stay intact.

def _eigenvalue_off_by(mp, index, step):
    """weight_eigenvalue at index is step more than the row-sum formula."""
    orig = relations.weight_eigenvalue
    mp.setattr(relations, "weight_eigenvalue", lambda p, i, params:
               orig(p, i, params) + (step if i == index else 0))


def _acts_as_identity(mp, g):
    """The generator g sends every pattern to itself."""
    orig = relations.apply_generator
    mp.setattr(relations, "apply_generator", lambda g1, p, params:
               PatternVector.unit(p) if g1 == g else orig(g1, p, params))


class TestUnkilledNotes:
    def test_cartan_non_integer_bracket_argument(self, params_mid):
        basis = enumerate_basis(params_mid.signature, 4)
        half = Fraction(1, 2)
        with _mutated(lambda mp: _eigenvalue_off_by(mp, 0, half)):
            rep = check_cartan(0, 0, basis, params_mid)
        want = []
        for p in basis:
            lam = (weight_eigenvalue(p, 0, params_mid)
                   - weight_eigenvalue(p, 1, params_mid)
                   + (theta(0) - theta(-1)) * (params_mid.xi0 - params_mid.xi1))
            want.append(f"non-integer bracket argument {lam + half}")
        assert [f["note"] for f in rep.failures] == want

    def test_hw_e_does_not_annihilate(self, params_mid):
        with _mutated(lambda mp: _acts_as_identity(mp, _E(1))):
            rep = check_highest_weight(params_mid, (-2, 2))
        assert [f["note"] for f in rep.failures] == ["e_1 does not annihilate"]

    def test_hw_row_sum_eigenvalue_mismatch(self, params_mid):
        with _mutated(lambda mp: _eigenvalue_off_by(mp, 1, 1)):
            rep = check_highest_weight(params_mid, (-2, 2))
        assert [f["note"] for f in rep.failures] == [
            "row-sum eigenvalue mismatch at 1"]

    def test_boundary_f_nonzero_past_n(self, params_mid):
        # n = 1, so F_2 must vanish on V_4; the closed form is empty there,
        # so each pattern's identity image is also a closed-form mismatch
        basis = enumerate_basis(params_mid.signature, 4)
        with _mutated(lambda mp: _acts_as_identity(mp, _F(2))):
            rep = check_boundary_f(params_mid, 4, 2)
        assert [f["note"] for f in rep.failures] == [
            "f_2 nonzero with k >= n", "general vs closed form mismatch",
        ] * len(basis)

    def test_charge_partial_sum(self, params_mid):
        # the series stabilizes at W = 1, so W = 1..3 each see h_0 off by 1
        with _mutated(lambda mp: _eigenvalue_off_by(mp, 0, 1)):
            rep = check_charge(params_mid, 3)
        assert rep.params["eigenvalue"] == "-1"
        assert [f["note"] for f in rep.failures] == [
            f"partial sum at W={w} is 0" for w in (1, 2, 3)]
