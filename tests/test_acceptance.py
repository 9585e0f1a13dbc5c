"""Acceptance gate: nine exact-arithmetic criteria, zero tolerance.

Each criterion is one test function; a PASS/FAIL line is printed per
criterion.  All residuals must vanish identically — there are no numeric
thresholds anywhere, only exact equality of rationals and radical sums.
"""

import json
import time
from fractions import Fraction

import pytest

from uhainf import (
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
    fuzz_identity,
)
from uhainf.cli import main
from uhainf.identities import CORPUS

SIG = Signature(-1, 1, (2, 1, 0))
Q = QValue.quantum(Fraction(3, 2))
PARAMS = ModuleParams(SIG, Fraction(2), Fraction(0), Q, "a_infinity")
PARAMS_CAP = ModuleParams(SIG, Fraction(2), Fraction(0), Q, "A_infinity")
CLASSICAL = ModuleParams(SIG, Fraction(2), Fraction(0), QValue.classical(),
                         "a_infinity")


def _emit(n: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {n}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n} failed: {detail}"


def _cartan_suite(params) -> list:
    basis = enumerate_basis(SIG, 5)
    assert len(basis) == 75
    return [
        check_cartan(i, j, basis, params)
        for i in range(-6, 7)
        for j in range(-6, 7)
    ]


def _serre_suite(params) -> list:
    basis = enumerate_basis(SIG, 4)
    reports = []
    for fam in ("E", "F"):
        for i in range(-4, 5):
            for j in range(-4, 5):
                if abs(i - j) != 1:
                    reports.append(check_serre(fam, "a", i, j, basis, params))
            reports.append(check_serre(fam, "b", i, None, basis, params))
            reports.append(check_serre(fam, "c", i, None, basis, params))
    return reports


def _restrictedness_ok(params) -> tuple:
    for N in (2, 3, 4):
        rep = check_restrictedness(params, N)
        if not rep.passed:
            return False, f"N={N}: {rep.failures[:1]}"
        tight = rep.params["tightness"]
        for kind in ("E", "F", "H"):
            for side in ("low", "high"):
                if tight[f"{kind}:{side}"]["witness"] is None:
                    return False, f"N={N}: no tightness witness {kind}:{side}"
    return True, ""


def _boundary_ok(params) -> tuple:
    for N in (2, 3, 4):
        for k in range((N + 1) // 2, SIG.n + 2):
            if 2 * k < N:
                continue
            rep = check_boundary_f(params, N, k)
            if not rep.passed:
                return False, f"N={N}, k={k}: {rep.failures[:1]}"
    return True, ""


def test_criterion_1_cartan_suite():
    t0 = time.monotonic()
    reports = _cartan_suite(PARAMS)
    elapsed = time.monotonic() - t0
    bad = [r for r in reports if not r.passed]
    _emit(1, not bad and elapsed < 300,
          f"{len(reports)} index pairs x 75 patterns in {elapsed:.1f}s"
          + (f"; failures {bad[0].to_json()}" if bad else ""))


def test_criterion_2_serre_suite():
    t0 = time.monotonic()
    reports = _serre_suite(PARAMS)
    elapsed = time.monotonic() - t0
    bad = [r for r in reports if not r.passed]
    _emit(2, not bad and elapsed < 600,
          f"{len(reports)} relation instances in {elapsed:.1f}s"
          + (f"; failures {bad[0].to_json()}" if bad else ""))


def test_criterion_3_highest_weight():
    rep = check_highest_weight(PARAMS, (-8, 8))
    _emit(3, rep.passed and rep.checked == 17,
          f"{rep.checked} indices" + ("" if rep.passed else f"; {rep.failures[:1]}"))


def test_criterion_4_restrictedness():
    ok, detail = _restrictedness_ok(PARAMS)
    _emit(4, ok, detail or "vanishing intervals tight on V_2, V_3, V_4")


def test_criterion_5_boundary_formula():
    ok, detail = _boundary_ok(PARAMS)
    _emit(5, ok, detail or "closed form matches general action, zero past the window")


def test_criterion_6_identity_corpus():
    t0 = time.monotonic()
    bad = []
    for ident in CORPUS:
        rep = fuzz_identity(ident, trials=100, seed=20240817)
        if not (rep.passed and rep.checked == 100):
            bad.append((ident, rep.to_json()))
    elapsed = time.monotonic() - t0
    _emit(6, len(CORPUS) == 16 and not bad and elapsed < 120,
          f"{len(CORPUS)} identities x 100 trials in {elapsed:.1f}s"
          + (f"; failures {bad[:1]}" if bad else ""))


def test_criterion_7_classical_limit():
    reports = _cartan_suite(CLASSICAL) + _serre_suite(CLASSICAL)
    reports.append(check_highest_weight(CLASSICAL, (-8, 8)))
    bad = [r for r in reports if not r.passed]
    ok4, d4 = _restrictedness_ok(CLASSICAL)
    ok5, d5 = _boundary_ok(CLASSICAL)
    _emit(7, not bad and ok4 and ok5,
          (f"failures {bad[0].to_json()}" if bad else "") + d4 + d5
          or "suites 1-5 re-run with bracket(x) = x")


def test_criterion_8_charge_operator():
    rep = check_charge(PARAMS_CAP, 10)
    ok = (rep.passed and rep.params["eigenvalue"] == "-1"
          and rep.params["stabilizes_at"] == 1)
    mismatched = ModuleParams(SIG, Fraction(0), Fraction(0), Q, "a_infinity")
    rep2 = check_charge(mismatched, 10)
    detected = not rep2.passed and "divergent" in rep2.failures[0]["note"]
    _emit(8, ok and detected,
          f"eigenvalue {rep.params.get('eigenvalue')}, stabilizes at "
          f"{rep.params.get('stabilizes_at')}, divergence detected: {detected}")


def test_criterion_9_determinism(capsys, tmp_path):
    argvs = [
        ["check", "--signature=-1:1:2,1,0", "--xi0", "2", "--xi1", "0",
         "--q", "3/2", "--suite", "identities", "--trials", "5", "--seed", "99"],
        ["matrix", "--signature=-1:1:2,1,0", "--xi0", "2", "--xi1", "0",
         "--q", "3/2", "--level", "4", "--generator", "F:0"],
        ["basis", "--signature=-1:1:2,1,0", "--level", "5"],
    ]
    ok = True
    for argv in argvs:
        outs = []
        for run_i in range(2):
            dest = tmp_path / f"{argv[0]}-{run_i}.json"
            code = main(argv + ["--out", str(dest)])
            capsys.readouterr()
            ok = ok and code == 0
            outs.append(dest.read_bytes())
        ok = ok and outs[0] == outs[1] and json.loads(outs[0])
    with capsys.disabled():
        _emit(9, bool(ok), "byte-identical reports and matrices across reruns")
