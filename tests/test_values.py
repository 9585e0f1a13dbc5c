"""The package's value classes: plain __slots__ classes with explicit
equality, hashing and repr, and an import graph without dataclasses."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import uhainf
from uhainf.action import GeneratorLabel
from uhainf.cli import RunConfig
from uhainf.identities import Assignment, IdentityId
from uhainf.patterns import CPattern, ModuleParams, Signature
from uhainf.qnum import InvalidQValueError, QValue
from uhainf.report import CheckReport

Q32 = QValue.quantum(Fraction(3, 2))
SIG = Signature(-1, 1, (2, 1, 0))

# name: (make, make an unequal instance, repr of make()); make() builds a
# new instance, equal to every other one it builds
_CASES = {
    "QValue": (lambda: QValue("quantum", Fraction(6, 4)), QValue.classical,
               "QValue(mode='quantum', q=Fraction(3, 2))"),
    "QValue classical": (QValue.classical, lambda: QValue.quantum(2),
                         "QValue(mode='classical', q=None)"),
    "Signature": (lambda: Signature(-1, 1, [2, 1, 0]),
                  lambda: Signature(-1, 1, (2, 1, 1)),
                  "Signature(m=-1, n=1, values=(2, 1, 0))"),
    "ModuleParams": (
        lambda: ModuleParams(Signature(-1, 1, (2, 1, 0)), 2, 0,
                             QValue.quantum(Fraction(3, 2))),
        lambda: ModuleParams(SIG, 2, 0, Q32, "A_infinity"),
        "ModuleParams(signature=Signature(m=-1, n=1, values=(2, 1, 0)), "
        "xi0=Fraction(2, 1), xi1=Fraction(0, 1), "
        "qv=QValue(mode='quantum', q=Fraction(3, 2)), mode='a_infinity')"),
    "GeneratorLabel": (lambda: GeneratorLabel("E", -1),
                       lambda: GeneratorLabel("E", -2),
                       "GeneratorLabel(kind='E', index=-1)"),
    "GeneratorLabel C": (lambda: GeneratorLabel("C"),
                         lambda: GeneratorLabel("H", 0),
                         "GeneratorLabel(kind='C', index=None)"),
    # the trailing signature row (2, 1) is trimmed, and the signature is a
    # new, equal one on each call
    "CPattern": (lambda: CPattern(Signature(-1, 1, (2, 1, 0)), [[1], [2, 1]]),
                 lambda: CPattern(SIG, [[2]]), "CPattern(N=2, rows=[(1,)])"),
    "IdentityId": (lambda: IdentityId("A21", 2), lambda: IdentityId("A21", 4),
                   "IdentityId(tag='A21', size=2)"),
    "IdentityId unsized": (lambda: IdentityId("I25"), lambda: IdentityId("I26"),
                           "IdentityId(tag='I25', size=None)"),
    "Assignment": (
        lambda: Assignment(QValue.quantum(2), arrays={"a": [5, 1]}),
        lambda: Assignment(QValue.quantum(2), scalars={"a": [5, 1]}),
        "Assignment(qv=QValue(mode='quantum', q=Fraction(2, 1)), scalars={}, "
        "arrays={'a': [5, 1]}, excluded={})"),
    "CheckReport": (lambda: CheckReport("cartan", {"i": 1, "j": 2}, 3),
                    lambda: CheckReport("cartan", {"i": 1, "j": 2}, 4),
                    "CheckReport(relation='cartan', params={'i': 1, 'j': 2}, "
                    "checked=3, failures=[])"),
    "RunConfig": (
        lambda: RunConfig(signature=Signature(-1, 1, (2, 1, 0)), xi0=Fraction(2),
                          level=5),
        lambda: RunConfig(SIG, Fraction(2), level=5, q=None),
        "RunConfig(signature=Signature(m=-1, n=1, values=(2, 1, 0)), "
        "xi0=Fraction(2, 1), xi1=Fraction(0, 1), q=Fraction(3, 2), "
        "mode='a_infinity', level=5, window=4, trials=100, seed=42, out=None)"),
}
_FROZEN = {
    "QValue": ("mode", "q"), "Signature": ("m", "n", "values"),
    "ModuleParams": ("signature", "xi0", "xi1", "qv", "mode"),
    "GeneratorLabel": ("kind", "index"), "IdentityId": ("tag", "size"),
    "CPattern": ("sig", "rows"),
}
_MUTABLE = ("Assignment", "CheckReport", "RunConfig")


@pytest.mark.parametrize("name", sorted(_CASES))
class TestValueClasses:
    def test_equality(self, name):
        make, other, _ = _CASES[name]
        a, b, c = make(), make(), other()
        assert a is not b and a == b and not a != b
        assert a != c and not a == c
        assert a != (a,) and a != repr(a)
        assert a.__eq__(object()) is NotImplemented

    def test_equal_instances_hash_equal(self, name):
        make, _, _ = _CASES[name]
        if name.split()[0] in _MUTABLE:
            with pytest.raises(TypeError, match="unhashable"):
                hash(make())
        else:
            assert hash(make()) == hash(make())
            assert {make(): 1}[make()] == 1

    def test_repr(self, name):
        make, _, text = _CASES[name]
        assert repr(make()) == text

    def test_no_instance_dict(self, name):
        assert not hasattr(_CASES[name][0](), "__dict__")


@pytest.mark.parametrize("name", sorted(_FROZEN))
def test_frozen_classes_refuse_every_change(name):
    value = _CASES[name][0]()
    for attr in (*_FROZEN[name], "_hash", "other"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, attr, None)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(value, attr)
    assert value == _CASES[name][0]()


def test_cached_hashes_are_the_field_hashes():
    assert hash(QValue("quantum", Fraction(6, 4))) == hash(("quantum", Fraction(3, 2)))
    assert hash(SIG) == hash((-1, 1, (2, 1, 0)))
    assert hash(IdentityId("A21", 2)) == hash(("A21", 2))
    assert hash(CPattern(SIG, [[1]])) == hash((SIG, ((1,),)))
    # 2·index, so that E_-1 and E_-2 do not collide (hash(-1) == hash(-2))
    assert hash(GeneratorLabel("E", -1)) == hash(("E", -2))
    assert hash(GeneratorLabel("E", -1)) != hash(GeneratorLabel("E", -2))


def test_mutable_classes_change_and_compare_by_fields():
    report, cfg = CheckReport("demo"), RunConfig(SIG)
    report.checked += 2
    report.record(None, None, note="boom")
    assert report == CheckReport("demo", {}, 2, [{"note": "boom"}])
    cfg.level = 6
    assert cfg == RunConfig(SIG, level=6) != RunConfig(SIG)
    a = Assignment(Q32)
    a.arrays["a"] = [1]
    assert a == Assignment(Q32, arrays={"a": [1]})


def test_defaults_are_new_per_instance():
    a, b = Assignment(Q32), Assignment(Q32)
    for field in ("scalars", "arrays", "excluded"):
        assert getattr(a, field) == {} and getattr(a, field) is not getattr(b, field)
    r, s = CheckReport("demo"), CheckReport("demo")
    assert r.params == {} and r.params is not s.params
    assert r.failures == [] and r.failures is not s.failures
    r.record(None, None, note="boom")
    assert s.failures == [] and CheckReport("demo").failures == []


_ERRORS = [
    (lambda: QValue("quantum"), InvalidQValueError, "quantum mode requires a rational q"),
    (lambda: QValue.quantum(-1), InvalidQValueError, r"q must not be 0, 1 or -1 \(got -1\)"),
    (lambda: QValue("quantum", Fraction(0)), InvalidQValueError, "must not be 0"),
    (lambda: QValue("classical", Fraction(2)), InvalidQValueError, "classical mode takes no q"),
    (lambda: QValue("other"), InvalidQValueError, "unknown mode 'other'"),
    (lambda: Signature(-1, 1.0, (2, 1, 0)), ValueError, "expected an integer"),
    (lambda: Signature(2, 1, ()), ValueError, "window requires m <= n"),
    (lambda: Signature(0, 1, (1, 0, 0)), ValueError,
     r"expected 2 values for window \[0, 1\], got 3"),
    (lambda: Signature(0, 1, (0, 1)), ValueError, "must be nonincreasing"),
    (lambda: ModuleParams(SIG, 2, 0, Q32, "other"), ValueError, "unknown mode 'other'"),
    (lambda: ModuleParams(SIG, 2, 0, QValue.quantum(Fraction(-3, 2))), ValueError,
     r"q must be positive for a module \(got -3/2\)"),
    (lambda: ModuleParams(SIG, 1, 0, Q32, "A_infinity"), ValueError,
     "A_infinity mode requires xi0 = M_m and xi1 = M_n"),
    (lambda: ModuleParams(SIG, 2, 1, Q32, "A_infinity"), ValueError,
     "A_infinity mode requires"),
    (lambda: GeneratorLabel("X", 0), ValueError, "unknown generator kind 'X'"),
    (lambda: GeneratorLabel("C", 3), ValueError, "C carries no index"),
    (lambda: GeneratorLabel("E"), ValueError, "E requires an index"),
    (lambda: IdentityId("nope"), ValueError, "unknown identity tag 'nope'"),
    (lambda: IdentityId("A21"), ValueError, "A21 requires size >= 2"),
    (lambda: IdentityId("A21", 1), ValueError, "A21 requires size >= 2"),
    (lambda: IdentityId("I27", 3), ValueError, "I27 takes no size parameter"),
]


@pytest.mark.parametrize("make, error, message", _ERRORS,
                         ids=[m for _, _, m in _ERRORS])
def test_validation_errors(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter (pytest itself loads dataclasses) imports the
    CLI, and with it every layer, without the dataclasses machinery."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(uhainf.__file__)))
    script = ("import sys, uhainf.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
