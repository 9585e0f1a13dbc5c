"""Exact highest-weight representations on pattern bases, with verification
suites for the defining relations and the q-bracket identity corpus.

The scalar, pattern and identity layers load with the package; the action
layer and the relation suites load on first use of one of their names, so
``import uhainf.identities`` stays clear of them.
"""

from importlib import import_module

from .qnum import QValue, RadicalSum, qbracket, radical_of
from .patterns import (
    CPattern,
    ModuleParams,
    Signature,
    enumerate_basis,
    highest_weight_pattern,
)
from .report import CheckReport
from .identities import (
    Assignment,
    IdentityId,
    PoleError,
    evaluate_identity,
    fuzz_identity,
)

_LAZY = {
    "action": ("GeneratorLabel", "PatternVector", "apply_generator",
               "apply_to_vector", "apply_word"),
    "relations": ("check_boundary_f", "check_cartan", "check_charge",
                  "check_highest_weight", "check_restrictedness", "check_serre"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return import_module(f".{name}", __name__)
    module = _LAZY_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__version__ = "0.1.0"
