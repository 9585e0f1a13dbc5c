from fractions import Fraction

import pytest

from uhainf import ModuleParams, QValue, Signature


@pytest.fixture
def sig_small():
    return Signature(0, 1, (1, 0))


@pytest.fixture
def params_small(sig_small):
    return ModuleParams(sig_small, Fraction(1), Fraction(0),
                        QValue.quantum(2), "A_infinity")


@pytest.fixture
def sig_mid():
    return Signature(-1, 1, (2, 1, 0))


@pytest.fixture
def sig_wide():
    return Signature(-2, 2, (3, 3, 1, 0, -1))


@pytest.fixture
def params_mid(sig_mid):
    return ModuleParams(sig_mid, Fraction(2), Fraction(0),
                        QValue.quantum(Fraction(3, 2)), "a_infinity")


@pytest.fixture
def params_mid_classical(sig_mid):
    return ModuleParams(sig_mid, Fraction(2), Fraction(0),
                        QValue.classical(), "a_infinity")
