import numpy as np
import pytest
from hypothesis import given, strategies as st

from mqret import core


def test_constant_consistency():
    assert abs(core.EPS0 * core.MU0 * core.C**2 - 1.0) < 1e-15


def test_debye_value():
    assert core.DEBYE == pytest.approx(3.33564e-30, rel=1e-5, abs=0.0)


@given(st.integers(0, 2**32 - 1))
def test_frobenius_submultiplicative(seed):
    r = np.random.default_rng(seed)
    a = r.normal(size=(3, 3)) + 1j * r.normal(size=(3, 3))
    b = r.normal(size=(3, 3)) + 1j * r.normal(size=(3, 3))
    assert core.frobenius(a @ b) <= core.frobenius(a) * core.frobenius(b) * (1 + 1e-12)


def test_reciprocity_defect_identity():
    g = np.arange(9.0).reshape(3, 3) + 1j
    assert core.dyadic_reciprocity_defect(g, g.T) == 0.0


def test_reciprocity_defect_detects_asymmetry():
    g = np.eye(3, dtype=complex)
    h = np.eye(3, dtype=complex)
    h[0, 1] = 1.0
    assert core.dyadic_reciprocity_defect(g, h) > 0.1


def test_wavelength_roundtrip():
    w = core.angular_frequency(1e-6)
    assert core.wavelength(w) == pytest.approx(1e-6, rel=1e-15)
    with pytest.raises(ValueError):
        core.wavelength(-1.0)
    with pytest.raises(ValueError):
        core.angular_frequency(0.0)
