import numpy as np
import pytest
from hypothesis import given, strategies as st

from mqret import core


def test_constant_consistency():
    assert abs(core.EPS0 * core.MU0 * core.C**2 - 1.0) < 1e-15


def test_debye_value():
    assert core.DEBYE == pytest.approx(3.33564e-30, rel=1e-5, abs=0.0)


def test_outer_basis():
    e_z = np.array([0.0, 0.0, 1.0])
    expected = np.zeros((3, 3))
    expected[2, 2] = 1.0
    assert np.array_equal(core.outer(e_z, e_z), expected)


def test_outer_zero():
    a = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(core.outer(a, np.zeros(3)), np.zeros((3, 3)))


def test_outer_columns():
    a = np.array([1.0, 1.0, 0.0])
    e_x = np.array([1.0, 0.0, 0.0])
    result = core.outer(a, e_x)
    assert np.array_equal(result[:, 0], a)
    assert np.array_equal(result[:, 1:], np.zeros((3, 2)))


@given(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.integers(0, 2**32 - 1),
)
def test_outer_bilinear(scale, seed):
    r = np.random.default_rng(seed)
    a = r.normal(size=3) + 1j * r.normal(size=3)
    b = r.normal(size=3) + 1j * r.normal(size=3)
    lhs = core.outer(scale * a, b)
    rhs = scale * core.outer(a, b)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


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


def test_vec3_rejects_nan():
    with pytest.raises(ValueError):
        core.vec3(0.0, np.nan, 0.0)


def test_wavelength_roundtrip():
    w = core.angular_frequency(1e-6)
    assert core.wavelength(w) == pytest.approx(1e-6, rel=1e-15)
    with pytest.raises(ValueError):
        core.wavelength(-1.0)
