import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad_vec

from mqret.core import QuadratureError
from mqret.quadrature import NODE, _panels, adaptive_quad_vec


def recording(f):
    """``f`` wrapped so that the node count of every call is kept."""
    sizes = []

    def wrapped(x):
        sizes.append(x.size)
        return f(x)

    return wrapped, sizes


def test_polynomial_exact():
    total, err = adaptive_quad_vec(lambda x: x**3 + 1.0, 0.0, 2.0)
    assert total == pytest.approx(6.0, rel=1e-13)
    assert err < 1e-10


def test_kronrod_rule_exact_to_degree_31():
    val, _ = _panels(lambda x: x**31, np.array([0.0]), np.array([1.0]))
    assert val[0] == pytest.approx(1.0 / 32.0, rel=1e-14, abs=0.0)


def test_gauss_rule_exact_to_degree_19():
    """K21 and G10 both integrate a degree-19 polynomial exactly, so the
    panel error estimate |K21 - G10| is rounding only."""
    coeffs = np.random.default_rng(5).uniform(-1.0, 1.0, 20)
    poly = np.polynomial.Polynomial(coeffs)
    val, err = _panels(poly, np.array([-0.5]), np.array([1.5]))
    exact = poly.integ()(1.5) - poly.integ()(-0.5)
    assert val[0] == pytest.approx(exact, rel=1e-14, abs=0.0)
    assert err[0] <= 1e-14 * abs(val[0])


def test_vector_valued_complex():
    def f(x):
        return np.stack([np.exp(1j * x), np.cos(x) + 0j], axis=-1)

    total, _ = adaptive_quad_vec(f, 0.0, np.pi, rtol=1e-11)
    assert total[0] == pytest.approx((np.exp(1j * np.pi) - 1.0) / 1j, rel=1e-11)
    assert abs(total[1]) < 1e-11


def test_oscillatory():
    k = 57.0
    total, _ = adaptive_quad_vec(lambda x: np.sin(k * x) + 0j, 0.0, 1.0,
                                 rtol=1e-10)
    assert total.real == pytest.approx((1 - np.cos(k)) / k, rel=1e-9)


def test_sharp_peak_refined():
    w = 1e-4
    total, _ = adaptive_quad_vec(lambda x: w / (x**2 + w**2), -1.0, 1.0,
                                 rtol=1e-9)
    assert total == pytest.approx(2.0 * np.arctan(1.0 / w), rel=1e-8)


def test_one_integrand_call_per_round():
    """Every call evaluates whole 21-node panels, and a refinement round
    evaluates several new panels in one call."""
    w = 1e-4
    f, sizes = recording(lambda x: w / (x**2 + w**2))
    adaptive_quad_vec(f, -1.0, 1.0, rtol=1e-9)
    assert all(n % 21 == 0 for n in sizes)
    assert max(sizes) > 21


def test_initial_panels_at_breakpoints():
    """A kink on a shared edge of the initial panels needs no refinement."""
    f, sizes = recording(lambda x: np.abs(x - 0.3))
    total, err = adaptive_quad_vec(f, (0.0, 0.3), (0.3, 1.0), rtol=1e-12)
    assert total == pytest.approx((0.3**2 + 0.7**2) / 2.0, rel=1e-14)
    assert err < 1e-14
    assert sizes == [42]


def test_rejects_empty_interval():
    with pytest.raises(ValueError):
        adaptive_quad_vec(np.cos, 1.0, 1.0)
    with pytest.raises(ValueError):
        adaptive_quad_vec(np.cos, (0.0, 1.0), (1.0, 0.5))


def test_budget_exhaustion():
    f, sizes = recording(lambda x: np.sin(1e7 * x) + 0j)
    with pytest.raises(QuadratureError) as info:
        adaptive_quad_vec(f, 0.0, 1.0, rtol=1e-12, max_panels=8)
    assert info.value.estimate is not None and info.value.estimate > 0.0
    # each call after the first bisects n/42 panels, adding one panel each
    live = np.cumsum([1] + [n // 42 for n in sizes[1:]])
    assert sizes[0] == 21 and live.max() <= 8
    assert all(n <= 8 * 21 for n in sizes)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-20.0, 20.0), b=st.floats(0.0, 50.0),
       c=st.floats(0.1, 3.0), lo=st.floats(-2.0, 1.0),
       width=st.floats(0.1, 3.0))
def test_agrees_with_scipy_quad_vec(a, b, c, lo, width):
    """Independent oracle: scipy's quad_vec at epsrel 1e-12 on smooth
    complex vector integrands e^{iax}/(1+bx^2), and the returned error
    bounds the deviation from it component by component."""
    def f(x):
        x = np.asarray(x)[..., None]
        return np.exp(1j * a * x) / (1.0 + b * x**2) * np.array([1.0, c, 1j])

    hi = lo + width
    total, err = adaptive_quad_vec(f, lo, hi, rtol=1e-10)
    ref, ref_err = quad_vec(lambda x: f([x])[0], lo, hi, epsrel=1e-12,
                            epsabs=0.0)
    dev = np.abs(total - ref)
    assert dev.max() <= 1e-9 * np.abs(ref).max()
    assert np.all(dev <= err + ref_err)


def batch_integrand(params):
    """e^{iax}/(1+bx^2) (1, c, i) with row k of ``params`` = (a, b, c) for
    the nodes of integral k."""
    def f(x):
        a, b, c = params[x["i"]].T
        s = x["s"]
        base = np.exp(1j * a * s) / (1.0 + b * s**2)
        return base[:, None] * np.stack([np.ones_like(c), c, 1j * np.ones_like(c)], axis=1)
    return f


@settings(max_examples=25, deadline=None)
@given(params=st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(0.0, 400.0),
                                 st.floats(0.1, 3.0)), min_size=1, max_size=6),
       rtol=st.sampled_from([1e-6, 1e-9, 1e-11]))
def test_batch_equals_single_runs(params, rtol):
    """N stacked integrals give what N lone runs give, with the same panels."""
    params = np.array(params)
    n = len(params)
    lo = np.tile([-1.0, 0.2], (n, 1))
    hi = np.tile([0.2, 2.0], (n, 1))
    f = batch_integrand(params)
    owners = []

    def tracking(x):
        owners.append(np.bincount(x["i"], minlength=n))
        return f(x)

    total, err = adaptive_quad_vec(tracking, lo, hi, rtol=rtol)
    panels = np.sum(owners, axis=0) // 21
    assert total.shape == (n, 3) and err.shape == (n, 3)
    for k in range(n):
        one = batch_integrand(params[k:k + 1])

        def lone(s):
            x = np.zeros(s.size, dtype=NODE)
            x["s"] = s
            return one(x)

        single, sizes = recording(lone)
        ref, ref_err = adaptive_quad_vec(single, lo[k], hi[k], rtol=rtol)
        assert np.abs(total[k] - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.abs(err[k] - ref_err).max() <= 1e-14 * np.abs(ref).max()
        assert panels[k] == sum(sizes) // 21


def test_tolerance_per_integral():
    """Each integral of a batch meets rtol against its own magnitude: a
    small integral beside a large one is resolved to its own rtol."""
    scales = np.array([1.0, 1e-12])

    def f(x):
        s = x["s"]
        return (scales[x["i"]] * np.cos(40.0 * s) * np.exp(-s))[:, None] + 0j

    exact = scales * (1.0 + 40.0 * np.exp(-2.0) * np.sin(80.0)
                      - np.exp(-2.0) * np.cos(80.0)) / (1.0 + 40.0**2)
    total, _ = adaptive_quad_vec(f, [[0.0], [0.0]], [[2.0], [2.0]], rtol=1e-10)
    assert np.all(np.abs(total[:, 0] - exact) <= 1e-10 * np.abs(exact))


def test_batch_rejects_bad_rows():
    with pytest.raises(ValueError):
        adaptive_quad_vec(lambda x: x["s"], [[0.0], [1.0]], [[1.0], [1.0]])
