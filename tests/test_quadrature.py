import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad_vec

from mqret import quadrature
from mqret.core import QuadratureError
from mqret.quadrature import RULES, _panels, adaptive_quad_vec


def by_nodes(f):
    """``f``, which returns the values at the nodes, as an integrand that
    returns the K21 and G10 sums of each panel (weights RULES)."""
    def sums(x):
        fx = np.asarray(f(x))
        return np.einsum("jk,pk...->jp...", RULES,
                         fx.reshape((-1, RULES.shape[1]) + fx.shape[1:]))
    return sums


def recording(f):
    """``f`` wrapped so that the node count of every call is kept."""
    sizes = []

    def wrapped(x):
        sizes.append(x.size)
        return f(x)

    return wrapped, sizes


def test_polynomial_exact():
    """Both rules are exact for a cubic, so |K21 - G10| is rounding only;
    the returned estimate is floored at 50 eps times the panel sum."""
    total, err = adaptive_quad_vec(by_nodes(lambda x: x**3 + 1.0), 0.0, 2.0)
    assert total == pytest.approx(6.0, rel=1e-13)
    assert 50.0 * np.finfo(float).eps * abs(total) <= err < 1e-10


def test_kronrod_rule_exact_to_degree_31():
    val, _ = _panels(by_nodes(lambda x: x**31), np.array([0.0]),
                     np.array([1.0]))
    assert val[0] == pytest.approx(1.0 / 32.0, rel=1e-14, abs=0.0)


def test_gauss_rule_exact_to_degree_19():
    """K21 and G10 both integrate a degree-19 polynomial exactly, so the
    panel error estimate |K21 - G10| is rounding only."""
    coeffs = np.random.default_rng(5).uniform(-1.0, 1.0, 20)
    poly = np.polynomial.Polynomial(coeffs)
    val, err = _panels(by_nodes(poly), np.array([-0.5]), np.array([1.5]))
    exact = poly.integ()(1.5) - poly.integ()(-0.5)
    assert val[0] == pytest.approx(exact, rel=1e-14, abs=0.0)
    assert err[0] <= 1e-14 * abs(val[0])


def test_vector_valued_complex():
    def f(x):
        return np.stack([np.exp(1j * x), np.cos(x) + 0j], axis=-1)

    total, _ = adaptive_quad_vec(by_nodes(f), 0.0, np.pi, rtol=1e-11)
    assert total[0] == pytest.approx((np.exp(1j * np.pi) - 1.0) / 1j, rel=1e-11)
    assert abs(total[1]) < 1e-11


def test_oscillatory():
    k = 57.0
    total, _ = adaptive_quad_vec(by_nodes(lambda x: np.sin(k * x) + 0j),
                                 0.0, 1.0, rtol=1e-10)
    assert total.real == pytest.approx((1 - np.cos(k)) / k, rel=1e-9)


def test_sharp_peak_refined():
    w = 1e-4
    total, _ = adaptive_quad_vec(by_nodes(lambda x: w / (x**2 + w**2)),
                                 -1.0, 1.0, rtol=1e-9)
    assert total == pytest.approx(2.0 * np.arctan(1.0 / w), rel=1e-8)


def test_one_integrand_call_per_round():
    """Every call evaluates whole 21-node panels, and a refinement round
    evaluates several new panels in one call."""
    w = 1e-4
    f, sizes = recording(by_nodes(lambda x: w / (x**2 + w**2)))
    adaptive_quad_vec(f, -1.0, 1.0, rtol=1e-9)
    assert all(n % 21 == 0 for n in sizes)
    assert max(sizes) > 21


def test_initial_panels_at_breakpoints():
    """A kink on a shared edge of the initial panels needs no refinement."""
    f, sizes = recording(by_nodes(lambda x: np.abs(x - 0.3)))
    total, err = adaptive_quad_vec(f, (0.0, 0.3), (0.3, 1.0), rtol=1e-12)
    assert total == pytest.approx((0.3**2 + 0.7**2) / 2.0, rel=1e-14)
    assert err < 1e-14
    assert sizes == [42]


def test_edges_broadcast():
    """A scalar lower edge against a sequence of upper edges is that edge
    repeated."""
    f = by_nodes(np.cos)
    got = adaptive_quad_vec(f, 0.0, (1.0, 2.0))
    assert got == adaptive_quad_vec(f, (0.0, 0.0), (1.0, 2.0))
    assert got[0] == pytest.approx(np.sin(1.0) + np.sin(2.0), rel=1e-12)


def test_rejects_empty_interval():
    with pytest.raises(ValueError):
        adaptive_quad_vec(by_nodes(np.cos), 1.0, 1.0)
    with pytest.raises(ValueError):
        adaptive_quad_vec(by_nodes(np.cos), (0.0, 1.0), (1.0, 0.5))


def test_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    f, sizes = recording(by_nodes(lambda x: np.sin(1e7 * x) + 0j))
    with pytest.raises(QuadratureError) as info:
        adaptive_quad_vec(f, 0.0, 1.0, rtol=1e-12)
    assert info.value.estimate is not None and info.value.estimate > 0.0
    # each call after the first bisects n/42 panels, adding one panel each
    live = np.cumsum([1] + [n // 42 for n in sizes[1:]])
    assert sizes[0] == 21 and live.max() <= 8
    assert all(n <= 8 * 21 for n in sizes)


def test_nan_integrand_fails_fast():
    """A NaN or infinite integrand value raises QuadratureError after the
    first round, alone and beside a finite integral of a batch, instead of
    a round that bisects no panel or a RuntimeWarning. The infinite
    integrands return their panel sums themselves, since ``by_nodes`` would
    multiply inf by the zero G10 weights."""
    def f(x):
        return np.where(x > 0.7, np.nan, np.cos(x)) + 0j

    def infinite(value):
        return lambda x: np.full((2, x.size // RULES.shape[1]), value)

    def beside_cos(sums):
        cos = by_nodes(lambda x: np.cos(x) + 0j)
        return lambda x: np.stack([cos(x), sums(x)], axis=2)[..., None]

    integrands = [by_nodes(f),
                  by_nodes(lambda x: np.stack([np.cos(x) + 0j, f(x)],
                                              axis=1)[:, :, None])]
    for value in (np.inf, -np.inf, complex(np.inf, 0.0)):
        integrands += [infinite(value), beside_cos(infinite(value))]
    for g in integrands:
        counted, sizes = recording(g)
        with pytest.raises(QuadratureError, match="non-finite") as info:
            adaptive_quad_vec(counted, 0.0, 1.0)
        assert np.isnan(info.value.estimate) and sizes == [21]


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
    total, err = adaptive_quad_vec(by_nodes(f), lo, hi, rtol=1e-10)
    ref, ref_err = quad_vec(lambda x: f([x])[0], lo, hi, epsrel=1e-12,
                            epsabs=0.0)
    dev = np.abs(total - ref)
    assert dev.max() <= 1e-9 * np.abs(ref).max()
    assert np.all(dev <= err + ref_err)


def batch_integrand(params):
    """e^{iax}/(1+bx^2) (1, c, i) for each row (a, b, c) of ``params``: one
    integral per row, shape (nodes, rows, 3)."""
    a, b, c = np.asarray(params, dtype=float).T

    def f(s):
        s = s[:, None]
        base = np.exp(1j * a * s) / (1.0 + b * s**2)
        return np.stack([base, c * base, 1j * base], axis=-1)
    return f


@settings(max_examples=25, deadline=None)
@given(params=st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(0.0, 400.0),
                                 st.floats(0.1, 3.0)), min_size=1, max_size=6),
       rtol=st.sampled_from([1e-6, 1e-9, 1e-11]))
# b = 0 gives (e^{2ia} - e^{-ia}) / (ia), which nearly cancels at these a:
# at rtol 1e-12 alone the reference stops at its rounding floor
@example(params=[(12.56640625, 0.0, 1.0)], rtol=1e-6)
@example(params=[(33.5, 0.0, 1.0)], rtol=1e-6)
def test_batch_equals_single_runs(params, rtol):
    """N integrals on one shared panel set each agree with a lone run at
    rtol 1e-12 (and atol 1e-13, for integrals that nearly cancel) within
    their own rtol, and each error estimate bounds the deviation. The
    shared run evaluates no more nodes than the lone runs together."""
    params = np.array(params)
    n = len(params)
    lo, hi = [-1.0, 0.2], [0.2, 2.0]
    f, sizes = recording(by_nodes(batch_integrand(params)))
    total, err = adaptive_quad_vec(f, lo, hi, rtol=rtol)
    assert total.shape == (n, 3) and err.shape == (n, 3)
    lone_nodes = 0
    for k in range(n):
        one, lone_sizes = recording(by_nodes(
            lambda s: batch_integrand(params[k:k + 1])(s)[:, 0]))
        adaptive_quad_vec(one, lo, hi, rtol=rtol)
        lone_nodes += sum(lone_sizes)
        ref, ref_err = adaptive_quad_vec(one, lo, hi, rtol=1e-12, atol=1e-13)
        dev = np.abs(total[k] - ref)
        assert dev.max() <= rtol * np.abs(ref).max()
        assert np.all(dev <= err[k] + ref_err)
    assert sum(sizes) <= lone_nodes


def test_tolerance_per_integral():
    """Each integral of a batch meets rtol against its own magnitude: a
    small integral beside a large one is resolved to its own rtol."""
    scales = np.array([1.0, 1e-12])

    def f(s):
        return (scales * (np.cos(40.0 * s) * np.exp(-s))[:, None])[:, :, None] + 0j

    exact = scales * (1.0 + 40.0 * np.exp(-2.0) * np.sin(80.0)
                      - np.exp(-2.0) * np.cos(80.0)) / (1.0 + 40.0**2)
    total, _ = adaptive_quad_vec(by_nodes(f), 0.0, 2.0, rtol=1e-10)
    assert total.shape == (2, 1)
    assert np.all(np.abs(total[:, 0] - exact) <= 1e-10 * np.abs(exact))


def test_absolute_tolerance_per_integral():
    """With one atol per integral, an integral whose atol its first-round
    error estimate meets stops there, with the value of a lone run that
    stops after one integrand call although it is far from its rtol, while
    its neighbour, at atol 0, refines further to its own rtol."""
    def f(s):
        return (np.cos(40.0 * s) * np.exp(-s))[:, None, None] * np.ones((1, 2, 1))

    exact = ((1.0 + 40.0 * np.exp(-2.0) * np.sin(80.0) - np.exp(-2.0)
              * np.cos(80.0)) / (1.0 + 40.0**2))
    lo = np.linspace(0.0, 1.5, 4)
    lone, lone_sizes = recording(by_nodes(lambda s: f(s)[:, :1]))
    first, first_err = adaptive_quad_vec(lone, lo, lo + 0.5, rtol=1e-10,
                                         atol=1e-4)
    assert len(lone_sizes) == 1 and first_err[0, 0] > 1e-10 * abs(exact)
    both, sizes = recording(by_nodes(f))
    total, err = adaptive_quad_vec(both, lo, lo + 0.5, rtol=1e-10,
                                   atol=np.array([1e-4, 0.0]))
    assert len(sizes) > 1
    assert total[0, 0] == first[0, 0] and err[0, 0] == first_err[0, 0]
    assert err[1, 0] <= 1e-10 * abs(exact)
    assert abs(total[1, 0] - exact) <= 1e-10 * abs(exact)


def test_shared_budget_grows_with_the_batch(monkeypatch):
    """Two integrals that each converge within a budget of 30 panels
    alone also converge together, although the union of their panels
    (peaks at -0.5 and 0.5 need 27 panels each, 52 together) exceeds it."""
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 30)
    w = 1e-4

    def peaks(centres):
        return by_nodes(lambda x: (w / ((x[:, None] - np.asarray(centres))**2
                                        + w**2))[:, :, None])

    exact = np.arctan(0.5 / w) + np.arctan(1.5 / w)
    for c in (-0.5, 0.5):
        total, _ = adaptive_quad_vec(peaks([c]), -1.0, 1.0)
        assert total[0, 0] == pytest.approx(exact, rel=1e-8)
    total, _ = adaptive_quad_vec(peaks([-0.5, 0.5]), -1.0, 1.0)
    assert np.all(np.abs(total[:, 0] - exact) <= 1e-8 * exact)


def test_batch_rejects_bad_rows():
    """Edges must be 1-D, and an integrand must return the two rule sums of
    each panel: node values, whose first axis is the node count, or any
    other leading shape are an error, not a silent misreading."""
    with pytest.raises(ValueError):
        adaptive_quad_vec(by_nodes(np.cos), [[0.0], [1.0]], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="expected"):
        adaptive_quad_vec(np.cos, 0.0, 1.0)
    with pytest.raises(ValueError, match="expected"):
        adaptive_quad_vec(lambda s: np.ones((s.size, 2, 3)), 0.0, 1.0)
    with pytest.raises(ValueError, match="expected"):
        adaptive_quad_vec(lambda s: np.ones((3, s.size // 21)), 0.0, 1.0)
    with pytest.raises(ValueError, match="expected"):
        adaptive_quad_vec(lambda s: np.ones((2, s.size // 21 + 1)), 0.0, 1.0)
