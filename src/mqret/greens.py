"""Green's-tensor evaluators.

Vacuum bulk tensor (closed form plus near- and far-zone limits), half-space
scattering tensor (on-axis analytic limits and a full angular-spectrum
Sommerfeld evaluation), image construction for a perfect mirror, and total
tensor assembly per environment. There are two environments, ``Vacuum`` and
``HalfSpace``; the perfect mirror is the half-space of a perfect reflector.

Conventions: the bulk tensor follows the quasi-static form
-(c^2 e^{ik rho} / 4 pi w^2 rho^3)(I - 3 e⊗e); its large-distance limit is
(e^{ik rho}/4 pi rho)(I - e⊗e), which fixes the sign of the far-zone form.
The scattering tensor of a half-space filling z < 0 is evaluated for both
points in the vacuum region z > 0.

The Sommerfeld contour runs over k_par = k sin(theta) (propagating) and
k_par = k cosh(t) (evanescent, cut where kappa (z + z') = 40). Over a
dielectric with Re sqrt(eps) > 1 the evanescent segment has a panel edge
at the branch point k sqrt(eps) of k_z2, t_b = acosh(Re sqrt(eps)), with
the substitutions t = t_b sin^2(v/2) below it and t = t_b + u^2 just beyond
it, which make the integrand analytic there, so the adaptive panels
converge geometrically. The segment table is in :func:`_contour_edges`;
each segment starts as four equal panels.

Every tensor function takes points of shape (..., 3), broadcast against each
other, and returns tensors of shape (..., 3, 3), one per geometry. The
Sommerfeld evaluator integrates the geometries of a batch on one contour and
one shared adaptive panel set, each to its own tolerance, and evaluates the
phase e^{i k_z Z} once per distinct Z = z + z' and the Bessel functions once
per distinct lateral distance; a batch of scattered points runs in blocks of
neighbouring heights (see :func:`halfspace_scatter_full`).
"""

from dataclasses import dataclass

import numpy as np

from .core import C, IDENTITY, GeometryError
from .media import (
    PerfectReflector,
    fresnel,
    permittivity,
    r_nonretarded,
    r_retarded,
    sqrt_im_pos,
)

# mirror-image parity for a dipole above a perfect electric reflector: it
# reflects a point and, on the right of a tensor, scales its columns
_IMAGE_PARITY = np.array([1.0, 1.0, -1.0])

# truncation of the evanescent Sommerfeld tail: kappa * (z + z') = 40
_EVANESCENT_DECADES = 40.0


@dataclass(frozen=True)
class Vacuum:
    pass


@dataclass(frozen=True)
class HalfSpace:
    """Dielectric filling z < 0; vacuum for z > 0."""

    material: object


def PerfectMirror():  # noqa: N802 -- reads as the environment it builds
    """Perfectly reflecting plane at z = 0: the half-space of a perfect
    reflector."""
    return HalfSpace(PerfectReflector())


def _outer(e):
    return e[..., :, None] * e[..., None, :]


def _tensor(scale):
    """Per-geometry scalars as a factor broadcasting over 3x3 tensors."""
    return np.asarray(scale)[..., None, None]


def _separation(r, r_prime):
    rho_vec = np.asarray(r, dtype=float) - np.asarray(r_prime, dtype=float)
    rho = np.linalg.norm(rho_vec, axis=-1)
    if np.any(rho == 0.0):
        raise GeometryError("bulk Green's tensor requires non-coincident points")
    return rho_vec, rho


def vacuum_bulk_exact(r, r_prime, omega):
    """Closed-form vacuum Green's tensor G0(r, r', omega); omega may be
    complex."""
    rho_vec, rho = _separation(r, r_prime)
    e = rho_vec / rho[..., None]
    x = omega * rho / C
    pref = -(C**2) * np.exp(1j * x) / (4.0 * np.pi * omega**2 * rho**3)
    return _tensor(pref) * (_tensor(1.0 - 1j * x - x**2) * IDENTITY
                            - _tensor(3.0 - 3j * x - x**2) * _outer(e))


def vacuum_bulk_nr(r, r_prime, omega, include_phase=True):
    """Near-zone (non-retarded) limit of the vacuum tensor.

    ``include_phase=False`` drops the e^{ik rho} propagation factor, giving
    the purely quasi-static tensor used in the colinear closed-form rate.
    """
    rho_vec, rho = _separation(r, r_prime)
    e = rho_vec / rho[..., None]
    phase = np.exp(1j * omega * rho / C) if include_phase else 1.0
    pref = -(C**2) * phase / (4.0 * np.pi * omega**2 * rho**3)
    return _tensor(pref) * (IDENTITY - 3.0 * _outer(e))


def vacuum_bulk_r(r, r_prime, omega):
    """Far-zone (retarded) limit of the vacuum tensor: transverse projector.

    This is the large-distance limit of :func:`vacuum_bulk_exact`,
    (e^{ik rho}/4 pi rho)(I - e⊗e).
    """
    rho_vec, rho = _separation(r, r_prime)
    e = rho_vec / rho[..., None]
    return _tensor(np.exp(1j * omega * rho / C) / (4.0 * np.pi * rho)) * (
        IDENTITY - _outer(e)
    )


# --- half-space scattering: analytic on-axis limits -------------------------

def limit_reflection(env_or_material, omega):
    """(r_NR, r_R) limit reflection coefficients for an environment/material."""
    obj = env_or_material
    if isinstance(obj, Vacuum):
        return 0.0 + 0j, 0.0 + 0j
    if isinstance(obj, HalfSpace):
        obj = obj.material
    if isinstance(obj, PerfectReflector):
        return 1.0 + 0j, -1.0 + 0j
    eps = permittivity(obj, omega)
    return r_nonretarded(eps), r_retarded(eps)


def _heights(r, r_prime):
    """Both point arrays and their heights, which must be positive."""
    r = np.asarray(r, dtype=float)
    rp = np.asarray(r_prime, dtype=float)
    z, zp = r[..., 2], rp[..., 2]
    if np.any(z <= 0.0) or np.any(zp <= 0.0):
        raise GeometryError("both points must lie above the interface (z > 0)")
    return r, rp, z, zp


def _on_axis_heights(r, r_prime):
    r, rp, z, zp = _heights(r, r_prime)
    lateral = np.hypot(r[..., 0] - rp[..., 0], r[..., 1] - rp[..., 1])
    if np.any(lateral > 1e-9 * (z + zp)):
        raise GeometryError("analytic scattering limits hold on-axis only")
    return z, zp


def halfspace_scatter_nr(r, r_prime, omega, material):
    """Non-retarded on-axis limit of the half-space scattering tensor."""
    z, zp = _on_axis_heights(r, r_prime)
    r_nr, _ = limit_reflection(material, omega)
    pref = C**2 / (4.0 * np.pi * omega**2 * (z + zp) ** 3)
    return _tensor(pref) * r_nr * np.diag([1.0, 1.0, 2.0])


def halfspace_scatter_r(r, r_prime, omega, material):
    """Retarded on-axis limit of the half-space scattering tensor."""
    z, zp = _on_axis_heights(r, r_prime)
    _, r_r = limit_reflection(material, omega)
    zz = z + zp
    pref = np.exp(1j * zz * omega / C) / (4.0 * np.pi * zz)
    return _tensor(pref) * r_r * np.diag([1.0, 1.0, 0.0])


# --- perfect mirror: image construction -------------------------------------

def mirror_scatter_exact(r, r_prime, omega):
    """Scattering tensor of a perfect reflector via the image dipole.

    G1(r, r') = -G0(r, rbar') . diag(1, 1, -1) with rbar' the mirror image
    of r'; the sign convention reproduces Fresnel constants r_s = -1,
    r_p = +1.
    """
    r, rp, _, _ = _heights(r, r_prime)
    return -vacuum_bulk_exact(r, rp * _IMAGE_PARITY, omega) * _IMAGE_PARITY


# --- half-space scattering: full Sommerfeld evaluation -----------------------

# J0, J1 and J2 below x = 4: sum_k a_k s^k, x/2 sum_k b_k s^k and
# x^2/8 sum_k c_k s^k in s = x^2/8 - 1, to k = 14, the first term left out
# below 2e-20: the series sum_k (-4)^k / (k! (k+n)!) t^k in t = (x/4)^2 =
# (1 + s)/2 (times 2 for J2) re-expanded about t = 1/2 (mpmath, 40 digits).
# Its terms reach 4 at x = 4 and cancel to J0(4) = -0.40, so its rounding
# depends on the order in which a matrix product adds them: up to 3.8e-15
# for a lone argument. Each row's |coefficients| sum to at most 1.4.
_J012_SERIES = np.array([
    [
        -0.1965480952704682, -0.565959973761085, 0.4795280821510107,
        -0.13103206351364546, 0.01835270061006565, -0.001578954136687973,
        9.22817399022675e-05, -3.910341978706766e-06, 1.2577280628743836e-07,
        -3.177439513646153e-09, 6.474431144957353e-11, -1.0868374333186139e-12,
        1.5293231306100182e-14, -1.8301565026409144e-16, 1.885616936434574e-18,
    ],
    [
        0.2829799868805425, -0.4795280821510107, 0.1965480952704682,
        -0.0367054012201313, 0.003947385341719932, -0.0002768452197068025,
        1.3686196925473682e-05, -5.030912251497535e-07, 1.4298477811407688e-08,
        -3.2372155724786765e-10, 5.977605883252376e-12, -9.175938783660108e-14,
        1.1896017267165944e-15, -1.3199318555042018e-17,
        1.2677210760691464e-19,
    ],
    [
        0.4795280821510107, -0.3930961905409364, 0.1101162036603939,
        -0.01578954136687973, 0.0013842260985340124, -8.21171815528421e-05,
        3.5216385760482746e-06, -1.143878224912615e-07, 2.913494015230809e-09,
        -5.977605883252376e-11, 1.0093532662026119e-12,
        -1.4275220720599133e-14, 1.7159114121554624e-16,
        -1.774809506496805e-18, 1.5964677669145507e-20,
    ],
])

# J0 and J1 on [4, 8): the Taylor series about 6 in h = x - 6, with the
# coefficients J_n^(k)(6) / k! to k = 23 (mpmath, 40 digits); the first term
# left out is below 4e-18 at |h| = 2.
_J01_ABOUT_6 = np.array([
    [
        0.15064525725099692, 0.27668385812756563, -0.0983796168027956,
        -0.039367498300144674, 0.009276407324868195, 0.0015513507450481043,
        -0.00030597063486259503, -3.00379719845373e-05, 5.2271836052672425e-06,
        3.510618426683224e-07, -5.511322019111161e-08, -2.7609585487363876e-09,
        3.960776046407199e-10, 1.5645081640241745e-11, -2.069162890392662e-12,
        -6.697791108349888e-14, 8.222170622153802e-15, 2.243594838371826e-16,
        -2.570533958516868e-17, -6.04189814611231e-19, 6.49057354160017e-20,
        1.3365810739822966e-21, -1.3516480934739251e-22,
        -2.4721522186289535e-24,
    ],
    [
        -0.27668385812756563, 0.1967592336055912, 0.11810249490043402,
        -0.03710562929947278, -0.007756753725240521, 0.0018358238091755702,
        0.0002102658038917611, -4.181746884213794e-05, -3.1595565840149017e-06,
        5.511322019111162e-07, 3.037054403610026e-08, -4.7529312556886386e-09,
        -2.033860613231427e-10, 2.896828046549727e-11, 1.0046686662524833e-12,
        -1.3155472995446084e-13, -3.814111225232104e-15, 4.626961125330362e-16,
        1.1479606477613387e-17, -1.2981147083200339e-18,
        -2.8068202553628226e-20, 2.973625805642635e-21, 5.685950102846594e-23,
        -5.6679442446143114e-24,
    ],
])

# P0, Q0, P1 and Q1 of Hankel's form of J0 and J1 from x = 8 up (see
# _bessel_j012), as polynomials in y = (8/x)^2 of degree 11: mpmath's
# chebyfit on y in [0, 1] at 40 digits, to P and Q from mpmath's J_n and
# Y_n, within 2.6e-17 of them.
_J01_HANKEL = np.array([
    [
        1.0, -0.0010986328124932216, 2.738088336416646e-05,
        -2.1839132224663715e-06, 3.619758767812361e-07, -1.020564570797483e-07,
        4.2546291790572966e-08, -2.220099170349574e-08, 1.1738404575384732e-08,
        -5.095567444423025e-09, 1.4750393967466458e-09,
        -2.0391504603291065e-10,
    ],
    [
        -0.015624999999999976, 0.0001430511474538575, -6.9307858402402855e-06,
        8.238379757156372e-07, -1.8158032712012744e-07, 6.375387204287001e-08,
        -3.142366876079038e-08, 1.8400068951657234e-08,
        -1.0435629789967938e-08, 4.716861679104599e-09,
        -1.3980983130749886e-09, 1.9611107072011976e-10,
    ],
    [
        1.0, 0.0018310546874928113, -3.5203992971025806e-05,
        2.5809891297171923e-06, -4.102441117732622e-07, 1.1281774072269541e-07,
        -4.6292540376970764e-08, 2.3923017346240325e-08,
        -1.2580302532198723e-08, 5.444932988370198e-09,
        -1.5735706702738963e-09, 2.1732281186744534e-10,
    ],
    [
        0.04687499999999997, -0.0002002716064378206, 8.47096052798641e-06,
        -9.50582922063157e-07, 2.0294684457276046e-07, -6.984201010520019e-08,
        3.39793578734192e-08, -1.9739382005297028e-08, 1.1145494643485827e-08,
        -5.0254196725244136e-09, 1.487484957986028e-09,
        -2.0847373494450512e-10,
    ],
])


def _powers(u, n):
    """u^0, ..., u^(n-1) as the rows of an (n, u.size) array, each power
    from at most log2(n) products."""
    rows = np.empty((n, u.size))
    rows[0] = 1.0
    rows[1] = u
    k = 1
    while k + 1 < n:
        top = min(2 * k + 1, n)
        np.multiply(rows[1:top - k], rows[k], out=rows[k + 1:top])
        k *= 2
    return rows


def _bessel_j012(x):
    """J0, J1 and J2 of an array x >= 0, each of the shape of x.

    Below x = 4 all three are the series ``_J012_SERIES`` in x^2/8 - 1, so
    J2(0) = 0 exactly. From x = 4 up J2 = 2 J1/x - J0, and J0 and J1 are
    the Taylor series about 6 on [4, 8) (``_J01_ABOUT_6``) and from x = 8
    Hankel's form

        J0 = sqrt(1/(pi x)) [P0 (cos x + sin x) - (8/x) Q0 (sin x - cos x)]
        J1 = sqrt(1/(pi x)) [P1 (sin x - cos x) + (8/x) Q1 (sin x + cos x)]

    with P and Q the polynomials in (8/x)^2 of ``_J01_HANKEL``, each series
    one matrix product, and one sin and cos of x shared by both. Writing
    cos(x - pi/4) as (cos x + sin x)/sqrt(2) leaves x unrounded, where
    ``scipy.special.j0`` and ``j1`` round x - pi/4 to a double, which moves
    J by up to eps sqrt(x / 2 pi): 2.0e-15 and 1.5e-14 from mpmath on
    [8, 2000) and [2000, 1e5]. Against mpmath at 30 digits J0 and J1 are
    within 4e-16 below x = 8 and 1.4e-16 beyond, for any number of
    arguments, and J2 within 6.2e-16 relative below 4; J0(0) = 1 and
    J1(0) = 0 only to 4e-16 (see :func:`_bessel_columns`).
    """
    j0, j1, j2 = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape)
    below, beyond = x < 4.0, x >= 8.0
    between = ~(below | beyond)
    xs = x[below]
    t = 0.125 * xs * xs
    s0, s1, s2 = _J012_SERIES @ _powers(t - 1.0, 15)
    j0[below], j1[below], j2[below] = s0, 0.5 * xs * s1, t * s2
    xm = x[between]
    b0, b1 = _J01_ABOUT_6 @ _powers(xm - 6.0, 24)
    j0[between], j1[between], j2[between] = b0, b1, 2.0 * b1 / xm - b0
    xb = x[beyond]
    r = 8.0 / xb
    p0, q0, p1, q1 = _J01_HANKEL @ _powers(r * r, 12)
    cos, sin = np.cos(xb), np.sin(xb)
    plus, minus = cos + sin, sin - cos
    amp = np.sqrt(1.0 / (np.pi * xb))
    b0 = amp * (p0 * plus - r * q0 * minus)
    b1 = amp * (p1 * minus + r * q1 * plus)
    j0[beyond], j1[beyond], j2[beyond] = b0, b1, 2.0 * b1 / xb - b0
    return j0, j1, j2


def _kernel_columns(k_par, k_z, k1, r_s, r_p):
    """The phi-integrated integrand, apart from its weight and e^{i k_z Z},
    as four columns (c1 - c2, c1 + c2, c3, c4) along a new last axis, which
    multiply J0, J2, J0 and J1 of k_par rho: c1 = r_s, c2 = r_p (k_z/k1)^2,
    c3 = 2 r_p (k_par/k1)^2, c4 = -2i r_p k_z k_par / k1^2, with r_s and r_p
    the Fresnel coefficients at the same (k_par, k_z). Weighted by their
    Bessel functions and summed over the nodes, they are the columns that
    :func:`_components` turns into the components."""
    c2 = r_p * (k_z / k1) ** 2
    cols = np.empty(c2.shape + (4,), dtype=complex)
    np.subtract(r_s, c2, out=cols[..., 0])
    np.add(r_s, c2, out=cols[..., 1])
    np.multiply(2.0 * r_p, (k_par / k1) ** 2, out=cols[..., 2])
    np.divide(-2j * r_p * k_z * k_par, k1**2, out=cols[..., 3])
    return cols


def _bessel_columns(kernel, k_par, rho):
    """The columns of :func:`_kernel_columns`, shape (..., 1, 4), times
    J0, J2, J0 and J1 of k_par rho for each lateral offset rho: shape
    (..., len(rho), 4). When every rho is 0 (on axis) the factors are
    J0 = 1 and J1 = J2 = 0 exactly, and are not evaluated."""
    if not rho.any():
        return kernel * np.array([1.0, 0.0, 1.0, 0.0])
    b0, b1, b2 = _bessel_j012(k_par * rho)
    cols = np.empty(b0.shape + (4,), dtype=complex)
    for k, b in enumerate((b0, b2, b0, b1)):
        np.multiply(b, kernel[..., k], out=cols[..., k])
    return cols


def _components(cols):
    """Components (xx, yy, zz, xz) = (a + b, a - b, c, d) from the four
    Bessel-weighted columns (a, b, c, d) of :func:`_kernel_columns` along
    the last axis of the complex array ``cols``, written over them; zx =
    -xz."""
    b = cols[..., 1].copy()
    np.subtract(cols[..., 0], b, out=cols[..., 1])
    cols[..., 0] += b
    return cols


def _assemble(comps, phi0):
    """Tensor R g R^T from components ``(..., 4)`` (xx, yy, zz, xz) in the
    frame with the lateral separation along +x, where zx = -xz, rotated by
    ``phi0`` about z."""
    xx, yy, zz, xz = (comps[..., k] for k in range(4))
    c, s = np.cos(phi0), np.sin(phi0)
    cc, ss = c * c, s * s
    g = np.empty(np.broadcast(xx, c).shape + (3, 3), dtype=complex)
    np.add(cc * xx, ss * yy, out=g[..., 0, 0])
    np.add(ss * xx, cc * yy, out=g[..., 1, 1])
    np.multiply(c * s, xx - yy, out=g[..., 0, 1])
    g[..., 1, 0] = g[..., 0, 1]
    np.multiply(c, xz, out=g[..., 0, 2])
    np.multiply(s, xz, out=g[..., 1, 2])
    zx = -xz
    np.multiply(c, zx, out=g[..., 2, 0])
    np.multiply(s, zx, out=g[..., 2, 1])
    g[..., 2, 2] = zz
    return g


def _branch_edge(material, omega):
    """t_b = acosh(Re sqrt(eps)), where the branch point k1 sqrt(eps) of k_z2
    meets the evanescent segment k_par = k1 cosh(t), or 0.0 when
    Re sqrt(eps) <= 1 (metals, the perfect reflector): no branch point
    there."""
    if isinstance(material, PerfectReflector):
        return 0.0
    n = complex(sqrt_im_pos(permittivity(material, omega))).real
    return float(np.arccosh(n)) if n > 1.0 else 0.0


def _contour_edges(t_max, t_b):
    """Initial panels ``(lo, hi)`` on the contour abscissa s.

    The segment table (each line one initial panel; u_c^2 =
    min(1, (t_max - t_b) / 2)):

    =====  ========================  ======================================
    split  s                         k_par
    =====  ========================  ======================================
    both   [-1 - 3 pi/2, -1 - pi]    k1 sin(theta), theta = s + 1 + 3 pi/2
    yes    [-1 - pi, -1]             k1 cosh(t), t = t_b sin^2(v/2),
                                     v = s + 1 + pi
    yes    [-1, u_c - 1]             k1 cosh(t), t = t_b + u^2, u = s + 1
    yes    [t_b + u_c^2, t_max]      k1 cosh(t), t = s
    no     [0, t_max]                k1 cosh(t), t = s
    =====  ========================  ======================================

    The evanescent segment is split when t_b > 0 and the cut-off t_max lies
    beyond t_b (by more than 1e-9, so that every panel keeps a positive
    width). The substitutions make the square root of k_z2 analytic on both
    sides of t_b; the tail beyond t_b + u_c^2 stays linear, with t the
    abscissa itself, so that the fast oscillation of a near-surface tail is
    not sampled through a rounded change of variable. :func:`_contour_point`
    maps s back to k_par.
    """
    prop = -1.0 - np.pi
    if not (t_b > 0.0 and t_max > t_b + 1e-9):
        return np.array([prop - 0.5 * np.pi, 0.0]), np.array([prop, t_max])
    u_c = np.sqrt(min(1.0, 0.5 * (t_max - t_b)))
    return (np.array([prop - 0.5 * np.pi, prop, -1.0, t_b + u_c * u_c]),
            np.array([prop, -1.0, u_c - 1.0, t_max]))


def _contour_point(s, k1, t_b):
    """k_par, k_z and the jacobian k_par (dk_par/ds) / k_z at the contour
    abscissae ``s`` of :func:`_contour_edges`: k_par for theta and
    -i k_par dt/ds for the evanescent segments. The sines and cosines,
    the costly functions, are evaluated on the nodes of their own segment
    only."""
    theta = s + (1.0 + 1.5 * np.pi)
    prop = theta < 0.5 * np.pi
    below = ~prop & (s < -1.0)
    square = (s >= -1.0) & (s < 0.0)
    u = s + 1.0
    t = np.where(square, t_b + u * u, s)
    dt = np.where(square, 2.0 * u, 1.0)
    v = s[below] + (1.0 + np.pi)
    t[below] = t_b * np.sin(0.5 * v) ** 2
    dt[below] = 0.5 * t_b * np.sin(v)
    k_par = k1 * np.cosh(t)
    k_z = 1j * k1 * np.sinh(t)
    theta = theta[prop]
    k_par[prop] = k1 * np.sin(theta)
    k_z[prop] = k1 * np.cos(theta)
    jac = -1j * k_par * dt
    jac[prop] = k_par[prop]
    return k_par, k_z, jac


# A batch is reduced by one matrix product over its distinct heights Z and
# lateral offsets rho while it has at most _PRODUCT_RATIO distinct (Z, rho)
# combinations per geometry; a map or a z-sweep has one or two. Scattered
# points, where nearly every geometry has its own Z and rho, each multiply
# their own phase and Bessel terms instead, and run in blocks of at most
# _BLOCK geometries adjacent in Z, so that none is evaluated on the panels
# that only a far lower one needs. Both values come from the timings in
# BENCH_7.json and BENCH_8.json ("probes").
_PRODUCT_RATIO = 8
_BLOCK = 32

# Equal panels in s that each segment of _contour_edges starts with. The
# first adaptive rounds of a single panel per segment bisect nearly every
# panel, so they only build this mesh, one integrand call at a time; 6 runs
# as fast, 8 and more evaluate nodes that no geometry needs (BENCH_8.json).
_SEED_PANELS = 4


def _distinct_terms(z_sum, lateral):
    """Distinct heights Z and lateral offsets rho of a batch, each with the
    index of every geometry's entry: ``(big_z, z_of, rho, rho_of)``. A lone
    geometry is its own distinct Z and rho."""
    if len(z_sum) == 1:
        first = np.zeros(1, dtype=np.intp)
        return z_sum, first, lateral, first
    big_z, z_of = np.unique(z_sum, return_inverse=True)
    rho, rho_of = np.unique(lateral, return_inverse=True)
    return big_z, z_of, rho, rho_of


def _shares_terms(terms):
    """Whether a batch has few enough distinct (Z, rho) for one product."""
    big_z, z_of, rho, _ = terms
    return len(big_z) * len(rho) <= _PRODUCT_RATIO * len(z_of)


def _seeded_edges(lo, hi):
    """The panels ``(lo, hi)`` each cut into ``_SEED_PANELS`` equal ones;
    every original edge stays an edge, bit for bit. The edges are those of
    ``np.linspace(lo, hi, _SEED_PANELS + 1, axis=1)``, by its own formula
    lo + k (hi - lo) / _SEED_PANELS with the last edge set to hi."""
    step = (hi - lo) / _SEED_PANELS
    grid = np.arange(_SEED_PANELS + 1.0) * step[:, None] + lo[:, None]
    grid[:, -1] = hi
    return grid[:, :-1].ravel(), grid[:, 1:].ravel()


def _sommerfeld_run(terms, material, omega, t_b, rtol, atol):
    """Components (xx, yy, zz, xz) of the geometries of one shared
    adaptive run, shape (n, 4), and their error estimates.

    ``terms`` are the batch's distinct heights and lateral offsets from
    :func:`_distinct_terms`; ``atol`` holds each geometry's absolute
    tolerance. Each integrand call takes r_s and r_p from one call of
    :func:`mqret.media.fresnel` at the contour's own (k_par, k_z). The run
    starts from the segments of :func:`_contour_edges` for the lowest Z,
    each cut into ``_SEED_PANELS`` equal panels."""
    # imported per call: bench/tracing.py wraps quadrature.adaptive_quad_vec
    from .quadrature import RULES, adaptive_quad_vec

    big_z, z_of, rho, rho_of = terms
    n_rho, n_geo = len(rho), len(z_of)
    k1 = omega / C
    product = _shares_terms(terms)
    if product:
        # each geometry's entry (rule, geometry, column) in a panel's
        # product (Z, rule, rho, column), as flat offsets
        entry = np.ravel_multi_index(
            (z_of[:, None], np.arange(2)[:, None, None], rho_of[:, None],
             np.arange(4)), (len(big_z), 2, n_rho, 4))
    edges = _seeded_edges(*_contour_edges(
        float(np.arcsinh(_EVANESCENT_DECADES / (k1 * big_z[0]))), t_b))
    n_node = RULES.shape[1]
    pref = 1j / (8.0 * np.pi**2)

    def integrand(s):
        n_pan = s.size // n_node
        k_par, k_z, jac = (v.reshape(n_pan, n_node, 1)
                           for v in _contour_point(s, k1, t_b))
        # phase (panel, node, Z)
        phase = np.exp(1j * k_z * big_z) * (np.pi * pref * jac)
        # (panel, node, rho, column)
        r_s, r_p = fresnel(material, k_par, k_z, omega)
        cols = _bessel_columns(_kernel_columns(k_par, k_z, k1, r_s, r_p),
                               k_par, rho)
        if product:
            # per panel (Z, rule) x (rho, column), then each geometry's
            # entry (panel, rule, geometry, column): the one array as large
            # as the batch
            rows = np.empty((n_pan, len(big_z), 2, n_node), dtype=complex)
            np.multiply(phase.transpose(0, 2, 1)[:, :, None, :], RULES,
                        out=rows)
            prod = (rows.reshape(n_pan, -1, n_node)
                    @ cols.reshape(n_pan, n_node, -1))
            sums = np.take(prod.reshape(n_pan, -1), entry, axis=1)
        else:
            pair = (np.take(phase, z_of, axis=2)[..., None]
                    * np.take(cols, rho_of, axis=2))
            sums = (RULES @ pair.reshape(n_pan, n_node, -1)).reshape(
                n_pan, 2, n_geo, 4)
        return _components(sums).transpose(1, 0, 2, 3)

    return adaptive_quad_vec(integrand, *edges, rtol=rtol, atol=atol)


def halfspace_scatter_full(r, r_prime, omega, material, rtol=1e-9, atol=0.0):
    """Full scattering Green's tensor of the half-space.

    Angular-spectrum integral over k_par with the azimuthal integration done
    analytically (J0/J1/J2 kernels). The propagating segment is parametrised
    as k_par = k sin(theta) and the evanescent one as k_par = k cosh(t),
    which removes the 1/k_z branch-point singularity of k_z1 at k_par = k.
    When Re sqrt(eps) > 1 (dielectrics), the branch point k sqrt(eps) of
    k_z2 lies on the evanescent segment at t_b = acosh(Re sqrt(eps)). If it
    lies before the cut-off, that segment is split there: t = t_b
    sin^2(v/2), v in [0, pi], below it, and t = t_b + u^2 on a stretch of
    at most 1 in t beyond it, then t itself. The square root is then
    analytic on both sides of the edge and the panels converge
    geometrically instead of algebraically (see :func:`_contour_edges`).
    Metals (Re sqrt(eps) <= 1) and the perfect reflector keep the two plain
    segments. r_s and r_p are :func:`mqret.media.fresnel` of the material as
    given, at each node's own k_par and k_z = k cos(theta) or i k sinh(t),
    so that the contour alone picks the branch of k_z; k_z2 takes the
    Im >= 0 branch, for a lossless eps the passive +i0 one.
    All segments are integrated in one adaptive call over the abscissa s,
    with a panel boundary where two segments join. Each segment
    starts as ``_SEED_PANELS`` = 4 equal panels, the mesh that the first
    rounds from one panel per segment would only build by bisection; a
    lone near-zone tensor converges on it in one round.

    A batch of points shares one contour and one adaptive panel set, each
    geometry with its own tolerance ``atol + rtol * max|component|`` on
    each component (xx, yy, zz, xz) in the frame of its lateral
    separation; ``atol``, in the units of the tensor, broadcasts against
    the batch shape of the points, so that each geometry can have its own.
    A rate passes the share of its error budget that each tensor may use
    (see :mod:`mqret.rates`). The tail is
    cut where kappa (z+z') = 40 for the lowest geometry; past its own
    cut-off a higher one adds terms below e^-40. The integrand depends on
    a geometry only through e^{i k_z Z}, Z = z + z', and the Bessel
    functions of k_par rho, rho the lateral distance. So the per-node terms
    are evaluated once per node, the phase once per distinct Z and the
    Bessel functions once per distinct rho, and not at all on axis, where
    J0 = 1 and J1 = J2 = 0; the distinct values are found once per run (a
    lone geometry has its own). When the batch has at most
    ``_PRODUCT_RATIO`` distinct (Z, rho) combinations per geometry (a map,
    a z-sweep), each panel is reduced by its K21 and G10 weights as a
    matrix product over (Z, rule) and (rho, column), from which each
    geometry takes its (Z, rho) entry by flat offsets fixed once per run,
    so that the rule sums come out panel by panel, the order in which the
    quadrature sums them.
    Otherwise (scattered points) each geometry multiplies its own phase and
    Bessel terms, 21 nodes by 4 columns per panel, and the batch runs in
    blocks of at most ``_BLOCK`` geometries adjacent in Z, each with its
    own contour and panel set, so that no geometry is refined where only a
    far lower one needs it. Either way the largest array holds at most 84
    entries per geometry and panel (the product 8 ``_PRODUCT_RATIO`` = 64).

    The error estimate of a tensor is its panel estimate |K21 - G10|, at
    least the rounding level of its panel sum (see
    :func:`mqret.quadrature.adaptive_quad_vec`), which also covers the tail
    the cut-off leaves out: about 3e-15 of a near-surface tensor, while the
    seeded panels can bring |K21 - G10| down to 1e-15.

    Returns ``(tensor, relative_error_estimate)``; for points of shape
    (..., 3) the estimate has shape (...).
    """
    r, rp, _, _ = _heights(r, r_prime)
    if r.shape != rp.shape:
        r, rp = np.broadcast_arrays(r, rp)
    shape = r.shape[:-1]
    atol = np.asarray(atol, dtype=float)
    if atol.shape != shape:
        atol = np.broadcast_to(atol, shape)
    atol = atol.ravel()
    r, rp = r.reshape(-1, 3), rp.reshape(-1, 3)
    z_sum = r[:, 2] + rp[:, 2]
    d = r - rp
    lateral = np.hypot(d[:, 0], d[:, 1])
    phi0 = np.where(lateral > 0.0, np.arctan2(d[:, 1], d[:, 0]), 0.0)
    t_b = _branch_edge(material, omega)

    def run(block_terms, block_atol):
        return _sommerfeld_run(block_terms, material, omega, t_b, rtol,
                               block_atol)

    terms = _distinct_terms(z_sum, lateral)
    if _shares_terms(terms):
        comps, err = run(terms, atol)
    else:
        comps = np.empty((len(z_sum), 4), dtype=complex)
        err = np.empty(comps.shape)
        order = np.argsort(z_sum, kind="stable")
        for block in np.array_split(order, -(-len(order) // _BLOCK)):
            comps[block], err[block] = run(
                _distinct_terms(z_sum[block], lateral[block]), atol[block])
    scale = np.maximum(np.abs(comps).max(axis=1), 1e-300)
    g = _assemble(comps, phi0).reshape(shape + (3, 3))
    rel = (err.max(axis=1) / scale).reshape(shape)
    return g, (float(rel) if rel.ndim == 0 else rel)


# --- total tensor assembly ---------------------------------------------------

def is_sommerfeld(env, method):
    """Whether :func:`green_scatter` evaluates the scattering tensor of
    ``method`` in ``env`` as a Sommerfeld integral, the only one with a
    quadrature error; the others are closed forms."""
    return (method == "exact" and isinstance(env, HalfSpace)
            and not isinstance(env.material, PerfectReflector))


def green_scatter(env, r, r_prime, omega, method="exact", rtol=1e-9,
                  atol=0.0):
    """Scattering part of the Green's tensor for an environment.

    ``method``: "exact" (image construction or full Sommerfeld), "nr" or
    "r" (on-axis analytic limits). ``rtol`` and ``atol`` are the
    tolerances of a Sommerfeld evaluation (see
    :func:`halfspace_scatter_full`); the closed forms ignore them.
    """
    if is_sommerfeld(env, method):
        return halfspace_scatter_full(r, r_prime, omega, env.material,
                                      rtol=rtol, atol=atol)
    if method not in ("exact", "nr", "r"):
        raise ValueError(f"unknown method {method!r}")
    if isinstance(env, Vacuum):
        shape = np.broadcast_shapes(np.shape(r), np.shape(r_prime))[:-1]
        return np.zeros(shape + (3, 3), dtype=complex), 0.0
    if not isinstance(env, HalfSpace):
        raise TypeError(f"unknown environment {env!r}")
    if method != "exact":
        fn = halfspace_scatter_nr if method == "nr" else halfspace_scatter_r
        return fn(r, r_prime, omega, env), 0.0
    return mirror_scatter_exact(r, r_prime, omega), 0.0


def green_bulk(r, r_prime, omega, method="exact", include_phase=True):
    """Bulk (homogeneous-space) part per requested method: "exact", "nr"
    or "r"."""
    if method == "exact":
        return vacuum_bulk_exact(r, r_prime, omega)
    if method == "nr":
        return vacuum_bulk_nr(r, r_prime, omega, include_phase=include_phase)
    if method == "r":
        return vacuum_bulk_r(r, r_prime, omega)
    raise ValueError(f"unknown method {method!r}")


def green_total(env, r, r_prime, omega, part="total", method="exact"):
    """Total (bulk + scattering) Green's tensor.

    ``part``: "bulk", "scatter" or "total". For a vacuum environment the
    scattering part is the zero tensor; a Sommerfeld scattering part is
    integrated to the default tolerance of :func:`green_scatter`.
    """
    if part not in ("bulk", "scatter", "total"):
        raise ValueError(f"unknown part {part!r}")
    g = np.zeros((3, 3), dtype=complex)
    if part in ("bulk", "total"):
        g = g + green_bulk(r, r_prime, omega, method=method)
    if part in ("scatter", "total"):
        gs, _ = green_scatter(env, r, r_prime, omega, method=method)
        g = g + gs
    return g
