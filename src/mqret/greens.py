"""Green's-tensor evaluators.

Vacuum bulk tensor (closed form plus near- and far-zone limits), half-space
scattering tensor (on-axis analytic limits and a full angular-spectrum
Sommerfeld evaluation), image construction for a perfect mirror, and total
tensor assembly per environment.

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
converge geometrically. The segment table is in :func:`_contour_edges`.

Every tensor function takes points of shape (..., 3), broadcast against each
other, and returns tensors of shape (..., 3, 3), one per geometry; the
Sommerfeld evaluator integrates all geometries in one adaptive run.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import j0, j1

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

# small positive imaginary nudge stabilising the branch point for lossless eps
_LOSSLESS_NUDGE = 1e-12j


@dataclass(frozen=True)
class Vacuum:
    pass


@dataclass(frozen=True)
class HalfSpace:
    """Dielectric filling z < 0; vacuum for z > 0."""

    material: object = field(default_factory=PerfectReflector)


@dataclass(frozen=True)
class PerfectMirror:
    """Perfectly reflecting plane at z = 0."""


Environment = Vacuum | HalfSpace | PerfectMirror


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


def vacuum_bulk(rho_vec, omega):
    """Homogeneous-space dyadic for separation vector rho_vec.

    Accepts complex omega (used by the contour-identity oracle on the
    imaginary frequency axis).
    """
    rho_vec, rho = _separation(rho_vec, 0.0)
    e = rho_vec / rho[..., None]
    x = omega * rho / C
    pref = -(C**2) * np.exp(1j * x) / (4.0 * np.pi * omega**2 * rho**3)
    return _tensor(pref) * (_tensor(1.0 - 1j * x - x**2) * IDENTITY
                            - _tensor(3.0 - 3j * x - x**2) * _outer(e))


def vacuum_bulk_exact(r, r_prime, omega):
    """Closed-form vacuum Green's tensor G0(r, r', omega)."""
    return vacuum_bulk(np.asarray(r, dtype=float) - np.asarray(r_prime, dtype=float),
                       omega)


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
    if isinstance(obj, PerfectMirror):
        return 1.0 + 0j, -1.0 + 0j
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
    r = np.asarray(r, dtype=float)
    rp = np.asarray(r_prime, dtype=float)
    if np.any(r[..., 2] <= 0.0) or np.any(rp[..., 2] <= 0.0):
        raise GeometryError("both points must lie above the mirror (z > 0)")
    return -vacuum_bulk(r - rp * _IMAGE_PARITY, omega) * _IMAGE_PARITY


# --- half-space scattering: full Sommerfeld evaluation -----------------------

def _reflection_callable(material, omega):
    if isinstance(material, PerfectReflector):
        return lambda k_par: fresnel(material, k_par, omega)
    eps = permittivity(material, omega)
    if eps.imag == 0.0:
        eps = eps + _LOSSLESS_NUDGE  # passivity-consistent branch-point regularisation
    return lambda k_par: fresnel(eps, k_par, omega)


def _bessel_j012(x):
    """J0, J1 and J2 of x >= 0, with J2 from the recurrence 2 J1(x)/x - J0(x)
    (J2(0) = 0), several times cheaper than ``scipy.special.jn(2, x)``."""
    b0, b1 = j0(x), j1(x)
    positive = x > 0.0
    return b0, b1, np.where(positive, 2.0 * b1 / np.where(positive, x, 1.0) - b0, 0.0)


def _angular_components(k_par, k_z, k1, big_z, lateral, refl, weight=1.0):
    """phi-integrated integrand components in the frame with the lateral
    separation along +x.

    Returns shape (n, 5): (xx, yy, zz, xz, zx) including the e^{i k_z Z}
    propagation factor and a per-node ``weight`` (the contour jacobian, if
    the caller wants it in).
    """
    b0, b1, b2 = _bessel_j012(k_par * lateral)
    r_s, r_p = refl(k_par)
    w = np.pi * weight * np.exp(1j * k_z * big_z)
    s_w, p_w = r_s * w, r_p * w
    q = p_w * (k_z / k1) ** 2
    even, odd = b0 + b2, b0 - b2
    comps = np.empty(np.shape(w) + (5,), dtype=complex)
    comps[..., 0] = s_w * even - q * odd
    comps[..., 1] = s_w * odd - q * even
    comps[..., 2] = p_w * (2.0 * (k_par / k1) ** 2 * b0)
    comps[..., 3] = p_w * (k_z * (-2j * k_par / k1**2 * b1))
    comps[..., 4] = -comps[..., 3]
    return comps


def _assemble(comps, phi0):
    """Tensor R g R^T from components ``(..., 5)`` in the frame with the
    lateral separation along +x, rotated by ``phi0`` about z."""
    xx, yy, zz, xz, zx = np.moveaxis(np.asarray(comps, dtype=complex), -1, 0)
    c, s = np.cos(phi0), np.sin(phi0)
    cs = c * s * (xx - yy)
    return np.stack([
        np.stack([c * c * xx + s * s * yy, cs, c * xz], axis=-1),
        np.stack([cs, s * s * xx + c * c * yy, s * xz], axis=-1),
        np.stack([c * zx, s * zx, zz], axis=-1),
    ], axis=-2)


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
    """Initial panels ``(lo, hi)``, each of shape (N, P), on the contour
    abscissa s, and whether each geometry's evanescent segment is split at
    ``t_b``.

    The segment table, one for every geometry and material (each line one
    initial panel; u_c^2 = min(1, (t_max - t_b) / 2)):

    =====  ========================  ======================================
    split  s                         k_par
    =====  ========================  ======================================
    no     [0, pi/2]                 k1 sin(theta), theta = s
    no     [pi/2, pi/2 + t_max]      k1 cosh(t), t = s - pi/2
    yes    [-1 - 3 pi/2, -1 - pi]    k1 sin(theta), theta = s + 1 + 3 pi/2
    yes    [-1 - pi, -1]             k1 cosh(t), t = t_b sin^2(v/2),
                                     v = s + 1 + pi
    yes    [-1, u_c - 1]             k1 cosh(t), t = t_b + u^2, u = s + 1
    yes    [t_b + u_c^2, t_max]      k1 cosh(t), t = s
    =====  ========================  ======================================

    A geometry is split when t_b > 0 and its cut-off t_max lies beyond t_b
    (by more than 1e-9, so that every panel keeps a positive width). The
    substitutions make the square root of k_z2 analytic on both sides
    of t_b; the tail beyond t_b + u_c^2 stays linear, with t the abscissa
    itself, so that the fast oscillation of a near-surface tail is not
    sampled through a rounded change of variable. With t_b > 0 every
    geometry gets four initial panels, so that a batch keeps one width: an
    unsplit one cuts its evanescent segment in three. Without a branch
    point (t_b = 0) there are two, the segments of a metal.
    """
    n = len(t_max)
    half_pi = 0.5 * np.pi
    if t_b == 0.0:
        edges = np.stack([np.zeros(n), np.full(n, half_pi), half_pi + t_max],
                         axis=1)
        return (edges[:, :-1], edges[:, 1:]), np.zeros(n, dtype=bool)
    split = t_max > t_b + 1e-9
    u_c = np.sqrt(np.minimum(1.0, 0.5 * np.where(split, t_max - t_b, 0.0)))
    lo = np.stack([np.full(n, -1.0 - 1.5 * np.pi), np.full(n, -1.0 - np.pi),
                   np.full(n, -1.0), t_b + u_c * u_c], axis=1)
    hi = np.stack([lo[:, 1], lo[:, 2], u_c - 1.0, t_max], axis=1)
    cuts = half_pi + t_max[:, None] * np.array([0.0, 1.0, 2.0, 3.0]) / 3.0
    unsplit = np.concatenate([np.zeros((n, 1)), cuts], axis=1)
    return (np.where(split[:, None], lo, unsplit[:, :-1]),
            np.where(split[:, None], hi, unsplit[:, 1:])), split


def halfspace_scatter_full(r, r_prime, omega, material, rtol=1e-9,
                           max_panels=4000):
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
    segments. The tail is truncated where kappa (z+z') = 40. All segments
    are integrated in one adaptive call over the abscissa s, with a panel
    boundary where two segments join; the tolerance applies to the whole
    tensor. Batches of points are separate integrals of one adaptive run,
    each geometry with its own segments and tolerance.

    Returns ``(tensor, relative_error_estimate)``; for points of shape
    (..., 3) the estimate has shape (...).
    """
    from .quadrature import adaptive_quad_vec

    r, rp, _, _ = _heights(r, r_prime)
    r, rp = np.broadcast_arrays(r, rp)
    shape = r.shape[:-1]
    r, rp = r.reshape(-1, 3), rp.reshape(-1, 3)
    z, zp = r[:, 2], rp[:, 2]
    big_z = z + zp
    dx, dy = r[:, 0] - rp[:, 0], r[:, 1] - rp[:, 1]
    lateral = np.hypot(dx, dy)
    phi0 = np.where(lateral > 0.0, np.arctan2(dy, dx), 0.0)
    k1 = omega / C
    refl = _reflection_callable(material, omega)
    t_b = _branch_edge(material, omega)
    edges, split = _contour_edges(
        np.arcsinh(_EVANESCENT_DECADES / (k1 * big_z)), t_b)
    pref = 1j / (8.0 * np.pi**2)
    half_pi = 0.5 * np.pi

    def integrand(x):
        s, i = np.ascontiguousarray(x["s"]), x["i"]
        sp = split[i]
        theta = np.where(sp, s + (1.0 + 1.5 * np.pi), s)
        prop = theta < half_pi
        below = sp & (s < -1.0)
        square = sp & (s >= -1.0) & (s <= 0.0)
        v, u = s + (1.0 + np.pi), s + 1.0
        t = np.where(below, t_b * np.sin(0.5 * v) ** 2,
                     np.where(square, t_b + u * u, np.where(sp, s, s - half_pi)))
        dt = np.where(below, 0.5 * t_b * np.sin(v), np.where(square, 2.0 * u, 1.0))
        k_par = np.where(prop, k1 * np.sin(theta), k1 * np.cosh(t))
        k_z = np.where(prop, k1 * np.cos(theta), 1j * k1 * np.sinh(t))
        # contour jacobian k_par dk_par / k_z: k_par for theta, -i k_par dt/ds
        # for the evanescent segments
        jac = np.where(prop, pref * k_par, -1j * pref * k_par * dt)
        return _angular_components(k_par, k_z, k1, big_z[i], lateral[i], refl,
                                   jac)

    comps, err = adaptive_quad_vec(integrand, *edges, rtol=rtol,
                                   max_panels=max_panels)
    scale = np.maximum(np.abs(comps).max(axis=1), 1e-300)
    g = _assemble(comps, phi0).reshape(shape + (3, 3))
    rel = (err.max(axis=1) / scale).reshape(shape)
    return g, (float(rel) if rel.ndim == 0 else rel)


# --- total tensor assembly ---------------------------------------------------

def green_scatter(env, r, r_prime, omega, method="auto", rtol=1e-9):
    """Scattering part of the Green's tensor for an environment.

    ``method``: "auto"/"exact" (image construction or full Sommerfeld),
    "nr" or "r" (on-axis analytic limits).
    """
    if isinstance(env, Vacuum):
        shape = np.broadcast_shapes(np.shape(r), np.shape(r_prime))[:-1]
        return np.zeros(shape + (3, 3), dtype=complex), 0.0
    if method in ("nr", "r"):
        fn = halfspace_scatter_nr if method == "nr" else halfspace_scatter_r
        return fn(r, r_prime, omega, env), 0.0
    if method not in ("auto", "exact"):
        raise ValueError(f"unknown method {method!r}")
    if isinstance(env, PerfectMirror):
        return mirror_scatter_exact(r, r_prime, omega), 0.0
    if isinstance(env, HalfSpace):
        if isinstance(env.material, PerfectReflector):
            return mirror_scatter_exact(r, r_prime, omega), 0.0
        return halfspace_scatter_full(r, r_prime, omega, env.material, rtol=rtol)
    raise TypeError(f"unknown environment {env!r}")


def green_bulk(r, r_prime, omega, method="auto", include_phase=True):
    """Bulk (homogeneous-space) part per requested method."""
    if method in ("auto", "exact"):
        return vacuum_bulk_exact(r, r_prime, omega)
    if method == "nr":
        return vacuum_bulk_nr(r, r_prime, omega, include_phase=include_phase)
    if method == "r":
        return vacuum_bulk_r(r, r_prime, omega)
    raise ValueError(f"unknown method {method!r}")


def green_total(env, r, r_prime, omega, part="total", method="auto",
                rtol=1e-9, include_phase=True):
    """Total (bulk + scattering) Green's tensor.

    ``part``: "bulk", "scatter" or "total". For a vacuum environment the
    scattering part is the zero tensor.
    """
    if part not in ("bulk", "scatter", "total"):
        raise ValueError(f"unknown part {part!r}")
    g = np.zeros((3, 3), dtype=complex)
    if part in ("bulk", "total"):
        g = g + green_bulk(r, r_prime, omega, method=method,
                           include_phase=include_phase)
    if part in ("scatter", "total"):
        gs, _ = green_scatter(env, r, r_prime, omega, method=method, rtol=rtol)
        g = g + gs
    return g
