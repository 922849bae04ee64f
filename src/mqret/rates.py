"""Resonance energy transfer rates.

One geometry gives three tensors, G_AD, G_AM and G_MD, built by
``_coupling``: G_AM and G_MD once per rate, G_AD once per donor-acceptor
pair, since it does not depend on the mediator (a sweep evaluates it once,
before its rows, and passes it to each rate as ``direct``). They form the
coupling tensor F = G_AD + mu0 w^2 alpha G_AM G_MD. The oriented rate, the
isotropically averaged rate and the mediator-free reference rate Gamma_0
are projections of those tensors. The module also holds the colinear near/far-zone closed
form and the two-body reference formulas used for consistency checks.

The "limits" method takes the quasi-static (phase-free) near-zone tensor on
the donor-acceptor leg and the far-zone tensors on both mediator legs,
matching the approximation scheme behind the closed-form colinear rate. The
"exact" method uses the closed-form bulk tensor plus the image or
Sommerfeld scattering tensor.

``rtol`` is the relative accuracy asked of F, not of each tensor. A
Sommerfeld tensor gets an absolute tolerance from that budget, taken
against the bulk tensors, which cost nothing: G_AD may err by rtol
||G0_AD|| (Frobenius norms), and each mediator leg by its half of
rtol ||F0||, where F0 = G_AD + mu0 w^2 alpha G0_AM G0_MD has bulk mediator
legs (see ``_leg_tolerances``). A tensor whose error F cannot see, such as
the nearly vanishing scattering part of an index-matched half-space,
stops refining as soon as it meets that share. The error estimate of a
rate propagates the errors that the tensors achieved, whatever their
tolerances were.
"""

from dataclasses import dataclass

import numpy as np

from .core import C, HBAR, MU0, EPS0, TINY, GeometryError, wavelength
from .greens import (HalfSpace, green_bulk, green_scatter, is_sommerfeld,
                     limit_reflection)
from .media import polarizability

MIN_SEPARATION_WAVELENGTHS = 1e-4


@dataclass(frozen=True)
class Dipole:
    position: np.ndarray      # m
    moment: np.ndarray        # complex, C*m

    def __post_init__(self):
        if np.linalg.norm(self.moment) == 0.0:
            raise ValueError("dipole moment must be non-zero")


@dataclass(frozen=True)
class Mediator:
    position: np.ndarray
    polarizability: object    # media polarizability model


@dataclass(frozen=True)
class RateResult:
    gamma: float                       # 1/s
    gamma_normalized: float            # Gamma / Gamma_0
    matrix_element_direct: complex | None = None
    matrix_element_indirect: complex | None = None
    error_estimate: float = 0.0


def _check_positions(env, positions, omega):
    """The dipole-approximation and surface guards of a rate's bodies."""
    lam = wavelength(omega)
    pos = [np.asarray(p, dtype=float) for p in positions]
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            dist = np.linalg.norm(pos[i] - pos[j], axis=-1)
            if np.any(dist < MIN_SEPARATION_WAVELENGTHS * lam):
                raise GeometryError(
                    "pairwise separation below the dipole-approximation guard "
                    f"({MIN_SEPARATION_WAVELENGTHS} wavelengths)"
                )
    if isinstance(env, HalfSpace):
        for p in positions:
            if np.any(np.asarray(p)[..., 2] <= 0.0):
                raise GeometryError("all bodies must satisfy z > 0 near a surface")


def _green(env, r, r_prime, omega, method, rtol, bulk, atol):
    """Total tensor and a bound on the Frobenius norm of its error, from the
    bulk tensor ``bulk`` of the same points and method and the scattering
    tensor, integrated to ``atol + rtol * max|component|`` if it is a
    Sommerfeld integral.

    The Sommerfeld estimate is relative to the largest of the components
    (xx, yy, zz, xz) of the scattering tensor in its own frame, where it
    has five non-zero entries (zx = -xz); the rotation keeps the Frobenius
    norm, so the absolute error is at most sqrt(5) times that estimate
    times the tensor's Frobenius norm.
    """
    gs, err = green_scatter(env, r, r_prime, omega, method=method, rtol=rtol,
                            atol=atol)
    if np.any(err):   # the closed forms are exact and report 0.0
        err = np.sqrt(5.0) * err * np.sqrt(_norm2(gs))
    return bulk + gs, err


def _direct_leg(env, r_a, r_d, omega, method, rtol):
    """G_AD of a rate ``method`` and the bound on its error, evaluated in a
    tensor call of its own to the absolute tolerance rtol ||G0_AD|| / sqrt(5)
    per component that its own bulk tensor G0_AD sets, so that it is the
    same whatever else a sweep evaluates."""
    # the bulk tensor of the "limits" direct leg is the phase-free "nr" one
    method = "nr" if method == "limits" else "exact"
    r_a, r_d = np.asarray(r_a, dtype=float), np.asarray(r_d, dtype=float)
    g0 = green_bulk(r_a, r_d, omega, method=method, include_phase=False)
    atol = rtol * np.sqrt(_norm2(g0) / 5.0)
    return _green(env, r_a, r_d, omega, method, rtol, g0, atol)


def _leg_tolerances(g_ad, g0_am, g0_md, scale, rtol):
    """Absolute tolerances of the G_AM legs, then of the G_MD legs, of N
    geometries, per component, from bulk legs G0_AM and G0_MD of shape
    (N, 3, 3) and the mediated factor ``scale`` = mu0 w^2 alpha.

    An error dA of G_AM moves F by at most |scale| ||dA|| ||G_MD||, and a
    Sommerfeld tensor within ``atol`` per component errs by at most
    sqrt(5) atol (five non-zero entries). So each leg, priced against the
    bulk tensor of the other leg, gets half of rtol ||F0|| with
    F0 = G_AD + scale G0_AM G0_MD.
    """
    share = (rtol * np.sqrt(_norm2(g_ad + scale * (g0_am @ g0_md)))
             / (2.0 * np.sqrt(5.0) * abs(scale)))
    return np.concatenate([share / np.sqrt(_norm2(g0_md)),
                           share / np.sqrt(_norm2(g0_am))])


def _coupling(env, r_a, r_d, omega, mediator=None, method="exact", rtol=1e-9,
              direct=None):
    """The tensors of one geometry: ``(G_AD, mu0 w^2 alpha G_AM G_MD, err)``.

    Their sum is the coupling tensor F(A, M, D); the mediated term is zero
    without a mediator or at alpha = 0. ``method`` "limits" uses the
    phase-free near-zone tensor for the direct leg and the far-zone tensors
    for both mediator legs; "exact" uses the exact tensor on every leg.
    ``err`` bounds the Frobenius norm of the error of F, propagated to first
    and second order from the absolute error of each leg. Reciprocity gives
    F(D, M, A) = F(A, M, D)^T, so no rate needs the reversed legs.
    ``direct`` is the pair's ``(G_AD, err)`` as ``_direct_leg`` returns
    it; without it, G_AD is evaluated there, with the same result. The
    Sommerfeld legs are integrated to the tolerances of
    ``_leg_tolerances``, so ``rtol`` is the relative accuracy asked of F.

    A mediator position of shape (N, 3) gives the mediated terms and errors
    of N geometries, with G_AM and G_MD of all N from one tensor call. Its
    Sommerfeld tensors share one panel set, so each depends, within the
    quadrature tolerance, on which positions share the call.
    """
    if method not in ("exact", "limits"):
        raise ValueError(f"unknown method {method!r}")
    legs = "r" if method == "limits" else "exact"
    positions = [r_d, r_a]
    alpha = 0.0
    if mediator is not None:
        positions.append(mediator.position)
        alpha = polarizability(mediator.polarizability, omega / C)
    _check_positions(env, positions, omega)

    g_ad, err = direct or _direct_leg(env, r_a, r_d, omega, method, rtol)
    batch = np.shape(mediator.position)[:-1] if mediator is not None else ()
    if alpha == 0.0:
        return g_ad, np.zeros(batch + (3, 3), dtype=complex), err + np.zeros(batch)
    r_m = np.asarray(mediator.position, dtype=float).reshape(-1, 3)
    r_a = np.broadcast_to(np.asarray(r_a, dtype=float), r_m.shape)
    r_d = np.broadcast_to(np.asarray(r_d, dtype=float), r_m.shape)
    ends = np.concatenate([r_a, r_m]), np.concatenate([r_m, r_d])
    g0 = green_bulk(*ends, omega, method=legs)
    n = len(r_m)
    scale = MU0 * omega**2 * alpha
    atol = 0.0
    if is_sommerfeld(env, legs):
        atol = _leg_tolerances(g_ad, g0[:n], g0[n:], scale, rtol)
    g, e = _green(env, *ends, omega, legs, rtol, g0, atol)
    e = np.broadcast_to(e, g.shape[:1])
    g_am, g_md = g[:n].reshape(batch + (3, 3)), g[n:].reshape(batch + (3, 3))
    e_med = np.zeros(batch)
    if np.any(e):
        e_am, e_md = e[:n].reshape(batch), e[n:].reshape(batch)
        # ||dA B + A dB + dA dB|| <= ||dA|| ||B|| + ||A|| ||dB|| + ||dA|| ||dB||
        e_med = (e_am * np.sqrt(_norm2(g_md)) + np.sqrt(_norm2(g_am)) * e_md
                 + e_am * e_md)
    return g_ad, scale * (g_am @ g_md), err + abs(scale) * e_med


def rate_oriented(donor, acceptor, env, omega, mediator=None, method="exact",
                  rtol=1e-9):
    """Oriented transfer rate from Fermi's golden rule.

    Gamma = (2 pi mu0^2 w^4 / hbar) |d_A* . [G_AD + mu0 w^2 alpha G_AM G_MD]
    . d_D|^2; with no mediator this is the two-body rate. Normalization is
    against the mediator-free rate from the same G_AD. A mediator position
    of shape (N, 3) gives arrays of length N, as in :func:`rate_isotropic`.
    """
    g_ad, g_med, err = _coupling(env, acceptor.position, donor.position,
                                 omega, mediator, method, rtol)
    d_a = np.conj(acceptor.moment)
    amp0 = d_a @ g_ad @ donor.moment
    amp_med = d_a @ g_med @ donor.moment
    pref = 2.0 * np.pi * MU0**2 * omega**4 / HBAR
    amp = amp0 + amp_med
    amp2 = amp.real**2 + amp.imag**2
    gamma = pref * amp2
    # |d_A* . dF . d_D| <= |d_A| |d_D| ||dF||
    amp_err = (np.linalg.norm(acceptor.moment) * np.linalg.norm(donor.moment)
               * err)
    gamma0_val = pref * (amp0.real**2 + amp0.imag**2)
    return _result(
        gamma=gamma,
        gamma_normalized=gamma / max(gamma0_val, TINY),
        matrix_element_direct=np.full(np.shape(gamma), MU0 * omega**2 * amp0),
        matrix_element_indirect=(None if mediator is None
                                 else -MU0 * omega**2 * amp_med),
        error_estimate=_squared_error(amp_err, np.sqrt(amp2)),
    )


def rate_isotropic(d_donor, d_acceptor, r_donor, r_acceptor, env, omega,
                   mediator=None, method="exact", rtol=1e-9, direct=None):
    """Isotropically averaged transfer rate.

    ``d_donor`` and ``d_acceptor`` are dipole magnitudes (C*m); the averaging
    rule consumes |d|^2 only. Gamma = (2 pi mu0^2 w^4 / 9 hbar) |d_A|^2
    |d_D|^2 Tr[F(A,M,D) . F*(D,M,A)], which reciprocity reduces to the
    squared Frobenius norm of F(A,M,D); Gamma_0 is the same with G_AD alone.
    The error estimate bounds |dGamma / Gamma| by 2 ||dF|| / ||F|| (plus its
    square), with ||dF|| propagated from the tensor errors.

    A mediator position of shape (N, 3) gives the rates of N mediator
    positions in one call; the result's fields are then arrays of length N.
    ``direct`` is the donor-acceptor pair's G_AD and its error, as a sweep
    keeps it (see :func:`_coupling`); the rate is the same without it.
    """
    if d_donor <= 0.0 or d_acceptor <= 0.0:
        raise ValueError("dipole magnitudes must be positive")
    g_ad, g_med, err = _coupling(env, r_acceptor, r_donor, omega, mediator,
                                 method, rtol, direct)
    pref = (2.0 * np.pi * MU0**2 * omega**4 / (9.0 * HBAR)
            * d_donor**2 * d_acceptor**2)
    f2 = _norm2(g_ad + g_med)
    gamma = pref * f2
    gamma0_val = pref * _norm2(g_ad)
    return _result(gamma=gamma,
                   gamma_normalized=gamma / max(gamma0_val, TINY),
                   error_estimate=_squared_error(err, np.sqrt(f2)))


def _result(**fields):
    """A RateResult of Python scalars for one geometry, of arrays for N."""
    if np.ndim(fields["gamma"]) == 0:
        fields = {k: v if v is None else np.asarray(v).item()
                  for k, v in fields.items()}
    return RateResult(**fields)


def _norm2(g):
    """Squared Frobenius norm of each 3x3 tensor."""
    return (g.real**2 + g.imag**2).sum(axis=(-2, -1))


def _squared_error(err, value):
    """Bound on the relative error of value^2 from an absolute error ``err``
    of value: |(v + e)^2 - v^2| / v^2 <= 2x + x^2 with x = e/v."""
    x = err / np.maximum(value, TINY)
    return 2.0 * x + x * x


# --- colinear closed form ----------------------------------------------------

def _require_colinear_order(z_d, z_a, z_m=None):
    ok = 0.0 < z_d < z_a and (z_m is None or z_a < z_m)
    if not ok:
        raise GeometryError("colinear geometry requires 0 < z_D < z_A < z_M")


def rate_colinear_approx(z_d, z_a, z_m, env, alpha, omega, d_acceptor, d_donor):
    """Closed-form colinear rate: near-zone direct leg, far-zone mediator legs.

    ``env`` supplies the (r_NR, r_R) limit reflection coefficients; ``alpha``
    is the isotropic mediator polarizability in SI (C^2 m^2 / J).
    """
    _require_colinear_order(z_d, z_a, z_m)
    r_nr, r_r = limit_reflection(env, omega)
    k = omega / C
    zmns = z_a - z_d
    zpls = z_a + z_d

    direct = r_nr / zpls**3 + 1.0 / zmns**3
    c_expr = 4.0 * np.pi * C**2 * (1.0 / zmns**3 - r_nr / zpls**3)
    if alpha != 0.0:
        med = (
            MU0 * omega**4 * alpha
            * np.exp(-1j * k * (z_a + z_d - 2.0 * z_m))
            / ((z_a - z_m) * (z_a + z_m) * (z_m - z_d) * (z_d + z_m))
            * (r_r * (z_a - z_m) * np.exp(2j * k * z_a) - z_a - z_m)
            * (r_r * (z_m - z_d) * np.exp(2j * k * z_d) + z_d + z_m)
        )
        c_expr = c_expr - med

    pref = MU0**2 * C**4 * d_acceptor**2 * d_donor**2 / (18.0 * np.pi * HBAR)
    gamma = pref * (abs(direct) ** 2
                    + abs(c_expr) ** 2 / (32.0 * np.pi**2 * C**4))
    g0 = gamma0(z_d, z_a, r_nr, d_acceptor, d_donor)
    return RateResult(gamma=float(gamma),
                      gamma_normalized=float(gamma / max(g0, TINY)))


def gamma0(z_d, z_a, r_nr, d_acceptor, d_donor):
    """Mediator-free isotropic colinear rate near the interface."""
    _require_colinear_order(z_d, z_a)
    zmns = z_a - z_d
    zpls = z_a + z_d
    r_nr = complex(r_nr).real
    pref = C**4 * MU0**2 * d_acceptor**2 * d_donor**2 / (36.0 * np.pi * HBAR)
    return pref * (3.0 * r_nr**2 / zpls**6
                   + 2.0 * r_nr / (zmns**3 * zpls**3)
                   + 3.0 / zmns**6)


def gamma_xx_mirror(z_d, z_a, r_nr, d_ax, d_dx):
    """Two-body rate for x-aligned dipoles near the interface (quasi-static)."""
    _require_colinear_order(z_d, z_a)
    zmns = z_a - z_d
    zpls = z_a + z_d
    pref = d_ax**2 * d_dx**2 / (8.0 * np.pi * HBAR * EPS0**2)
    return pref * (1.0 / zmns**6
                   - 2.0 * r_nr / (zmns**3 * zpls**3)
                   + r_nr**2 / zpls**6)


def gamma_trans_qd(z_d, z_a, k, d_ax, d_dx):
    """Mirror-modified two-body rate for aligned transverse dipoles.

    Retains the cos(2 k z_D) standing-wave factor; its k -> 0 limit equals
    :func:`gamma_xx_mirror` with r_NR = 1.
    """
    _require_colinear_order(z_d, z_a)
    zmns = z_a - z_d
    zpls = z_a + z_d
    pref = d_ax**2 * d_dx**2 / (8.0 * np.pi * HBAR * EPS0**2)
    return pref * (1.0 / zmns**6
                   - 2.0 * np.cos(2.0 * k * z_d) / (zmns**3 * zpls**3)
                   + 1.0 / zpls**6)


def forster_vacuum(separation, d_acceptor, d_donor):
    """Two-body isotropic vacuum rate, c^4 mu0^2 |d_A|^2 |d_D|^2 / (12 pi hbar R^6)."""
    if separation <= 0.0:
        raise ValueError("separation must be positive")
    return (C**4 * MU0**2 * d_acceptor**2 * d_donor**2
            / (12.0 * np.pi * HBAR * separation**6))
