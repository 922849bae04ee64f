"""Resonance energy transfer rates.

One geometry gives three tensors, G_AD, G_AM and G_MD, built by
``_coupling``: G_AM and G_MD once per rate, G_AD once per donor-acceptor
pair and process, since it does not depend on the mediator. They form the
coupling tensor F = G_AD + mu0 w^2 alpha G_AM G_MD. The oriented rate, the
isotropically averaged rate and the mediator-free reference rate Gamma_0 are
projections of those tensors. The module also holds the colinear near/far-zone
closed form and the two-body reference formulas used for consistency checks.

The "limits" method takes the quasi-static (phase-free) near-zone tensor on
the donor-acceptor leg and the far-zone tensors on both mediator legs,
matching the approximation scheme behind the closed-form colinear rate. The
"exact"/"auto" methods use the closed-form bulk tensor plus the image or
Sommerfeld scattering tensor.
"""

from dataclasses import dataclass

import numpy as np

from .core import C, HBAR, MU0, EPS0, TINY, GeometryError, wavelength
from .greens import (
    HalfSpace,
    PerfectMirror,
    green_bulk,
    green_scatter,
    limit_reflection,
)
from .media import polarizability

MIN_SEPARATION_WAVELENGTHS = 1e-4


@dataclass(frozen=True)
class Dipole:
    position: np.ndarray      # m
    moment: np.ndarray        # complex, C*m
    role: str | None = None   # "donor" | "acceptor"

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


def _check_geometry(positions, omega):
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


def _check_heights(env, positions):
    if isinstance(env, (HalfSpace, PerfectMirror)):
        for p in positions:
            if np.any(np.asarray(p)[..., 2] <= 0.0):
                raise GeometryError("all bodies must satisfy z > 0 near a surface")


def _green(env, r, r_prime, omega, method, rtol, include_phase=True):
    """Total tensor with a propagated quadrature error estimate."""
    gb = green_bulk(r, r_prime, omega, method=method, include_phase=include_phase)
    gs, err = green_scatter(env, r, r_prime, omega, method=method, rtol=rtol)
    return gb + gs, err


# G_AD per donor-acceptor pair, so that a sweep over mediator positions
# evaluates it once per pair and process; least recently used first
_DIRECT_LEGS = {}
_DIRECT_LEGS_MAX = 8


def _remember(key, leg):
    """Keep ``leg`` = (G_AD, err) under ``key`` as the most recent entry.

    The key is everything the tensor depends on, and the tensor depends on
    nothing else (it is the same whichever batch it was evaluated in), so a
    hit returns exactly what a fresh evaluation would. The kept tensor is
    read-only because every hit shares it.
    """
    leg[0].flags.writeable = False
    _DIRECT_LEGS.pop(key, None)
    _DIRECT_LEGS[key] = leg
    while len(_DIRECT_LEGS) > _DIRECT_LEGS_MAX:
        del _DIRECT_LEGS[next(iter(_DIRECT_LEGS))]
    return leg


def _point_key(r):
    # adding 0.0 maps -0.0 to 0.0, which the key already treats as equal
    return tuple((np.asarray(r, dtype=float) + 0.0).tolist())


def _coupling(env, r_a, r_d, omega, mediator=None, method="auto", rtol=1e-9,
              include_phase=True):
    """The tensors of one geometry: ``(G_AD, mu0 w^2 alpha G_AM G_MD, err)``.

    Their sum is the coupling tensor F(A, M, D); the mediated term is zero
    without a mediator or at alpha = 0. ``method`` "limits" uses the
    phase-free near-zone tensor for the direct leg and the far-zone tensors
    for both mediator legs; "exact"/"auto"/"nr"/"r" use that tensor on every
    leg, and ``include_phase`` applies to the direct leg only. ``err`` is
    the sum of the leg error estimates. Reciprocity gives
    F(D, M, A) = F(A, M, D)^T, so no rate needs the reversed legs. G_AD
    comes from the ``_DIRECT_LEGS`` memo; the returned G_AD is read-only.

    A mediator position of shape (N, 3) gives the mediated terms and errors
    of N geometries, with G_AM and G_MD of all N from one tensor call, which
    also evaluates G_AD when the memo misses it.
    """
    if method == "limits":
        direct, legs, include_phase = "nr", "r", False
    elif method in ("auto", "exact", "nr", "r"):
        direct = legs = method
    else:
        raise ValueError(f"unknown method {method!r}")
    positions = [r_d, r_a]
    alpha = 0.0
    if mediator is not None:
        positions.append(mediator.position)
        alpha = polarizability(mediator.polarizability, omega / C)
    _check_geometry(positions, omega)
    _check_heights(env, positions)

    key = (env, _point_key(r_a), _point_key(r_d), float(omega), direct,
           float(rtol), bool(include_phase))
    leg = _DIRECT_LEGS.get(key)
    batch = np.shape(mediator.position)[:-1] if mediator is not None else ()
    # on a miss, G_AD joins the tensor call of the mediator legs if it can
    fold = leg is None and alpha != 0.0 and direct == legs and include_phase
    if leg is None and not fold:
        leg = _green(env, np.asarray(r_a, dtype=float),
                     np.asarray(r_d, dtype=float), omega, direct, rtol,
                     include_phase)
    if alpha == 0.0:
        g_ad, err = _remember(key, leg)
        return g_ad, np.zeros(batch + (3, 3), dtype=complex), err + np.zeros(batch)
    r_m = np.asarray(mediator.position, dtype=float).reshape(-1, 3)
    r_a = np.broadcast_to(np.asarray(r_a, dtype=float), r_m.shape)
    r_d = np.broadcast_to(np.asarray(r_d, dtype=float), r_m.shape)
    near, far = [r_a, r_m], [r_m, r_d]
    if fold:
        near.append(r_a[:1])
        far.append(r_d[:1])
    g, e = _green(env, np.concatenate(near), np.concatenate(far), omega, legs,
                  rtol)
    e = np.broadcast_to(e, g.shape[:1])
    if fold:
        leg = (g[-1].copy(), e[-1])
    g_ad, err = _remember(key, leg)
    n = len(r_m)
    g_am, g_md = g[:n].reshape(batch + (3, 3)), g[n:2 * n].reshape(batch + (3, 3))
    e_am, e_md = e[:n].reshape(batch), e[n:2 * n].reshape(batch)
    return g_ad, MU0 * omega**2 * alpha * (g_am @ g_md), err + e_am + e_md


def rate_oriented(donor, acceptor, env, omega, mediator=None, method="auto",
                  rtol=1e-9, include_phase=True):
    """Oriented transfer rate from Fermi's golden rule.

    Gamma = (2 pi mu0^2 w^4 / hbar) |d_A* . [G_AD + mu0 w^2 alpha G_AM G_MD]
    . d_D|^2; with no mediator this is the two-body rate. Normalization is
    against the mediator-free rate from the same G_AD.
    """
    g_ad, g_med, err = _coupling(env, acceptor.position, donor.position,
                                 omega, mediator, method, rtol, include_phase)
    d_a = np.conj(acceptor.moment)
    amp0 = d_a @ g_ad @ donor.moment
    amp_med = d_a @ g_med @ donor.moment
    pref = 2.0 * np.pi * MU0**2 * omega**4 / HBAR
    gamma = pref * abs(amp0 + amp_med) ** 2
    gamma0_val = pref * abs(amp0) ** 2
    return RateResult(
        gamma=float(gamma),
        gamma_normalized=float(gamma / max(gamma0_val, TINY)),
        matrix_element_direct=complex(MU0 * omega**2 * amp0),
        matrix_element_indirect=(None if mediator is None
                                 else complex(-MU0 * omega**2 * amp_med)),
        error_estimate=float(err),
    )


def rate_isotropic(d_donor, d_acceptor, r_donor, r_acceptor, env, omega,
                   mediator=None, method="auto", rtol=1e-9):
    """Isotropically averaged transfer rate.

    ``d_donor`` and ``d_acceptor`` are dipole magnitudes (C*m); the averaging
    rule consumes |d|^2 only. Gamma = (2 pi mu0^2 w^4 / 9 hbar) |d_A|^2
    |d_D|^2 Tr[F(A,M,D) . F*(D,M,A)], which reciprocity reduces to the
    squared Frobenius norm of F(A,M,D); Gamma_0 is the same with G_AD alone.
    The error estimate counts every leg twice, once per factor of the trace.

    A mediator position of shape (N, 3) gives the rates of N mediator
    positions in one call; the result's fields are then arrays of length N.
    """
    if d_donor <= 0.0 or d_acceptor <= 0.0:
        raise ValueError("dipole magnitudes must be positive")
    g_ad, g_med, err = _coupling(env, r_acceptor, r_donor, omega, mediator,
                                 method, rtol)
    pref = (2.0 * np.pi * MU0**2 * omega**4 / (9.0 * HBAR)
            * d_donor**2 * d_acceptor**2)
    gamma = pref * _norm2(g_ad + g_med)
    gamma0_val = pref * _norm2(g_ad)
    fields = {"gamma": gamma,
              "gamma_normalized": gamma / max(gamma0_val, TINY),
              "error_estimate": 2.0 * err}
    if np.ndim(gamma) == 0:
        fields = {k: float(v) for k, v in fields.items()}
    return RateResult(**fields)


def _norm2(g):
    """Squared Frobenius norm of each 3x3 tensor."""
    return (g.real**2 + g.imag**2).sum(axis=(-2, -1))


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
