"""Material response: permittivity models, interface reflection coefficients
and the mediator polarizability.

Sign conventions: the principal square root with Im >= 0 is used everywhere
(decaying evanescent waves), and the Fresnel coefficients are fixed so that
r_p(k_par -> 0) = -r_retarded(eps) and r_s(k_par -> 0) = +r_retarded(eps).
"""

from dataclasses import dataclass
from numbers import Number

import numpy as np

from .core import C, HBAR


class SymbolicMaterialError(ValueError):
    """A perfect reflector has no numeric permittivity; callers must branch."""


class SurfaceModeError(ValueError):
    """eps = -1 pole of the non-retarded reflection coefficient."""


class MediatorResonanceError(ValueError):
    """Mediator driven inside the resonance guard band |E_rs - hbar*c*k|."""


# --- permittivity -----------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    eps: complex


@dataclass(frozen=True)
class DrudeLorentz:
    omega_p: float  # rad/s
    omega_0: float  # rad/s
    gamma: float    # rad/s


@dataclass(frozen=True)
class PerfectReflector:
    pass


def permittivity(model, omega):
    """Complex relative permittivity of a material model at frequency omega.

    A bare number is taken as a frequency-independent permittivity.
    """
    if isinstance(model, PerfectReflector):
        raise SymbolicMaterialError(
            "perfect reflector is symbolic; no numeric permittivity"
        )
    if isinstance(model, Constant):
        return complex(model.eps)
    if isinstance(model, DrudeLorentz):
        return 1.0 + model.omega_p**2 / (
            model.omega_0**2 - omega**2 - 1j * model.gamma * omega
        )
    if isinstance(model, Number):
        return complex(model)
    raise TypeError(f"unknown permittivity model {model!r}")


def sqrt_im_pos(z):
    """Principal square root folded onto the Im >= 0 branch."""
    s = np.sqrt(np.asarray(z, dtype=complex))
    return np.where(s.imag < 0.0, -s, s)


def r_nonretarded(eps):
    """Non-retarded (quasi-static) reflection coefficient (eps-1)/(eps+1)."""
    eps = complex(eps)
    if abs(eps + 1.0) < 1e-12 * (1.0 + abs(eps)):
        raise SurfaceModeError("eps = -1: surface-mode pole of (eps-1)/(eps+1)")
    return (eps - 1.0) / (eps + 1.0)


def r_retarded(eps):
    """Retarded (normal-incidence Fresnel) coefficient (1-sqrt(eps))/(1+sqrt(eps))."""
    s = complex(sqrt_im_pos(complex(eps)))
    return (1.0 - s) / (1.0 + s)


def fresnel(material, k_par, omega):
    """s- and p-polarized reflection coefficients of the half-space.

    ``material`` may be a permittivity model or a complex eps. Accepts scalar
    or array k_par (1/m); returns (r_s, r_p) of matching shape.
    """
    if isinstance(material, PerfectReflector):
        shape = np.shape(k_par)
        return (np.full(shape, -1.0 + 0j), np.full(shape, 1.0 + 0j))
    eps = permittivity(material, omega)
    k_par = np.asarray(k_par, dtype=float)
    k1sq = (omega / C) ** 2
    kz1 = sqrt_im_pos(k1sq - k_par**2)
    kz2 = sqrt_im_pos(eps * k1sq - k_par**2)
    r_s = (kz1 - kz2) / (kz1 + kz2)
    r_p = (eps * kz1 - kz2) / (eps * kz1 + kz2)
    return r_s, r_p


# --- mediator polarizability ------------------------------------------------

RESONANCE_GUARD = 1e-6


@dataclass(frozen=True)
class StaticScalar:
    alpha: float  # C^2 m^2 / J


@dataclass(frozen=True)
class TwoLevel:
    dipole: float  # transition dipole magnitude, C*m
    energy: float  # transition energy E_rs, J

    def __post_init__(self):
        if self.energy <= 0:
            raise ValueError("two-level transition energy must be positive")


def polarizability(model, k):
    """Isotropic dynamic polarizability of the mediator at wavenumber k.

    Two-level terms contribute |d|^2 [1/(E + hbar c k) + 1/(E - hbar c k)];
    the model is even in k. Evaluation inside the resonance guard band is
    rejected: the polarizability here is real and non-absorptive, so a
    near-resonant mediator is outside model validity.
    """
    if isinstance(model, StaticScalar):
        return complex(model.alpha)
    terms = model if isinstance(model, (list, tuple)) else [model]
    photon = HBAR * C * abs(k)
    total = 0.0
    for term in terms:
        if not isinstance(term, TwoLevel):
            raise TypeError(f"unknown polarizability model {term!r}")
        if abs(term.energy - photon) < RESONANCE_GUARD * term.energy:
            raise MediatorResonanceError(
                "photon energy inside the mediator resonance guard band"
            )
        total += term.dipole**2 * (
            1.0 / (term.energy + photon) + 1.0 / (term.energy - photon)
        )
    return complex(total)
