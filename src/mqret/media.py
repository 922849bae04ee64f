"""Material response: permittivity models, interface reflection coefficients
and the mediator polarizability.

Sign conventions: the roots taken here use the Im >= 0 branch (decaying
evanescent waves); the vacuum k_z is the caller's. r_p(k_par -> 0) =
-r_retarded(eps) and r_s(k_par -> 0) = +r_retarded(eps).
"""

from dataclasses import dataclass

import numpy as np

from .core import C


class SymbolicMaterialError(ValueError):
    """A perfect reflector has no numeric permittivity; callers must branch."""


class SurfaceModeError(ValueError):
    """eps = -1 pole of the non-retarded reflection coefficient."""


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
    """Complex relative permittivity of a material model at frequency
    omega."""
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


def fresnel(material, k_par, k_z, omega):
    """s- and p-polarized reflection coefficients of the half-space at the
    vacuum k_par and k_z (1/m) of the caller's contour, complex allowed,
    k_z^2 = k1^2 - k_par^2. Only k_z2 = sqrt(k_z^2 + (eps - 1) k1^2) is
    taken here, from the contour's own k_z: eps k1^2 - k_par^2, two terms
    of size k1^2, cancels near k_par = k1, where k_z2 of a nearly
    index-matched material is small. r_s = (1 - eps) k1^2 / (k_z + k_z2)^2
    and r_p = (eps - 1)(eps k1^2 - (eps + 1) k_par^2) / (eps k_z + k_z2)^2,
    the difference forms factored, vanish exactly at eps = 1. Returns
    (r_s, r_p), broadcast over k_par and k_z.
    """
    if isinstance(material, PerfectReflector):
        shape = np.broadcast_shapes(np.shape(k_par), np.shape(k_z))
        return (np.full(shape, -1.0 + 0j), np.full(shape, 1.0 + 0j))
    eps = permittivity(material, omega)
    k1sq = (omega / C) ** 2
    k_par_sq = k_par * k_par
    kz2 = sqrt_im_pos(k_z * k_z + (eps - 1.0) * k1sq)
    r_s = (1.0 - eps) * k1sq / (k_z + kz2) ** 2
    r_p = (eps - 1.0) * (eps * k1sq - (eps + 1.0) * k_par_sq) / (
        eps * k_z + kz2) ** 2
    return r_s, r_p


# --- mediator polarizability ------------------------------------------------

@dataclass(frozen=True)
class StaticScalar:
    alpha: float  # C^2 m^2 / J


def polarizability(model, k):
    """Isotropic polarizability of the mediator at wavenumber k; a static
    scalar is the same at every k."""
    if isinstance(model, StaticScalar):
        return complex(model.alpha)
    raise TypeError(f"unknown polarizability model {model!r}")
