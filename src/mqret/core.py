"""Physical constants, error types and dyadic helpers (SI units throughout).

Lengths entered in units of the donor transition wavelength are converted to
meters at configuration load; everything below that layer is plain SI double
precision.
"""

import numpy as np

# c and h are exact in the 2019 SI; mu_0 is the CODATA 2022 value. Written
# out, they equal scipy.constants (1.17) bit for bit, and importing that
# module would double the start-up time of every CLI run.
C = 299792458.0
MU0 = 1.25663706127e-06
EPS0 = 1.0 / (MU0 * C**2)  # pinned so that EPS0 * MU0 * C**2 == 1 exactly
HBAR = 6.62607015e-34 / (2.0 * np.pi)
DEBYE = 1e-21 / C  # 1 Debye in C*m

TINY = 1e-300

IDENTITY = np.eye(3)


class GeometryError(ValueError):
    """Degenerate or inadmissible body geometry."""


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the achieved relative error estimate in ``estimate``.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


def frobenius(a):
    return float(np.linalg.norm(np.asarray(a)))


def dyadic_reciprocity_defect(g_ab, g_ba):
    """Relative Frobenius defect of the reciprocity relation G_ab = G_ba^T."""
    return frobenius(np.asarray(g_ab) - np.asarray(g_ba).T) / max(
        frobenius(g_ab), TINY
    )


def wavelength(omega):
    if omega <= 0:
        raise ValueError("angular frequency must be positive")
    return 2.0 * np.pi * C / omega


def angular_frequency(lam):
    if lam <= 0:
        raise ValueError("wavelength must be positive")
    return 2.0 * np.pi * C / lam
