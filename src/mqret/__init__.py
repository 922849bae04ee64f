"""Environment-modified two- and three-body resonance energy transfer rates
from macroscopic Green's tensors."""

from .core import (
    C,
    DEBYE,
    EPS0,
    HBAR,
    MU0,
    GeometryError,
    QuadratureError,
    dyadic_reciprocity_defect,
)
from .greens import (
    HalfSpace,
    PerfectMirror,
    Vacuum,
    green_total,
    halfspace_scatter_full,
    halfspace_scatter_nr,
    halfspace_scatter_r,
    mirror_scatter_exact,
    vacuum_bulk_exact,
    vacuum_bulk_nr,
    vacuum_bulk_r,
)
from .media import (
    Constant,
    DrudeLorentz,
    PerfectReflector,
    StaticScalar,
    fresnel,
    permittivity,
    polarizability,
    r_nonretarded,
    r_retarded,
)
from .rates import (
    Dipole,
    Mediator,
    RateResult,
    forster_vacuum,
    gamma0,
    gamma_trans_qd,
    gamma_xx_mirror,
    rate_colinear_approx,
    rate_isotropic,
    rate_oriented,
)

__version__ = "0.1.0"
