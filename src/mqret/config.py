"""Configuration loading and validation.

Config files are JSON. All lengths are entered in units of the donor
transition wavelength lambda_D (matching the published figure axes) and
converted to SI on load; the mediator response is entered as a
polarizability volume alpha / 4 pi eps0 in units of lambda_D^3.
"""

import json
from dataclasses import dataclass

import numpy as np

from .core import C, DEBYE, EPS0, angular_frequency
from .greens import HalfSpace, PerfectMirror, Vacuum
from .media import Constant, DrudeLorentz, permittivity


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SimulationConfig:
    environment: object
    omega: float                  # rad/s
    lambda_d: float               # m
    donor: np.ndarray             # m, y = 0 (bodies live in the x-z plane)
    acceptor: np.ndarray          # m
    mediator: np.ndarray | None   # m, or None for a pure two-body setup
    has_mediator: bool            # mediator block present in the config
    alpha: float                  # SI polarizability, C^2 m^2 / J
    d_donor: float                # C*m
    d_acceptor: float             # C*m
    method: str                   # limits | exact ("auto" reads as exact)
    quad_rtol: float
    clip_radius: float            # lambda_D units, for 2-D maps


def _object(data, context):
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a JSON object, not "
                          f"{type(data).__name__}")
    return data


def _require(data, key, context):
    if key not in _object(data, context):
        raise ConfigError(f"missing required field '{key}' in {context}")
    return data[key]


def _number(value, name, kind=float):
    """``value`` as ``kind``, or a ConfigError naming the field. Only JSON
    numbers are numbers, not true, false (to Python 1 and 0) or "1e-6";
    a complex ``kind`` also takes a string such as "2.25+0.1j"."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if is_number or (kind is complex and isinstance(value, str)):
        try:
            return kind(value)
        except (ValueError, OverflowError):
            pass
    raise ConfigError(f"{name} must be a number, not {value!r}")


def _finite(perm, key, kind=float, default=None):
    """The permittivity field ``key`` as ``kind``, which must be finite."""
    value = _number(_require(perm, key, "permittivity") if default is None
                    else perm.get(key, default), f"permittivity {key}", kind)
    if not np.isfinite(value):
        raise ConfigError(f"permittivity {key} must be finite")
    return value


def _parse_environment(data, omega):
    kind = _require(data, "type", "environment")
    if kind == "vacuum":
        return Vacuum()
    if kind == "mirror":
        return PerfectMirror()
    if kind == "halfspace":
        perm = _require(data, "permittivity", "environment.halfspace")
        pkind = _require(perm, "type", "permittivity")
        if pkind == "constant":
            return HalfSpace(Constant(_finite(perm, "value", complex)))
        if pkind == "drude_lorentz":
            metal = DrudeLorentz(
                omega_p=_finite(perm, "omega_p"),
                omega_0=_finite(perm, "omega_0"),
                gamma=_finite(perm, "gamma", default=0.0),
            )
            try:   # a lossless resonance divides by zero
                if np.isfinite(permittivity(metal, omega)):
                    return HalfSpace(metal)
            except (ZeroDivisionError, OverflowError):
                pass
            raise ConfigError("permittivity omega_p, omega_0 and gamma give "
                              "no finite permittivity at omega_d, as omega_0 "
                              "at omega_d with gamma 0 does")
        if pkind == "perfect":
            return PerfectMirror()
        raise ConfigError(f"unknown permittivity type '{pkind}'")
    raise ConfigError(f"unknown environment type '{kind}'")


def _parse_body(data, name, lambda_d):
    z = _number(_require(data, "z", name), f"{name} z") * lambda_d
    x = _number(data.get("x", 0.0), f"{name} x") * lambda_d
    return np.array([x, 0.0, z])


def parse_config(data):
    """Build a validated SimulationConfig from a parsed JSON object."""
    if "omega_d" in _object(data, "config"):
        omega = _number(data["omega_d"], "omega_d")
        if not 0 < omega < np.inf:
            raise ConfigError("omega_d must be positive and finite")
        lambda_d = 2.0 * np.pi * C / omega
    elif "lambda_d_m" in data:
        lambda_d = _number(data["lambda_d_m"], "lambda_d_m")
        if not 0 < lambda_d < np.inf:
            raise ConfigError("lambda_d_m must be positive and finite")
        omega = angular_frequency(lambda_d)
    else:
        raise ConfigError("config must set 'omega_d' (rad/s) or 'lambda_d_m'")

    env = _parse_environment(_require(data, "environment", "config"), omega)
    donor = _parse_body(_require(data, "donor", "config"), "donor", lambda_d)
    acceptor = _parse_body(_require(data, "acceptor", "config"), "acceptor",
                           lambda_d)

    mediator = None
    alpha = 0.0
    has_mediator = "mediator" in data
    if has_mediator:
        med = data["mediator"]
        vol = _number(_require(med, "polarizability_volume", "mediator"),
                      "mediator polarizability_volume")
        alpha = 4.0 * np.pi * EPS0 * vol * lambda_d**3
        if "z" in med:
            mediator = _parse_body(med, "mediator", lambda_d)

    dip = data.get("dipoles", "normalized")
    if dip == "normalized":
        d_donor = d_acceptor = DEBYE
    else:
        d_donor = _number(_require(dip, "donor_debye", "dipoles"),
                          "dipoles donor_debye") * DEBYE
        d_acceptor = _number(_require(dip, "acceptor_debye", "dipoles"),
                             "dipoles acceptor_debye") * DEBYE

    method = data.get("method", "exact")
    if method not in ("auto", "limits", "exact"):
        raise ConfigError(f"unknown method '{method}'")
    if method == "auto":
        method = "exact"

    cfg = SimulationConfig(
        environment=env,
        omega=omega,
        lambda_d=lambda_d,
        donor=donor,
        acceptor=acceptor,
        mediator=mediator,
        has_mediator=has_mediator,
        alpha=alpha,
        d_donor=d_donor,
        d_acceptor=d_acceptor,
        method=method,
        quad_rtol=_number(data.get("quad_rtol", 1e-9), "quad_rtol"),
        clip_radius=_number(data.get("clip_radius", 0.15), "clip_radius"),
    )
    _validate(cfg)
    return cfg


def _validate(cfg):
    near_surface = isinstance(cfg.environment, HalfSpace)
    bodies = {"donor": cfg.donor, "acceptor": cfg.acceptor}
    if cfg.mediator is not None:
        bodies["mediator"] = cfg.mediator
    for name, pos in bodies.items():
        if not np.all(np.isfinite(pos)):
            raise ConfigError(f"{name} position must be finite")
        if near_surface and pos[2] <= 0.0:
            raise ConfigError(f"{name} must lie above the surface (z > 0)")
    colinear = all(abs(p[0]) < 1e-12 * cfg.lambda_d for p in bodies.values())
    if colinear and cfg.acceptor[2] <= cfg.donor[2]:
        raise ConfigError("colinear geometry requires z_donor < z_acceptor")
    if not 0 < cfg.quad_rtol < np.inf:
        raise ConfigError("quad_rtol must be positive and finite")
    if not 0 <= cfg.clip_radius < np.inf:
        raise ConfigError("clip_radius must be non-negative and finite")
    if not np.isfinite(cfg.alpha):
        raise ConfigError("mediator polarizability_volume must be finite")
    if not (0 < cfg.d_donor < np.inf and 0 < cfg.d_acceptor < np.inf):
        raise ConfigError("dipole magnitudes must be positive and finite")


def load_config(path):
    """Load a JSON config file into a validated SimulationConfig."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config '{path}' is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}"
        ) from exc
    return parse_config(data)
