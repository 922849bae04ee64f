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
from .media import Constant, DrudeLorentz, PerfectReflector


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
    method: str                   # auto | limits | exact
    quad_rtol: float
    clip_radius: float            # lambda_D units, for 2-D maps


def _require(data, key, context):
    if key not in data:
        raise ConfigError(f"missing required field '{key}' in {context}")
    return data[key]


def _parse_environment(data):
    kind = _require(data, "type", "environment")
    if kind == "vacuum":
        return Vacuum()
    if kind == "mirror":
        return PerfectMirror()
    if kind == "halfspace":
        perm = _require(data, "permittivity", "environment.halfspace")
        pkind = _require(perm, "type", "permittivity")
        if pkind == "constant":
            return HalfSpace(Constant(complex(_require(perm, "value",
                                                       "permittivity"))))
        if pkind == "drude_lorentz":
            return HalfSpace(DrudeLorentz(
                omega_p=float(_require(perm, "omega_p", "permittivity")),
                omega_0=float(_require(perm, "omega_0", "permittivity")),
                gamma=float(perm.get("gamma", 0.0)),
            ))
        if pkind == "perfect":
            return HalfSpace(PerfectReflector())
        raise ConfigError(f"unknown permittivity type '{pkind}'")
    raise ConfigError(f"unknown environment type '{kind}'")


def _parse_body(data, name, lambda_d):
    x = float(data.get("x", 0.0)) * lambda_d
    z = float(_require(data, "z", name)) * lambda_d
    return np.array([x, 0.0, z])


def parse_config(data):
    """Build a validated SimulationConfig from a parsed JSON object."""
    if "omega_d" in data:
        omega = float(data["omega_d"])
        if omega <= 0:
            raise ConfigError("omega_d must be positive")
        lambda_d = 2.0 * np.pi * C / omega
    elif "lambda_d_m" in data:
        lambda_d = float(data["lambda_d_m"])
        if lambda_d <= 0:
            raise ConfigError("lambda_d_m must be positive")
        omega = angular_frequency(lambda_d)
    else:
        raise ConfigError("config must set 'omega_d' (rad/s) or 'lambda_d_m'")

    env = _parse_environment(_require(data, "environment", "config"))
    donor = _parse_body(_require(data, "donor", "config"), "donor", lambda_d)
    acceptor = _parse_body(_require(data, "acceptor", "config"), "acceptor",
                           lambda_d)

    mediator = None
    alpha = 0.0
    has_mediator = "mediator" in data
    if has_mediator:
        med = data["mediator"]
        vol = float(_require(med, "polarizability_volume", "mediator"))
        alpha = 4.0 * np.pi * EPS0 * vol * lambda_d**3
        if "z" in med:
            mediator = _parse_body(med, "mediator", lambda_d)

    dip = data.get("dipoles", "normalized")
    if dip == "normalized":
        d_donor = d_acceptor = DEBYE
    else:
        d_donor = float(_require(dip, "donor_debye", "dipoles")) * DEBYE
        d_acceptor = float(_require(dip, "acceptor_debye", "dipoles")) * DEBYE
        if d_donor <= 0 or d_acceptor <= 0:
            raise ConfigError("dipole magnitudes must be positive")

    method = data.get("method", "auto")
    if method not in ("auto", "limits", "exact"):
        raise ConfigError(f"unknown method '{method}'")

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
        quad_rtol=float(data.get("quad_rtol", 1e-9)),
        clip_radius=float(data.get("clip_radius", 0.15)),
    )
    _validate(cfg)
    return cfg


def _validate(cfg):
    near_surface = isinstance(cfg.environment, (HalfSpace, PerfectMirror))
    bodies = {"donor": cfg.donor, "acceptor": cfg.acceptor}
    if cfg.mediator is not None:
        bodies["mediator"] = cfg.mediator
    for name, pos in bodies.items():
        if near_surface and pos[2] <= 0.0:
            raise ConfigError(f"{name} must lie above the surface (z > 0)")
    colinear = all(abs(p[0]) < 1e-12 * cfg.lambda_d for p in bodies.values())
    if colinear and cfg.acceptor[2] <= cfg.donor[2]:
        raise ConfigError("colinear geometry requires z_donor < z_acceptor")
    if cfg.quad_rtol <= 0:
        raise ConfigError("quad_rtol must be positive")
    if cfg.clip_radius < 0:
        raise ConfigError("clip_radius must be non-negative")


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
