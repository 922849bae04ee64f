"""Parameter-sweep engines and CSV/JSON emission.

Sweep points are independent pure evaluations, so they run through a process
pool when requested; the collected records keep the deterministic input
ordering and fixed float formatting, making the emitted CSV byte-identical
regardless of worker count.
"""

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, with_mediator_position
from .core import GeometryError, QuadratureError
from .media import (
    MediatorResonanceError,
    StaticScalar,
    SurfaceModeError,
    SymbolicMaterialError,
)
from .rates import Mediator, rate_isotropic

CSV_HEADER = ["x_m", "z_m", "gamma", "gamma_normalized", "method",
              "error_estimate", "flag"]


@dataclass(frozen=True)
class OneDSweep:
    z_min: float   # lambda_D units
    z_max: float
    steps: int
    methods: tuple = ("limits",)

    def __post_init__(self):
        if not self.z_min < self.z_max:
            raise ValueError("sweep requires z_min < z_max")
        if self.steps < 2:
            raise ValueError("sweep requires at least 2 steps")


@dataclass(frozen=True)
class TwoDSweep:
    x_min: float
    x_max: float
    z_min: float
    z_max: float
    nx: int
    nz: int

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.z_min < self.z_max):
            raise ValueError("sweep requires min < max on both axes")
        if self.nx < 2 or self.nz < 2:
            raise ValueError("sweep requires at least a 2x2 grid")


@dataclass(frozen=True)
class RateRecord:
    x_m: float     # lambda_D units
    z_m: float
    gamma: float
    gamma_normalized: float
    method: str
    error_estimate: float
    flag: str = ""


# failures that belong to one point; anything else is a bug and aborts the sweep
_ROW_ERRORS = (GeometryError, QuadratureError, ConfigError, SurfaceModeError,
               MediatorResonanceError, SymbolicMaterialError)


def _eval_point(args):
    cfg, method, x_lam, z_lam, flag = args
    point_cfg = with_mediator_position(cfg, x_lam, z_lam)
    try:
        med = Mediator(point_cfg.mediator, StaticScalar(cfg.alpha))
        res = rate_isotropic(cfg.d_donor, cfg.d_acceptor, cfg.donor,
                             cfg.acceptor, cfg.environment, cfg.omega,
                             mediator=med, method=method, rtol=cfg.quad_rtol)
        return RateRecord(
            x_m=x_lam, z_m=z_lam, gamma=res.gamma,
            gamma_normalized=res.gamma_normalized,
            method=method, error_estimate=res.error_estimate, flag=flag,
        )
    except _ROW_ERRORS as exc:  # record in-row; the sweep continues
        return RateRecord(
            x_m=x_lam, z_m=z_lam, gamma=float("nan"),
            gamma_normalized=float("nan"), method=method,
            error_estimate=float("nan"),
            flag=f"error:{type(exc).__name__}",
        )


def _run(tasks, workers):
    if workers <= 1:
        return [_eval_point(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_eval_point, tasks, chunksize=8))


def sweep_1d(cfg, spec, workers=1):
    """Rate vs mediator position along the z axis (colinear geometry)."""
    if not cfg.has_mediator:
        raise ConfigError("1-D sweep needs a mediator block in the config")
    z_a = cfg.acceptor[2] / cfg.lambda_d
    tasks = []
    for method in spec.methods:
        for z_lam in np.linspace(spec.z_min, spec.z_max, spec.steps):
            z_lam = float(z_lam)
            flag = ""
            if method == "limits" and z_lam - z_a < 1.0:
                flag = "nr_guard"  # mediator closer than one wavelength
            tasks.append((cfg, method, 0.0, z_lam, flag))
    return _run(tasks, workers)


def sweep_2d(cfg, spec, workers=1):
    """Rate map over mediator positions in the x-z plane (exact tensors)."""
    if not cfg.has_mediator:
        raise ConfigError("2-D sweep needs a mediator block in the config")
    method = "exact"
    clip = cfg.clip_radius * cfg.lambda_d
    xs = np.linspace(spec.x_min, spec.x_max, spec.nx)
    zs = np.linspace(spec.z_min, spec.z_max, spec.nz)
    tasks = []
    for z_lam in zs:
        for x_lam in xs:
            pos = np.array([float(x_lam) * cfg.lambda_d, 0.0,
                            float(z_lam) * cfg.lambda_d])
            flag = ""
            if (np.linalg.norm(pos - cfg.donor) < clip
                    or np.linalg.norm(pos - cfg.acceptor) < clip):
                flag = "clip"
            tasks.append((cfg, method, float(x_lam), float(z_lam), flag))
    records = _run(tasks, workers)
    # inside the clip radius keep the flag even when evaluation succeeded
    return records


def _format(value):
    return repr(float(value))


def emit(records, fmt, path, metadata=None):
    """Write sweep records as CSV or JSON.

    CSV floats use round-trippable shortest-repr formatting; metadata (e.g.
    donor/acceptor positions) is emitted as '#' comment lines.
    """
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        try:
            with open(path, "w", newline="") as fh:
                if metadata:
                    for key in sorted(metadata):
                        fh.write(f"# {key} = {metadata[key]}\n")
                writer = csv.writer(fh)
                writer.writerow(CSV_HEADER)
                for rec in records:
                    writer.writerow([
                        _format(rec.x_m), _format(rec.z_m), _format(rec.gamma),
                        _format(rec.gamma_normalized), rec.method,
                        _format(rec.error_estimate), rec.flag,
                    ])
        except OSError as exc:
            raise OSError(f"cannot write '{path}': {exc}") from exc
    elif fmt == "json":
        rows = [
            {
                "x_m": rec.x_m, "z_m": rec.z_m, "gamma": rec.gamma,
                "gamma_normalized": rec.gamma_normalized,
                "method": rec.method, "error_estimate": rec.error_estimate,
                "flag": rec.flag,
            }
            for rec in records
        ]
        doc = {"metadata": metadata or {}, "records": rows}
        try:
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
        except OSError as exc:
            raise OSError(f"cannot write '{path}': {exc}") from exc
    else:
        raise ValueError(f"unknown format '{fmt}'")


def read_csv(path):
    """Parse an emitted CSV back into RateRecords (round-trip helper)."""
    records = []
    with open(path, newline="") as fh:
        rows = [row for row in fh if not row.startswith("#")]
    reader = csv.DictReader(rows)
    for row in reader:
        records.append(RateRecord(
            x_m=float(row["x_m"]), z_m=float(row["z_m"]),
            gamma=float(row["gamma"]),
            gamma_normalized=float(row["gamma_normalized"]),
            method=row["method"],
            error_estimate=float(row["error_estimate"]),
            flag=row["flag"],
        ))
    return records
