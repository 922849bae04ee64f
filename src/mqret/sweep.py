"""Parameter-sweep engines and CSV/JSON emission.

Sweep points are independent pure evaluations. They are evaluated in chunks
of rows, each chunk one batched rate call per method, and the chunks run
through a process pool when requested. A row's value does not depend on the
rows that share its chunk, and the collected records keep the deterministic
input ordering and fixed float formatting, making the emitted CSV
byte-identical regardless of worker count.
"""

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
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


# rows per chunk at most: bounds the memory of one batched evaluation
_CHUNK_ROWS = 64


def _eval_rows(cfg, method, rows):
    """Records of rows ``(method, x_lam, z_lam, flag)`` sharing one method,
    from one rate call over all their mediator positions."""
    positions = np.array([[x_lam * cfg.lambda_d, 0.0, z_lam * cfg.lambda_d]
                          for _, x_lam, z_lam, _ in rows])
    res = rate_isotropic(cfg.d_donor, cfg.d_acceptor, cfg.donor, cfg.acceptor,
                         cfg.environment, cfg.omega,
                         mediator=Mediator(positions, StaticScalar(cfg.alpha)),
                         method=method, rtol=cfg.quad_rtol)
    return [
        RateRecord(x_m=x_lam, z_m=z_lam, gamma=float(res.gamma[k]),
                   gamma_normalized=float(res.gamma_normalized[k]),
                   method=method, error_estimate=float(res.error_estimate[k]),
                   flag=flag)
        for k, (_, x_lam, z_lam, flag) in enumerate(rows)
    ]


def _eval_point(chunk):
    """Records of one chunk ``(cfg, rows)``, in row order.

    The rows of each method are one rate call. If that call raises a row
    error, its rows are evaluated again one by one, so that the error lands
    in the row it belongs to; the sweep continues.
    """
    cfg, rows = chunk
    records = [None] * len(rows)
    for method in dict.fromkeys(row[0] for row in rows):
        picked = [k for k, row in enumerate(rows) if row[0] == method]
        try:
            done = _eval_rows(cfg, method, [rows[k] for k in picked])
        except _ROW_ERRORS as exc:
            if len(picked) > 1:
                done = [_eval_point((cfg, [rows[k]]))[0] for k in picked]
            else:
                _, x_lam, z_lam, _ = rows[picked[0]]
                done = [RateRecord(
                    x_m=x_lam, z_m=z_lam, gamma=float("nan"),
                    gamma_normalized=float("nan"), method=method,
                    error_estimate=float("nan"),
                    flag=f"error:{type(exc).__name__}",
                )]
        for k, rec in zip(picked, done):
            records[k] = rec
    return records


def _run(cfg, rows, workers):
    """Records of all rows, in order. The rows are dealt round-robin into
    chunks of at most ``min(_CHUNK_ROWS, ceil(rows / workers))``, so that
    each chunk gets a share of the near and the far mediator positions."""
    workers = max(workers, 1)
    n = -(-len(rows) // min(_CHUNK_ROWS, -(-len(rows) // workers)))
    chunks = [(cfg, rows[k::n]) for k in range(n)]
    if workers == 1:
        done = [_eval_point(chunk) for chunk in chunks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_eval_point, chunks))
    records = [None] * len(rows)
    for k, recs in enumerate(done):
        records[k::n] = recs
    return records


def sweep_1d(cfg, spec, workers=1):
    """Rate vs mediator position along the z axis (colinear geometry)."""
    if not cfg.has_mediator:
        raise ConfigError("1-D sweep needs a mediator block in the config")
    z_a = cfg.acceptor[2] / cfg.lambda_d
    rows = []
    for method in spec.methods:
        for z_lam in np.linspace(spec.z_min, spec.z_max, spec.steps):
            z_lam = float(z_lam)
            flag = ""
            if method == "limits" and z_lam - z_a < 1.0:
                flag = "nr_guard"  # mediator closer than one wavelength
            rows.append((method, 0.0, z_lam, flag))
    return _run(cfg, rows, workers)


def sweep_2d(cfg, spec, workers=1):
    """Rate map over mediator positions in the x-z plane (exact tensors)."""
    if not cfg.has_mediator:
        raise ConfigError("2-D sweep needs a mediator block in the config")
    method = "exact"
    clip = cfg.clip_radius * cfg.lambda_d
    xs = np.linspace(spec.x_min, spec.x_max, spec.nx)
    zs = np.linspace(spec.z_min, spec.z_max, spec.nz)
    rows = []
    for z_lam in zs:
        for x_lam in xs:
            pos = np.array([float(x_lam) * cfg.lambda_d, 0.0,
                            float(z_lam) * cfg.lambda_d])
            flag = ""
            if (np.linalg.norm(pos - cfg.donor) < clip
                    or np.linalg.norm(pos - cfg.acceptor) < clip):
                flag = "clip"
            rows.append((method, float(x_lam), float(z_lam), flag))
    # inside the clip radius keep the flag even when evaluation succeeded
    return _run(cfg, rows, workers)


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
