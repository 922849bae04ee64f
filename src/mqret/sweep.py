"""Parameter-sweep engines and CSV/JSON emission.

Sweep points are independent pure evaluations. The rows of one method are
cut into contiguous chunks of at most ``_CHUNK_ROWS`` rows, evaluated one
after another in the calling thread, each chunk one batched rate call.
Rows come in height order, so a chunk is a band of neighbouring mediator
heights with few distinct (Z, rho), which the Sommerfeld evaluator reduces
by one matrix product on panels fitted to the chunk's lowest height. A
row's value depends, within the quadrature tolerance, on the rows that
share its chunk; the records keep the input ordering and fixed float
formatting, so a sweep always emits the same bytes.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .core import GeometryError, QuadratureError
from .media import StaticScalar, SurfaceModeError
from .rates import Mediator, _check_positions, _direct_leg, rate_isotropic

CSV_HEADER = ["x_m", "z_m", "gamma", "gamma_normalized", "method",
              "error_estimate", "flag"]


@dataclass(frozen=True)
class OneDSweep:
    z_min: float   # lambda_D units
    z_max: float
    steps: int
    methods: tuple = ("limits",)

    def __post_init__(self):
        if not np.all(np.isfinite([self.z_min, self.z_max])):
            raise ValueError("sweep bounds must be finite")
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
        if not np.all(np.isfinite([self.x_min, self.x_max, self.z_min,
                                   self.z_max])):
            raise ValueError("sweep bounds must be finite")
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
_ROW_ERRORS = (GeometryError, QuadratureError, SurfaceModeError)


# rows per chunk at most: bounds the memory of one batched evaluation.
# Larger chunks run open maps faster, but 256 rows double the peak memory of
# a near-surface map (BENCH_12.json).
_CHUNK_ROWS = 128


def _positions(cfg, rows):
    return np.array([(x_lam, 0.0, z_lam)
                     for x_lam, z_lam, _ in rows]) * cfg.lambda_d


def _error_record(row, method, exc):
    x_lam, z_lam, _ = row
    nan = float("nan")
    return RateRecord(x_m=x_lam, z_m=z_lam, gamma=nan, gamma_normalized=nan,
                      method=method, error_estimate=nan,
                      flag=f"error:{type(exc).__name__}")


def _eval_point(cfg, method, rows, direct):
    """Records of one chunk of rows ``(x_lam, z_lam, flag)``, in row order,
    from one rate call over all their mediator positions with the shared
    G_AD ``direct``.

    If that call raises a row error, each half of the rows is evaluated
    again in the same way, so that the error lands in the row it belongs to
    and a chunk of n rows with one bad row costs at most 2 log2(n) + 1 rate
    calls; the sweep continues.
    """
    mediator = Mediator(_positions(cfg, rows), StaticScalar(cfg.alpha))
    try:
        res = rate_isotropic(cfg.d_donor, cfg.d_acceptor, cfg.donor,
                             cfg.acceptor, cfg.environment, cfg.omega,
                             mediator=mediator, method=method,
                             rtol=cfg.quad_rtol, direct=direct)
    except _ROW_ERRORS as exc:
        if len(rows) == 1:
            return [_error_record(rows[0], method, exc)]
        half = len(rows) // 2
        return (_eval_point(cfg, method, rows[:half], direct)
                + _eval_point(cfg, method, rows[half:], direct))
    return [
        RateRecord(x_m=x_lam, z_m=z_lam, gamma=gamma,
                   gamma_normalized=normalized, method=method,
                   error_estimate=estimate, flag=flag)
        for (x_lam, z_lam, flag), gamma, normalized, estimate in zip(
            rows, res.gamma.tolist(), res.gamma_normalized.tolist(),
            res.error_estimate.tolist(), strict=True)
    ]


def _failed_direct_leg(cfg, method, rows, exc):
    """Records of rows whose shared G_AD raised ``exc``: each row carries
    the error its own rate call would raise, that of its bodies' guards
    (which a rate checks before G_AD) or else ``exc``."""
    records = []
    for row, position in zip(rows, _positions(cfg, rows)):
        error = exc
        try:
            _check_positions(cfg.environment,
                             [cfg.donor, cfg.acceptor, position], cfg.omega)
        except GeometryError as own:
            error = own
        records.append(_error_record(row, method, error))
    return records


def _run(cfg, method, rows):
    """Records of all rows of one method, in order. G_AD, which every row
    shares, is evaluated first, once: if it raises a row error, every row
    is flagged without a rate call. Otherwise the rows are evaluated with
    it in contiguous chunks of at most ``_CHUNK_ROWS``, one after another."""
    try:
        direct = _direct_leg(cfg.environment, cfg.acceptor, cfg.donor,
                             cfg.omega, method, cfg.quad_rtol)
    except _ROW_ERRORS as exc:
        return _failed_direct_leg(cfg, method, rows, exc)
    return [rec for k in range(0, len(rows), _CHUNK_ROWS) for rec in
            _eval_point(cfg, method, rows[k:k + _CHUNK_ROWS], direct)]


def sweep_1d(cfg, spec):
    """Rate vs mediator position along the z axis (colinear geometry), one
    run of rows per method, the methods one after another."""
    if not cfg.has_mediator:
        raise ConfigError("1-D sweep needs a mediator block in the config")
    z_a = cfg.acceptor[2] / cfg.lambda_d
    z = np.linspace(spec.z_min, spec.z_max, spec.steps).tolist()
    records = []
    for method in spec.methods:
        # nr_guard: a limits row with the mediator within one wavelength
        # of the acceptor
        rows = [(0.0, z_lam,
                 "nr_guard" if method == "limits" and z_lam - z_a < 1.0 else "")
                for z_lam in z]
        records += _run(cfg, method, rows)
    return records


def sweep_2d(cfg, spec):
    """Rate map over mediator positions in the x-z plane (exact tensors)."""
    if not cfg.has_mediator:
        raise ConfigError("2-D sweep needs a mediator block in the config")
    clip = cfg.clip_radius * cfg.lambda_d
    x_lam, z_lam = (g.ravel() for g in np.meshgrid(
        np.linspace(spec.x_min, spec.x_max, spec.nx),
        np.linspace(spec.z_min, spec.z_max, spec.nz)))
    pos = np.stack([x_lam, np.zeros_like(x_lam), z_lam], axis=1) * cfg.lambda_d
    # inside the clip radius keep the flag even when evaluation succeeded
    clipped = ((_distance(pos, cfg.donor) < clip)
               | (_distance(pos, cfg.acceptor) < clip))
    rows = [(x, z, "clip" if c else "")
            for x, z, c in zip(x_lam.tolist(), z_lam.tolist(), clipped.tolist())]
    return _run(cfg, "exact", rows)


def _distance(points, point):
    """Distance of each of ``points`` (n, 3) from ``point``, each row to the
    last bit the ``np.linalg.norm`` of that row alone: a stacked
    (1 x 3) @ (3 x 1) product takes the same dot product, where a sum along
    an axis rounds differently in about one row of ten."""
    d = points - point
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def emit(records, fmt, path, metadata=None):
    """Write sweep records as CSV or JSON.

    CSV floats use round-trippable shortest-repr formatting; metadata (e.g.
    donor/acceptor positions) is emitted as '#' comment lines. JSON has no
    NaN (RFC 8259): the NaNs of a failed row are written as null. The CSV
    rows are the bytes ``csv.writer`` writes, which quotes no field as long
    as none holds a comma, a double quote or a line break: a method or flag
    that does raises ``ValueError`` before the file is opened.
    """
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        for text in {t for rec in records for t in (rec.method, rec.flag)}:
            if any(c in text for c in ',"\r\n'):
                raise ValueError(f"CSV field {text!r} holds a comma, a double "
                                 f"quote or a line break")
        content = "".join(f"# {key} = {metadata[key]}\n"
                          for key in sorted(metadata or {}))
        content += ",".join(CSV_HEADER) + "\r\n" + "".join(
            f"{float(rec.x_m)!r},{float(rec.z_m)!r},{float(rec.gamma)!r},"
            f"{float(rec.gamma_normalized)!r},{rec.method},"
            f"{float(rec.error_estimate)!r},{rec.flag}\r\n"
            for rec in records)
    elif fmt == "json":
        rows = [{key: None if isinstance(v, float) and not math.isfinite(v)
                 else v for key, v in vars(rec).items()} for rec in records]
        doc = {"metadata": metadata or {}, "records": rows}
        content = json.dumps(doc, indent=1) + "\n"
    else:
        raise ValueError(f"unknown format '{fmt}'")
    try:
        with open(path, "w", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        raise OSError(f"cannot write '{path}': {exc}") from exc


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
