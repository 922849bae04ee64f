"""Seeded workloads for the mqret benchmark.

Every input is drawn from ``numpy.random.default_rng([seed, stream, ...])``,
so operation ``i`` of a workload is the same whatever ran before it. The
library sees only the generated JSON configs, CLI arguments and positions.
An operation returns an ``Op``: the rows attempted, the timed wall time and
a ``check`` to run afterwards, outside the timed region and outside any
trace, which returns the number of failed rows.
"""

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

import mqret.cli
import mqret.config
import mqret.rates
from mqret.greens import PerfectMirror
from mqret.media import StaticScalar

LAMBDA_M = 1e-6
EXACT_CHECK_RTOL = 1e-12   # quad_rtol of the recomputed reference
EXACT_CHECK_TOL = 1e-8     # allowed relative deviation from it
LIMITS_CHECK_TOL = 1e-10   # limits rows against rate_colinear_approx


def _rng(seed, *key):
    return np.random.default_rng([seed, *key])


@dataclass
class Op:
    attempted: int
    wall_s: float
    check: object = field(repr=False)  # callable(Gate) -> failed count


class Gate:
    """Correctness gate across a run.

    ``failures`` are operations that produced no result (an exception, an
    ``error:*`` row, a non-zero exit); ``wrong`` are results that came back
    but fail a check. Both count as failed operations; only ``wrong`` makes
    the run incorrect.
    """

    def __init__(self):
        self.max_rel_dev = 0.0
        self.est_ratio = 0.0
        self.compared = 0
        self.failures = []
        self.wrong = []

    def fail(self, what):
        self.failures.append(what)
        return False

    def miss(self, what):
        self.wrong.append(what)
        return False

    def compare(self, got, ref, tol, what, estimate=None):
        dev = abs(got - ref) / abs(ref)
        self.compared += 1
        self.max_rel_dev = max(self.max_rel_dev, dev)
        if estimate:
            self.est_ratio = max(self.est_ratio, dev / estimate)
        if not dev <= tol:
            return self.miss(f"{what}: relative deviation {dev:.3e} > {tol:.0e}")
        return True

    def finite(self, values, what):
        if all(math.isfinite(v) for v in values) and values[0] > 0.0:
            return True
        return self.miss(f"{what}: non-finite or non-positive value {values}")


def _write_config(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def _run_cli(argv):
    """One in-process ``mqret`` run; returns (exit code, wall seconds)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = mqret.cli.main(argv)
    return code, time.perf_counter() - t0


def _read_rows(path):
    """Parse an emitted CSV without going through mqret.sweep."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _row_ok(gate, row, what):
    if row["flag"].startswith("error:"):
        return gate.fail(f"{what}: flagged {row['flag']}")
    values = [float(row[k]) for k in ("gamma", "gamma_normalized", "error_estimate")]
    return gate.finite(values, what)


def _exact_reference(cfg, mediator):
    """The same rate recomputed at quad_rtol EXACT_CHECK_RTOL (mediator in m)."""
    med = mqret.rates.Mediator(mediator, StaticScalar(cfg.alpha))
    return mqret.rates.rate_isotropic(
        cfg.d_donor, cfg.d_acceptor, cfg.donor, cfg.acceptor, cfg.environment,
        cfg.omega, mediator=med, method="exact", rtol=EXACT_CHECK_RTOL).gamma


def _in_plane(x_lam, z_lam):
    return np.array([x_lam * LAMBDA_M, 0.0, z_lam * LAMBDA_M])


class _Workload:
    min_ops = 2

    def __init__(self, seed):
        self.seed = seed

    def setup_config(self, outdir):
        """Config file for the setup_s children: that of the first input."""
        return _write_config(outdir / "setup.json", self.inputs(0)[0])


class MapDielectric(_Workload):
    name = "map-dielectric"
    why = ("mqret map with exact Sommerfeld tensors over an eps=2.25 "
           "half-space at workers=2: quadrature-bound, uses the process pool")
    nx, nz = 8, 4   # 32 rows: four pool chunks of 8, two per worker
    workers = 2
    trace_ops = 3
    sampled_ops = 3   # ops whose one seeded row is recomputed at rtol 1e-12

    def inputs(self, i):
        g = _rng(self.seed, 0, i)
        z_d = g.uniform(0.02, 0.06)
        cfg = {
            "lambda_d_m": LAMBDA_M,
            "environment": {"type": "halfspace",
                            "permittivity": {"type": "constant", "value": 2.25}},
            "donor": {"z": z_d},
            "acceptor": {"z": z_d + g.uniform(0.02, 0.04)},
            "mediator": {"polarizability_volume": g.uniform(0.05, 0.2)},
        }
        grid = {"xmin": g.uniform(-3.0, -1.5), "xmax": g.uniform(1.5, 3.0),
                "zmin": g.uniform(0.2, 0.6), "zmax": g.uniform(2.5, 4.0)}
        return cfg, grid, int(g.integers(self.nx * self.nz))

    def op(self, i, workers, outdir):
        cfg, grid, sample = self.inputs(i)
        cfg_path = _write_config(outdir / f"map-{i}.json", cfg)
        out = str(outdir / f"map-{i}.csv")
        argv = ["map", "--config", cfg_path, "--nx", str(self.nx),
                "--nz", str(self.nz), "--out", out, "--workers", str(workers)]
        for key, value in grid.items():
            argv += [f"--{key}", repr(value)]
        code, wall = _run_cli(argv)
        n = self.nx * self.nz

        def check(gate):
            if code != 0:
                gate.fail(f"map op {i}: exit code {code}")
                return n
            rows = _read_rows(out)
            ok = [_row_ok(gate, r, f"map op {i} row {k}") for k, r in enumerate(rows)]
            if len(rows) != n:
                gate.miss(f"map op {i}: {len(rows)} rows, expected {n}")
            if i < self.sampled_ops and sample < len(rows) and ok[sample]:
                row = rows[sample]
                ref = _exact_reference(mqret.config.load_config(cfg_path),
                                       _in_plane(float(row["x_m"]), float(row["z_m"])))
                ok[sample] = gate.compare(
                    float(row["gamma"]), ref, EXACT_CHECK_TOL,
                    f"map op {i} row {sample} vs rtol {EXACT_CHECK_RTOL:.0e}",
                    float(row["error_estimate"]))
            return n - sum(ok)

        return Op(n, wall, check)


class SweepZMirror(_Workload):
    name = "sweepz-mirror"
    why = ("mqret sweep-z --method both above a perfect mirror at workers=1: "
           "image construction and closed forms, no quadrature")
    steps = 100
    workers = 1
    trace_ops = 40
    sampled_ops = 5   # ops whose seeded exact rows are recomputed
    samples_per_op = 4

    def inputs(self, i):
        g = _rng(self.seed, 1, i)
        z_d = g.uniform(0.02, 0.2)
        z_a = z_d + g.uniform(0.02, 0.3)
        cfg = {
            "lambda_d_m": LAMBDA_M,
            "environment": {"type": "mirror"},
            "donor": {"z": z_d},
            "acceptor": {"z": z_a},
            "mediator": {"polarizability_volume": g.uniform(0.05, 0.3)},
        }
        z_min = z_a + g.uniform(0.3, 1.2)
        z_max = z_min + g.uniform(1.5, 4.0)
        sample = g.choice(self.steps, self.samples_per_op, replace=False)
        return cfg, z_min, z_max, sample

    def op(self, i, workers, outdir):
        cfg, z_min, z_max, sample = self.inputs(i)
        cfg_path = _write_config(outdir / f"sweepz-{i}.json", cfg)
        out = str(outdir / f"sweepz-{i}.csv")
        argv = ["sweep-z", "--config", cfg_path, "--zmin", repr(z_min),
                "--zmax", repr(z_max), "--steps", str(self.steps),
                "--method", "both", "--out", out, "--workers", str(workers)]
        code, wall = _run_cli(argv)
        n = 2 * self.steps

        def check(gate):
            if code != 0:
                gate.fail(f"sweep-z op {i}: exit code {code}")
                return n
            rows = _read_rows(out)
            if len(rows) != n:
                gate.miss(f"sweep-z op {i}: {len(rows)} rows, expected {n}")
            loaded = mqret.config.load_config(cfg_path)
            z_d = cfg["donor"]["z"] * LAMBDA_M
            z_a = cfg["acceptor"]["z"] * LAMBDA_M
            failed = max(0, n - len(rows))
            for k, row in enumerate(rows):
                what = f"sweep-z op {i} row {k}"
                ok = _row_ok(gate, row, what)
                if ok and row["method"] == "limits":
                    closed = mqret.rates.rate_colinear_approx(
                        z_d, z_a, float(row["z_m"]) * LAMBDA_M, PerfectMirror(),
                        loaded.alpha, loaded.omega, loaded.d_acceptor,
                        loaded.d_donor)
                    ok = gate.compare(float(row["gamma"]), closed.gamma,
                                      LIMITS_CHECK_TOL, f"{what} vs closed form")
                elif ok and i < self.sampled_ops and k - self.steps in sample:
                    ref = _exact_reference(loaded, _in_plane(0.0, float(row["z_m"])))
                    ok = gate.compare(float(row["gamma"]), ref, EXACT_CHECK_TOL,
                                      f"{what} vs rtol {EXACT_CHECK_RTOL:.0e}",
                                      float(row["error_estimate"]))
                failed += not ok
            return failed

        return Op(n, wall, check)


WORKLOADS = {w.name: w for w in (MapDielectric, SweepZMirror)}
