"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line with the observed figure of merit
and the tolerance it is held to, then asserts.
"""

import numpy as np
import pytest

from mqret import config, greens, media, oracles, rates, sweep
from mqret.core import C, DEBYE, EPS0, dyadic_reciprocity_defect

LAM = 1e-6
OMEGA = 2 * np.pi * C / LAM
D1 = 1.0 * DEBYE


def report(num, name, passed, detail):
    print(f"ACCEPTANCE {num} {'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_01_forster_limit():
    """Vacuum two-body isotropic rate equals the 1/R^6 reference formula."""
    worst = 0.0
    for frac in (0.01, 0.05):
        sep = frac * LAM
        res = rates.rate_isotropic(
            D1, D1, np.array([0.0, 0.0, sep]), np.array([0.0, 0.0, 2 * sep]),
            greens.Vacuum(), OMEGA, method="limits",
        )
        ref = rates.forster_vacuum(sep, D1, D1)
        worst = max(worst, abs(res.gamma / ref - 1.0))
    report(1, "forster-limit", worst < 1e-12,
           f"max rel dev {worst:.2e} (tol 1e-12) at R in {{0.01, 0.05}} lambda")


def test_02_transverse_mirror_identity():
    """Static limit of the standing-wave two-body rate equals the r_NR = 1 form."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10):
        z_d = rng.uniform(0.02, 0.5) * LAM
        z_a = z_d + rng.uniform(0.02, 0.5) * LAM
        a = rates.gamma_xx_mirror(z_d, z_a, 1.0, D1, D1)
        b = rates.gamma_trans_qd(z_d, z_a, 0.0, D1, D1)
        worst = max(worst, abs(a / b - 1.0))
    report(2, "transverse-mirror-identity", worst < 1e-12,
           f"max rel dev {worst:.2e} (tol 1e-12) over 10 geometries")


def test_03_closed_form_consistency():
    """Colinear closed form vs the limits-method tensor pipeline."""
    rng = np.random.default_rng(3)
    envs = [greens.Vacuum(), greens.PerfectMirror(),
            greens.HalfSpace(media.Constant(2.25)),
            greens.HalfSpace(media.Constant(11.68))]
    worst = 0.0
    for i in range(100):
        env = envs[i % len(envs)]
        z_d = rng.uniform(0.02, 0.4) * LAM
        z_a = z_d + rng.uniform(0.02, 0.5) * LAM
        z_m = z_a + rng.uniform(0.5, 4.0) * LAM
        alpha = 4 * np.pi * EPS0 * rng.uniform(0.01, 0.3) * LAM**3
        med = rates.Mediator(np.array([0.0, 0.0, z_m]),
                             media.StaticScalar(alpha))
        res = rates.rate_isotropic(
            D1, D1, np.array([0.0, 0.0, z_d]), np.array([0.0, 0.0, z_a]),
            env, OMEGA, mediator=med, method="limits",
        )
        closed = rates.rate_colinear_approx(z_d, z_a, z_m, env, alpha, OMEGA,
                                            D1, D1)
        worst = max(worst, abs(res.gamma / closed.gamma - 1.0))
    report(3, "closed-form-consistency", worst < 1e-10,
           f"max rel dev {worst:.2e} (tol 1e-10) over 100 random geometries")


def test_04_scatter_limit_convergence():
    """Sommerfeld evaluator approaches the on-axis near/far-zone limits."""
    mats = [media.Constant(2.0), media.Constant(11.68),
            media.PerfectReflector()]

    def dev(mat, big_z, kind):
        r = np.array([0.0, 0.0, big_z / 2])
        full, _ = greens.halfspace_scatter_full(r, r, OMEGA, mat)
        limit_fn = (greens.halfspace_scatter_nr if kind == "nr"
                    else greens.halfspace_scatter_r)
        lim = limit_fn(r, r, OMEGA, mat)
        return float(np.max(np.abs(full - lim)) / np.max(np.abs(lim)))

    ok = True
    detail = []
    for mat in mats:
        nr = dev(mat, LAM / 200, "nr")
        rr = dev(mat, 20 * LAM, "r")
        nr_scan = [dev(mat, z, "nr") for z in (LAM / 2, LAM / 20, LAM / 200)]
        r_scan = [dev(mat, z, "r") for z in (0.2 * LAM, 2 * LAM, 20 * LAM)]
        mono = (all(b < a for a, b in zip(nr_scan, nr_scan[1:]))
                and all(b < a for a, b in zip(r_scan, r_scan[1:])))
        ok = ok and nr < 0.01 and rr < 0.02 and mono
        label = getattr(mat, "eps", "inf")
        detail.append(f"eps={label}: nr {nr:.1e} r {rr:.1e} mono={mono}")
    report(4, "scatter-limit-convergence", ok,
           "; ".join(detail) + " (tol nr 1%, r 2%)")


def test_05_mirror_oracle_equivalence():
    """Sommerfeld evaluator with r_s = -1, r_p = +1 vs the image construction."""
    vals = np.array([0.1, 0.2, 0.35, 0.5, 0.7]) * LAM
    lats = np.array([0.05, 0.15, 0.3, 0.5, 0.8]) * LAM
    worst = 0.0
    for z in vals:
        for zp in vals:
            for lat in lats:
                r1 = np.array([lat, 0.0, z])
                r2 = np.array([0.0, 0.0, zp])
                full, _ = greens.halfspace_scatter_full(
                    r1, r2, OMEGA, media.PerfectReflector())
                image = greens.mirror_scatter_exact(r1, r2, OMEGA)
                worst = max(worst, float(np.max(np.abs(full - image))
                                         / np.max(np.abs(image))))
    report(5, "mirror-oracle-equivalence", worst < 1e-6,
           f"max rel dev {worst:.2e} (tol 1e-6) on 5x5x5 grid")


def _mediator_curve(env, z_ms, method):
    z_d, z_a = 0.04 * LAM, 0.08 * LAM
    alpha = 4 * np.pi * EPS0 * 0.1 * LAM**3
    out = []
    for z_m in z_ms:
        med = rates.Mediator(np.array([0.0, 0.0, z_m]),
                             media.StaticScalar(alpha))
        res = rates.rate_isotropic(
            D1, D1, np.array([0.0, 0.0, z_d]), np.array([0.0, 0.0, z_a]),
            env, OMEGA, mediator=med, method=method,
        )
        out.append(res.gamma_normalized)
    return np.asarray(out)


def test_06_colinear_sweep_behavior():
    """Mediator z-sweep: oscillation/decay, mirror suppression, method match."""
    z_ms = np.linspace(1.2, 3.0, 400) * LAM
    vac = _mediator_curve(greens.Vacuum(), z_ms, "limits")
    mir = _mediator_curve(greens.PerfectMirror(), z_ms, "limits")

    dev = vac - 1.0
    crossings = int(np.sum(np.sign(dev[:-1]) != np.sign(dev[1:])))
    third = len(dev) // 3
    decaying = np.max(np.abs(dev[-third:])) < np.max(np.abs(dev[:third]))
    oscillates = crossings >= 4 and decaying

    suppressed = np.max(np.abs(mir - 1.0)) < np.max(np.abs(vac - 1.0))

    mask = z_ms >= 1.5 * LAM
    exact = _mediator_curve(greens.PerfectMirror(), z_ms[mask][::10], "exact")
    lim = mir[mask][::10]
    method_dev = float(np.max(np.abs(lim / exact - 1.0)))
    methods_agree = method_dev < 0.05

    ok = oscillates and suppressed and methods_agree
    report(6, "colinear-sweep-behavior", ok,
           f"crossings={crossings} decay={decaying} "
           f"mirror_max={np.max(np.abs(mir - 1)):.2e} < "
           f"vacuum_max={np.max(np.abs(vac - 1)):.2e}, "
           f"limits-vs-exact {method_dev:.2e} (tol 5%)")


def test_07_offaxis_map_behavior():
    """2-D mediator map near a mirror shows enhancement and suppression."""
    env = greens.PerfectMirror()
    donor = np.array([-1.0, 0.0, 1.0]) * LAM
    acceptor = np.array([1.0, 0.0, 2.0]) * LAM
    alpha = 4 * np.pi * EPS0 * 0.1 * LAM**3
    ref = rates.rate_isotropic(D1, D1, donor, acceptor, env, OMEGA,
                               method="exact").gamma
    xs = np.linspace(-3.0, 3.0, 60) * LAM
    zs = np.linspace(0.1, 4.0, 60) * LAM
    hi = lo = 0
    for z in zs:
        for x in xs:
            pos = np.array([x, 0.0, z])
            if (np.linalg.norm(pos - donor) < 0.15 * LAM
                    or np.linalg.norm(pos - acceptor) < 0.15 * LAM):
                continue
            med = rates.Mediator(pos, media.StaticScalar(alpha))
            g = rates.rate_isotropic(D1, D1, donor, acceptor, env, OMEGA,
                                     mediator=med, method="exact").gamma
            ratio = g / ref
            hi += ratio > 1.05
            lo += ratio < 0.95
    report(7, "offaxis-map-behavior", hi > 0 and lo > 0,
           f"60x60 map: {hi} cells > 1.05, {lo} cells < 0.95")


def test_08_contour_identities():
    """Both frequency-integral identities at rho = lambda; pole ablation fails."""
    plus = oracles.contour_identity_check(LAM, OMEGA, which="plus")
    minus = oracles.contour_identity_check(LAM, OMEGA, which="minus")
    ablate = oracles.contour_identity_check(LAM, OMEGA, which="minus",
                                            include_pole=False)
    ok = plus.passed and minus.passed and ablate.rel_error > 0.5
    report(8, "contour-identities", ok,
           f"plus {plus.rel_error:.2e}, minus {minus.rel_error:.2e} "
           f"(tol 1e-3); pole-ablated {ablate.rel_error:.2e} (> 0.5)")


def test_09_invariant_suite(tmp_path):
    """Reciprocity, non-negativity, normalization invariance, exchange
    symmetry, and deterministic CSV output."""
    rng = np.random.default_rng(9)

    # reciprocity across environments
    envs = [greens.Vacuum(), greens.PerfectMirror(),
            greens.HalfSpace(media.Constant(2.25)),
            greens.HalfSpace(media.Constant(2.0 + 0.5j)),
            greens.HalfSpace(media.DrudeLorentz(2.5 * OMEGA, 0.0, 0.2 * OMEGA))]
    recip = 0.0
    for env in envs:
        for _ in range(5):
            r1 = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                           rng.uniform(0.1, 0.8)]) * LAM
            r2 = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                           rng.uniform(0.1, 0.8)]) * LAM
            g12 = greens.green_total(env, r1, r2, OMEGA)
            g21 = greens.green_total(env, r2, r1, OMEGA)
            recip = max(recip, dyadic_reciprocity_defect(g12, g21))
    reciprocity_ok = recip < 1e-8

    # non-negativity over 1000 random colinear configurations
    env_cycle = [greens.Vacuum(), greens.PerfectMirror()]
    nonneg = True
    for i in range(1000):
        env = env_cycle[i % 2]
        z_d = rng.uniform(0.02, 0.4) * LAM
        z_a = z_d + rng.uniform(0.02, 0.5) * LAM
        z_m = z_a + rng.uniform(0.4, 4.0) * LAM
        alpha = 4 * np.pi * EPS0 * rng.uniform(0.0, 0.5) * LAM**3
        med = rates.Mediator(np.array([0.0, 0.0, z_m]),
                             media.StaticScalar(alpha))
        g = rates.rate_isotropic(D1, D1, np.array([0, 0, z_d]),
                                 np.array([0, 0, z_a]), env, OMEGA,
                                 mediator=med, method="limits").gamma
        nonneg = nonneg and g >= 0.0 and np.isfinite(g)

    # dipole-magnitude invariance of the normalized rate
    med = rates.Mediator(np.array([0.0, 0.0, 2.0 * LAM]),
                         media.StaticScalar(4 * np.pi * EPS0 * 0.1 * LAM**3))
    args = (np.array([0, 0, 0.3 * LAM]), np.array([0, 0, 0.45 * LAM]),
            greens.PerfectMirror(), OMEGA)
    n1 = rates.rate_isotropic(D1, D1, *args, mediator=med,
                              method="limits").gamma_normalized
    n2 = rates.rate_isotropic(5.1 * D1, 0.37 * D1, *args, mediator=med,
                              method="limits").gamma_normalized
    invariant_ok = abs(n1 / n2 - 1.0) < 1e-12

    # donor-acceptor exchange symmetry
    a = rates.rate_isotropic(D1, D1, np.array([0, 0, 0.3 * LAM]),
                             np.array([0, 0, 0.45 * LAM]),
                             greens.PerfectMirror(), OMEGA, mediator=med,
                             method="exact").gamma
    b = rates.rate_isotropic(D1, D1, np.array([0, 0, 0.45 * LAM]),
                             np.array([0, 0, 0.3 * LAM]),
                             greens.PerfectMirror(), OMEGA, mediator=med,
                             method="exact").gamma
    exchange_dev = abs(a / b - 1.0)
    exchange_ok = exchange_dev < 1e-10

    # byte-identical CSV from two runs of one sweep
    cfg = config.parse_config({
        "lambda_d_m": LAM,
        "environment": {"type": "mirror"},
        "donor": {"z": 0.3},
        "acceptor": {"z": 0.45},
        "mediator": {"polarizability_volume": 0.1},
    })
    spec = sweep.OneDSweep(1.2, 2.6, 9)
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    sweep.emit(sweep.sweep_1d(cfg, spec), "csv", str(cold))
    sweep.emit(sweep.sweep_1d(cfg, spec), "csv", str(warm))
    deterministic = cold.read_bytes() == warm.read_bytes()

    ok = (reciprocity_ok and nonneg and invariant_ok and exchange_ok
          and deterministic)
    report(9, "invariant-suite", ok,
           f"reciprocity {recip:.2e} (tol 1e-8), nonneg={nonneg}, "
           f"norm-invariance={invariant_ok}, exchange {exchange_dev:.2e} "
           f"(tol 1e-10), deterministic-csv={deterministic}")
