import csv
import json
from pathlib import Path

import numpy as np
import pytest

from mqret import cli, config, greens, rates, sweep
from mqret.core import DEBYE, QuadratureError
from mqret.media import Constant, PerfectReflector, StaticScalar


BASE_CONFIG = {
    "lambda_d_m": 1e-6,
    "environment": {"type": "mirror"},
    "donor": {"z": 0.3},
    "acceptor": {"z": 0.45},
    "mediator": {"polarizability_volume": 0.1},
    "dipoles": "normalized",
    "method": "limits",
}
DIELECTRIC = {"environment": {"type": "halfspace",
                              "permittivity": {"type": "constant",
                                               "value": 2.25}}}


def halfspace(**permittivity):
    return {"environment": {"type": "halfspace", "permittivity": permittivity}}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    data = dict(BASE_CONFIG)
    if overrides:
        data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfig:
    def test_parse_mirror(self, tmp_path):
        cfg = config.load_config(write_config(tmp_path))
        assert cfg.environment == greens.PerfectMirror()
        assert cfg.lambda_d == 1e-6
        assert cfg.donor[2] == pytest.approx(0.3e-6)
        assert cfg.has_mediator
        assert cfg.mediator is None  # position comes from the sweep
        assert cfg.d_donor == cfg.d_acceptor == DEBYE  # "normalized" dipoles

    def test_parse_halfspace(self, tmp_path):
        p = write_config(tmp_path, {
            "environment": {"type": "halfspace",
                            "permittivity": {"type": "constant", "value": 2.25}},
        })
        cfg = config.load_config(p)
        assert isinstance(cfg.environment, greens.HalfSpace)
        assert cfg.environment.material == Constant(2.25)

    def test_perfect_halfspace_is_the_mirror(self, tmp_path):
        """A half-space of a perfect reflector is the mirror: the same
        environment and bit-equal rates."""
        mirror = config.load_config(write_config(tmp_path, name="m.json"))
        perfect = config.load_config(write_config(
            tmp_path, halfspace(type="perfect"), name="p.json"))
        assert perfect.environment == mirror.environment
        mediator = rates.Mediator(np.array([[0.0, 0.0, 0.6], [0.0, 0.0, 1.2]])
                                  * mirror.lambda_d, StaticScalar(mirror.alpha))
        for method in ("limits", "exact"):
            a, b = (rates.rate_isotropic(
                cfg.d_donor, cfg.d_acceptor, cfg.donor, cfg.acceptor,
                cfg.environment, cfg.omega, mediator=mediator, method=method)
                for cfg in (mirror, perfect))
            for field in ("gamma", "gamma_normalized", "error_estimate"):
                assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_parse_vacuum(self, tmp_path):
        cfg = config.load_config(write_config(tmp_path, {
            "environment": {"type": "vacuum"}}))
        assert cfg.environment == greens.Vacuum()

    @pytest.mark.parametrize("overrides, match", [
        ({"environment": {"type": "slab"}}, "unknown environment type 'slab'"),
        (halfspace(type="lorentz"), "unknown permittivity type 'lorentz'"),
        ({"environment": {"permittivity": {"type": "constant"}}},
         "missing required field 'type' in environment"),
        ({"environment": {"type": "halfspace"}},
         "missing required field 'permittivity'"),
    ], ids=["environment-type", "permittivity-type", "environment-field",
            "permittivity-field"])
    def test_unknown_or_missing_names_the_field(self, tmp_path, overrides,
                                                match):
        with pytest.raises(config.ConfigError, match=match):
            config.load_config(write_config(tmp_path, overrides))

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(config.ConfigError, match="cannot read config"):
            config.load_config(str(tmp_path / "absent.json"))

    def test_parse_omega(self, tmp_path):
        p = write_config(tmp_path, {"omega_d": 1.5e15})
        cfg = config.load_config(p)
        del_keys = json.loads(Path(p).read_text())
        assert "omega_d" in del_keys
        assert cfg.omega == 1.5e15

    def test_explicit_dipoles(self, tmp_path):
        p = write_config(tmp_path, {"dipoles": {"donor_debye": 2.0,
                                                "acceptor_debye": 0.5}})
        cfg = config.load_config(p)
        assert cfg.d_donor == pytest.approx(2.0 * DEBYE, rel=1e-14, abs=0.0)
        assert cfg.d_acceptor == pytest.approx(0.5 * DEBYE, rel=1e-14, abs=0.0)
        assert cfg.d_donor == pytest.approx(2.0 * 3.33564e-30, rel=1e-4, abs=0.0)

    def test_missing_frequency(self, tmp_path):
        data = dict(BASE_CONFIG)
        del data["lambda_d_m"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(config.ConfigError, match="omega_d"):
            config.load_config(str(path))

    def test_invalid_json_diagnostic(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"lambda_d_m": 1e-6,,}')
        with pytest.raises(config.ConfigError, match="line 1"):
            config.load_config(str(path))

    def test_body_below_surface(self, tmp_path):
        p = write_config(tmp_path, {"donor": {"z": -0.1}})
        with pytest.raises(config.ConfigError, match="above the surface"):
            config.load_config(p)

    def test_colinear_ordering(self, tmp_path):
        p = write_config(tmp_path, {"donor": {"z": 0.5}, "acceptor": {"z": 0.4}})
        with pytest.raises(config.ConfigError, match="z_donor < z_acceptor"):
            config.load_config(p)

    def test_unknown_method(self, tmp_path):
        p = write_config(tmp_path, {"method": "magic"})
        with pytest.raises(config.ConfigError, match="method"):
            config.load_config(p)

    def test_non_finite_position(self, tmp_path):
        """A NaN or infinite coordinate of any body is a named error, not a
        failure deep inside the quadrature."""
        for body, base in (("donor", {"z": 0.3}), ("acceptor", {"z": 0.45}),
                           ("mediator", {"z": 2.0,
                                         "polarizability_volume": 0.1})):
            for axis in ("x", "z"):
                for bad in (float("nan"), float("inf"), float("-inf")):
                    p = write_config(tmp_path, {body: {**base, axis: bad}})
                    with pytest.raises(config.ConfigError,
                                       match=f"{body} position must be finite"):
                        config.load_config(p)

    @pytest.mark.parametrize("overrides, match", [
        ({"quad_rtol": float("nan")}, "quad_rtol"),
        ({"quad_rtol": float("inf")}, "quad_rtol"),
        ({"clip_radius": float("nan")}, "clip_radius"),
        ({"clip_radius": float("inf")}, "clip_radius"),
        ({"mediator": {"polarizability_volume": float("nan")}},
         "polarizability_volume"),
        ({"mediator": {"polarizability_volume": float("inf")}},
         "polarizability_volume"),
        ({"lambda_d_m": float("nan")}, "lambda_d_m"),
        ({"lambda_d_m": float("inf")}, "lambda_d_m"),
        ({"omega_d": float("nan")}, "omega_d"),
        ({"omega_d": float("inf")}, "omega_d"),
        ({"dipoles": {"donor_debye": float("nan"), "acceptor_debye": 1.0}},
         "dipole magnitudes"),
        ({"dipoles": {"donor_debye": 1.0, "acceptor_debye": float("inf")}},
         "dipole magnitudes"),
        (halfspace(type="constant", value=float("nan")), "permittivity value"),
        (halfspace(type="constant", value=1e400), "permittivity value"),
        (halfspace(type="drude_lorentz", omega_p=float("nan"), omega_0=0.0),
         "permittivity omega_p"),
        (halfspace(type="drude_lorentz", omega_p=5e15, omega_0=float("inf")),
         "permittivity omega_0"),
        (halfspace(type="drude_lorentz", omega_p=5e15, omega_0=0.0,
                   gamma=float("nan")), "permittivity gamma"),
        # JSON integers have no size limit; this one overflows a float
        ({"lambda_d_m": 10**400}, "lambda_d_m must be a number"),
        # omega_p**2 overflows
        (halfspace(type="drude_lorentz", omega_p=1e200, omega_0=0.0),
         "omega_p, omega_0 and gamma"),
    ])
    def test_non_finite_scalar(self, tmp_path, overrides, match):
        p = write_config(tmp_path, overrides)
        with pytest.raises(config.ConfigError, match=match):
            config.load_config(p)

    @pytest.mark.parametrize("doc, match", [
        ('"lambda_d_m"', "config must be a JSON object"),
        ({"donor": 0.04}, "donor must be a JSON object"),
        ({"mediator": 5}, "mediator must be a JSON object"),
        ({"lambda_d_m": "1e-6x"}, "lambda_d_m must be a number"),
        ({"donor": {"z": "a"}}, "donor z must be a number"),
        ({"quad_rtol": True}, "quad_rtol must be a number"),
        ({"lambda_d_m": "1e-6"}, "lambda_d_m must be a number"),
        ({"donor": {"z": "0.04"}}, "donor z must be a number"),
        ({"quad_rtol": "1e-9"}, "quad_rtol must be a number"),
    ], ids=["top-level-string", "donor-number", "mediator-number",
            "lambda-text", "donor-z-text", "rtol-boolean", "lambda-numeral",
            "donor-z-numeral", "rtol-numeral"])
    def test_wrong_json_type_names_the_field(self, tmp_path, doc, match):
        """A value of the wrong JSON type is a ConfigError that names its
        block or field, not a bare TypeError or ValueError from inside the
        parser."""
        if isinstance(doc, dict):
            p = write_config(tmp_path, doc)
        else:
            p = tmp_path / "cfg.json"
            p.write_text(doc)
        with pytest.raises(config.ConfigError, match=match):
            config.load_config(str(p))

    def test_complex_permittivity_from_a_string(self, tmp_path):
        """JSON has no complex numbers: a lossy constant permittivity is
        the one value that may be written as a string."""
        cfg = config.load_config(write_config(
            tmp_path, halfspace(type="constant", value="2.25+0.1j")))
        assert cfg.environment.material == Constant(complex(2.25, 0.1))

    @pytest.mark.parametrize("gamma", [{"gamma": 0.0}, {}],
                             ids=["gamma-zero", "gamma-default"])
    def test_lossless_resonance_is_rejected_at_load(self, tmp_path, gamma):
        """A lossless Drude-Lorentz metal at its own resonance has an
        infinite permittivity: a ConfigError that names omega_0 and gamma,
        at load, not a ZeroDivisionError that aborts a sweep. With loss the
        same resonance loads."""
        omega = 2.0e15
        resonant = {"omega_d": omega, **halfspace(
            type="drude_lorentz", omega_p=5e15, omega_0=omega, **gamma)}
        p = write_config(tmp_path, resonant)
        with pytest.raises(config.ConfigError, match="omega_0 and gamma"):
            config.load_config(p)
        out = tmp_path / "sweep.csv"
        for argv in (["rate", "--config", p],
                     ["sweep-z", "--config", p, "--zmin", "1.5", "--zmax",
                      "2.5", "--steps", "3", "--out", str(out)]):
            assert cli.main(argv) == 1
        assert not out.exists()
        lossy = halfspace(type="drude_lorentz", omega_p=5e15, omega_0=omega,
                          gamma=1e13)
        config.load_config(write_config(tmp_path, {**resonant, **lossy}))


class TestSweep:
    def test_sweep_1d_records(self, tmp_path):
        cfg = config.load_config(write_config(tmp_path))
        recs = sweep.sweep_1d(cfg, sweep.OneDSweep(1.0, 3.0, 5))
        assert len(recs) == 5
        assert all(r.method == "limits" for r in recs)
        assert all(np.isfinite(r.gamma) for r in recs)
        # mediator closer than one wavelength above the acceptor is flagged
        assert recs[0].flag == "nr_guard"
        assert recs[-1].flag == ""

    def test_sweep_1d_both_methods(self, tmp_path):
        cfg = config.load_config(write_config(tmp_path))
        spec = sweep.OneDSweep(1.5, 3.0, 4, methods=("limits", "exact"))
        recs = sweep.sweep_1d(cfg, spec)
        assert len(recs) == 8
        lim = [r for r in recs if r.method == "limits"]
        exa = [r for r in recs if r.method == "exact"]
        for a, b in zip(lim, exa):
            assert a.gamma_normalized == pytest.approx(b.gamma_normalized,
                                                       rel=5e-2)

    def test_sweep_requires_mediator(self, tmp_path):
        data = dict(BASE_CONFIG)
        del data["mediator"]
        path = tmp_path / "no_med.json"
        path.write_text(json.dumps(data))
        cfg = config.load_config(str(path))
        with pytest.raises(config.ConfigError, match="mediator"):
            sweep.sweep_1d(cfg, sweep.OneDSweep(1.0, 2.0, 3))
        with pytest.raises(config.ConfigError, match="mediator"):
            sweep.sweep_2d(cfg, sweep.TwoDSweep(-1.0, 1.0, 1.0, 2.0, 2, 2))

    def test_sweep_2d_clip_flag(self, tmp_path):
        cfg = config.load_config(write_config(tmp_path))
        spec = sweep.TwoDSweep(-0.5, 0.5, 0.1, 1.0, 3, 3)
        recs = sweep.sweep_2d(cfg, spec)
        assert len(recs) == 9
        flagged = [r for r in recs if r.flag == "clip"]
        assert flagged  # grid points land near the donor/acceptor column

    def test_sweep_2d_clip_flags_match_per_row_formula(self, tmp_path,
                                                       monkeypatch):
        """The flags of a grid straddling the clip radius of the donor and
        the acceptor, one array expression, equal the flag of each row's
        own norm; the grid includes points exactly one radius away."""
        monkeypatch.setattr(sweep, "_run", lambda cfg, method, rows:
                            [(method,) + row for row in rows])
        cfg = config.load_config(write_config(tmp_path))
        spec = sweep.TwoDSweep(-0.45, 0.45, 0.0, 0.9, 61, 61)
        rows = sweep.sweep_2d(cfg, spec)
        clip = cfg.clip_radius * cfg.lambda_d
        expected = []
        for z_lam in np.linspace(spec.z_min, spec.z_max, spec.nz):
            for x_lam in np.linspace(spec.x_min, spec.x_max, spec.nx):
                pos = np.array([float(x_lam) * cfg.lambda_d, 0.0,
                                float(z_lam) * cfg.lambda_d])
                near = (np.linalg.norm(pos - cfg.donor) < clip
                        or np.linalg.norm(pos - cfg.acceptor) < clip)
                expected.append(("exact", float(x_lam), float(z_lam),
                                 "clip" if near else ""))
        assert rows == expected
        flags = [row[3] for row in rows]
        assert 0 < flags.count("clip") < len(flags)

    def test_error_rows_recorded(self, tmp_path):
        """A mediator colliding with the acceptor yields an error row, not a crash."""
        cfg = config.load_config(write_config(tmp_path))
        recs = sweep.sweep_1d(cfg, sweep.OneDSweep(0.45, 2.0, 3))
        assert recs[0].flag.startswith("error:")
        assert np.isnan(recs[0].gamma)
        assert np.isfinite(recs[-1].gamma)

    def test_programming_errors_abort_the_sweep(self, tmp_path, monkeypatch):
        """Only domain errors become error rows; a bug propagates."""
        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(sweep, "rate_isotropic", broken)
        cfg = config.load_config(write_config(tmp_path))
        with pytest.raises(TypeError):
            sweep.sweep_1d(cfg, sweep.OneDSweep(1.0, 2.0, 3))

    def test_direct_leg_once_per_pair(self, tmp_path, sommerfeld_geometries):
        """A map evaluates G_AD once, then G_AM and G_MD for each row,
        counted as geometries: one tensor call may evaluate many."""
        cfg = config.load_config(write_config(tmp_path, DIELECTRIC))
        spec = sweep.TwoDSweep(-1.0, 1.0, 1.0, 2.0, 3, 2)
        recs = sweep.sweep_2d(cfg, spec)
        assert all(np.isfinite(r.gamma) for r in recs)
        pairs = [pair for call in sommerfeld_geometries for pair in call]
        r_a, r_d = tuple(cfg.acceptor), tuple(cfg.donor)
        assert pairs.count((r_a, r_d)) == 1
        assert len(pairs) == 1 + 2 * len(recs)
        g_am = [rp for r, rp in pairs if r == r_a and rp != r_d]
        g_md = [r for r, rp in pairs if rp == r_d and r != r_a]
        assert len(set(g_am)) == len(g_am) == len(recs)
        assert set(g_md) == set(g_am) and len(g_md) == len(recs)

    @staticmethod
    def assert_within_quad_rtol(csv_bytes, ref_bytes, cfg, tmp_path):
        """The rows of two CSVs agree up to the quadrature tolerance: their
        chunks differ, and so do the panels their tensors share."""
        recs = []
        for name, data in (("got.csv", csv_bytes), ("ref.csv", ref_bytes)):
            (tmp_path / name).write_bytes(data)
            recs.append(sweep.read_csv(str(tmp_path / name)))
        got, ref = recs
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert (a.x_m, a.z_m, a.method, a.flag) == (b.x_m, b.z_m, b.method, b.flag)
            for key in ("gamma", "gamma_normalized"):
                x, y = getattr(a, key), getattr(b, key)
                assert abs(x - y) <= cfg.quad_rtol * abs(y)

    def test_map_worker_determinism(self, tmp_path, monkeypatch):
        """Map CSVs are byte-identical whatever --workers says. Chunks of 4
        rows make 3 chunks; one 12-row chunk agrees within quad_rtol."""
        p = write_config(tmp_path, DIELECTRIC)

        def run(workers):
            out = tmp_path / f"map-w{workers}.csv"
            rc = cli.main(["map", "--config", p, "--xmin", "-1.0", "--xmax",
                           "1.0", "--zmin", "0.6", "--zmax", "2.0", "--nx",
                           "4", "--nz", "3", "--out", str(out), "--workers",
                           str(workers)])
            assert rc == 0
            return out.read_bytes()

        one_chunk = run(1)
        monkeypatch.setattr(sweep, "_CHUNK_ROWS", 4)
        chunked = run(1)
        assert chunked == run(2) == run(3)
        self.assert_within_quad_rtol(chunked, one_chunk, config.load_config(p),
                                     tmp_path)

    def test_sweep_z_worker_determinism(self, tmp_path, monkeypatch):
        """sweep-z over a dielectric, both methods: chunks of 4 rows, two
        per method, write the same bytes whatever --workers says, and agree
        with one 7-row chunk per method within quad_rtol."""
        p = write_config(tmp_path, DIELECTRIC)

        def run(workers):
            out = tmp_path / f"z-w{workers}.csv"
            rc = cli.main(["sweep-z", "--config", p, "--zmin", "0.6", "--zmax",
                           "2.0", "--steps", "7", "--method", "both", "--out",
                           str(out), "--workers", str(workers)])
            assert rc == 0
            return out.read_bytes()

        one_chunk = run(1)
        monkeypatch.setattr(sweep, "_CHUNK_ROWS", 4)
        chunked = run(1)
        assert chunked == run(2) == run(3)
        self.assert_within_quad_rtol(chunked, one_chunk, config.load_config(p),
                                     tmp_path)

    def test_direct_leg_once_per_thread(self, tmp_path, monkeypatch,
                                        sommerfeld_geometries):
        """A map runs on one thread at any --workers: its 3 chunks share
        one G_AD evaluation, and each makes one tensor call of its own."""
        monkeypatch.setattr(sweep, "_CHUNK_ROWS", 4)
        p = write_config(tmp_path, DIELECTRIC)
        cfg = config.load_config(p)
        r_a, r_d = tuple(cfg.acceptor), tuple(cfg.donor)
        for workers in ("1", "2"):
            sommerfeld_geometries.clear()
            out = tmp_path / f"map-w{workers}.csv"
            assert cli.main(["map", "--config", p, "--xmin", "-1.0", "--xmax",
                             "1.0", "--zmin", "0.6", "--zmax", "2.0", "--nx",
                             "4", "--nz", "3", "--out", str(out),
                             "--workers", workers]) == 0
            assert all(np.isfinite(r.gamma) for r in sweep.read_csv(str(out)))
            assert [len(call) for call in sommerfeld_geometries] == [1, 8, 8, 8]
            assert sommerfeld_geometries[0] == [(r_a, r_d)]

    def test_chunks_take_the_product_path(self, tmp_path, monkeypatch):
        """Chunks are bands of neighbouring heights, so every Sommerfeld run
        of a map has few distinct (Z, rho) and takes the product path, even
        when a chunk ends mid-row of the grid; chunks dealt round-robin
        over the same 13 x 11 map were diagonal and ran scattered."""
        monkeypatch.setattr(sweep, "_CHUNK_ROWS", 12)
        run = greens._sommerfeld_run
        batches = []

        def recording(terms, *args, **kwargs):
            batches.append(terms)
            return run(terms, *args, **kwargs)

        monkeypatch.setattr(greens, "_sommerfeld_run", recording)
        cfg = config.load_config(write_config(tmp_path, DIELECTRIC))
        recs = sweep.sweep_2d(cfg, sweep.TwoDSweep(0.3, 2.0, 0.6, 2.0, 13, 11))
        assert all(np.isfinite(r.gamma) for r in recs)
        assert len(batches) == 1 + -(-len(recs) // 12)
        assert all(greens._shares_terms(terms) for terms in batches)

    @staticmethod
    def counting_rates(monkeypatch):
        """Patches the sweep's ``rate_isotropic`` to count its calls."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(kwargs["mediator"].position))
            return rates.rate_isotropic(*args, **kwargs)

        monkeypatch.setattr(sweep, "rate_isotropic", counting)
        return calls

    def test_failed_chunk_is_retried_by_halves(self, tmp_path, monkeypatch):
        """A mediator inside the donor's separation guard fails its chunk;
        the chunk is retried by halves, so that row is flagged in five rate
        calls (4 rows, then 2, 1, 1 and 2), and every other row agrees with
        its lone evaluation within quad_rtol."""
        calls = self.counting_rates(monkeypatch)
        cfg = config.load_config(write_config(tmp_path, DIELECTRIC))
        z_d = cfg.donor[2] / cfg.lambda_d
        rows = [(x, z, "") for x, z in
                ((-1.0, 1.0), (0.0, z_d + 5e-5), (0.5, 2.0), (1.0, 0.6))]
        direct = rates._direct_leg(cfg.environment, cfg.acceptor, cfg.donor,
                                   cfg.omega, "exact", cfg.quad_rtol)
        recs = sweep._eval_point(cfg, "exact", rows, direct)
        assert calls == [4, 2, 1, 1, 2]
        assert recs[1].flag == "error:GeometryError" and np.isnan(recs[1].gamma)
        for k in (0, 2, 3):
            alone, = sweep._eval_point(cfg, "exact", [rows[k]], direct)
            assert recs[k].flag == "" and np.isfinite(recs[k].gamma)
            for key in ("gamma", "gamma_normalized"):
                got, ref = getattr(recs[k], key), getattr(alone, key)
                assert abs(got - ref) <= cfg.quad_rtol * abs(ref)

    def test_one_bad_row_costs_a_few_rate_calls(self, tmp_path, monkeypatch):
        """A 128-row map chunk with one point on top of the acceptor flags
        that point after at most 2 log2(128) + 1 = 15 rate calls, where a
        retry row by row made 129; every other row is finite."""
        calls = self.counting_rates(monkeypatch)
        cfg = config.load_config(write_config(tmp_path, DIELECTRIC))
        z_a = cfg.acceptor[2] / cfg.lambda_d
        recs = sweep.sweep_2d(cfg, sweep.TwoDSweep(-0.7, 0.0, z_a, z_a + 0.7,
                                                   16, 8))
        assert len(recs) == sweep._CHUNK_ROWS and calls[0] == len(recs)
        assert len(calls) <= 2 * np.log2(sweep._CHUNK_ROWS) + 1
        bad = [r for r in recs if r.flag.startswith("error:")]
        assert [(r.x_m, r.z_m, r.flag) for r in bad] == [
            (0.0, z_a, "error:GeometryError")]
        assert all(np.isfinite(r.gamma) for r in recs if r not in bad)

    def test_failing_direct_leg_is_evaluated_once(self, tmp_path,
                                                  monkeypatch):
        """Over a lossless Drude metal G_AD exhausts its panels. A 4x4 map
        evaluates it once, before any chunk, and makes no rate call: every
        row reads error:QuadratureError, as its own rate call would give,
        except the row on top of the acceptor, whose separation guard fails
        first."""
        calls = self.counting_rates(monkeypatch)
        full = greens.halfspace_scatter_full
        failed = []

        def counting(*args, **kwargs):
            try:
                return full(*args, **kwargs)
            except QuadratureError:
                failed.append(args)
                raise

        monkeypatch.setattr(greens, "halfspace_scatter_full", counting)
        p = write_config(tmp_path, halfspace(type="drude_lorentz",
                                             omega_p=4.7e15, omega_0=0.0))
        cfg = config.load_config(p)
        z_a = float(cfg.acceptor[2] / cfg.lambda_d)
        out = tmp_path / "lossless.csv"
        assert cli.main(["map", "--config", p, "--xmin", "-0.3", "--xmax",
                         "0.0", "--zmin", repr(z_a), "--zmax",
                         repr(z_a + 0.3), "--nx", "4", "--nz", "4", "--out",
                         str(out)]) == 0
        assert len(failed) == 1 and calls == []
        recs = sweep.read_csv(str(out))
        flags = ["error:GeometryError" if (r.x_m, r.z_m) == (0.0, z_a)
                 else "error:QuadratureError" for r in recs]
        assert [r.flag for r in recs] == flags and len(set(flags)) == 2
        assert all(np.isnan([r.gamma, r.gamma_normalized, r.error_estimate]).all()
                   for r in recs)

    def test_csv_roundtrip(self, tmp_path):
        cfg = config.load_config(write_config(tmp_path))
        recs = sweep.sweep_1d(cfg, sweep.OneDSweep(1.5, 2.5, 3))
        path = tmp_path / "out.csv"
        sweep.emit(recs, "csv", str(path), metadata={"lambda_d_m": 1e-6})
        back = sweep.read_csv(str(path))
        assert back == recs

    def test_json_emit(self, tmp_path):
        """The file holds the bytes of a json.dump of each record written
        out field by field, an error row among them whose NaNs are null, so
        that a strict parser, which refuses the bare token NaN, reads it."""
        cfg = config.load_config(write_config(tmp_path))
        recs = sweep.sweep_1d(cfg, sweep.OneDSweep(1.5, 2.5, 3))
        recs.append(sweep._error_record((0.5, 1.0, "clip"), "exact",
                                        QuadratureError("no convergence")))
        path = tmp_path / "out.json"
        sweep.emit(recs, "json", str(path), metadata={"note": "x"})

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(path.read_text(), parse_constant=refuse)
        assert doc["metadata"] == {"note": "x"}
        assert len(doc["records"]) == 4
        assert doc["records"][-1]["gamma"] is None

        def value(v):
            return v if np.isfinite(v) else None

        rows = [
            {
                "x_m": rec.x_m, "z_m": rec.z_m, "gamma": value(rec.gamma),
                "gamma_normalized": value(rec.gamma_normalized),
                "method": rec.method,
                "error_estimate": value(rec.error_estimate),
                "flag": rec.flag,
            }
            for rec in recs
        ]
        ref = tmp_path / "ref.json"
        with open(ref, "w") as fh:
            json.dump({"metadata": {"note": "x"}, "records": rows}, fh,
                      indent=1)
            fh.write("\n")
        assert path.read_bytes() == ref.read_bytes()

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        """emit writes the rows csv.writer writes, for the float values a
        row can hold and every method and flag a sweep writes."""
        values = [float("nan"), -0.0, 5e-324, 1e-300, 1e16, 0.1]
        labels = [("exact", ""), ("limits", "nr_guard"), ("exact", "clip"),
                  ("exact", "error:QuadratureError"),
                  ("limits", "error:GeometryError")]
        recs = [sweep.RateRecord(values[k % 6], values[(k + 1) % 6],
                                 values[(k + 2) % 6], values[(k + 3) % 6],
                                 method, values[(k + 4) % 6], flag)
                for k in range(12) for method, flag in labels]
        metadata = {"lambda_d_m": 1e-6, "donor_z_lambda": 0.04}
        path = tmp_path / "out.csv"
        sweep.emit(recs, "csv", str(path), metadata=metadata)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            for key in sorted(metadata):
                fh.write(f"# {key} = {metadata[key]}\n")
            writer = csv.writer(fh)
            writer.writerow(sweep.CSV_HEADER)
            for rec in recs:
                writer.writerow([repr(rec.x_m), repr(rec.z_m), repr(rec.gamma),
                                 repr(rec.gamma_normalized), rec.method,
                                 repr(rec.error_estimate), rec.flag])
        assert path.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("method, flag", [
        ("exact", "error:a,b"), ('ex"act', ""), ("exact", "x\ny"),
        ("exact\r", "")])
    def test_csv_rejects_fields_csv_would_quote(self, tmp_path, method, flag):
        recs = [sweep.RateRecord(0.0, 1.0, 2.0, 3.0, "exact", 0.0, ""),
                sweep.RateRecord(0.0, 1.0, 2.0, 3.0, method, 0.0, flag)]
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="comma, a double quote"):
            sweep.emit(recs, "csv", str(path))
        assert not path.exists()

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            sweep.OneDSweep(2.0, 1.0, 5)
        with pytest.raises(ValueError, match="at least 2 steps"):
            sweep.OneDSweep(1.0, 2.0, 1)
        with pytest.raises(ValueError):
            sweep.TwoDSweep(0.0, 1.0, 0.0, 1.0, 1, 5)
        for bounds in ((1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 1.0)):
            with pytest.raises(ValueError, match="min < max"):
                sweep.TwoDSweep(*bounds, 2, 2)

    @pytest.mark.parametrize("records, fmt, path, error, match", [
        ([], "csv", "out.csv", ValueError, "no records"),
        (None, "xml", "out.xml", ValueError, "unknown format 'xml'"),
        (None, "csv", "absent/out.csv", OSError, "cannot write"),
        (None, "json", "absent/out.json", OSError, "cannot write"),
    ], ids=["no-records", "unknown-format", "csv-path", "json-path"])
    def test_emit_errors(self, tmp_path, records, fmt, path, error, match):
        if records is None:
            records = [sweep.RateRecord(0.0, 1.0, 2.0, 3.0, "exact", 0.0)]
        with pytest.raises(error, match=match):
            sweep.emit(records, fmt, str(tmp_path / path))

    def test_non_finite_bounds(self):
        nan, inf = float("nan"), float("inf")
        for bounds in ((nan, 2.0), (1.0, inf), (-inf, 2.0)):
            with pytest.raises(ValueError, match="finite"):
                sweep.OneDSweep(*bounds, 5)
        for bounds in ((-1.0, inf, 0.5, 1.0), (nan, 1.0, 0.5, 1.0),
                       (-1.0, 1.0, 0.5, inf), (-1.0, 1.0, nan, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                sweep.TwoDSweep(*bounds, 2, 2)



class TestCli:
    def test_rate_command(self, tmp_path, capsys):
        p = write_config(tmp_path, {"mediator": {"z": 2.0,
                                                 "polarizability_volume": 0.1}})
        assert cli.main(["rate", "--config", p]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma_normalized"] > 0.0
        assert "gamma" in doc

    def test_rate_needs_the_mediator_position(self, tmp_path, capsys):
        """A mediator block without z, which sweeps fill in, is an error for
        a lone rate, not a rate without the mediator; a config without a
        mediator block is the two-body rate."""
        assert cli.main(["rate", "--config", write_config(tmp_path)]) == 1
        assert "mediator's 'z'" in capsys.readouterr().err
        two_body = {k: v for k, v in BASE_CONFIG.items() if k != "mediator"}
        path = tmp_path / "two_body.json"
        path.write_text(json.dumps(two_body))
        assert cli.main(["rate", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["gamma_normalized"] == 1.0
        with pytest.raises(config.ConfigError, match="mediator's 'z'"):
            cli._cmd_rate(cli._parser().parse_args(
                ["rate", "--config", write_config(tmp_path)]))

    def test_rate_command_auto_is_exact(self, tmp_path, capsys):
        """A config's "auto" method loads as "exact" and gives its rate."""
        docs = []
        for method in ("auto", "exact"):
            p = write_config(tmp_path, {"method": method, "mediator": {
                "z": 2.0, "polarizability_volume": 0.1}}, name=f"{method}.json")
            assert config.load_config(p).method == "exact"
            assert cli.main(["rate", "--config", p]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0] == docs[1] and docs[0]["method"] == "exact"

    def test_sweep_z_command(self, tmp_path):
        p = write_config(tmp_path)
        out = str(tmp_path / "sweep.csv")
        rc = cli.main(["sweep-z", "--config", p, "--zmin", "1.0", "--zmax",
                       "2.0", "--steps", "4", "--method", "limits",
                       "--out", out])
        assert rc == 0
        recs = sweep.read_csv(out)
        assert len(recs) == 4

    def test_map_command(self, tmp_path):
        p = write_config(tmp_path)
        out = str(tmp_path / "map.csv")
        rc = cli.main(["map", "--config", p, "--xmin", "-0.5", "--xmax", "0.5",
                       "--zmin", "0.5", "--zmax", "1.5", "--nx", "3",
                       "--nz", "3", "--out", out])
        assert rc == 0
        assert len(sweep.read_csv(out)) == 9

    def test_map_rejects_infinite_bound(self, tmp_path, capsys):
        """An infinite bound used to give rows of NaN with an empty flag."""
        p = write_config(tmp_path)
        out = tmp_path / "map.csv"
        rc = cli.main(["map", "--config", p, "--xmin", "-0.5", "--xmax", "inf",
                       "--zmin", "0.5", "--zmax", "1.5", "--nx", "2",
                       "--nz", "2", "--out", str(out)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_below_one_rejected(self, tmp_path, capsys):
        p = write_config(tmp_path)
        out = tmp_path / "map.csv"
        for workers in ("0", "-5"):
            with pytest.raises(SystemExit):
                cli.main(["map", "--config", p, "--xmin", "-0.5", "--xmax",
                          "0.5", "--zmin", "0.5", "--zmax", "1.5", "--nx", "2",
                          "--nz", "2", "--out", str(out), "--workers", workers])
            assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_must_be_an_integer(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.main(["map", "--config", write_config(tmp_path), "--xmin",
                      "-0.5", "--xmax", "0.5", "--zmin", "0.5", "--zmax",
                      "1.5", "--nx", "2", "--nz", "2", "--out",
                      str(tmp_path / "map.csv"), "--workers", "1.5"])
        assert "invalid int value: '1.5'" in capsys.readouterr().err

    def test_parser_is_built_once(self, tmp_path, capsys):
        """main reuses one parser: each call still gets its own defaults,
        and an argparse error leaves the next call unaffected."""
        p = write_config(tmp_path)
        rate = write_config(tmp_path, {"mediator": {
            "z": 2.0, "polarizability_volume": 0.1}}, name="rate.json")
        assert cli.main(["rate", "--config", rate]) == 0
        assert "gamma" in json.loads(capsys.readouterr().out)
        map_out = tmp_path / "map.json"
        assert cli.main(["map", "--config", p, "--xmin", "-0.5", "--xmax", "0.5",
                         "--zmin", "0.5", "--zmax", "1.5", "--nx", "2", "--nz",
                         "2", "--out", str(map_out), "--format", "json",
                         "--workers", "2"]) == 0
        with pytest.raises(SystemExit):
            cli.main(["sweep-z", "--config", p, "--zmin", "1.0", "--steps", "x"])
        z_out = tmp_path / "z.csv"
        assert cli.main(["sweep-z", "--config", p, "--zmin", "1.0", "--zmax",
                         "2.0", "--steps", "3", "--out", str(z_out)]) == 0
        assert len(json.loads(map_out.read_text())["records"]) == 4
        # the defaults: --format csv, --method both
        assert len(sweep.read_csv(str(z_out))) == 6
        assert cli._parser() is cli._parser()

    def test_green_command(self, capsys):
        rc = cli.main(["green", "--env", "mirror", "--rx", "0.0", "--rz",
                       "0.4", "--rpx", "0.1", "--rpz", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "e" in out and len(out.splitlines()) >= 3

    def test_green_command_auto_is_exact(self, capsys):
        outs = []
        for method in ("auto", "exact"):
            assert cli.main(["green", "--env", "halfspace", "--eps", "2.25",
                             "--method", method, "--rx", "0.1", "--rz", "0.3",
                             "--rpx", "0.0", "--rpz", "0.5"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_green_command_vacuum(self, capsys):
        """Over vacuum the scattering part is zero and the total tensor is
        the bulk one."""
        points = ["--rx", "0.1", "--rz", "0.3", "--rpx", "0.0", "--rpz", "0.5"]
        outs = []
        for args in (["--env", "vacuum", "--part", "scatter"],
                     ["--env", "vacuum"], ["--env", "mirror", "--part", "bulk"]):
            assert cli.main(["green", *args, *points]) == 0
            outs.append(capsys.readouterr().out)
        assert set(outs[0].split()) == {"+0.000000000e+00+0.000000000e+00j"}
        assert outs[1] == outs[2]

    def test_green_command_nearly_index_matched(self, capsys):
        """eps = 1 + 1e-5 gives a scattering tensor of order 1e-5 of the
        bulk one; it used to exhaust the panel budget."""
        points = ["--rx", "0.3", "--rz", "0.2", "--rpx", "0", "--rpz", "0.1"]
        tensors = []
        for args in (["--env", "halfspace", "--eps", "1.00001",
                      "--part", "scatter"], ["--env", "vacuum"]):
            assert cli.main(["green", *args, *points]) == 0
            tensors.append(np.array([complex(v) for v in
                                     capsys.readouterr().out.split()]))
        ratio = np.abs(tensors[0]).max() / np.abs(tensors[1]).max()
        assert 1e-7 < ratio < 1e-4

    @pytest.mark.parametrize("env", ["vacuum", "mirror"])
    def test_green_command_rejects_eps_without_halfspace(self, env, capsys):
        """--eps belongs to --env halfspace; with the other environments it
        is an error, not silently ignored."""
        rc = cli.main(["green", "--env", env, "--eps", "2.25", "--rx", "0",
                       "--rz", "0.3", "--rpx", "0", "--rpz", "0.5"])
        captured = capsys.readouterr()
        assert rc != 0 and captured.out == ""
        assert f"--eps applies to --env halfspace only, not --env {env}" in \
            captured.err

    def test_verify_command(self, tmp_path, capsys):
        report = str(tmp_path / "verify.json")
        rc = cli.main(["verify", "--json", report])
        assert rc == 0
        doc = json.loads(Path(report).read_text())
        assert all(entry["passed"] for entry in doc)

    def test_verify_command_fails_on_a_failed_report(self, monkeypatch,
                                                     capsys):
        from mqret import oracles

        monkeypatch.setattr(oracles, "run_verification", lambda: [
            oracles.OracleReport(name="good", passed=True),
            oracles.OracleReport(name="bad", rel_error=2.0, tolerance=1.0)])
        assert cli.main(["verify"]) == 1
        assert "FAIL  bad" in capsys.readouterr().out

    def test_bad_config_is_diagnosed(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = cli.main(["rate", "--config", str(path)])
        assert rc != 0
        assert "broken.json" in capsys.readouterr().err
