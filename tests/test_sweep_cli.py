import json

import numpy as np
import pytest

from mqret import cli, config, greens, rates, sweep
from mqret.core import DEBYE
from mqret.media import Constant, PerfectReflector


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
        assert isinstance(cfg.environment, greens.PerfectMirror)
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

    def test_parse_omega(self, tmp_path):
        p = write_config(tmp_path, {"omega_d": 1.5e15})
        cfg = config.load_config(p)
        del_keys = json.loads(open(p).read())
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

    def test_sweep_2d_clip_flag(self, tmp_path):
        cfg = config.load_config(write_config(tmp_path))
        spec = sweep.TwoDSweep(-0.5, 0.5, 0.1, 1.0, 3, 3)
        recs = sweep.sweep_2d(cfg, spec, workers=1)
        assert len(recs) == 9
        flagged = [r for r in recs if r.flag == "clip"]
        assert flagged  # grid points land near the donor/acceptor column

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

    def test_worker_determinism(self, tmp_path):
        cfg = config.load_config(write_config(tmp_path))
        spec = sweep.OneDSweep(1.2, 2.4, 7)
        r1 = sweep.sweep_1d(cfg, spec, workers=1)
        r3 = sweep.sweep_1d(cfg, spec, workers=3)
        p1, p3 = tmp_path / "w1.csv", tmp_path / "w3.csv"
        sweep.emit(r1, "csv", str(p1), metadata={"k": "v"})
        sweep.emit(r3, "csv", str(p3), metadata={"k": "v"})
        assert p1.read_bytes() == p3.read_bytes()

    def test_direct_leg_once_per_pair(self, tmp_path, monkeypatch):
        """A map evaluates G_AD once, then G_AM and G_MD for each row."""
        full = greens.halfspace_scatter_full
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[:2])
            return full(*args, **kwargs)

        monkeypatch.setattr(greens, "halfspace_scatter_full", counting)
        rates._direct_leg.cache_clear()
        cfg = config.load_config(write_config(tmp_path, DIELECTRIC))
        spec = sweep.TwoDSweep(-1.0, 1.0, 1.0, 2.0, 3, 2)
        recs = sweep.sweep_2d(cfg, spec, workers=1)
        assert all(np.isfinite(r.gamma) for r in recs)
        assert len(calls) == 1 + 2 * len(recs)

    def test_map_worker_determinism(self, tmp_path):
        """Map CSVs are byte-identical whatever the worker count, although
        each worker process keeps its own G_AD memo."""
        p = write_config(tmp_path, DIELECTRIC)
        outs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"map-w{workers}.csv"
            rc = cli.main(["map", "--config", p, "--xmin", "-1.0", "--xmax",
                           "1.0", "--zmin", "0.6", "--zmax", "2.0", "--nx",
                           "4", "--nz", "3", "--out", str(out), "--workers",
                           str(workers)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_csv_roundtrip(self, tmp_path):
        cfg = config.load_config(write_config(tmp_path))
        recs = sweep.sweep_1d(cfg, sweep.OneDSweep(1.5, 2.5, 3))
        path = tmp_path / "out.csv"
        sweep.emit(recs, "csv", str(path), metadata={"lambda_d_m": 1e-6})
        back = sweep.read_csv(str(path))
        assert back == recs

    def test_json_emit(self, tmp_path):
        cfg = config.load_config(write_config(tmp_path))
        recs = sweep.sweep_1d(cfg, sweep.OneDSweep(1.5, 2.5, 3))
        path = tmp_path / "out.json"
        sweep.emit(recs, "json", str(path), metadata={"note": "x"})
        doc = json.loads(path.read_text())
        assert doc["metadata"] == {"note": "x"}
        assert len(doc["records"]) == 3

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            sweep.OneDSweep(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            sweep.TwoDSweep(0.0, 1.0, 0.0, 1.0, 1, 5)


class TestCli:
    def test_rate_command(self, tmp_path, capsys):
        p = write_config(tmp_path, {"mediator": {"z": 2.0,
                                                 "polarizability_volume": 0.1}})
        assert cli.main(["rate", "--config", p]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma_normalized"] > 0.0
        assert "gamma" in doc

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

    def test_green_command(self, capsys):
        rc = cli.main(["green", "--env", "mirror", "--rx", "0.0", "--rz",
                       "0.4", "--rpx", "0.1", "--rpz", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "e" in out and len(out.splitlines()) >= 3

    def test_verify_command(self, tmp_path, capsys):
        report = str(tmp_path / "verify.json")
        rc = cli.main(["verify", "--json", report])
        assert rc == 0
        doc = json.loads(open(report).read())
        assert all(entry["passed"] for entry in doc)

    def test_bad_config_is_diagnosed(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = cli.main(["rate", "--config", str(path)])
        assert rc != 0
        assert "broken.json" in capsys.readouterr().err
