"""Start-up cost: the constants are literals and the Bessel functions a
numpy kernel, so that no CLI run but `mqret verify` loads scipy. Each run
starts a fresh interpreter, because this test process has long since
imported scipy."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mqret
from mqret import core

SRC = str(Path(mqret.__file__).resolve().parent.parent)

BODIES = {"lambda_d_m": 1e-6, "donor": {"z": 0.04}, "acceptor": {"z": 0.08},
          "mediator": {"x": 0.3, "z": 0.5, "polarizability_volume": 0.1}}
ENVIRONMENTS = {
    "mirror": {"type": "mirror"},
    "vacuum": {"type": "vacuum"},
    "eps": {"type": "halfspace",
            "permittivity": {"type": "constant", "value": 2.25}},
}

# runs the CLI commands given as JSON in argv[1] in this fresh interpreter,
# then prints the scipy modules loaded, as the last line of stdout
CHILD = """
import json, sys
import mqret, mqret.cli
for argv in json.loads(sys.argv[1]):
    if argv[0] == "load_config":
        mqret.cli.load_config(argv[1])
    elif mqret.cli.main(argv) != 0:
        sys.exit(f"mqret {argv[0]} failed")
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules_after(commands):
    """The scipy modules loaded in a fresh interpreter after ``commands``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def write_configs(tmp_path):
    paths = {}
    for name, environment in ENVIRONMENTS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(
            json.dumps({**BODIES, "environment": environment}))
    return paths


def test_constants_are_pinned():
    """c and h are exact in the 2019 SI, mu_0 is the CODATA 2022 value."""
    assert core.C == 299792458.0
    assert core.HBAR == 6.62607015e-34 / (2 * math.pi)
    assert core.MU0 == 1.25663706127e-06


def test_closed_form_runs_load_no_scipy(tmp_path):
    """Importing the CLI and loading a config, and rates, sweeps and maps
    over closed-form environments, load no scipy module at all."""
    cfg = write_configs(tmp_path)
    loaded = scipy_modules_after([
        ["load_config", cfg["eps"]],
        ["rate", "--config", cfg["mirror"]],
        ["sweep-z", "--config", cfg["mirror"], "--zmin", "0.2", "--zmax",
         "3", "--steps", "5", "--method", "both", "--out",
         str(tmp_path / "z.csv")],
        ["map", "--config", cfg["vacuum"], "--xmin", "-1", "--xmax", "1",
         "--zmin", "0.2", "--zmax", "1", "--nx", "4", "--nz", "4", "--out",
         str(tmp_path / "map.csv")],
    ])
    assert loaded == set()


def test_sommerfeld_runs_load_no_scipy(tmp_path):
    """Rates, maps and z-sweeps over a dielectric take their Bessel
    functions from the numpy kernel of mqret.greens, so they load no scipy
    module either; only `mqret verify` does."""
    cfg = write_configs(tmp_path)
    loaded = scipy_modules_after([
        ["rate", "--config", cfg["eps"]],
        ["map", "--config", cfg["eps"], "--xmin", "-1", "--xmax", "1",
         "--zmin", "0.2", "--zmax", "1", "--nx", "4", "--nz", "4", "--out",
         str(tmp_path / "map.csv")],
        ["sweep-z", "--config", cfg["eps"], "--zmin", "0.2", "--zmax", "3",
         "--steps", "5", "--method", "both", "--out",
         str(tmp_path / "z.csv")],
    ])
    assert loaded == set()
