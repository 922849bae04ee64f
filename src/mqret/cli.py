"""Command-line interface.

Subcommands:
  rate     single-point rate from a config file, JSON to stdout
  sweep-z  1-D mediator sweep along the z axis, CSV/JSON output
  map      2-D mediator map in the x-z plane, CSV/JSON output
  green    debug dump of a requested Green's tensor
  verify   run the oracle verification suite
"""

import argparse
import functools
import json
import sys

import numpy as np

from .config import ConfigError, load_config
from .core import angular_frequency
from .greens import HalfSpace, PerfectMirror, Vacuum, green_total
from .media import Constant, StaticScalar
from .rates import Mediator, rate_isotropic
from .sweep import OneDSweep, TwoDSweep, emit, sweep_1d, sweep_2d


def _metadata(cfg):
    return {
        "donor_x_lambda": cfg.donor[0] / cfg.lambda_d,
        "donor_z_lambda": cfg.donor[2] / cfg.lambda_d,
        "acceptor_x_lambda": cfg.acceptor[0] / cfg.lambda_d,
        "acceptor_z_lambda": cfg.acceptor[2] / cfg.lambda_d,
        "lambda_d_m": cfg.lambda_d,
    }


def _cmd_rate(args):
    cfg = load_config(args.config)
    mediator = None
    if cfg.has_mediator:
        if cfg.mediator is None:
            raise ConfigError("a rate needs the mediator's 'z'; only sweeps "
                              "supply the mediator position")
        mediator = Mediator(cfg.mediator, StaticScalar(cfg.alpha))
    res = rate_isotropic(cfg.d_donor, cfg.d_acceptor, cfg.donor, cfg.acceptor,
                         cfg.environment, cfg.omega, mediator=mediator,
                         method=cfg.method, rtol=cfg.quad_rtol)
    json.dump(
        {
            "gamma": res.gamma,
            "gamma_normalized": res.gamma_normalized,
            "error_estimate": res.error_estimate,
            "method": cfg.method,
        },
        sys.stdout,
        indent=1,
    )
    print()
    return 0


def _write(records, cfg, args):
    emit(records, args.format, args.out, metadata=_metadata(cfg))
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_sweep_z(args):
    cfg = load_config(args.config)
    methods = ("limits", "exact") if args.method == "both" else (args.method,)
    spec = OneDSweep(z_min=args.zmin, z_max=args.zmax, steps=args.steps,
                     methods=methods)
    return _write(sweep_1d(cfg, spec), cfg, args)


def _cmd_map(args):
    cfg = load_config(args.config)
    spec = TwoDSweep(x_min=args.xmin, x_max=args.xmax, z_min=args.zmin,
                     z_max=args.zmax, nx=args.nx, nz=args.nz)
    return _write(sweep_2d(cfg, spec), cfg, args)


def _cmd_green(args):
    if args.eps is not None and args.env != "halfspace":
        raise ConfigError(f"--eps applies to --env halfspace only, not "
                          f"--env {args.env}")
    if args.env == "vacuum":
        env = Vacuum()
    elif args.env == "halfspace" and args.eps is not None:
        env = HalfSpace(Constant(args.eps))
    else:
        env = PerfectMirror()
    omega = angular_frequency(args.wavelength_nm * 1e-9)
    lam = args.wavelength_nm * 1e-9
    r = np.array([args.rx, args.ry, args.rz]) * lam
    rp = np.array([args.rpx, args.rpy, args.rpz]) * lam
    g = green_total(env, r, rp, omega, part=args.part, method=args.method)
    for i in range(3):
        print("  ".join(f"{g[i, j].real:+.9e}{g[i, j].imag:+.9e}j"
                        for j in range(3)))
    return 0


def _cmd_verify(args):
    # imported here: the oracles pull in scipy.integrate and scipy.special,
    # which no other command needs, since the Sommerfeld evaluator has its
    # own J0 and J1; they take about three times as long to import as the
    # rest of the CLI and almost triple the memory of a fresh process
    # (51 MB on top of 29 MB; Python 3.11, scipy 1.17, x86-64)
    from .oracles import run_verification

    reports = run_verification()
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status}  {rep.name:38s} rel_error={rep.rel_error:.3e} "
              f"tol={rep.tolerance:.1e}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([rep.to_dict() for rep in reports], fh, indent=1)
            fh.write("\n")
    return 0 if all(rep.passed for rep in reports) else 1


def _worker_count(text):
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {workers}")
    return workers


@functools.cache
def _parser():
    """The parser, built once per process: building it costs about a
    millisecond, a sizeable share of a short sweep. Parsing leaves it
    unchanged, so calls of :func:`main` do not see each other's options."""
    parser = argparse.ArgumentParser(
        prog="mqret",
        description="Environment-modified two- and three-body resonance "
                    "energy transfer rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by subcommands, declared once
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)
    sweep = argparse.ArgumentParser(add_help=False, parents=[config])
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--workers", type=_worker_count, default=1,
                       help="accepted but ignored: a sweep runs on one thread")

    p = sub.add_parser("rate", parents=[config],
                       help="single-point rate from a config file")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("sweep-z", parents=[sweep],
                       help="1-D mediator sweep along z")
    p.add_argument("--zmin", type=float, required=True,
                   help="mediator z minimum, lambda_D units")
    p.add_argument("--zmax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--method", choices=("limits", "exact", "both"),
                   default="both")
    p.set_defaults(func=_cmd_sweep_z)

    p = sub.add_parser("map", parents=[sweep],
                       help="2-D mediator map in the x-z plane")
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--zmin", type=float, required=True)
    p.add_argument("--zmax", type=float, required=True)
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--nz", type=int, required=True)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("green", help="debug-print one Green's tensor")
    p.add_argument("--env", choices=("vacuum", "mirror", "halfspace"),
                   required=True)
    p.add_argument("--eps", type=float, default=None,
                   help="real permittivity for --env halfspace (an error "
                        "with the other environments); without it the "
                        "half-space is a perfect reflector, the same "
                        "environment as --env mirror")
    p.add_argument("--wavelength-nm", type=float, default=1000.0)
    p.add_argument("--rx", type=float, required=True,
                   help="observation point, lambda units")
    p.add_argument("--ry", type=float, default=0.0)
    p.add_argument("--rz", type=float, required=True)
    p.add_argument("--rpx", type=float, required=True,
                   help="source point, lambda units")
    p.add_argument("--rpy", type=float, default=0.0)
    p.add_argument("--rpz", type=float, required=True)
    p.add_argument("--part", choices=("bulk", "scatter", "total"),
                   default="total")
    p.add_argument("--method", choices=("exact", "nr", "r"), default="exact",
                   type=lambda m: "exact" if m == "auto" else m,
                   help='"auto" is read as "exact"')
    p.set_defaults(func=_cmd_green)

    p = sub.add_parser("verify", help="run the oracle verification suite")
    p.add_argument("--json", default=None, help="also write a JSON report")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
