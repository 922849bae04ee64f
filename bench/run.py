"""mqret benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload map-dielectric --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1

Prints every metric by name with its unit and sample count, then one JSON
line ``{"correct", "attempted", "failed", "metrics"}`` as the last line of
stdout. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer metrics. Full results, and the spans of a traced
run, go to ``.bench_out/`` at the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# BLAS pinned to one thread here and, through the environment, in pool children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import mqret.cli; "
               "mqret.cli.load_config(sys.argv[2]); print('ready', flush=True)")


def _machine(seed):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "mqret").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def _git_commit():
    """HEAD of the checkout, read without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _setup_seconds(config_path):
    """Median wall time from spawning a fresh interpreter to 'import mqret.cli'
    plus one config load finished, over SETUP_SAMPLES processes (after one
    untimed warm-up that fills the bytecode cache)."""
    times = []
    for k in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC),
                               config_path], stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup child failed with exit code {code}")
        if k:
            times.append(t1 - t0)
    return statistics.median(times)


def _peak_rss_mb():
    kb = sum(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def _run_ops(workload, workers, outdir, seconds):
    """Run ops until their summed wall time reaches ``seconds`` and at least
    ``workload.min_ops`` ran. Op 0 runs once first, untimed, so lazy imports
    and first-call costs stay out of the samples."""
    (outdir / "warm-up").mkdir(parents=True)
    workload.op(0, workers, outdir / "warm-up")
    ops, spent = [], 0.0
    while spent < seconds or len(ops) < workload.min_ops:
        op = workload.op(len(ops), workers, outdir)
        ops.append(op)
        spent += op.wall_s
    return ops


# counters the traced run must move (>0) or must leave at 0, per workload
EXPECT = {
    "map-dielectric": {
        "move": ["config.loads", "sweep.rows", "rates.calls",
                 "greens.sommerfeld_tensors", "greens.closed_form_tensors",
                 "quadrature.calls", "quadrature.integrand_nodes",
                 "media.fresnel_calls"],
        "zero": ["quadrature.errors"],
    },
    "sweepz-mirror": {
        "move": ["config.loads", "sweep.rows", "rates.calls",
                 "greens.closed_form_tensors"],
        "zero": ["quadrature.calls", "quadrature.integrand_calls",
                 "quadrature.integrand_nodes", "quadrature.errors",
                 "greens.sommerfeld_tensors", "media.fresnel_calls"],
    },
}
COUNTERS = ("quadrature.calls", "quadrature.integrand_calls",
            "quadrature.integrand_nodes", "quadrature.errors",
            "greens.sommerfeld_tensors", "greens.closed_form_tensors",
            "media.fresnel_calls", "rates.calls", "rates.sommerfeld_per_rate",
            "rates.tensors_per_rate", "sweep.rows")
COUNTERS_FILE = Path(__file__).resolve().parent / "counters_seed.json"


def run_untraced(workload, seconds, workers, outdir):
    from workloads import Gate

    setup_s = _setup_seconds(workload.setup_config(outdir))
    ops = _run_ops(workload, workers, outdir / "ops", seconds)
    gate = Gate()
    failed = sum(op.check(gate) for op in ops)
    attempted = sum(op.attempted for op in ops)
    wall = sum(op.wall_s for op in ops)
    values = {
        "throughput_per_s": (attempted - failed) / wall,
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "success_frac": (attempted - failed) / attempted,
    }
    samples = {
        "throughput_per_s": f"{attempted - failed} passing of {attempted} over {wall:.2f} s of {len(ops)} ops",
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters",
        "peak_rss_mb": "ru_maxrss of RUSAGE_SELF + RUSAGE_CHILDREN",
        "success_frac": f"failed_frac = {failed}/{attempted} rows",
    }
    return values, samples, gate, attempted, failed, {"op_wall_s": [op.wall_s for op in ops]}


def run_traced(workload, workers, outdir):
    from tracing import Tracer, dump, summarize
    from workloads import Gate

    n = workload.trace_ops
    for name in ("warm-up", "untraced", "traced", "pooled"):
        (outdir / name).mkdir()
    workload.op(0, workers, outdir / "warm-up")
    # the untraced, traced and pooled passes alternate op by op, so that slow
    # spells of the machine fall on all of them and the ratios between them
    # (trace.overhead_frac, sweep.scaling_eff) stay meaningful
    tracer, base, traced, pooled = Tracer(), [], [], []
    for i in range(n):
        base.append(workload.op(i, 1, outdir / "untraced"))
        with tracer:
            traced.append(workload.op(i, 1, outdir / "traced"))
        if workers > 1:
            pooled.append(workload.op(i, workers, outdir / "pooled"))
    gate = Gate()
    failed = sum(op.check(gate) for op in traced)
    attempted = sum(op.attempted for op in traced)
    base_wall = sum(op.wall_s for op in base)
    wall = sum(op.wall_s for op in traced)
    values = summarize(tracer.spans, wall)
    values["sweep.scaling_eff"] = values["rates.busy_s"] / (
        workers * sum(op.wall_s for op in pooled)) if pooled else 0.0
    values["trace.overhead_frac"] = (wall - base_wall) / base_wall
    values["check.max_rel_dev"] = gate.max_rel_dev
    values["check.est_ratio"] = gate.est_ratio

    broken = [f"{k} = {values[k]}, expected > 0" for k in EXPECT[workload.name]["move"]
              if not values[k] > 0]
    broken += [f"{k} = {values[k]}, expected 0" for k in EXPECT[workload.name]["zero"]
               if values[k] != 0]
    if broken:
        raise SystemExit("trace check failed (a wrapper no longer sees its layer?):\n  "
                         + "\n  ".join(broken))
    OUT.mkdir(exist_ok=True)
    dump(tracer.spans, OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl.gz")
    counters = {k: values[k] for k in COUNTERS}
    recorded = json.loads(COUNTERS_FILE.read_text()).get(workload.name, {})
    extra = {"counters": counters,
             "counters_seed_commit": recorded.get(str(workload.seed)),
             "traced": f"{n} ops at workers=1, {len(tracer.spans)} spans"}
    return values, {}, gate, attempted, failed, extra


def run_one(args):
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workers = min(workload.workers, len(os.sched_getaffinity(0)))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            run = run_traced(workload, workers, Path(tmp))
        else:
            run = run_untraced(workload, args.seconds, workers, Path(tmp))
    values, samples, gate, attempted, failed, extra = run
    machine = _machine(args.seed)
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, trace {args.trace}, workers {workers}, machine {json.dumps(machine)}")
    if "traced" in extra:
        print(f"  traced: {extra['traced']}")
    for name in names:
        note = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name} = {values[name]:.6g} {units[name]}{note}")
    print(f"  check: {gate.compared} comparisons, max_rel_dev {gate.max_rel_dev:.3e}, "
          f"est_ratio {gate.est_ratio:.3e}, {len(gate.failures)} failed, "
          f"{len(gate.wrong)} wrong")
    for what in gate.wrong[:10] + gate.failures[:10]:
        print(f"    {what}")
    if "counters" in extra:
        _report_counters(extra["counters"], extra["counters_seed_commit"])
    result = {
        "correct": not gate.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in names},
    }
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "machine": machine, "samples": samples,
                    "all_values": values, "failures": gate.failures,
                    "wrong": gate.wrong, **extra},
                   indent=1) + "\n")
    print(json.dumps(result))


def _report_counters(counters, recorded):
    if recorded is None:
        print("  counters: no seed-commit record for this seed")
        return
    diffs = [f"{k}: {recorded.get(k)} -> {v}" for k, v in counters.items()
             if recorded.get(k) != v]
    if diffs:
        print("  counters differ from the seed-commit record (explain any rise in CHANGES.md):")
        for d in diffs:
            print(f"    {d}")
    else:
        print("  counters: identical to the seed-commit record")


def run_all(args):
    """Run every workload in its own process and print one table."""
    import workloads

    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} failed with exit code {proc.returncode}")
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("map-dielectric", "sweepz-mirror", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mqret" / "__init__.py").is_file():
        raise SystemExit(f"mqret sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
