"""rdeuler benchmark: one workload, repeated for a fixed time budget.

Usage (from the repository root):

    python3 bench/run.py --workload vortex_ec --seed 1 --seconds 42 --trace 0

Each repetition is one fresh single-threaded Python process
(``bench/rep.py``) that runs ``config.parse_config`` -> ``driver.run``,
the path ``rdeuler run`` takes, and checks the output.  Repetitions
start while the next one is expected to end inside ``--seconds``.

``--trace 0`` prints the end-to-end metrics (medians over the
repetitions); ``--trace 1`` alternates untraced and traced repetitions
and prints the per-layer metrics of the traced ones.  Every metric is
printed by name with its unit, quartiles and sample count; the last
line of standard output is the JSON summary.  The exit code is 1 if any
output check failed and 2 if the library source is not present.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from layers import METRICS as LAYER_METRICS, TAIL_PERCENTILE  # noqa: E402

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "elem_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# The whole command must end within 180 s, even if a repetition hangs.
HARD_LIMIT_S = 165
OUT_ROOT = ".bench_out"
SRC = os.path.join("src", "rdeuler")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def child_env():
    env = dict(os.environ)
    env.pop("RDEULER_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(spec, timeout):
    """Run one repetition in a fresh process; returns its JSON result."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "rep.py"), json.dumps(spec)],
            capture_output=True, text=True, env=child_env(), timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        out = {"ok": False, "failures": [f"repetition killed after {timeout:.0f} s"]}
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            out = {"ok": False, "failures": [f"exit {proc.returncode}: {proc.stderr[-500:]}"]}
    out["wall_s"] = time.perf_counter() - t0
    out["traced"] = spec["traced"]
    return out


def environment(seed):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    src = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as fh:
                src.update(name.encode() + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def repeat(args, work_dir, hard_deadline):
    """Repetitions until the next one would overrun --seconds; trace mode
    alternates untraced and traced ones."""
    kinds = [False, True] if args.trace else [False]
    reps = {k: [] for k in kinds}
    deadline = time.perf_counter() + args.seconds
    while True:
        for traced in kinds:
            left = hard_deadline - time.perf_counter()
            if left <= 0:
                return reps
            spec = {
                "workload": args.workload,
                "seed": args.seed,
                "traced": traced,
                "work_dir": work_dir,
            }
            reps[traced].append(run_rep(spec, timeout=left))
        cycle = sum(statistics.median(r["wall_s"] for r in reps[k]) for k in kinds)
        if time.perf_counter() + cycle > deadline:
            return reps


def end_to_end(reps):
    good = [r for r in reps if r["ok"]]
    samples = {
        "run_s": [r["run_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good if "setup_s" in r],
        "elem_steps_per_s": [r["n_elems"] * r["n_steps"] / r["run_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    return {k: v for k, v in samples.items() if v}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    if not os.path.isdir(SRC):
        print(f"error: library source {SRC} not found; run from the repository root",
              file=sys.stderr)
        return 2

    work_dir = os.path.join(OUT_ROOT, args.workload)
    os.makedirs(work_dir, exist_ok=True)
    env = environment(args.seed)
    reps = repeat(args, work_dir, hard_deadline)
    all_reps = [r for k in reps for r in reps[k]]
    env["blas_threads"] = all_reps[0].get("blas_threads", "unknown")
    failed = [r for r in all_reps if not r["ok"]]

    print(f"# workload {args.workload}  seed {args.seed}  "
          f"beta {workloads.beta_for_seed(args.seed)!r}  trace {args.trace}")
    for k, v in env.items():
        print(f"# env {k}: {v}")
    for i, r in enumerate(all_reps):
        status = "ok" if r["ok"] else "FAIL " + "; ".join(r["failures"])
        print(f"# rep {i} {'traced' if r['traced'] else 'untraced'}: {status}"
              f"  facts {json.dumps(r.get('facts', {}))}")

    samples = end_to_end(reps[False])
    e2e = {k: quartiles(v) + (len(v),) for k, v in samples.items()}
    print(f"# fail_frac {len(failed) / len(all_reps)!r} ({len(failed)} of {len(all_reps)} runs)")
    for k in END_TO_END:
        if k not in e2e:
            print(f"{k} = missing")
    for k, (q1, med, q3, n) in e2e.items():
        print(f"{k} = {med!r} {END_TO_END[k]}  (p25 {q1!r}, p75 {q3!r}, n={n})")

    metrics = {k: {"value": e2e[k][1], "unit": u} for k, u in END_TO_END.items() if k in e2e}
    if args.trace:
        traced = [r for r in reps[True] if r["ok"]]
        missing = sorted({m for r in reps[True] for m in r.get("missing", [])})
        if missing:
            print(f"# wrap targets missing: {', '.join(missing)}")
        layers = {}
        for name in LAYER_METRICS:
            vals = [r["layers"][name] for r in traced if name in r.get("layers", {})]
            if name == "trace.overhead_frac" and traced and "run_s" in e2e:
                vals = [statistics.median(r["run_s"] for r in traced) / e2e["run_s"][1] - 1.0]
            if vals:
                layers[name] = quartiles(vals) + (len(vals),)
            else:
                print(f"{name} = missing")
        for name, (q1, med, q3, n) in layers.items():
            unit = LAYER_METRICS[name][0]
            note = f", p{TAIL_PERCENTILE} of step times" if name == "stepping.step_ms_tail" else ""
            print(f"{name} = {med!r} {unit}  (p25 {q1!r}, p75 {q3!r}, n={n}{note})")
        metrics = {k: {"value": v[1], "unit": LAYER_METRICS[k][0]} for k, v in layers.items()}

    with open(os.path.join(work_dir, f"result_seed{args.seed}_trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "reps": all_reps}, fh, indent=1)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_reps),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
