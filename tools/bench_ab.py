"""A/B benchmark of two source trees: interleaved runs of bench/run.py.

Usage (from the repository root):

    python3 tools/bench_ab.py --base DIR --change DIR --workload vortex_ec \\
        --pairs 10 --seconds 42 [--first-seed 1] [--record LABEL]

Pair i runs ``python3 bench/run.py --workload W --seed S --seconds SEC
--trace 0`` in both trees, one after the other, with S = first seed + i
on both sides; the parent (``--base``) goes first in even pairs and the
change in odd ones.  A run's end-to-end metrics are the medians over its
repetitions, read from ``.bench_out/<W>/result_seed<S>_trace0.json`` in
its tree.  The summary gives, per metric and side, the median and the
quartiles over the pairs, the number of pairs the change won, the ratio
of the medians, the median over the pairs of the change minus the parent
in the metric's unit (so a fixed-size cache reads as megabytes), a
verdict against the metric's relative ``bound`` in BENCHMARK.json
(``unresolved``, ``worse`` or ``no worse``; see ``verdict``), and
whether the final-U digests of the two sides are equal.  Each pair also
prints the largest relative change of the final U per component, read
from the two trees' ``.bench_out/<W>/out/snap_final.csv`` (the last
repetition of that seed): 0 when the digests are equal, and otherwise a
bound on the change of bits.  The summary closes with the largest of
these over the pairs, per component (``n/a`` when no pair had both
snapshots), and the last line gives the number of lines of
``src/rdeuler/*.py`` in each tree.

``--record LABEL`` appends the summary as one entry to
``BENCH_trajectory.json`` at the root of this script's repository, the
final-U change over the pairs as ``final_u_change``.  Each
side is named by its git HEAD or, for a tree that is not a git checkout,
by a content hash of its library source (``src-sha256:<16 hex>``).  The exit
code is 1 if any run failed its output checks or gave no result.
"""

import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_trajectory.json")
SCRIPT = "tools/bench_ab.py"
ENV_KEYS = ("cpu_model", "nproc", "python", "numpy", "scipy", "blas", "blas_threads")


def quartiles(values):
    """(p25, median, p75); a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_metrics(result):
    """End-to-end metrics of one bench/run.py result: medians over the
    untraced repetitions that passed their checks, as bench/run.py prints."""
    good = [r for r in result["reps"] if r["ok"] and not r.get("traced")]
    samples = {
        "run_s": [r["run_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good if "setup_s" in r],
        "elem_steps_per_s": [r["n_elems"] * r["n_steps"] / r["run_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    return {k: statistics.median(v) for k, v in samples.items() if v}


def digests(result):
    return sorted({r["facts"]["digest"] for r in result["reps"] if "digest" in r.get("facts", {})})


def final_u(tree, workload):
    """Conserved variables of the last run's final snapshot in ``tree``, or None."""
    path = os.path.join(tree, ".bench_out", workload, "out", "snap_final.csv")
    try:
        with open(path) as fh:
            # data rows start with their dof_id; the rest is header
            return [[float(v) for v in line.split(",")[3:7]] for line in fh if line[:1].isdigit()]
    except (OSError, ValueError):
        return None


def relative_change(parent, change):
    """Per component, max |change - parent| over max |parent|; None if
    either side is missing or the DOF counts differ."""
    if not parent or not change or len(parent) != len(change):
        return None
    out = []
    for c in range(len(parent[0])):
        scale = max(abs(row[c]) for row in parent) or 1.0
        out.append(max(abs(a[c] - b[c]) for a, b in zip(parent, change)) / scale)
    return out


def max_over_pairs(changes):
    """Per component, the largest relative change over the pairs; None
    when no pair had both snapshots."""
    changes = [c for c in changes if c is not None]
    return [max(col) for col in zip(*changes)] if changes else None


def run_side(tree, workload, seed, seconds):
    """Run the benchmark in ``tree``; returns its result JSON, or None."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    path = os.path.join(tree, ".bench_out", workload, f"result_seed{seed}_trace0.json")
    if proc.returncode != 0 or not os.path.exists(path):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    with open(path) as fh:
        return json.load(fh)


def summarize(pairs, directions):
    """Per-metric medians, quartiles and change wins over the pairs.

    ``pairs`` holds (parent metrics, change metrics) per pair and
    ``directions`` maps a metric to "lower" or "higher".
    """
    out = {}
    for name, better in directions.items():
        both = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not both:
            continue
        wins = sum(c < p if better == "lower" else c > p for p, c in both)
        sides = {}
        for label, vals in (("parent", [p for p, _ in both]), ("change", [c for _, c in both])):
            q1, med, q3 = quartiles(vals)
            sides[label] = {"median": med, "p25": q1, "p75": q3}
        out[name] = dict(sides, better=better, change_wins=wins, pairs=len(both))
    return out


def verdict(pairs, name, better, bound):
    """The no-regression verdict on one metric against its relative bound:
    ``unresolved`` when the parent's p25-p75 spread over its median exceeds
    the bound, unless every change run beats every parent run; else
    ``worse`` when the change median is worse than the parent's by more
    than the bound times the parent's median; else ``no worse``."""
    parent = [p[name] for p, c in pairs if name in p and name in c]
    change = [c[name] for p, c in pairs if name in p and name in c]
    sign = 1.0 if better == "lower" else -1.0
    q1, med, q3 = quartiles(parent)
    dominates = max(sign * v for v in change) < min(sign * v for v in parent)
    if (q3 - q1) > bound * abs(med) and not dominates:
        return "unresolved"
    if sign * (statistics.median(change) - med) > bound * abs(med):
        return "worse"
    return "no worse"


def median_difference(pairs, name):
    """Median over the pairs of the change's value minus the parent's."""
    return statistics.median([c[name] - p[name] for p, c in pairs if name in p and name in c])


def src_hash(tree):
    """``src-sha256:`` and the first 16 hex digits of a hash over the name
    and bytes of every ``.py`` file of ``tree/src/rdeuler``, in name
    order: the rule by which bench/run.py records ``src_sha256``."""
    h = hashlib.sha256()
    lib = os.path.join(tree, "src", "rdeuler")
    try:
        names = sorted(os.listdir(lib))
    except OSError:                              # no library source to name it by
        return "unknown"
    for name in names:
        if name.endswith(".py"):
            with open(os.path.join(lib, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def src_lines(tree):
    """Number of lines of the ``.py`` files of ``tree/src/rdeuler``, or
    ``n/a`` for a tree without them."""
    lib = os.path.join(tree, "src", "rdeuler")
    try:
        names = sorted(n for n in os.listdir(lib) if n.endswith(".py"))
    except OSError:
        return "n/a"
    total = 0
    for name in names:
        with open(os.path.join(lib, name), "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def git_commit(tree):
    """HEAD of the tree and whether its library differs from it; a tree
    that is not a git checkout is named by ``src_hash``."""
    if not os.path.exists(os.path.join(tree, ".git")):
        return src_hash(tree), False
    try:
        head = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10).stdout.strip()
        dirty = subprocess.run(["git", "-C", tree, "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", False
    return head or "unknown", bool(dirty)


def end_to_end_of(tree):
    """The end-to-end metrics of the tree's BENCHMARK.json by name."""
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="source tree of the parent")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)

    trees = {"parent": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    pairs, seeds, digest_pairs, changes, env, failed = [], [], [], [], {}, 0
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results, finals = {}, {}
        for side in order:
            results[side] = run_side(trees[side], args.workload, seed, args.seconds)
            # read before the other side runs: a tree against itself shares the file
            finals[side] = final_u(trees[side], args.workload)
        if any(r is None for r in results.values()):
            failed += 1
            print(f"# pair {i + 1} seed {seed}: a run failed")
            continue
        metrics = {side: run_metrics(r) for side, r in results.items()}
        env = {k: results["change"]["env"].get(k) for k in ENV_KEYS}
        pairs.append((metrics["parent"], metrics["change"]))
        digest_pairs.append((digests(results["parent"]), digests(results["change"])))
        seeds.append(seed)
        print(f"# pair {i + 1} seed {seed}: {order[0]} first; run_s "
              f"{metrics['parent'].get('run_s', float('nan')):.4f} -> "
              f"{metrics['change'].get('run_s', float('nan')):.4f}")
        rel = relative_change(finals["parent"], finals["change"])
        changes.append(rel)
        if rel is not None:
            print(f"# pair {i + 1} seed {seed}: final U max relative change per component "
                  + " ".join(f"{r:.3g}" for r in rel))

    metrics = end_to_end_of(trees["change"])
    summary = summarize(pairs, {name: m["better"] for name, m in metrics.items()})
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        unit = metrics[name].get("unit", "")
        print(f"{name} [{s['better']}]: parent {p['median']:.6g} (p25 {p['p25']:.6g}, "
              f"p75 {p['p75']:.6g}); change {c['median']:.6g} (p25 {c['p25']:.6g}, "
              f"p75 {c['p75']:.6g}); change better in {s['change_wins']} of {s['pairs']} pairs; "
              f"ratio {c['median'] / p['median']:.3f}; "
              f"paired difference {median_difference(pairs, name):+.3g} {unit}".rstrip())
        if "bound" in metrics[name]:
            bound = metrics[name]["bound"]
            print(f"{name} verdict (bound {bound:g}): "
                  f"{verdict(pairs, name, s['better'], bound)}")
    equal = bool(digest_pairs) and all(p == c for p, c in digest_pairs)
    shown = sorted({d for _, c in digest_pairs for d in c})
    print(f"digests equal: {'yes' if equal else 'no'} (change {', '.join(shown)})")
    final_change = max_over_pairs(changes)
    print("final U max relative change over pairs: "
          + (" ".join(f"{r:.3g}" for r in final_change) if final_change else "n/a"))
    print(f"src lines: parent {src_lines(trees['parent'])}, change {src_lines(trees['change'])}")

    if args.record:
        parent_commit, _ = git_commit(trees["parent"])
        commit, uncommitted = git_commit(trees["change"])
        entry = {
            "label": args.record,
            "date": datetime.date.today().isoformat(),
            "script": SCRIPT,
            "command": (f"python3 {SCRIPT} --base PARENT --change CHANGE --workload "
                        f"{args.workload} --pairs {args.pairs} --seconds {args.seconds:g} "
                        f"--first-seed {args.first_seed}"),
            "parent_commit": parent_commit,
            "commit": commit + (" with uncommitted library changes" if uncommitted else ""),
            "environment": env,
            "workload": args.workload,
            "seeds": seeds,
            "metrics": summary,
            "digests_equal": equal,
            "digests": {"parent": sorted({d for p, _ in digest_pairs for d in p}), "change": shown},
            "final_u_change": final_change,
        }
        entries = []
        if os.path.exists(TRAJECTORY):
            with open(TRAJECTORY) as fh:
                entries = json.load(fh)
        entries.append(entry)
        with open(TRAJECTORY, "w") as fh:
            json.dump(entries, fh, indent=1)
            fh.write("\n")
        print(f"# recorded {args.record!r} in {os.path.basename(TRAJECTORY)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
