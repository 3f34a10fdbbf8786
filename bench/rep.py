"""One repetition of one workload, in a fresh process.

Usage: python3 bench/rep.py '<json spec>'  (run from the repository root)

The spec holds workload, seed, traced and work_dir.  It times one
``driver.run``; set-up time is the time of the run's own calls of
``driver.build_discretization`` and ``driver.initial_state``, which are
wrapped for that.  Traced, every public function of every rdeuler module
is wrapped as well.  The last line of standard output is a JSON object
with the measurements and checks.
"""

import ctypes
import json
import os
import resource
import shutil
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from layers import EXTRA_TARGETS, MoodReports, layer_metrics  # noqa: E402
from tracer import Tracer, public_functions  # noqa: E402

SETUP_FNS = ("driver.build_discretization", "driver.initial_state")


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded into this process."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return "unknown"


def main(spec):
    from rdeuler import config, driver
    from rdeuler.errors import RDError

    name, work_dir = spec["workload"], spec["work_dir"]
    out_dir = os.path.join(work_dir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    mesh_path = workloads.prepare(name, work_dir)
    cfg = config.parse_config(workloads.config_text(name, spec["seed"], out_dir, mesh_path))

    reports = MoodReports()
    tracer = Tracer()
    if spec["traced"]:
        targets = public_functions() + list(EXTRA_TARGETS)
    else:
        # The set-up calls, and the step-level hook the sod_mood activation
        # check needs: a few wrapper calls per run.
        targets = list(SETUP_FNS) + (["mood.mood_step"] if name == "sod_mood" else [])
    tracer.install(targets, hooks={"mood.mood_step": reports})
    try:
        t0 = time.perf_counter()
        result = driver.run(cfg)
        run_s = time.perf_counter() - t0
    except RDError as exc:
        return {"ok": False, "failures": [f"{type(exc).__name__}: {exc}"]}
    finally:
        tracer.restore()

    failures, facts = workloads.check_output(name, result, activations=reports.activated)
    out = {
        "ok": not failures,
        "failures": failures,
        "facts": facts,
        "run_s": run_s,
        "n_steps": result.n_steps,
        "n_elems": result.disc.mesh.n_tris,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    if not set(SETUP_FNS) & set(tracer.missing):
        out["setup_s"] = sum(end - start for fn, start, end, _ in tracer.spans if fn in SETUP_FNS)
    if spec["traced"]:
        tracer.write(os.path.join(work_dir, "spans.json"))
        out["missing"] = tracer.missing
        out["n_spans"] = len(tracer.spans)
        out["layers"] = layer_metrics(
            tracer.spans, tracer.missing, result.n_steps, result.disc.mesh.n_tris, reports, out_dir
        )
    return out


if __name__ == "__main__":
    try:
        result = main(json.loads(sys.argv[1]))
    except Exception:
        result = {"ok": False, "failures": ["crash: " + traceback.format_exc(limit=3)]}
    print(json.dumps(result))
