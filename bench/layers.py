"""Per-layer metrics derived from the spans of one traced run.

Layers are named after ``rdeuler`` modules.  Each metric lists the
span names it is built from; if any of them could not be wrapped the
metric is reported as missing instead of being computed.
"""

import os

import numpy as np

from tracer import self_times

STEP_FNS = ("stepping.forward_euler_step", "stepping.ssp_rk2_step", "stepping.implicit_euler_step")
TAIL_PERCENTILE = 90

# Targets beyond the public module functions: the Discretization methods
# that make up set-up, and the private diagnostics row of the driver.
EXTRA_TARGETS = (
    "discretization.Discretization.__init__",
    "discretization.Discretization.interpolate",
    "driver._diag_row",
)

# name: (unit, better, span names it needs)
METRICS = {
    "mesh.build_s": ("s", "lower", ("driver.build_discretization",)),
    "basis.dofmap_s": ("s", "lower", ("basis.build_dofmap",)),
    "discretization.init_s": ("s", "lower", ("discretization.Discretization.__init__",)),
    "discretization.interpolate_s": ("s", "lower", ("discretization.Discretization.interpolate",)),
    "positivity.alpha_calls_per_step": ("calls/step", "lower", ("positivity.alpha_noninterpolated", "positivity.alpha_interpolated", "positivity.alpha_implicit")),
    "positivity.alpha_noninterp_ms": ("ms", "lower", ("positivity.alpha_noninterpolated",)),
    "positivity.alpha_interp_ms": ("ms", "lower", ("positivity.alpha_interpolated",)),
    "positivity.alpha_implicit_ms": ("ms", "lower", ("positivity.alpha_implicit",)),
    "residuals.base_calls_per_step": ("calls/step", "lower", ("residuals.base_residual",)),
    "residuals.base_ms": ("ms", "lower", ("residuals.base_residual",)),
    "euler.flux_calls_per_rhs": ("calls/rhs", "lower", ("euler.flux", "stepping.element_theta")),
    "euler.max_wavespeed_calls_per_rhs": ("calls/rhs", "lower", ("euler.max_wavespeed", "stepping.element_theta")),
    "stabilization.corrected_self_ms": ("ms", "lower", ("stabilization.corrected_residual", "residuals.base_residual")),
    "stabilization.jump_diffusion_ms": ("ms", "lower", ("stabilization.jump_diffusion",)),
    "stepping.rhs_per_step": ("calls/step", "lower", ("stepping.element_theta",)),
    "stepping.step_ms_p50": ("ms", "lower", STEP_FNS + ("mood.mood_step",)),
    "stepping.step_ms_tail": ("ms", "lower", STEP_FNS + ("mood.mood_step",)),
    "stepping.scatter_ms": ("ms", "lower", ("stepping.scatter_residuals",)),
    "stepping.picard_sweeps_per_step": ("sweeps/step", "lower", ("stepping.implicit_euler_step", "stepping.element_theta")),
    "stepping.implicit_linear_ms": ("ms", "lower", ("stepping.implicit_euler_step",)),
    "mood.detect_ms": ("ms", "lower", ("mood.detect",)),
    "mood.useful_candidate_frac": ("ratio", "higher", ("mood.mood_step",) + STEP_FNS),
    "mood.flagged_elem_frac": ("ratio", "lower", ("mood.mood_step",)),
    "mood.nad_bumps_per_step": ("elems/step", "lower", ("mood.mood_step",)),
    "mood.plateau_skips_per_step": ("elems/step", "higher", ("mood.mood_step",)),
    "diagnostics.row_ms": ("ms", "lower", ("driver._diag_row",)),
    "diagnostics.weak_bv_ms": ("ms", "lower", ("diagnostics.weak_bv_norm",)),
    "driver.snapshot_write_ms": ("ms", "lower", ("driver.write_snapshot",)),
    "driver.snapshot_bytes": ("bytes", "lower", ()),
    "driver.diag_csv_nonnumeric_cells": ("count", "lower", ()),
    "trace.overhead_frac": ("ratio", "lower", ()),
}


class MoodReports:
    """Hook on ``mood.mood_step`` that keeps what the public DetectorReport says."""

    def __init__(self):
        self.steps = 0
        self.activated = 0
        self.nad_bumps = 0
        self.plateau_skips = 0

    def __call__(self, out):
        report = out[1]
        self.steps += 1
        self.activated += int(np.sum(report.level > 0))
        self.nad_bumps += int(report.counts.get("nad", 0))
        self.plateau_skips += int(report.plateau_skips)


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.self_s = self_times(spans)
        self.by_name = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[0], []).append(i)

    def calls(self, name):
        return len(self.by_name.get(name, ()))

    def dur(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def total(self, name):
        return sum(self.dur(i) for i in self.by_name.get(name, ()))

    def mean_ms(self, name):
        n = self.calls(name)
        return 1e3 * self.total(name) / n if n else 0.0

    def ancestors(self, i):
        p = self.spans[i][3]
        while p >= 0:
            yield p
            p = self.spans[p][3]

    def has_ancestor(self, i, names):
        return any(self.spans[a][0] in names for a in self.ancestors(i))

    def count_within(self, name, within):
        return sum(1 for i in self.by_name.get(name, ()) if self.has_ancestor(i, (within,)))


def diag_nonnumeric_cells(path):
    """Cells of diagnostics.csv (header excluded) that do not parse as a float."""
    bad = 0
    with open(path) as fh:
        next(fh)
        for line in fh:
            for cell in line.rstrip("\n").split(","):
                try:
                    float(cell)
                except ValueError:
                    bad += 1
    return bad


def snapshot_bytes(out_dir):
    sizes = [
        os.path.getsize(os.path.join(out_dir, f))
        for f in os.listdir(out_dir)
        if f.startswith("snap_") and f.endswith(".csv")
    ]
    return sum(sizes) / len(sizes) if sizes else 0.0


def layer_metrics(spans, missing, n_steps, n_elems, reports: MoodReports, out_dir):
    """Every per-layer metric except trace.overhead_frac; missing ones are left out."""
    ix = SpanIndex(spans)
    steps = max(n_steps, 1)
    rhs = ix.calls("stepping.element_theta")

    step_spans = ix.by_name.get("mood.mood_step") or [
        i for name in STEP_FNS for i in ix.by_name.get(name, ())
        if not ix.has_ancestor(i, STEP_FNS)
    ]
    step_ms = np.array([1e3 * ix.dur(i) for i in step_spans]) if step_spans else np.zeros(1)

    base_self = sum(
        ix.self_s[i]
        for i, s in enumerate(spans)
        if s[0].startswith("residuals.")
        and (s[0] == "residuals.base_residual" or ix.has_ancestor(i, ("residuals.base_residual",)))
    )
    n_base = ix.calls("residuals.base_residual")

    corr = ix.by_name.get("stabilization.corrected_residual", ())
    corr_base = sum(
        ix.dur(i) for i in ix.by_name.get("residuals.base_residual", ())
        if spans[i][3] >= 0 and spans[spans[i][3]][0] == "stabilization.corrected_residual"
    )
    imp = ix.by_name.get("stepping.implicit_euler_step", ())
    candidates = sum(
        1 for name in STEP_FNS for i in ix.by_name.get(name, ())
        if ix.has_ancestor(i, ("mood.mood_step",)) and not ix.has_ancestor(i, STEP_FNS)
    )
    mesh_s = sum(
        ix.dur(i)
        for i, s in enumerate(spans)
        if s[0].startswith("mesh.") and s[3] >= 0 and spans[s[3]][0] == "driver.build_discretization"
    )
    diag_csv = os.path.join(out_dir, "diagnostics.csv")

    values = {
        "mesh.build_s": mesh_s,
        "basis.dofmap_s": ix.total("basis.build_dofmap"),
        "discretization.init_s": ix.total("discretization.Discretization.__init__"),
        "discretization.interpolate_s": ix.total("discretization.Discretization.interpolate"),
        "positivity.alpha_calls_per_step": sum(
            ix.calls(f"positivity.alpha_{k}") for k in ("noninterpolated", "interpolated", "implicit")
        ) / steps,
        "positivity.alpha_noninterp_ms": ix.mean_ms("positivity.alpha_noninterpolated"),
        "positivity.alpha_interp_ms": ix.mean_ms("positivity.alpha_interpolated"),
        "positivity.alpha_implicit_ms": ix.mean_ms("positivity.alpha_implicit"),
        "residuals.base_calls_per_step": n_base / steps,
        "residuals.base_ms": 1e3 * base_self / n_base if n_base else 0.0,
        "euler.flux_calls_per_rhs": ix.count_within("euler.flux", "stepping.element_theta") / max(rhs, 1),
        "euler.max_wavespeed_calls_per_rhs": ix.count_within("euler.max_wavespeed", "stepping.element_theta") / max(rhs, 1),
        "stabilization.corrected_self_ms": (
            1e3 * (sum(ix.dur(i) for i in corr) - corr_base) / len(corr) if corr else 0.0
        ),
        "stabilization.jump_diffusion_ms": ix.mean_ms("stabilization.jump_diffusion"),
        "stepping.rhs_per_step": rhs / steps,
        "stepping.step_ms_p50": float(np.percentile(step_ms, 50)),
        "stepping.step_ms_tail": float(np.percentile(step_ms, TAIL_PERCENTILE)),
        "stepping.scatter_ms": ix.mean_ms("stepping.scatter_residuals"),
        "stepping.picard_sweeps_per_step": (
            ix.count_within("stepping.element_theta", "stepping.implicit_euler_step") / len(imp)
            if imp else 0.0
        ),
        "stepping.implicit_linear_ms": 1e3 * sum(ix.self_s[i] for i in imp) / len(imp) if imp else 0.0,
        "mood.detect_ms": ix.mean_ms("mood.detect"),
        "mood.useful_candidate_frac": reports.steps / candidates if candidates else 0.0,
        "mood.flagged_elem_frac": reports.activated / (steps * n_elems) if reports.steps else 0.0,
        "mood.nad_bumps_per_step": reports.nad_bumps / steps if reports.steps else 0.0,
        "mood.plateau_skips_per_step": reports.plateau_skips / steps if reports.steps else 0.0,
        "diagnostics.row_ms": ix.mean_ms("driver._diag_row"),
        "diagnostics.weak_bv_ms": ix.mean_ms("diagnostics.weak_bv_norm"),
        "driver.snapshot_write_ms": ix.mean_ms("driver.write_snapshot"),
        "driver.snapshot_bytes": snapshot_bytes(out_dir),
        "driver.diag_csv_nonnumeric_cells": diag_nonnumeric_cells(diag_csv) if os.path.exists(diag_csv) else 0,
    }
    gone = set(missing)
    return {
        name: value
        for name, value in values.items()
        if not gone.intersection(METRICS[name][2])
    }
