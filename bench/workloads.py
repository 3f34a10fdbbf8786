"""The three workloads: run configurations and output checks.

Each workload is one configuration text fed to ``config.parse_config``
and run with ``driver.run``, the path ``rdeuler run`` takes.  The seed
only sets ``problem.beta`` of the vortex workloads; ``sod_mood`` is
fully deterministic and ignores it.
"""

import hashlib
import os
import random

import numpy as np

# Beta range for the vortex workloads.  It is narrow so that the step
# count (and so run_s) moves by at most a few percent between seeds.
BETA_LO, BETA_HI = 4.8, 5.2

CONSERVATION_TOL = 1e-11

# L1 density error bounds against the exact vortex: twice the largest
# error over the beta range (vortex_ec 6.5e-4 at t = 0.25, implicit_lxf
# 2.8e-3 at t = 0.1).  A run above them has changed its physics.
L1_RHO_BOUND = {"vortex_ec": 1.3e-3, "implicit_lxf": 5.6e-3}

_COMMON = "space = s2\nbasis = lagrange\ndegree = 1\n"

# End times are short so that one repetition runs for 3-4 s and a run of
# the benchmark holds about ten of them: the run's median then varies far
# less between runs than a single long repetition does.
_TEMPLATES = {
    # Criterion-1 setup: entropy correction, jump diffusion, a diagnostics
    # row every step and a snapshot every 10 steps.
    "vortex_ec": (
        "problem = vortex\nproblem.beta = {beta!r}\nmesh = structured:32\n"
        + _COMMON
        + "scheme = galerkin+ec+jump\nintegrator = ssprk2\ncfl = 0.2\n"
        "t_end = 0.25\noutput.diag_every = 1\noutput.every = 10\n"
    ),
    # Criterion-7 scenario at 64x8 cells: the MOOD cascade with its
    # smooth-extremum pardon; diagnostics off (row 0 only).
    "sod_mood": (
        "problem = sod_smooth\nmesh = {mesh_path}\n"
        + _COMMON
        + "scheme = lxf\ncascade = galerkin,limited_lxf,lxf\nmood.enabled = true\n"
        "integrator = ssprk2\ncfl = 0.3\nt_end = 0.2\n"
        "output.diag_every = 1000000000\n"
    ),
    # Implicit Euler with the M-matrix density solve and Picard sweeps.
    "implicit_lxf": (
        "problem = vortex\nproblem.beta = {beta!r}\nmesh = structured:64\n"
        + _COMMON
        + "scheme = lxf+interp\nintegrator = implicit\ncfl = 1.0\nt_end = 0.1\n"
        "output.diag_every = 1000000000\n"
    ),
}

NAMES = tuple(_TEMPLATES)
STRIP_CELLS = (64, 8)


def beta_for_seed(seed):
    return BETA_LO + (BETA_HI - BETA_LO) * random.Random(seed).random()


def prepare(name, work_dir):
    """Write the inputs a workload reads from disk; returns the mesh path."""
    os.makedirs(work_dir, exist_ok=True)
    if name != "sod_mood":
        return None
    from rdeuler import mesh

    nx, ny = STRIP_CELLS
    path = os.path.join(work_dir, "strip.rdmesh")
    mesh.write_mesh(path, mesh.structured_rect(nx, ny, width=10.0, height=10.0 * ny / nx))
    return path


def config_text(name, seed, out_dir, mesh_path=None):
    text = _TEMPLATES[name].format(beta=beta_for_seed(seed), mesh_path=mesh_path)
    return text + f"output.dir = {out_dir}\n"


def digest(U):
    return hashlib.sha256(np.ascontiguousarray(U, dtype=np.float64).tobytes()).hexdigest()[:16]


def check_output(name, result, activations=None):
    """Output checks of one run; returns (failures, facts)."""
    from rdeuler import diagnostics, euler, stepping

    disc, gas, U = result.disc, result.gas, result.state.U
    failures = []
    U0 = disc.interpolate(result.problem.initial)
    t0 = stepping.conserved_totals(disc, U0)
    t1 = stepping.conserved_totals(disc, U)
    scale = float(np.einsum("s,sc->c", disc.dual.c_sigma, np.abs(U0)).max())
    drift = float(np.max(np.abs(t1 - t0))) / scale
    if not drift <= CONSERVATION_TOL:
        failures.append(f"conserved totals drift {drift:.3e} > {CONSERVATION_TOL:g}")
    if not np.all(euler.admissible(U, gas)):
        failures.append("inadmissible DOF state")
    if abs(result.state.t - result.cfg.t_end) > 1e-12:
        failures.append(f"stopped at t={result.state.t!r} before t_end")
    facts = {"drift": drift, "steps": result.n_steps, "digest": digest(U)}
    if name in L1_RHO_BOUND:
        err = diagnostics.primitive_errors(
            disc, gas, U, result.problem.state, result.state.t
        )["rho"]
        facts["l1_rho"] = err
        if not err <= L1_RHO_BOUND[name]:
            failures.append(f"L1 density error {err:.3e} > {L1_RHO_BOUND[name]:g}")
    if name == "sod_mood":
        facts["activations"] = activations
        if not activations:
            failures.append("the cascade never activated")
    return failures, facts
