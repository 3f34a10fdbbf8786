"""Built-in self checks behind the ``verify`` command.

This module holds the one definition of each acceptance criterion that
the command line covers: 1 ``check_conservation``, 2
``check_entropy_balance``, 4 ``check_positivity``, 7 ``check_mood`` and
10 ``check_consistency``.  Each takes its size, seed and tolerance as
parameters and returns ``(ok, info)`` with plain numbers; the defaults
are the quick settings of ``rdeuler verify``, and the acceptance suite
calls the same functions at its committed settings.  The checks that run
``driver.run`` do so in a temporary directory, so they write no files.
"""

import tempfile

import numpy as np

from . import diagnostics, driver, euler, stepping
from .basis import bernstein_to_lagrange, build_dofmap
from .config import parse_config
from .discretization import Discretization, StageFields
from .errors import ConfigError
from .mesh import structured_square
from .residuals import Scheme
from .stabilization import corrected_residual, element_entropy_boundary
from .stepping import FieldState


def random_admissible_field(n, gas, rng, near_vacuum=False):
    """n random admissible states; near_vacuum stresses the floors."""
    if near_vacuum:
        rho = 10.0 ** rng.uniform(-6, 0, n)
        rho_e = 10.0 ** rng.uniform(np.log10(10.0 * gas.e_floor), 0, n)
        u = rng.uniform(-3, 3, (n, 2))
    else:
        rho = rng.uniform(0.3, 2.0, n)
        p = rng.uniform(0.3, 2.0, n)
        rho_e = p / (gas.gamma - 1.0)
        u = rng.uniform(-1, 1, (n, 2))
    E = rho_e + 0.5 * rho * (u[:, 0] ** 2 + u[:, 1] ** 2)
    return np.stack([rho, rho * u[:, 0], rho * u[:, 1], E], axis=-1)


def _drift(disc, U0, U1):
    """Componentwise drift of the conserved totals, normalized by the
    largest component magnitude (momenta may start at zero)."""
    t0 = stepping.conserved_totals(disc, U0)
    t1 = stepping.conserved_totals(disc, U1)
    scale = np.einsum("s,sc->c", disc.dual.c_sigma, np.abs(U0)).max()
    return np.abs(t1 - t0) / max(scale, 1e-300)


def _run(text, record=False):
    """``driver.run`` of a config text, its output in a temporary
    directory that is gone when the run returns."""
    with tempfile.TemporaryDirectory() as out:
        cfg = parse_config(f"{text}output.dir = {out}\noutput.diag_every = 1000000\n")
        return driver.run(cfg, record=record)


def check_conservation(n=16, t_end=0.5, cfl=0.3, tol=1e-11):
    """Vortex run keeps total mass, momentum and energy to round-off."""
    result = _run(
        f"mesh = structured:{n}\nproblem = vortex\nintegrator = ssprk2\n"
        f"cfl = {cfl}\nt_end = {t_end}\n"
    )
    U0 = result.disc.interpolate(result.problem.initial)
    drift = _drift(result.disc, U0, result.state.U)
    ok = bool(np.all(drift <= tol))
    return ok, {"drift": drift.tolist(), "steps": result.n_steps}


def check_entropy_balance(n_fields=100, n=4, seed=7, tol_eq=1e-11, tol_ineq=1e-12):
    """Per-element entropy equality with the correction (the theta of
    ``+ec``), inequality with the diffusion as well (the theta of
    ``+ec+jump``), both against the element's entropy boundary flux, on
    random admissible fields: the ``galerkin`` base on the continuous
    space, then ``dg`` on the discontinuous one, each at P1 Lagrange,
    with fields drawn from one generator."""
    gas = euler.GasModel()
    mesh = structured_square(n, side=2.0)
    rng = np.random.default_rng(seed)
    worst_eq, worst_ineq = 0.0, 0.0
    for space, base in (("s2", "galerkin"), ("s1", "dg")):
        disc = Discretization(build_dofmap(mesh, space, "lagrange", 1))
        ec, ec_jump = Scheme.parse(f"{base}+ec"), Scheme.parse(f"{base}+ec+jump")
        for _ in range(n_fields):
            U = random_admissible_field(disc.dofmap.n_dofs, gas, rng)
            fields = StageFields(disc, gas, U)
            V, g = fields.V_elem, element_entropy_boundary(fields)
            lhs = np.einsum("mnc,mnc->m", V, corrected_residual(fields, ec).theta)
            scale = np.maximum(np.abs(g), 1.0)
            worst_eq = max(worst_eq, float(np.max(np.abs(lhs - g) / scale)))
            full = np.einsum("mnc,mnc->m", V, corrected_residual(fields, ec_jump).theta)
            worst_ineq = min(worst_ineq, float(np.min(full - g)))
    ok = worst_eq <= tol_eq and worst_ineq >= -tol_ineq
    return ok, {"worst_equality": worst_eq, "worst_inequality": worst_ineq}


def positivity_stress(disc, gas, rng, n_fields, n_steps, check_lagrange_points=False):
    """Forward-Euler interpolated LxF steps at cfl 1 on random near-vacuum fields.

    Returns the number of admissibility violations at DOFs and, for
    Bernstein coefficients, at the mapped Lagrange points.
    """
    scheme = Scheme(base="lxf", flux_mode="interpolated")
    violations = 0
    Mmap = None
    if check_lagrange_points:
        Mmap = bernstein_to_lagrange(disc.dofmap.degree)
    for _ in range(n_fields):
        U = random_admissible_field(disc.dofmap.n_dofs, gas, rng, near_vacuum=True)
        steps = stepping.advance(
            FieldState(t=0.0, U=U, disc=disc, gas=gas), scheme, "fe", np.inf, cfl=1.0,
            max_steps=n_steps,
        )
        for state, _, _ in steps:
            if not np.all(euler.admissible(state.U, gas)):
                violations += 1
                break
            if Mmap is not None:
                at_lagrange = np.einsum(
                    "ln,mnc->mlc", Mmap, disc.elem_values(state.U)
                )
                if not np.all(euler.admissible(at_lagrange, gas)):
                    violations += 1
                    break
    return violations


def check_positivity(n_fields=500, n_steps=50, n=4, seed=11):
    gas = euler.GasModel()
    mesh = structured_square(n, side=2.0)
    rng = np.random.default_rng(seed)
    disc1 = Discretization(build_dofmap(mesh, "s2", "lagrange", 1))
    v1 = positivity_stress(disc1, gas, rng, n_fields, n_steps)
    disc2 = Discretization(build_dofmap(mesh, "s2", "bernstein", 2))
    v2 = positivity_stress(
        disc2, gas, rng, n_fields, n_steps, check_lagrange_points=True
    )
    return v1 == 0 and v2 == 0, {"lagrange_violations": v1, "bernstein_violations": v2}


def run_mood_sod(nx=32, ny=4, t_end=0.6):
    """Smoothed-Sod strip under the cascade; returns summary data."""
    cfg = parse_config(
        f"problem = sod_smooth\nmesh = structured:{nx}x{ny}\nbasis = lagrange\n"
        f"cfl = 0.3\nt_end = {t_end!r}\nmood.enabled = true\n"
        "cascade = galerkin,limited_lxf,lxf\nscheme = lxf\n"
    )
    state, _ = driver.start(cfg)
    U0 = state.U.copy()
    activations = 0
    steps = 0
    for state, _, report in driver.steps(cfg, state):
        activations += int(np.sum(report.level > 0))
        steps += 1
        if not np.all(euler.admissible(state.U, state.gas)):
            return {"ok_pad": False, "activations": activations, "steps": steps}
    drift = _drift(state.disc, U0, state.U)
    return {"ok_pad": True, "activations": activations, "steps": steps, "drift": drift.tolist()}


def check_mood(nx=24, ny=3, t_end=0.4, tol=1e-11):
    """The cascade keeps the strip admissible, acts at least once and
    conserves the totals."""
    info = run_mood_sod(nx=nx, ny=ny, t_end=t_end)
    ok = info["ok_pad"] and info["activations"] >= 1 and max(info.get("drift", [np.inf])) <= tol
    return ok, info


def check_consistency(n=8, t_end=0.1, tol=1e-9):
    """Terms (I)-(III) reproduce the brute-force weak-form defect."""
    result = _run(
        f"mesh = structured:{n}\nproblem = vortex\nintegrator = fe\n"
        f"cfl = 0.3\nt_end = {t_end}\n",
        record=True,
    )
    out = {}
    ok = True
    for comp, (phi, grad_phi) in diagnostics.COSINE_TEST_FUNCTIONS.items():
        total = diagnostics.consistency_error(result.record, phi, grad_phi, comp)["total"]
        defect = diagnostics.weak_form_defect(result.record, phi, grad_phi, comp)
        rel = abs(total - defect) / max(abs(defect), 1e-300)
        out[comp] = {"total": total, "defect": defect, "rel": rel}
        ok = ok and rel <= tol
    return ok, out


SUITES = {
    "conservation": check_conservation,
    "entropy": check_entropy_balance,
    "positivity": check_positivity,
    "mood": check_mood,
    "consistency": check_consistency,
}


def verify_suite(name):
    if name not in SUITES:
        raise ConfigError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        )
    return SUITES[name]()
