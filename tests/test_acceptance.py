"""Acceptance suite: one test per criterion, each printing a pass/fail
line with the measured quantities at its stated tolerance."""

import numpy as np
import scipy.sparse.linalg as spla

from conftest import make_disc, random_states
from oracles import trace_grads
from rdeuler import euler
from rdeuler.basis import basis_values
from rdeuler.config import parse_config
from rdeuler.diagnostics import (
    consistency_error,
    cos_grad_phi,
    cos_phi,
    entropy_production_monitor,
    primitive_errors,
)
from rdeuler.discretization import StageFields
from rdeuler.driver import run
from rdeuler.positivity import (
    admissible_timestep,
    alpha_implicit,
    alpha_interpolated,
    alpha_noninterpolated,
)
from rdeuler.residuals import Scheme
from rdeuler.stepping import FieldState, assemble_density_system, forward_euler_step
from rdeuler.verification import (
    check_consistency,
    check_conservation,
    check_entropy_balance,
    check_mood,
    check_positivity,
)

GAS = euler.GasModel()


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _vortex_run(tmp_path, n, scheme, integrator, cfl, t_end, record=False):
    """``driver.run`` of the vortex on the n x n square, P1 Lagrange."""
    cfg = parse_config(
        f"mesh = structured:{n}\nproblem = vortex\nbasis = lagrange\nscheme = {scheme}\n"
        f"integrator = {integrator}\ncfl = {cfl}\nt_end = {t_end}\n"
        f"output.dir = {tmp_path / f'{scheme}_{n}'}\noutput.diag_every = 1000000\n"
    )
    return run(cfg, record=record)


def test_criterion_1_conservation():
    # vortex, P1 continuous, GalerkinEC+jump, SSP-RK2, cfl 0.2, t_end 1,
    # about 2k triangles: conserved totals drift below 1e-11
    n = 32
    ok, info = check_conservation(n=n, t_end=1.0, cfl=0.2, tol=1e-11)
    _report(
        "criterion-1 conservation",
        ok,
        f"max relative drift {max(info['drift']):.3e} over {2 * n * n} triangles",
    )


def test_criterion_2_entropy_balance():
    ok, info = check_entropy_balance(n_fields=100, n=4, tol_eq=1e-11, tol_ineq=1e-12)
    _report(
        "criterion-2 entropy equality/inequality",
        ok,
        f"worst equality defect {info['worst_equality']:.3e}, "
        f"worst inequality margin {info['worst_inequality']:.3e}",
    )


def _primitive_errors(result):
    return primitive_errors(
        result.disc, result.gas, result.state.U, result.problem.state, result.state.t
    )


def test_criterion_3_grid_convergence(tmp_path):
    # high-order study at t_end = 2 on h, h/2, h/4
    errs = [
        _primitive_errors(_vortex_run(tmp_path, n, "galerkin+ec+jump", "ssprk2", 0.3, 2.0))
        for n in (16, 32, 64)
    ]
    decreasing = all(
        errs[i][c] > errs[i + 1][c] for i in range(2) for c in ("rho", "u", "p")
    )
    orders = {c: float(np.log2(errs[1][c] / errs[2][c])) for c in ("rho", "u", "p")}
    ok_high = decreasing and all(o >= 1.5 for o in orders.values())

    # first-order parachute on the finest pair; at t_end = 2 the scheme
    # saturates the coarse core, so its order window is certified at
    # t_end = 1 (see the notes ledger)
    perrs = [
        _primitive_errors(_vortex_run(tmp_path, n, "lxf", "ssprk2", 0.4, 1.0)) for n in (32, 64)
    ]
    porders = {c: float(np.log2(perrs[0][c] / perrs[1][c])) for c in ("rho", "u", "p")}
    pdec = all(perrs[0][c] > perrs[1][c] for c in ("rho", "u", "p"))
    ok_par = pdec and all(0.6 <= o <= 1.4 for o in porders.values())
    _report(
        "criterion-3 grid convergence",
        ok_high and ok_par,
        f"galerkin orders {orders} (decreasing={decreasing}), "
        f"parachute orders {porders}",
    )


def test_criterion_4_explicit_positivity():
    ok, info = check_positivity(n_fields=500, n_steps=50, n=4, seed=2024)
    _report(
        "criterion-4 explicit positivity",
        ok,
        f"violations: lagrange {info['lagrange_violations']}, "
        f"bernstein {info['bernstein_violations']} (500 fields x 50 steps each)",
    )


def test_criterion_5_implicit_m_matrix():
    rng = np.random.default_rng(5)
    details = []
    ok = True
    for n in (1, 10):  # 2 and 200 elements
        disc = make_disc(n, side=2.0)
        U = random_states(rng, disc.dofmap.n_dofs)
        fields = StageFields(disc, GAS, U)
        a_imp = alpha_implicit(fields)
        a_exp = alpha_interpolated(fields)
        dt_exp = admissible_timestep(disc, a_exp, cfl=1.0)
        sys = assemble_density_system(disc, U, 10.0 * dt_exp, a_imp)
        A = sys.matrix.toarray()
        diag = np.diag(A)
        off = A - np.diag(diag)
        row_sums = np.asarray(sys.matrix.sum(axis=1)).ravel()
        row_defect = np.abs(row_sums - disc.dual.c_sigma).max() / max(
            disc.dual.c_sigma.max(), 1e-300
        )
        rho = spla.spsolve(sys.matrix, disc.dual.c_sigma * U[:, 0])
        good = (
            np.all(diag > 0)
            and off.max() <= 1e-13 * max(1.0, np.abs(A).max())
            and row_defect <= 1e-12
            and np.all(rho > 0)
        )
        ok = ok and good
        details.append(
            f"n_elems={disc.mesh.n_tris}: min diag {diag.min():.2e}, "
            f"max offdiag {off.max():.2e}, row defect {row_defect:.2e}, "
            f"min rho {rho.min():.2e}"
        )
    _report("criterion-5 implicit M-matrix", ok, "; ".join(details))


def _simplex_lattice(n):
    pts = [
        (i / n, j / n, (n - i - j) / n)
        for i in range(n + 1)
        for j in range(n + 1 - i)
    ]
    return np.array(pts)


def test_criterion_6_bernstein_convexity():
    lam = _simplex_lattice(10)
    assert lam.shape[0] == 66
    B = basis_values("bernstein", 2, lam)
    rng = np.random.default_rng(6)
    violations = 0
    for _ in range(1000):
        coeffs = random_states(rng, 6, near_vacuum=True)
        vals = B @ coeffs
        if np.any(vals[:, 0] < 0) or np.any(euler.internal_energy(vals) < -1e-14):
            violations += 1
    _report(
        "criterion-6 bernstein convexity",
        violations == 0,
        f"{violations} reconstruction violations over 1000 coefficient sets "
        "at 66 sample points",
    )


def test_criterion_7_mood_safety_and_necessity():
    ok, info = check_mood(nx=32, ny=4, t_end=0.8, tol=1e-11)
    drift = max(info.get("drift", [np.inf]))
    _report(
        "criterion-7 mood safety/necessity",
        ok,
        f"pad_ok={info['ok_pad']} activations={info['activations']} "
        f"drift={drift:.3e} steps={info['steps']}",
    )


def test_criterion_8_entropy_consistency_scaling(tmp_path):
    totals = []
    iv_ok = True
    for n in (8, 16):
        rec = _vortex_run(tmp_path, n, "galerkin+ec+jump", "fe", 0.3, 0.4, record=True).record
        totals.append(abs(consistency_error(rec, cos_phi, cos_grad_phi, "eta")["total"]))
        # per-step production is nonnegative by construction; re-check
        for i in range(len(rec.dts)):
            prod = rec.state(i).residual(rec.scheme).production
            iv_ok = iv_ok and bool(np.all(prod >= 0.0))
    exponent = float(np.log2(totals[0] / totals[1]))
    ok = exponent >= 1.0 and iv_ok
    _report(
        "criterion-8 entropy consistency scaling",
        ok,
        f"e_eta totals {totals[0]:.3e} -> {totals[1]:.3e}, exponent {exponent:.2f}, "
        f"term IV nonnegative: {iv_ok}",
    )


def test_criterion_9_entropy_production_monitor():
    rng = np.random.default_rng(9)
    scheme = Scheme.parse("lxf")
    mono_ok = True
    consts = []
    for n in (8, 16):
        disc = make_disc(n, side=10.0)
        ratios = []
        for _ in range(3):
            U = random_states(rng, disc.dofmap.n_dofs)
            st = FieldState(0.0, U, disc, GAS)
            for _ in range(10):
                S0 = float(np.sum(disc.dual.c_sigma * euler.entropy_eta(st.U, GAS)))
                a = alpha_noninterpolated(StageFields(disc, GAS, st.U))
                dt = admissible_timestep(disc, a, cfl=0.4)
                new = forward_euler_step(st, scheme, dt)
                S1 = float(np.sum(disc.dual.c_sigma * euler.entropy_eta(new.U, GAS)))
                mono_ok = mono_ok and (S1 - S0 <= 1e-10 * abs(S0))
                d = entropy_production_monitor(disc, GAS, st.U, new.U, dt, scheme)
                # per-element bound constant: max |D| over the element's
                # DOFs against h^2 times the boundary gradient integral
                dofs = disc.dofmap.elem_dofs
                delem = np.abs(d[dofs]).max(axis=1)
                gradU, _ = trace_grads(disc, disc.elem_values(st.U))
                g2 = (gradU**2).sum(axis=(2, 3)) @ disc.edge_weights
                edge_int = disc.if_length * g2
                G = np.zeros(disc.mesh.n_tris)
                np.add.at(G, disc.if_left, edge_int)
                np.add.at(G, disc.if_right, edge_int)
                ratio = delem / (disc.mesh.diameters**2 * np.maximum(G, 1e-300))
                ratios.append(ratio.max())
                st = new
        consts.append(max(ratios))
    stable = consts[0] / 3.0 <= consts[1] <= consts[0] * 3.0
    _report(
        "criterion-9 entropy production monitor",
        mono_ok and stable,
        f"monotone={mono_ok}, bound constants {consts[0]:.3e} vs {consts[1]:.3e}",
    )


def test_criterion_10_consistency_oracle_equivalence():
    ok, info = check_consistency(n=8, t_end=0.2, tol=1e-9)
    rels = {comp: terms["rel"] for comp, terms in info.items()}
    _report("criterion-10 consistency oracle equivalence", ok, f"relative deviations {rels}")
