"""Acceptance suite: one test per criterion, each printing a pass/fail
line with the measured quantities at its stated tolerance."""

import numpy as np
import scipy.sparse.linalg as spla

from conftest import make_disc, random_states
from oracles import trace_grads
from rdeuler import euler
from rdeuler.basis import basis_values, build_dofmap
from rdeuler.diagnostics import (
    RunRecord,
    consistency_error,
    primitive_errors,
    entropy_production_monitor,
    weak_form_defect,
)
from rdeuler.discretization import Discretization, StageFields, make_discretization
from rdeuler.mesh import structured_square
from rdeuler.positivity import (
    admissible_timestep,
    alpha_implicit,
    alpha_interpolated,
    alpha_noninterpolated,
)
from rdeuler.problems import init_vortex
from rdeuler.residuals import Scheme
from rdeuler.stepping import (
    FieldState,
    advance,
    assemble_density_system,
    forward_euler_step,
)
from rdeuler.verification import (
    _drift,
    check_entropy_balance,
    positivity_stress,
    run_mood_sod,
)

GAS = euler.GasModel()


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _advance(disc, U0, scheme, t_end, cfl, integrator="ssprk2", record=False):
    st = FieldState(0.0, U0.copy(), disc, GAS)
    rec = None
    if record:
        rec = RunRecord(disc=disc, gas=GAS, scheme=scheme)
        rec.times.append(0.0)
        rec.states.append(st.U.copy())
    for st, dt, _ in advance(st, scheme, integrator, t_end, cfl):
        if rec is not None:
            rec.times.append(st.t)
            rec.states.append(st.U.copy())
            rec.dts.append(dt)
    return st, rec


def test_criterion_1_conservation():
    # vortex, P1 continuous, GalerkinEC+jump, SSP-RK2, cfl 0.2, t_end 1,
    # about 2k triangles: conserved totals drift below 1e-11
    disc = make_discretization(structured_square(32), "s2", "lagrange", 1)
    U0, _ = init_vortex(disc, GAS)
    st, _ = _advance(disc, U0, Scheme.parse("galerkin+ec+jump"), 1.0, 0.2)
    drift = _drift(disc, U0, st.U)
    _report(
        "criterion-1 conservation",
        bool(np.all(drift <= 1e-11)),
        f"max relative drift {drift.max():.3e} over {disc.mesh.n_tris} triangles",
    )


def test_criterion_2_entropy_balance():
    ok, info = check_entropy_balance(n_fields=100, n=4, tol_eq=1e-11, tol_ineq=1e-12)
    _report(
        "criterion-2 entropy equality/inequality",
        ok,
        f"worst equality defect {info['worst_equality']:.3e}, "
        f"worst inequality margin {info['worst_inequality']:.3e}",
    )


def test_criterion_3_grid_convergence():
    # high-order study at t_end = 2 on h, h/2, h/4
    errs = []
    for n in (16, 32, 64):
        disc = make_discretization(structured_square(n), "s2", "lagrange", 1)
        U0, prob = init_vortex(disc, GAS)
        st, _ = _advance(disc, U0, Scheme.parse("galerkin+ec+jump"), 2.0, 0.3)
        errs.append(primitive_errors(disc, GAS, st.U, prob.state, st.t))
    decreasing = all(
        errs[i][c] > errs[i + 1][c] for i in range(2) for c in ("rho", "u", "p")
    )
    orders = {c: float(np.log2(errs[1][c] / errs[2][c])) for c in ("rho", "u", "p")}
    ok_high = decreasing and all(o >= 1.5 for o in orders.values())

    # first-order parachute on the finest pair; at t_end = 2 the scheme
    # saturates the coarse core, so its order window is certified at
    # t_end = 1 (see the notes ledger)
    perrs = []
    for n in (32, 64):
        disc = make_discretization(structured_square(n), "s2", "lagrange", 1)
        U0, prob = init_vortex(disc, GAS)
        st, _ = _advance(disc, U0, Scheme.parse("lxf"), 1.0, 0.4)
        perrs.append(primitive_errors(disc, GAS, st.U, prob.state, st.t))
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
    mesh = structured_square(4, side=2.0)
    rng = np.random.default_rng(2024)
    disc1 = Discretization(mesh, build_dofmap(mesh, "s2", "lagrange", 1))
    v1 = positivity_stress(disc1, GAS, rng, n_fields=500, n_steps=50)
    disc2 = Discretization(mesh, build_dofmap(mesh, "s2", "bernstein", 2))
    v2 = positivity_stress(
        disc2, GAS, rng, n_fields=500, n_steps=50, check_lagrange_points=True
    )
    _report(
        "criterion-4 explicit positivity",
        v1 == 0 and v2 == 0,
        f"violations: lagrange {v1}, bernstein {v2} (500 fields x 50 steps each)",
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
    info = run_mood_sod(nx=32, ny=4, t_end=0.8)
    drift = float(np.max(info.get("drift", np.inf)))
    ok = info["ok_pad"] and info["activations"] >= 1 and drift <= 1e-11
    _report(
        "criterion-7 mood safety/necessity",
        ok,
        f"pad_ok={info['ok_pad']} activations={info['activations']} "
        f"drift={drift:.3e} steps={info['steps']}",
    )


def test_criterion_8_entropy_consistency_scaling():
    k = 2.0 * np.pi / 10.0

    def phi(t, x, y):
        return np.cos(k * x) * np.cos(k * y)

    def grad_phi(t, x, y):
        return np.stack(
            [-k * np.sin(k * x) * np.cos(k * y), -k * np.cos(k * x) * np.sin(k * y)],
            axis=-1,
        )

    totals = []
    iv_ok = True
    for n in (8, 16):
        disc = make_discretization(structured_square(n), "s2", "lagrange", 1)
        U0, _ = init_vortex(disc, GAS)
        _, rec = _advance(
            disc, U0, Scheme.parse("galerkin+ec+jump"), 0.4, 0.3,
            integrator="fe", record=True,
        )
        terms = consistency_error(rec, phi, grad_phi, "eta")
        totals.append(abs(terms["total"]))
        # per-step production is nonnegative by construction; re-check
        for t, U in zip(rec.times, rec.states[:-1]):
            prod = FieldState(t, U, disc, GAS).residual(rec.scheme).production
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
    disc = make_discretization(structured_square(8), "s2", "lagrange", 1)
    U0, _ = init_vortex(disc, GAS)
    _, rec = _advance(
        disc, U0, Scheme.parse("galerkin+ec+jump"), 0.2, 0.3,
        integrator="fe", record=True,
    )
    k = 2.0 * np.pi / 10.0

    def phi(t, x, y):
        return np.cos(k * x) * np.cos(k * y)

    def grad_phi(t, x, y):
        return np.stack(
            [-k * np.sin(k * x) * np.cos(k * y), -k * np.cos(k * x) * np.sin(k * y)],
            axis=-1,
        )

    def phi_m(t, x, y):
        return np.stack([phi(t, x, y), np.sin(k * x) * np.cos(k * y)], axis=-1)

    def grad_phi_m(t, x, y):
        g1 = grad_phi(t, x, y)
        g2 = np.stack(
            [k * np.cos(k * x) * np.cos(k * y), -k * np.sin(k * x) * np.sin(k * y)],
            axis=-1,
        )
        return np.stack([g1, g2], axis=-2)

    rels = {}
    for comp, (p, g) in {"rho": (phi, grad_phi), "m": (phi_m, grad_phi_m)}.items():
        total = consistency_error(rec, p, g, comp)["total"]
        defect = weak_form_defect(rec, p, g, comp)
        rels[comp] = abs(total - defect) / max(abs(defect), 1e-300)
    ok = all(r <= 1e-9 for r in rels.values())
    _report(
        "criterion-10 consistency oracle equivalence",
        ok,
        f"relative deviations {rels}",
    )
