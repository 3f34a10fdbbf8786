from dataclasses import replace

import numpy as np
import pytest

from conftest import make_disc, off_seam, random_states, smooth_field, vortex_start
from oracles import evaluate_at_points, state_from_entropy_vars, trace_grads
from rdeuler import euler
from rdeuler.basis import build_dofmap
from rdeuler.diagnostics import (
    COSINE_TEST_FUNCTIONS,
    RunRecord,
    consistency_error,
    convergence_order,
    cos_grad_phi,
    cos_phi,
    entropy_budget,
    entropy_production_monitor,
    primitive_errors,
    weak_bv_norm,
    weak_form_defect,
)
from rdeuler.discretization import Discretization, StageFields
from rdeuler.mesh import structured_square
from rdeuler.positivity import admissible_timestep, alpha_interpolated, alpha_noninterpolated
from rdeuler.residuals import Scheme
from rdeuler.stabilization import grad_jump_integral
from rdeuler.stepping import FieldState, forward_euler_step


def test_weak_bv_zero_for_polynomial_entropy_vars(gas):
    # linear entropy variables: the gradient jumps that the weak BV seminorm
    # sums vanish off the periodic seam
    mesh = structured_square(4, side=2.0)
    disc = Discretization(build_dofmap(mesh, "s2", "lagrange", 1))
    pts = disc.dofmap.dof_points
    V = np.stack(
        [
            2.0 + 0.04 * pts[:, 0] - 0.02 * pts[:, 1],
            0.1 + 0.01 * pts[:, 0],
            -0.05 + 0.02 * pts[:, 1],
            -1.0 + 0.05 * pts[:, 0],
        ],
        axis=-1,
    )
    U = state_from_entropy_vars(V, gas)
    grad_jump = grad_jump_integral(StageFields(disc, gas, U))
    assert grad_jump[off_seam(disc)].max() < 1e-24


def test_weak_bv_matches_requadrature(gas, small_disc):
    disc = small_disc
    rng = np.random.default_rng(0)
    U = smooth_field(disc, gas) * (1 + 0.05 * rng.standard_normal((disc.dofmap.n_dofs, 4)))
    got = weak_bv_norm(StageFields(disc, gas, U), zeta=2.0)
    # independent accumulation per interface
    V_elem = euler.entropy_vars(disc.elem_values(U), gas)
    total = 0.0
    w = disc.edge_weights
    grad_L, grad_R = trace_grads(disc, V_elem)
    for e in range(disc.if_length.shape[0]):
        jump = grad_R[e] - grad_L[e]
        sq = float(np.sum(w * (jump**2).sum(axis=(1, 2))))
        total += disc.if_h[e] ** 2 * 2.0 * disc.if_length[e] * sq
    assert got == pytest.approx(total, rel=1e-12)


def test_weak_bv_refinement_exponent(gas):
    # fixed smooth profile: gradient jumps scale with h, edge count with
    # 1/h^2, so the squared seminorm decays like h^3
    vals = []
    for n in (8, 16):
        disc = make_disc(n, side=2.0)
        U = smooth_field(disc, gas)
        vals.append(weak_bv_norm(StageFields(disc, gas, U)))
    exponent = np.log2(vals[0] / vals[1])
    assert abs(exponent - 3.0) <= 0.3


def _record_run(disc, gas, scheme, U0, n_steps, cfl=0.3):
    rec = RunRecord(disc=disc, gas=gas, scheme=scheme)
    st = FieldState(0.0, U0, disc, gas)
    rec.times.append(st.t)
    rec.states.append(st.U.copy())
    for _ in range(n_steps):
        a = alpha_noninterpolated(StageFields(disc, gas, st.U))
        dt = admissible_timestep(disc, a, cfl)
        st = forward_euler_step(st, scheme, dt)
        rec.times.append(st.t)
        rec.states.append(st.U.copy())
        rec.dts.append(dt)
    return rec


def test_consistency_terms_vanish_for_constant_phi(gas, small_disc):
    disc = small_disc
    rec = _record_run(disc, gas, Scheme.parse("galerkin+ec+jump"), smooth_field(disc, gas), 3)

    def phi(t, x, y):
        return np.ones_like(np.asarray(x, dtype=float))

    def grad_phi(t, x, y):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape + (2,))

    terms = consistency_error(rec, phi, grad_phi, "rho")
    assert abs(terms["I"]) < 1e-13
    assert abs(terms["II"]) < 1e-13
    assert abs(terms["III"]) < 1e-14


def test_consistency_term_three_zero_for_discrete_phi(gas, small_disc):
    disc = small_disc
    rec = _record_run(disc, gas, Scheme.parse("galerkin"), smooth_field(disc, gas), 2)
    # phi is a member of the approximation space: a single hat function
    w = np.zeros((disc.dofmap.n_dofs, 1))
    w[7, 0] = 1.0
    grads = np.einsum("mqni,mn->mqi", disc.int_grads, disc.elem_values(w)[..., 0])

    def phi(t, x, y):
        x = np.asarray(x, dtype=float)
        pts = np.stack([x.ravel(), np.asarray(y, dtype=float).ravel()], axis=-1)
        return evaluate_at_points(disc, w, pts)[:, 0].reshape(x.shape)

    def grad_phi(t, x, y):
        return grads

    terms = consistency_error(rec, phi, grad_phi, "rho")
    assert abs(terms["III"]) < 1e-13


def test_consistency_total_reproduces_weak_defect(gas):
    start, _ = vortex_start(6)
    rec = _record_run(start.disc, gas, Scheme.parse("galerkin+ec+jump"), start.U, 5)
    terms = consistency_error(rec, cos_phi, cos_grad_phi, "rho")
    defect = weak_form_defect(rec, cos_phi, cos_grad_phi, "rho")
    scale = max(abs(defect), 1e-12)
    assert abs(terms["total"] - defect) <= 1e-10 * max(scale, 1.0)


@pytest.mark.parametrize("name", ["galerkin+ec+jump", "lxf+interp", "limited_lxf+interp"])
def test_consistency_total_reproduces_weak_defect_for_every_component(tmp_path, name):
    # the criterion-10 set-up; the interpolated-flux schemes have element
    # totals other than the Galerkin ones, which term I must keep
    from rdeuler import driver
    from rdeuler.config import parse_config

    cfg = parse_config(
        f"mesh = structured:8\nbasis = lagrange\nscheme = {name}\nintegrator = fe\n"
        f"cfl = 0.3\nt_end = 0.2\noutput.dir = {tmp_path}\n"
    )
    rec = driver.run(cfg, record=True).record
    for comp, (p, g) in COSINE_TEST_FUNCTIONS.items():
        total = consistency_error(rec, p, g, comp)["total"]
        defect = weak_form_defect(rec, p, g, comp)
        assert abs(total - defect) <= 1e-9 * abs(defect), (comp, total, defect)


def test_consistency_decreases_under_refinement(gas):
    totals = []
    for n in (8, 16):
        start, _ = vortex_start(n)
        # fixed physical horizon: same number of steps at halved dt
        rec = _record_run(start.disc, gas, Scheme.parse("galerkin+ec+jump"), start.U, 4 * (n // 8))
        totals.append(abs(consistency_error(rec, cos_phi, cos_grad_phi, "rho")["total"]))
    assert totals[0] / totals[1] >= 1.5


def test_entropy_budget_constant_run(gas, small_disc):
    disc = small_disc
    U0 = np.tile(euler.conserved(1.0, 0.2, 0.0, 1.0, gas), (disc.dofmap.n_dofs, 1))
    rec = _record_run(disc, gas, Scheme.parse("galerkin+ec+jump"), U0, 3)
    rows = entropy_budget(rec)
    for r in rows:
        assert abs(r["increment"]) < 1e-12
        assert abs(r["production"]) < 1e-12


def test_entropy_budget_defect_shrinks_with_dt(gas):
    start, _ = vortex_start(6)
    disc, U0 = start.disc, start.U
    scheme = Scheme.parse("galerkin+ec+jump")

    def total_defect(cfl, t_end=0.2):
        rec = RunRecord(disc=disc, gas=gas, scheme=scheme)
        st = FieldState(0.0, U0.copy(), disc, gas)
        rec.times.append(0.0)
        rec.states.append(st.U.copy())
        while st.t < t_end - 1e-12:
            a = alpha_noninterpolated(StageFields(disc, gas, st.U))
            dt = min(admissible_timestep(disc, a, cfl), t_end - st.t)
            st = forward_euler_step(st, scheme, dt)
            rec.times.append(st.t)
            rec.states.append(st.U.copy())
            rec.dts.append(dt)
        return sum(abs(r["defect"]) for r in entropy_budget(rec))

    d1 = total_defect(0.4)
    d2 = total_defect(0.2)
    assert 1.4 <= d1 / d2 <= 3.0


def test_entropy_budget_parachute_non_increasing(gas):
    disc = make_disc(8, side=10.0)
    rng = np.random.default_rng(1)
    U0 = random_states(rng, disc.dofmap.n_dofs)
    rec = _record_run(disc, gas, Scheme.parse("lxf+ec+jump"), U0, 10, cfl=0.2)
    S = [
        float(np.sum(disc.dual.c_sigma * euler.entropy_eta(U, gas)))
        for U in rec.states
    ]
    diffs = np.diff(S)
    assert np.all(diffs <= 1e-10 * abs(S[0]))


def test_entropy_production_monitor_zero_for_constant(gas, small_disc):
    disc = small_disc
    U = np.tile(euler.conserved(1.0, 0.1, 0.0, 1.0, gas), (disc.dofmap.n_dofs, 1))
    d = entropy_production_monitor(disc, gas, U, U, 0.01, Scheme.parse("lxf+ec+jump"))
    assert np.abs(d).max() < 1e-13


def test_entropy_production_monitor_dt_decay(gas):
    # the per-DOF monitor is an exact second-order Taylor remainder, so
    # halving dt divides it by about four (faster than the first-order
    # decay one might expect)
    disc = make_disc(6, side=10.0)
    rng = np.random.default_rng(2)
    U = random_states(rng, disc.dofmap.n_dofs)
    scheme = Scheme.parse("lxf")

    def monitor(dt):
        st = forward_euler_step(FieldState(0.0, U, disc, gas), scheme, dt)
        return np.abs(
            entropy_production_monitor(disc, gas, U, st.U, dt, scheme)
        ).max()

    a = alpha_noninterpolated(StageFields(disc, gas, U))
    dt0 = admissible_timestep(disc, a, 0.2)
    r = monitor(dt0) / monitor(dt0 / 2)
    assert 3.0 <= r <= 5.0


# Dissipation bound of each LxF flux mode, as the schemes step with it.
MATCHING_BOUND = {"interpolated": alpha_interpolated, "pointwise": alpha_noninterpolated}


@pytest.mark.parametrize(
    "name", ["lxf+interp", "limited_lxf", "lxf+interp+ec+jump", "limited_lxf+ec+jump"]
)
def test_diagnostics_residuals_use_the_matching_bound(gas, small_disc, name, monkeypatch):
    # consistency_error, entropy_budget and entropy_production_monitor
    # equal, bit for bit, a recomputation through corrected_residual with
    # the bound of the scheme's flux mode
    from rdeuler import diagnostics
    from rdeuler.stabilization import corrected_residual

    disc = small_disc
    scheme = Scheme.parse(name)
    rec = _record_run(disc, gas, scheme, smooth_field(disc, gas), 3)
    k = 2 * np.pi / 2.0

    def phi(t, x, y):
        return np.cos(k * x) * np.sin(k * y)

    def grad_phi(t, x, y):
        return np.stack(
            [-k * np.sin(k * x) * np.sin(k * y), k * np.cos(k * x) * np.cos(k * y)], axis=-1
        )

    def phi_m(t, x, y):
        return np.stack([phi(t, x, y), 2.0 * phi(t, x, y)], axis=-1)

    def grad_phi_m(t, x, y):
        return np.stack([grad_phi(t, x, y), 2.0 * grad_phi(t, x, y)], axis=-2)

    def outputs():
        # a copy of the record holds no FieldState yet, so the diagnostics
        # build theirs from the FieldState in force
        fresh = replace(rec)
        return (
            consistency_error(fresh, phi, grad_phi, "rho"),
            consistency_error(fresh, phi_m, grad_phi_m, "m"),
            consistency_error(fresh, phi, grad_phi, "eta"),
            entropy_budget(fresh),
            entropy_production_monitor(disc, gas, rec.states[0], rec.states[1], rec.dts[0], scheme),
        )

    def oracle(bound):
        class Residual:
            def __init__(self, t, U, disc, gas):
                self.U, self.fields = U, StageFields(disc, gas, U)

            def residual(self, scheme):
                return corrected_residual(self.fields, scheme, alpha=bound(self.fields))

        return Residual

    got = outputs()
    monkeypatch.setattr(diagnostics, "FieldState", oracle(MATCHING_BOUND[scheme.flux_mode]))
    want = outputs()
    for g, w in zip(got[:3], want[:3]):
        assert g == w
    assert got[3] == want[3]
    assert np.array_equal(got[4], want[4])
    # the other flux mode's bound gives other residuals, so the check bites
    other = next(b for m, b in MATCHING_BOUND.items() if m != scheme.flux_mode)
    monkeypatch.setattr(diagnostics, "FieldState", oracle(other))
    assert consistency_error(replace(rec), phi, grad_phi, "rho")["I"] != got[0]["I"]


def test_primitive_errors_same_interpolant_zero(gas, small_disc):
    disc = small_disc
    U = smooth_field(disc, gas)

    def exact(t, x, y):
        x = np.asarray(x, dtype=float)
        pts = np.stack([x.ravel(), np.asarray(y, dtype=float).ravel()], axis=-1)
        vals = evaluate_at_points(disc, U, pts)
        return vals.reshape(x.shape + (4,))

    errs = primitive_errors(disc, gas, U, exact, 0.0)
    assert max(errs.values()) < 1e-13


def test_convergence_order_arithmetic():
    orders = convergence_order([0.1, 0.025], [1.0, 0.5])
    assert orders[0] == pytest.approx(2.0, rel=1e-12)
    with pytest.warns(UserWarning):
        orders = convergence_order([0.1, 0.1], [1.0, 1.0])
    assert np.isnan(orders[0])


def test_convergence_order_below_the_roundoff_floor_is_nan():
    # errors of 2.93e-16 on both meshes compare round-off, not a
    # discretization error; one error above the floor gives an order
    e = [2.93e-16, 2.93e-16, 1e-3, 2.5e-4]
    orders = convergence_order(e, [1.0, 0.5, 0.25, 0.125])
    assert np.isnan(orders[0])
    assert orders[1] < 0.0
    assert orders[2] == pytest.approx(2.0, rel=1e-12)


def test_record_diagnostics_share_one_residual_per_state(gas, small_disc, monkeypatch):
    # rho and eta consistency plus the entropy budget of a 5-step record
    # evaluate each stored state's residual once (5 calls, not 15), and
    # give the numbers each diagnostic gives on a record of its own
    from rdeuler import stepping

    scheme = Scheme.parse("galerkin+ec+jump")
    rec = _record_run(small_disc, gas, scheme, smooth_field(small_disc, gas), 5)
    k = 2 * np.pi / 2.0

    def phi(t, x, y):
        return np.cos(k * x) * np.sin(k * y) * (1.0 + t)

    def grad_phi(t, x, y):
        return (1.0 + t) * np.stack(
            [-k * np.sin(k * x) * np.sin(k * y), k * np.cos(k * x) * np.cos(k * y)], axis=-1
        )

    def outputs(records):
        return (
            consistency_error(next(records), phi, grad_phi, "rho"),
            consistency_error(next(records), phi, grad_phi, "eta"),
            entropy_budget(next(records)),
        )

    calls = []
    original = stepping.element_theta

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(stepping, "element_theta", counted)
    shared = outputs(iter([rec] * 3))
    assert len(calls) == 5
    separate = outputs(replace(rec) for _ in range(3))
    assert len(calls) == 5 + 3 * 5
    assert shared == separate
