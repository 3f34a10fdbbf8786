import numpy as np
import pytest

from conftest import make_disc, off_seam, random_states, smooth_field, vortex_start
from oracles import integrate_edge, state_from_entropy_vars
from rdeuler import euler
from rdeuler.discretization import PointValues, StageFields
from rdeuler.residuals import Scheme
from rdeuler.stabilization import (
    _correction,
    _deviations,
    _distribute,
    _entropy_rusanov,
    corrected_residual,
    edge_jump_production,
    element_entropy_boundary,
    jump_diffusion,
)


def _entropy_flux(U_L, U_R, n, gas):
    """The library's Rusanov entropy flux of two states through n."""
    return _entropy_rusanov(PointValues(U_L, gas), PointValues(U_R, gas), n)


def test_correction_constant_element_guard(gas):
    V = np.tile([1.0, 0.2, -0.1, -0.5], (1, 3, 1))
    phi = np.zeros((1, 3, 4))
    r, alpha, E = _correction(V, _deviations(V), phi, np.array([0.0]))
    assert np.all(r == 0.0)
    assert alpha[0] == 0.0


def test_correction_scalar_emulation():
    # one active component with values (1, 2, 3): mean 2, deviations
    # (-1, 0, 1), squared sum 2; prescribe the mismatch E
    V = np.zeros((1, 3, 4))
    V[0, :, 0] = [1.0, 2.0, 3.0]
    phi = np.zeros((1, 3, 4))
    E = 0.7
    r, alpha, e_corr = _correction(V, _deviations(V), phi, np.array([E]))
    assert e_corr[0] == pytest.approx(E)
    assert alpha[0] == pytest.approx(E / 2.0)
    assert np.allclose(r[0, :, 0], [-E / 2, 0.0, E / 2])
    assert np.einsum("nc,nc->", V[0], r[0]) == pytest.approx(E, rel=1e-14)
    assert np.abs(r[0].sum(axis=0)).max() < 1e-15


def test_correction_restores_entropy_balance(gas, small_disc):
    rng = np.random.default_rng(0)
    for _ in range(50):
        U = random_states(rng, small_disc.dofmap.n_dofs)
        res = corrected_residual(StageFields(small_disc, gas, U), Scheme.parse("galerkin+ec"))
        V = euler.entropy_vars(small_disc.elem_values(U), gas)
        lhs = np.einsum("mnc,mnc->m", V, res.base.phi + res.correction)
        scale = np.maximum(np.abs(res.g_boundary), 1.0)
        assert np.abs((lhs - res.g_boundary) / scale).max() < 1e-12
        assert np.abs(res.correction.sum(axis=1)).max() < 1e-12


def test_jump_diffusion_zero_cases(gas):
    # linear entropy variables: no gradient jumps and no production off
    # the periodic seam
    disc = make_disc(4, side=2.0)
    pts = disc.dofmap.dof_points
    V = np.stack(
        [
            2.0 + 0.05 * pts[:, 0],
            0.1 + 0.02 * pts[:, 1],
            0.05 - 0.01 * pts[:, 0],
            -1.0 + 0.03 * pts[:, 1],
        ],
        axis=-1,
    )
    U = state_from_entropy_vars(V, gas)
    fields = StageFields(disc, gas, U)
    D, _ = edge_jump_production(fields)
    assert D[off_seam(disc)].max() < 1e-22
    psi, achieved, D2 = jump_diffusion(fields, lam=0.0)
    assert np.all(psi == 0.0) and np.all(D2 == 0.0)


def test_jump_diffusion_hat_production_requadrature(gas):
    disc = make_disc(n=4, side=2.0)
    rng = np.random.default_rng(1)
    U = smooth_field(disc, gas)
    U = U * (1.0 + 0.05 * rng.standard_normal(U.shape))
    U_elem = disc.elem_values(U)
    V_elem = euler.entropy_vars(U_elem, gas)
    D, lam_e = edge_jump_production(StageFields(disc, gas, U), zeta=2.0)
    # independent per-edge re-quadrature through the generic edge helper
    mesh = disc.mesh
    for e in (0, 7, 23):
        kL, locL = mesh.edge_left[e], mesh.edge_left_loc[e]
        kR, locR = mesh.edge_right[e], mesh.edge_right_loc[e]
        t = mesh.edge_translation[e]

        def integrand(x):
            gL = _grad_V_at(disc, V_elem, int(kL), x)
            gR = _grad_V_at(disc, V_elem, int(kR), x + t)
            return np.sum((gR - gL) ** 2)

        val = integrate_edge(mesh, e, 0, integrand)
        expect = lam_e[e] * disc.if_h[e] ** 2 * val
        assert D[e] == pytest.approx(expect, rel=1e-12)


def _grad_V_at(disc, V_elem, elem, x):
    lam = disc._barycentric(x[None], np.array([elem]))[0]
    from rdeuler.basis import basis_ref_grads

    ref = basis_ref_grads(disc.dofmap.basis, disc.dofmap.degree, lam)
    g = ref @ disc.jinv_T[elem].T
    return np.einsum("ni,nc->ci", g, V_elem[elem])


def test_jump_diffusion_production_nonnegative_and_conservative(gas, small_disc):
    rng = np.random.default_rng(2)
    for _ in range(20):
        U = random_states(rng, small_disc.dofmap.n_dofs)
        psi, achieved, D = jump_diffusion(StageFields(small_disc, gas, U))
        assert np.all(D >= 0)
        assert np.all(achieved >= 0)
        assert np.abs(psi.sum(axis=1)).max() < 1e-11
        V = euler.entropy_vars(small_disc.elem_values(U), gas)
        got = np.einsum("mnc,mnc->m", V, psi)
        assert np.abs(got - achieved).max() < 1e-11 * max(achieved.max(), 1.0)


def test_distribute_production_cap():
    V = np.zeros((1, 3, 4))
    V[0, :, 0] = [0.0, 1e-4, 2e-4]
    psi, achieved = _distribute(_deviations(V), np.array([10.0]), np.array([1.0]))
    assert achieved[0] == pytest.approx(np.sum((V[0, :, 0] - 1e-4) ** 2))
    assert achieved[0] < 10.0


def test_corrected_residual_constant_field(gas, small_disc):
    U0 = euler.conserved(1.0, 0.3, 0.0, 1.0, gas)
    U = np.tile(U0, (small_disc.dofmap.n_dofs, 1))
    res = corrected_residual(StageFields(small_disc, gas, U), Scheme.parse("galerkin+ec+jump"))
    assert np.abs(res.theta).max() < 1e-13


def test_corrected_residual_entropy_inequality(gas, small_disc):
    rng = np.random.default_rng(3)
    scheme = Scheme.parse("galerkin+ec+jump")
    for _ in range(100):
        U = random_states(rng, small_disc.dofmap.n_dofs)
        res = corrected_residual(StageFields(small_disc, gas, U), scheme)
        V = euler.entropy_vars(small_disc.elem_values(U), gas)
        full = np.einsum("mnc,mnc->m", V, res.theta)
        assert (full - res.g_boundary).min() > -1e-12
        # totals unchanged by the corrections
        assert (
            np.abs((res.theta - res.base.phi).sum(axis=1)).max() < 1e-11
        )


def test_entropy_numerical_flux(gas):
    U = euler.conserved(1.0, 0.0, 0.0, 1.0, gas)
    assert _entropy_flux(U, U, np.array([1.0, 0.0]), gas) == pytest.approx(0.0)
    rng = np.random.default_rng(4)
    for W in random_states(rng, 30):
        n = rng.normal(size=2)
        n /= np.hypot(*n)
        g = euler.entropy_flux(W, gas) @ n
        assert _entropy_flux(W, W, n, gas) == pytest.approx(g, abs=1e-14)
    # antisymmetry and the Sod-pair arithmetic oracle
    UL = euler.conserved(1.0, 0.0, 0.0, 1.0, gas)
    UR = euler.conserved(0.125, 0.0, 0.0, 0.1, gas)
    n = np.array([1.0, 0.0])
    got = _entropy_flux(UL, UR, n, gas)
    s = max(euler.max_wavespeed(UL, gas), euler.max_wavespeed(UR, gas))
    expect = 0.5 * (
        euler.entropy_flux(UL, gas) + euler.entropy_flux(UR, gas)
    ) @ n - 0.5 * s * (euler.entropy_eta(UR, gas) - euler.entropy_eta(UL, gas))
    assert got == pytest.approx(expect, rel=1e-14)
    assert _entropy_flux(UR, UL, -n, gas) == pytest.approx(-got, rel=1e-14)


def test_entropy_boundary_telescopes(gas, small_disc):
    U = smooth_field(small_disc, gas)
    g = element_entropy_boundary(StageFields(small_disc, gas, U))
    assert abs(g.sum()) < 1e-12 * max(np.abs(g).max(), 1.0)


def test_corrections_do_not_degrade_vortex_error(gas):
    # smoke test: switching the correction and diffusion terms on
    # changes the density error by less than 20 percent
    from rdeuler import positivity
    from rdeuler.diagnostics import primitive_errors
    from rdeuler.stepping import FieldState, ssp_rk2_step

    start, prob = vortex_start(24)
    disc, U0 = start.disc, start.U
    errs = {}
    for label in ("galerkin", "galerkin+ec+jump"):
        st = FieldState(0.0, U0.copy(), disc, gas)
        sch = Scheme.parse(label)
        while st.t < 0.5 - 1e-12:
            a = positivity.alpha_noninterpolated(StageFields(disc, gas, st.U))
            dt = min(positivity.admissible_timestep(disc, a, 0.3), 0.5 - st.t)
            st = ssp_rk2_step(st, sch, dt)
        errs[label] = primitive_errors(disc, gas, st.U, prob.state, st.t)["rho"]
    rel = abs(errs["galerkin+ec+jump"] - errs["galerkin"]) / errs["galerkin"]
    assert rel < 0.2


@pytest.mark.parametrize("name", ["lxf", "limited_lxf", "galerkin"])
def test_plain_scheme_theta_is_base_residual(gas, small_disc, monkeypatch, name):
    # without +ec or +jump no entropy variable or entropy flux is evaluated
    def forbidden(*args, **kwargs):
        raise AssertionError("entropy work for a plain scheme")

    monkeypatch.setattr(euler, "entropy_vars", forbidden)
    monkeypatch.setattr(euler, "entropy_flux", forbidden)
    U = random_states(np.random.default_rng(4), small_disc.dofmap.n_dofs)
    alpha = np.full(small_disc.mesh.n_tris, 3.0)
    res = corrected_residual(StageFields(small_disc, gas, U), Scheme.parse(name), alpha=alpha)
    assert res.theta.tobytes() == res.base.phi.tobytes()


@pytest.mark.parametrize("basis, degree", [("lagrange", 1), ("lagrange", 2), ("bernstein", 2)])
def test_gradient_jumps_on_the_p_point_rule_equal_the_3_point_requadrature(gas, basis, degree):
    # the squared gradient jump and the penalty integrand have degree
    # 2(p - 1): the p-point rule integrates them as exactly as the 3-point
    # flux rule; the jump cancels, so the error is bounded against the
    # largest entry, not edge by edge
    from oracles import grad_jump_integral_3pt, gradient_jump_terms_3pt
    from rdeuler.problems import VortexProblem
    from rdeuler.residuals import gradient_jump_terms
    from rdeuler.stabilization import grad_jump_integral

    disc = make_disc(32, 10.0, "s2", basis, degree)
    U = disc.interpolate(VortexProblem(disc.mesh.bbox, gas).initial)
    fields = StageFields(disc, gas, U)
    V_elem = fields.V_elem
    coeff = 0.01 * disc.if_length**2
    for got, want in ((grad_jump_integral(fields), grad_jump_integral_3pt(disc, V_elem)),
                      (gradient_jump_terms(disc, V_elem, coeff),
                       gradient_jump_terms_3pt(disc, V_elem, coeff))):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
