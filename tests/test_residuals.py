import numpy as np
import pytest

from conftest import make_disc, off_seam_elements, random_states, smooth_field
from oracles import conservation_defect, evaluate_at_points, evaluate_in_element, grad_integrals
from rdeuler import euler
from rdeuler.basis import build_dofmap
from rdeuler.discretization import Discretization, StageFields
from rdeuler.errors import ConfigError
from rdeuler.mesh import build_mesh, structured_square
from rdeuler.positivity import alpha_noninterpolated
from rdeuler.residuals import (
    Scheme,
    base_residual,
    beta_coefficients,
    galerkin_jump_residual,
    galerkin_residual,
    interface_flux,
    limited_lxf_residual,
    lxf_residual,
    rusanov_flux,
)


def sod_pair():
    return np.array([1.0, 0.0, 0.0, 2.5]), np.array([0.125, 0.0, 0.0, 0.25])


def test_rusanov_consistency(gas):
    U = np.array([1.0, 0.0, 0.0, 2.5])
    f = rusanov_flux(U, U, np.array([1.0, 0.0]), gas)
    assert np.allclose(f, [0, 1, 0, 0], atol=1e-15)
    rng = np.random.default_rng(0)
    for W in random_states(rng, 20):
        n = rng.normal(size=2)
        n /= np.hypot(*n)
        fn = rusanov_flux(W, W, n, gas)
        assert np.allclose(fn, euler.flux(W, gas) @ n, atol=1e-14)


def test_rusanov_antisymmetry(gas):
    rng = np.random.default_rng(1)
    A = random_states(rng, 10)
    B = random_states(rng, 10)
    n = rng.normal(size=(10, 2))
    n /= np.hypot(n[:, 0], n[:, 1])[:, None]
    f1 = rusanov_flux(A, B, n, gas)
    f2 = rusanov_flux(B, A, -n, gas)
    assert np.abs(f1 + f2).max() < 1e-13


def test_rusanov_sod_arithmetic(gas):
    UL, UR = sod_pair()
    n = np.array([1.0, 0.0])
    got = rusanov_flux(UL, UR, n, gas)
    s = np.sqrt(1.4)  # the left sound speed dominates
    expect = 0.5 * (euler.flux(UL, gas) + euler.flux(UR, gas)) @ n - 0.5 * s * (UR - UL)
    assert np.allclose(got, expect, rtol=1e-14)


def constant_state_field(disc, gas):
    U0 = euler.conserved(1.0, 0.2, -0.1, 1.0, gas)
    return np.tile(U0, (disc.dofmap.n_dofs, 1))


def test_galerkin_constant_field_zero(gas, small_disc):
    U = constant_state_field(small_disc, gas)
    res = galerkin_residual(StageFields(small_disc, gas, U))
    assert np.abs(res.phi).max() < 1e-14


def test_galerkin_total_matches_requadrature(gas, small_disc):
    from oracles import integrate_edge

    disc = small_disc
    U = smooth_field(disc, gas)
    res = galerkin_residual(StageFields(disc, gas, U))
    mesh = disc.mesh
    got = res.phi.sum(axis=1)
    for k in (0, 5, 17):
        total = np.zeros(4)
        for loc in range(3):
            e = mesh.elem_edges[k, loc]
            side = mesh.elem_edge_side[k, loc]
            n = mesh.elem_edge_normal[k, loc]

            def f(x):
                val = evaluate_in_element(disc, U, k, x)
                return euler.flux(val, gas) @ n

            total += integrate_edge(mesh, e, side, f)
        assert np.abs(got[k] - total).max() < 1e-13 * max(1.0, np.abs(total).max())


def test_galerkin_linear_density_hand_quadrature(gas):
    # linear rho, constant velocity and pressure: div f is constant and
    # every DOF of an element off the periodic seam receives div(f) |K| / 3
    disc = make_disc(4, side=2.0)
    mesh = disc.mesh
    u = np.array([0.3, 0.1])
    grad_rho = np.array([0.5, -0.25])

    def fn(x, y):
        rho = 1.0 + grad_rho[0] * x + grad_rho[1] * y
        return euler.conserved(rho, u[0] + 0 * x, u[1] + 0 * x, 1.0 + 0 * x, gas)

    U = disc.interpolate(fn)
    res = galerkin_residual(StageFields(disc, gas, U))
    c = u @ grad_rho
    dE_drho = 0.5 * (u @ u)  # E = p/(g-1) + rho |u|^2 / 2
    expect = np.array([c, c * u[0], c * u[1], (dE_drho + 0.0) * c + c * dE_drho])
    # energy flux divergence: div(u (E + p)) = u . grad(E) = c |u|^2 / 2...
    expect[3] = u @ (grad_rho * dE_drho)
    inner = np.flatnonzero(off_seam_elements(disc))
    assert inner.size > 0
    for k in inner:
        K3 = mesh.areas[k] / 3.0
        for sigma in range(3):
            assert np.allclose(res.phi[k, sigma], expect * K3, atol=1e-14)


def test_galerkin_jump_linear_field_unchanged(gas):
    # a linear field has no gradient jump off the periodic seam
    mesh = structured_square(6, side=1.0)
    disc = Discretization(build_dofmap(mesh, "s2", "lagrange", 1))

    def fn(x, y):
        return euler.conserved(
            1.0 + 0.05 * x - 0.02 * y, 0.1 + 0 * x, 0.0 * x, 1.0 + 0.03 * x, gas
        )

    U = disc.interpolate(fn)
    fields = StageFields(disc, gas, U)
    base = galerkin_residual(fields)
    jum = galerkin_jump_residual(fields, lambda_e=2.0)
    # the conserved vector is not linear (E is quadratic in x), so allow
    # the quadratic part's jump only in the energy row of gradients: use
    # a strictly linear conserved field instead
    lin = np.stack(
        [
            1.0 + 0.05 * disc.dofmap.dof_points[:, 0],
            0.1 + 0.01 * disc.dofmap.dof_points[:, 1],
            0.02 * disc.dofmap.dof_points[:, 0],
            2.5 + 0.1 * disc.dofmap.dof_points[:, 0],
        ],
        axis=-1,
    )
    fields = StageFields(disc, gas, lin)
    b2 = galerkin_residual(fields)
    j2 = galerkin_jump_residual(fields, lambda_e=2.0)
    assert np.abs((j2.phi - b2.phi)[off_seam_elements(disc)]).max() < 1e-13


def test_galerkin_jump_lambda_zero(gas, small_disc):
    U = smooth_field(small_disc, gas)
    fields = StageFields(small_disc, gas, U)
    a = galerkin_residual(fields)
    b = galerkin_jump_residual(fields, lambda_e=0.0)
    assert np.array_equal(a.phi, b.phi)


def test_galerkin_jump_union_conservation(gas, small_disc):
    U = smooth_field(small_disc, gas)
    fields = StageFields(small_disc, gas, U)
    base = galerkin_residual(fields)
    jum = galerkin_jump_residual(fields, lambda_e=1.5)
    # per-element totals unchanged by the jump terms
    assert np.abs((jum.phi - base.phi).sum(axis=1)).max() < 1e-13


def _hat_field(disc, gas, coarse_disc):
    """Admissible field whose density carries the coarse tent function."""
    hat = np.zeros(coarse_disc.dofmap.n_dofs)
    center = np.argmin(np.abs(coarse_disc.dofmap.dof_points).sum(axis=1))
    hat[center] = 1.0
    pts = disc.dofmap.dof_points
    vals = evaluate_at_points(coarse_disc, hat[:, None], pts)[:, 0]
    rho = 1.0 + 0.2 * vals
    zero = np.zeros_like(rho)
    return euler.conserved(rho, zero, zero, np.ones_like(rho), gas)


def test_jump_term_h2_scaling(gas):
    # track the per-DOF jump contribution at the tent apex, a DOF both
    # meshes share; the kink geometry there is self-similar, so the
    # magnitude scales with h_e^2
    native = make_disc(n=4, side=2.0)
    mags = []
    for disc in (make_disc(n=8, side=2.0), make_disc(n=16, side=2.0)):
        U = _hat_field(disc, gas, native)
        fields = StageFields(disc, gas, U)
        base = galerkin_residual(fields)
        jum = galerkin_jump_residual(fields, lambda_e=1.0)
        contrib = jum.phi - base.phi
        apex = int(np.argmin(np.abs(disc.dofmap.dof_points).sum(axis=1)))
        rows = disc.dofmap.elem_dofs == apex
        total = contrib[rows].sum(axis=0)
        mags.append(np.linalg.norm(total))
    ratio = mags[0] / mags[1]
    assert 3.8 <= ratio <= 4.2


def test_dg_constant_zero(gas, small_disc_s1):
    U = constant_state_field(small_disc_s1, gas)
    res = galerkin_residual(StageFields(small_disc_s1, gas, U))
    assert np.abs(res.phi).max() < 1e-14


def test_dg_base_needs_s1_space(gas, small_disc):
    U = constant_state_field(small_disc, gas)
    with pytest.raises(ConfigError):
        base_residual(StageFields(small_disc, gas, U), Scheme(base="dg"))


def test_dg_conservation_requadrature(gas, small_disc_s1):
    disc = small_disc_s1
    U = smooth_field(disc, gas)
    fields = StageFields(disc, gas, U)
    res = galerkin_residual(fields)
    # per-element sum equals the Rusanov boundary quadrature computed
    # independently from the interface traces
    fnum = interface_flux(fields)
    w = disc.edge_weights
    T = disc.if_length[:, None] * np.einsum("q,eqc->ec", w, fnum)
    totals = np.zeros((disc.mesh.n_tris, 4))
    for e in range(disc.if_length.shape[0]):
        totals[disc.if_left[e]] += T[e]
        totals[disc.if_right[e]] -= T[e]
    assert np.abs(res.phi.sum(axis=1) - totals).max() < 1e-13


def test_dg_two_element_periodic_telescoping(gas):
    mesh = build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)])
    disc = Discretization(build_dofmap(mesh, "s1", "lagrange", 1))
    rng = np.random.default_rng(2)
    U = random_states(rng, disc.dofmap.n_dofs)
    res = galerkin_residual(StageFields(disc, gas, U))
    total = res.phi.sum(axis=(0, 1))
    scale = np.abs(res.phi).sum()
    assert np.abs(total).max() < 1e-12 * max(scale, 1.0)


def test_lxf_formula_and_telescoping(gas, small_disc):
    disc = small_disc
    U = smooth_field(disc, gas)
    fields = StageFields(disc, gas, U)
    alpha = alpha_noninterpolated(fields)
    res = lxf_residual(fields, alpha)
    U_elem = disc.elem_values(U)
    dev = U_elem - U_elem.mean(axis=1, keepdims=True)
    assert np.abs(dev.sum(axis=1)).max() < 1e-13
    rebuilt = res.total[:, None, :] / 3.0 + alpha[:, None, None] * dev
    assert np.array_equal(res.phi, rebuilt)
    assert np.abs(res.phi.sum(axis=1) - res.total).max() < 1e-12


def test_lxf_constant_field(gas, small_disc):
    U = constant_state_field(small_disc, gas)
    res = lxf_residual(StageFields(small_disc, gas, U), 2.0)
    assert np.abs(res.total).max() < 1e-13
    assert np.abs(res.phi).max() < 1e-13


def test_lxf_plugin_arithmetic():
    total = np.array([3.0, 0.0, 0.0, 0.0])
    dev = np.array([0.5, 0.0, 0.0, 0.0])
    phi = total / 3.0 + 2.0 * dev
    assert np.allclose(phi, [2.0, 0.0, 0.0, 0.0])


def test_beta_coefficients_examples():
    beta, valid = beta_coefficients(np.array([0.5, 0.5, 0.0]))
    assert valid
    assert np.allclose(beta, [0.5, 0.5, 0.0])
    beta, valid = beta_coefficients(np.array([1.5, -0.5, 0.0]))
    assert valid
    assert np.allclose(beta, [1.0, 0.0, 0.0])
    beta, valid = beta_coefficients(np.array([-1e-16, -1e-16, 0.0]))
    assert not valid


def test_limited_lxf_properties(gas, small_disc):
    disc = small_disc
    U = smooth_field(disc, gas)
    fields = StageFields(disc, gas, U)
    alpha = alpha_noninterpolated(fields)
    lim = limited_lxf_residual(fields, alpha)
    lxf = lxf_residual(fields, alpha)
    # identical totals: scheme-swap-safe conservation
    assert np.abs(lim.total - lxf.total).max() < 1e-13
    assert np.abs(lim.phi.sum(axis=1) - lim.total).max() < 1e-12
    # constant field falls back to the unlimited distribution bitwise
    Uc = constant_state_field(disc, gas)
    fields = StageFields(disc, gas, Uc)
    a2 = alpha_noninterpolated(fields)
    assert np.array_equal(
        limited_lxf_residual(fields, a2).phi,
        lxf_residual(fields, a2).phi,
    )


def _schemes(disc, gas, U):
    fields = StageFields(disc, gas, U)
    alpha = alpha_noninterpolated(fields)
    yield "galerkin", galerkin_residual(fields)
    yield "galerkin_jump", galerkin_jump_residual(fields, 1.0)
    yield "lxf", lxf_residual(fields, alpha)
    yield "limited", limited_lxf_residual(fields, alpha)


def test_conservation_defect_random_fields(gas, small_disc):
    rng = np.random.default_rng(3)
    for _ in range(100):
        U = random_states(rng, small_disc.dofmap.n_dofs)
        for name, res in _schemes(small_disc, gas, U):
            d = conservation_defect(StageFields(small_disc, gas, U), res)
            assert d.max() < 1e-12, name


def test_conservation_defect_detects_corruption(gas):
    # a quiet low-pressure state keeps the flux scale below one, so the
    # injected unit error reads off directly
    disc = make_disc(n=2, side=1.0)
    U = np.tile(euler.conserved(1e-3, 0.0, 0.0, 1e-4, euler.GasModel()), (disc.dofmap.n_dofs, 1))
    fields = StageFields(disc, gas, U)
    res = galerkin_residual(fields)
    res.phi[0, 0, 0] += 1.0
    d = conservation_defect(fields, res)
    assert d[0] == pytest.approx(1.0, rel=1e-10)
    assert d[1:].max() < 1e-12


def test_global_telescoping_all_schemes(gas, small_disc):
    U = smooth_field(small_disc, gas)
    flux_scale = np.abs(euler.flux(U, gas)).max() * small_disc.mesh.n_tris
    for name, res in _schemes(small_disc, gas, U):
        total = res.phi.sum(axis=(0, 1))
        assert np.abs(total).max() < 1e-11 * flux_scale, name


def test_h2_bound_stable_under_refinement(gas):
    # measured constant in the residual continuity bound stays within a
    # factor of three across one refinement, for every scheme
    rng = np.random.default_rng(4)

    def max_ratio(disc, U):
        h = disc.mesh.diameters.max()
        dofs = disc.dofmap.elem_dofs
        out = {}
        for name, res in _schemes(disc, gas, U):
            num = np.linalg.norm(res.phi, axis=2)          # (M, N)
            Ue = U[dofs]
            diffs = np.linalg.norm(Ue[:, :, None, :] - Ue[:, None, :, :], axis=3)
            den = diffs.sum(axis=2) * h
            ratio = num / np.maximum(den, 1e-300)
            good = den > 1e-10
            out[name] = ratio[good].max()
        return out

    def smooth_random(disc):
        U = smooth_field(disc, gas)
        U = U * (1.0 + 0.02 * rng.standard_normal(U.shape))
        return U

    r1 = max_ratio(make_disc(4, 2.0), smooth_random(make_disc(4, 2.0)))
    r2 = max_ratio(make_disc(8, 2.0), smooth_random(make_disc(8, 2.0)))
    for name in r1:
        assert r2[name] < 3.0 * r1[name] and r1[name] < 3.0 * r2[name], name


def _interpolated_lxf_einsum(disc, gas, U_elem, alpha):
    """The einsum form of the interpolated-flux LxF residual (oracle)."""
    f_dofs = euler.flux(U_elem, gas)
    div_part = np.einsum("mnki,mkci->mnc", disc.phi_grad_integrals, f_dofs)
    total = np.einsum("mki,mkci->mc", grad_integrals(disc), f_dofs)
    dev = U_elem - U_elem.mean(axis=1, keepdims=True)
    return div_part + alpha[:, None, None] * dev, total


@pytest.mark.parametrize("space", ["s2", "s1"])
@pytest.mark.parametrize("basis,degree", [("lagrange", 1), ("bernstein", 2)])
def test_interpolated_lxf_matches_einsum_oracle(gas, space, basis, degree):
    from rdeuler.residuals import _interpolated_lxf

    disc = make_disc(6, 10.0, space, basis, degree)
    rng = np.random.default_rng(11)
    for U in (smooth_field(disc, gas), random_states(rng, disc.dofmap.n_dofs)):
        U_elem = disc.elem_values(U)
        alpha = rng.uniform(0.0, 3.0, disc.mesh.n_tris)
        for got, want in zip(
            _interpolated_lxf(StageFields(disc, gas, U), alpha),
            _interpolated_lxf_einsum(disc, gas, U_elem, alpha),
        ):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
