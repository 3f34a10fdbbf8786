import numpy as np
import pytest

from conftest import make_disc, random_states, reference_pair, scrambled, smooth_field
from oracles import geometry_vectors, split_1d_oracle
from rdeuler import euler
from rdeuler.basis import build_dofmap
from rdeuler.discretization import Discretization, StageFields
from rdeuler.errors import VacuumState
from rdeuler.mesh import build_mesh, structured_square
from rdeuler.positivity import (
    admissible_timestep,
    alpha_implicit,
    alpha_interpolated,
    alpha_noninterpolated,
    scaled_normals,
)
from rdeuler.verification import positivity_stress


def _stagnant(disc, gas):
    return np.tile(euler.conserved(1.0, 0.0, 0.0, 1.0, gas), (disc.dofmap.n_dofs, 1))


def test_scaled_normals_row_sums(gas):
    for seed in range(10):
        mesh = build_mesh(*scrambled(12, 10, seed))
        disc = Discretization(build_dofmap(mesh, "s2", "lagrange", 1))
        om = scaled_normals(disc)
        assert np.abs(om.sum(axis=2)).max() < 1e-14


def test_scaled_normals_reference_value():
    om = scaled_normals(reference_pair())
    # int phi0 grad(phi0) = (-1/6, -1/6); omega = 2*3*that = (-1, -1)
    assert np.allclose(om[0, 0, 0], [-1.0, -1.0], atol=1e-13)


def test_scaled_normals_scale_linearly():
    om1 = scaled_normals(reference_pair(1.0))[0]
    om2 = scaled_normals(reference_pair(2.0))[0]
    assert np.allclose(om2, 2.0 * om1, rtol=1e-12)
    # directions invariant
    n1 = om1 / np.linalg.norm(om1, axis=-1, keepdims=True)
    n2 = om2 / np.linalg.norm(om2, axis=-1, keepdims=True)
    assert np.allclose(n1, n2, atol=1e-13)


def test_alpha_interpolated_stagnant_state(gas):
    disc = reference_pair()
    U = _stagnant(disc, gas)
    a = alpha_interpolated(StageFields(disc, gas, U))
    om = scaled_normals(disc)
    max_norm = np.linalg.norm(om, axis=-1).max()
    assert max_norm == pytest.approx(np.sqrt(2.0), rel=1e-13)
    assert a[0] == pytest.approx(np.sqrt(1.4) * np.sqrt(2.0), rel=1e-12)


def test_alpha_interpolated_grows_with_speed(gas):
    disc = reference_pair()
    U = _stagnant(disc, gas)
    a0 = alpha_interpolated(StageFields(disc, gas, U))[0]
    U2 = U.copy()
    U2[1] = euler.conserved(1.0, 2.0, 0.5, 1.0, gas)
    a1 = alpha_interpolated(StageFields(disc, gas, U2))[0]
    assert a1 > a0


def test_alpha_interpolated_requires_admissible(gas):
    disc = reference_pair()
    U = np.tile([1.0, 3.0, 0.0, 1.0], (disc.dofmap.n_dofs, 1))
    with pytest.raises(VacuumState):
        alpha_interpolated(StageFields(disc, gas, U))


def test_geometry_vectors_gauss_identity(gas):
    for disc in (make_disc(3, 2.0), make_disc(3, 2.0, degree=2)):
        N = geometry_vectors(disc)
        assert np.abs(N.sum(axis=2)).max() < 1e-13


@pytest.mark.parametrize("space", ["s1", "s2"])
@pytest.mark.parametrize("basis,degree", [("lagrange", 1), ("lagrange", 2), ("bernstein", 2)])
@pytest.mark.parametrize("mesh", ["square", "perturbed"])
def test_geometry_vectors_are_phi_grad_integrals(gas, space, basis, degree, mesh):
    # N_sigma sigma' by boundary quadrature equals int phi_sigma grad(phi_sigma'),
    # so the pointwise bound and the implicit one read one table and
    # differ by the factor N_K
    m = structured_square(8) if mesh == "square" else build_mesh(*scrambled(12, 10, seed=4))
    disc = Discretization(build_dofmap(m, space, basis, degree))
    table = disc.phi_grad_integrals
    assert np.abs(geometry_vectors(disc) - table).max() <= 1e-14 * np.abs(table).max()
    rng = np.random.default_rng(23)
    n = disc.dofmap.n_dofs
    states = [smooth_field(disc, gas) * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, (n, 4)))]
    if (basis, degree) != ("lagrange", 2):
        # P1 Lagrange and Bernstein point values are convex combinations
        # of the DOF values, hence admissible
        states += [random_states(rng, n, near_vacuum=nv) for nv in (False, True)]
    for U in states:
        fields = StageFields(disc, gas, U)
        pointwise = alpha_noninterpolated(fields)
        implicit = alpha_implicit(fields)
        nk = disc.dofmap.n_local
        assert np.abs(implicit - nk * pointwise).max() <= 1e-14 * np.abs(implicit).max()
    # one norm table serves both bounds
    assert set(disc._cache) == {"phi_grad_integrals", "phi_grad_norms"}


def test_alpha_noninterpolated_stagnant(gas):
    disc = reference_pair()
    U = _stagnant(disc, gas)
    a = alpha_noninterpolated(StageFields(disc, gas, U))
    max_norm = np.linalg.norm(geometry_vectors(disc), axis=-1).max()
    assert a[0] == pytest.approx(np.sqrt(1.4) * max_norm, rel=1e-12)


def test_alpha_noninterpolated_refinement_ratio(gas):
    n1 = np.linalg.norm(geometry_vectors(make_disc(4, 2.0)), axis=-1).max()
    n2 = np.linalg.norm(geometry_vectors(make_disc(8, 2.0)), axis=-1).max()
    assert abs(n1 / n2 - 2.0) < 0.2


def test_alpha_implicit_reference_value(gas):
    disc = reference_pair()
    norms = np.linalg.norm(disc.phi_grad_integrals, axis=-1)
    assert norms[0].max() == pytest.approx(np.sqrt(2.0) / 6.0, rel=1e-12)
    U = _stagnant(disc, gas)
    a = alpha_implicit(StageFields(disc, gas, U))
    assert a[0] == pytest.approx(
        3 * np.sqrt(1.4) * np.sqrt(2.0) / 6.0, rel=1e-12
    )


def test_alpha_implicit_scales_with_mesh(gas):
    d1, d2 = reference_pair(1.0), reference_pair(2.0)
    a1 = alpha_implicit(StageFields(d1, gas, _stagnant(d1, gas)))[0]
    a2 = alpha_implicit(StageFields(d2, gas, _stagnant(d2, gas)))[0]
    assert a2 / a1 == pytest.approx(2.0, rel=1e-12)


def test_phi_grad_integrals_row_sums(gas):
    disc = make_disc(3, 2.0, degree=2)
    assert np.abs(disc.phi_grad_integrals.sum(axis=2)).max() < 1e-14


def test_admissible_timestep_arithmetic():
    disc = reference_pair()  # |K| = 1/2, |K_sigma| = 1/6, N_K = 3
    alpha = np.full(disc.mesh.n_tris, 2.0)
    dt = admissible_timestep(disc, alpha, cfl=0.5)
    assert dt == pytest.approx(1.0 / 72.0, rel=1e-14)
    assert admissible_timestep(disc, alpha, cfl=1.0) == pytest.approx(
        2 * dt, rel=1e-14
    )


def test_admissible_timestep_refinement(gas):
    rngs = []
    for n in (4, 8):
        disc = make_disc(n, 2.0)
        U = np.tile(euler.conserved(1.0, 0.3, 0.1, 1.0, euler.GasModel()), (disc.dofmap.n_dofs, 1))
        a = alpha_interpolated(StageFields(disc, gas, U))
        rngs.append(admissible_timestep(disc, a, cfl=0.5))
    assert abs(rngs[0] / rngs[1] - 2.0) < 0.3  # dt halves within 15 percent


def test_admissible_timestep_constant_flow_cap():
    disc = reference_pair()
    alpha = np.zeros(disc.mesh.n_tris)
    dt = admissible_timestep(disc, alpha, cfl=0.5, dt_max=0.25)
    assert dt == pytest.approx(0.125)
    # default cap from the domain size
    dt2 = admissible_timestep(disc, alpha, cfl=1.0)
    assert dt2 == pytest.approx(1e-2 * np.hypot(1.0, 1.0))


def test_split_oracle_uniform_state(gas):
    U = euler.conserved(1.0, 0.3, 0.0, 1.0, gas)
    out = split_1d_oracle(U, U, U, nu=2.0, ratio=0.2, gas=gas)
    assert np.allclose(out, U, atol=1e-15)


def test_split_oracle_sod_matches_llf(gas):
    UL = euler.conserved(1.0, 0.0, 0.0, 1.0, gas)
    UR = euler.conserved(0.125, 0.0, 0.0, 0.1, gas)
    nu = float(euler.max_wavespeed(UL, gas))
    ratio = 0.2
    got = split_1d_oracle(UL, UL, UR, nu, ratio, gas)
    fl = euler.flux(UL, gas)[:, 0]
    fm = fl
    fr = euler.flux(UR, gas)[:, 0]
    fhat_right = 0.5 * (fm + fr) - 0.5 * nu * (UR - UL)
    fhat_left = 0.5 * (fl + fm) - 0.5 * nu * (UL - UL)
    expect = UL - ratio * (fhat_right - fhat_left)
    assert np.allclose(got, expect, atol=1e-14)
    assert euler.admissible(got, gas)


def test_split_oracle_is_llf_average(gas):
    rng = np.random.default_rng(1)
    for _ in range(20):
        Ul, Um, Ur = random_states(rng, 3)
        nu = float(euler.max_wavespeed(np.array([Ul, Um, Ur]), gas).max()) * 1.05
        ratio = 0.4 / nu
        got = split_1d_oracle(Ul, Um, Ur, nu, ratio, gas)
        fhat = lambda a, b: 0.5 * (
            euler.flux(a, gas)[:, 0] + euler.flux(b, gas)[:, 0]
        ) - 0.5 * nu * (b - a)
        expect = Um - ratio * (fhat(Um, Ur) - fhat(Ul, Um))
        assert np.abs(got - expect).max() < 1e-14
        assert euler.admissible(got, gas)


def test_split_oracle_cfl_violation(gas):
    U = euler.conserved(1.0, 0.0, 0.0, 1.0, gas)
    with pytest.raises(ValueError, match="exceeds one"):
        split_1d_oracle(U, U, U, nu=2.0, ratio=0.3, gas=gas)
    with pytest.raises(ValueError, match="below the local wavespeed"):
        split_1d_oracle(U, U, U, nu=0.5, ratio=0.1, gas=gas)


def test_explicit_positivity_reduced(gas):
    # reduced version of the 500-field stress test (full size in the
    # acceptance suite)
    mesh = structured_square(4, side=2.0)
    rng = np.random.default_rng(7)
    disc1 = Discretization(build_dofmap(mesh, "s2", "lagrange", 1))
    assert positivity_stress(disc1, gas, rng, n_fields=50, n_steps=10) == 0
    disc2 = Discretization(build_dofmap(mesh, "s2", "bernstein", 2))
    assert (
        positivity_stress(
            disc2, gas, rng, n_fields=25, n_steps=10, check_lagrange_points=True
        )
        == 0
    )


def _own_trace_peaks(disc, gas, U_elem):
    """Per element, the max wavespeed over its own side of the interface
    traces of its three edges (on S2 the left owner's trace), one element
    and edge at a time (oracle)."""
    mesh = disc.mesh
    vals_L = disc.edge_vals[mesh.edge_left_loc]
    vals_R = disc.edge_vals[mesh.edge_right_loc][:, ::-1]
    traces = (np.matmul(vals_L, U_elem[disc.if_left]), np.matmul(vals_R, U_elem[disc.if_right]))
    peaks = [euler.max_wavespeed(t, gas).max(axis=1) for t in traces]
    out = np.zeros(mesh.n_tris)
    for m in range(mesh.n_tris):
        for loc in range(3):
            # the continuous trace is single-valued: the left owner's serves both
            side = 0 if disc.dofmap.space == "s2" else mesh.elem_edge_side[m, loc]
            out[m] = max(out[m], peaks[side][mesh.elem_edges[m, loc]])
    return out


def _element_max_wavespeed_loop(disc, gas, U_elem):
    """One sweep per point set: DOFs, interior points, own edge traces (oracle)."""
    s = euler.max_wavespeed(U_elem, gas).max(axis=1)
    s = np.maximum(s, euler.max_wavespeed(disc.interior_field(U_elem), gas).max(axis=1))
    return np.maximum(s, _own_trace_peaks(disc, gas, U_elem))


@pytest.mark.parametrize("space", ["s2", "s1"])
@pytest.mark.parametrize("basis,degree", [("lagrange", 1), ("bernstein", 2)])
def test_stacked_wavespeed_sweep_is_bitwise_the_loop(gas, space, basis, degree):
    from rdeuler.positivity import _element_max_wavespeed

    disc = make_disc(6, 10.0, space, basis, degree)
    rng = np.random.default_rng(12)
    for near_vacuum in (False, True):
        for _ in range(5):
            # P1 Lagrange and Bernstein point values are convex combinations
            # of the DOF values, hence admissible
            U = random_states(rng, disc.dofmap.n_dofs, near_vacuum=near_vacuum)
            U_elem = disc.elem_values(U)
            want = _element_max_wavespeed_loop(disc, gas, U_elem)
            assert np.array_equal(_element_max_wavespeed(StageFields(disc, gas, U)), want)
            # the own-side traces are the element's edge points, to round-off
            pts = np.einsum("lqn,mnc->mlqc", disc.edge_vals, U_elem).reshape(len(U_elem), -1, 4)
            assert np.allclose(_own_trace_peaks(disc, gas, U_elem),
                               euler.max_wavespeed(pts, gas).max(axis=1), rtol=1e-13, atol=0.0)


def test_bounds_reuse_a_given_wavespeed_sweep(gas, small_disc, monkeypatch):
    # the pointwise and implicit bounds of one StageFields share its sweep,
    # and equal the bounds of a fresh set of the same DOF vector
    from rdeuler import positivity

    sweeps = []
    original = positivity._element_max_wavespeed

    def counted(fields):
        sweeps.append(fields)
        return original(fields)

    monkeypatch.setattr(positivity, "_element_max_wavespeed", counted)
    rng = np.random.default_rng(13)
    U = random_states(rng, small_disc.dofmap.n_dofs)
    fields = StageFields(small_disc, gas, U)
    pointwise = alpha_noninterpolated(fields)
    implicit = alpha_implicit(fields)
    assert sweeps == [fields]
    assert fields.cached("wavespeed", lambda: None) is not None
    for fn, bound in ((alpha_noninterpolated, pointwise), (alpha_implicit, implicit)):
        again = fn(StageFields(small_disc, gas, U))
        assert np.array_equal(again, bound)
