import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import make_disc, random_states, reference_pair, smooth_field, vortex_start
from rdeuler import euler
from rdeuler.discretization import StageFields
from rdeuler.errors import AlphaTooSmall, ConfigError, PicardDivergence
from rdeuler.positivity import (
    admissible_timestep,
    alpha_implicit,
    alpha_interpolated,
    alpha_noninterpolated,
)
from rdeuler.residuals import Scheme
from rdeuler.stepping import (
    FieldState,
    assemble_density_system,
    conserved_totals,
    element_theta,
    forward_euler_step,
    implicit_euler_step,
    scatter_residuals,
    ssp_rk2_step,
)


def constant_field(disc, gas, u=(0.2, -0.1)):
    U0 = euler.conserved(1.0, u[0], u[1], 1.0, gas)
    return np.tile(U0, (disc.dofmap.n_dofs, 1))


def assembled_residual(disc, gas, U, scheme):
    """Global residual sum R_sigma over the owner elements of theta."""
    return scatter_residuals(disc, FieldState(0.0, U, disc, gas).residual(scheme).theta)


def test_assemble_rhs_constant_zero(gas, small_disc):
    U = constant_field(small_disc, gas)
    R = assembled_residual(small_disc, gas, U, Scheme.parse("galerkin+ec+jump"))
    assert np.abs(R).max() < 1e-13


def test_assemble_rhs_global_conservation(gas, small_disc):
    U = smooth_field(small_disc, gas)
    R = assembled_residual(small_disc, gas, U, Scheme.parse("galerkin+ec+jump"))
    scale = np.abs(euler.flux(U, gas)).max() * small_disc.mesh.n_tris
    assert np.abs(R.sum(axis=0)).max() < 1e-11 * scale


def test_single_element_rhs_equals_theta(gas):
    # on the discontinuous space every DOF has a single owner element
    disc = reference_pair()
    rng = np.random.default_rng(0)
    U = random_states(rng, disc.dofmap.n_dofs)
    res = element_theta(StageFields(disc, gas, U), Scheme.parse("galerkin"), None)
    R = assembled_residual(disc, gas, U, Scheme.parse("galerkin"))
    assert np.array_equal(R[disc.dofmap.elem_dofs], res.theta)


def test_forward_euler_identities(gas, small_disc):
    disc = small_disc
    U = constant_field(disc, gas)
    st = FieldState(0.0, U, disc, gas)
    out = forward_euler_step(st, Scheme.parse("galerkin"), 0.01)
    assert np.abs(out.U - U).max() < 1e-14
    # mass conservation on a smooth field
    U = smooth_field(disc, gas)
    st = FieldState(0.0, U, disc, gas)
    out = forward_euler_step(st, Scheme.parse("galerkin+ec+jump"), 1e-3)
    t0 = conserved_totals(disc, U)
    t1 = conserved_totals(disc, out.U)
    scale = np.einsum("s,sc->c", disc.dual.c_sigma, np.abs(U))
    assert np.abs((t1 - t0) / scale).max() < 1e-12


def test_forward_euler_convex_decomposition(gas, small_disc):
    # the assembled update coincides with the per-element convex form
    # U_sigma^{n+1} = sum_K (|K_sigma|/|C_sigma|) U_sigma^{K,*}
    disc = small_disc
    rng = np.random.default_rng(1)
    U = random_states(rng, disc.dofmap.n_dofs)
    scheme = Scheme(base="lxf", flux_mode="interpolated")
    fields = StageFields(disc, gas, U)
    alpha = alpha_interpolated(fields)
    dt = admissible_timestep(disc, alpha, cfl=0.9)
    res = element_theta(fields, scheme, alpha=alpha)
    k_sigma = disc.dual.k_sigma
    U_star = (
        U[disc.dofmap.elem_dofs]
        - dt / k_sigma[:, None, None] * res.theta
    )
    weighted = k_sigma[:, None, None] * U_star
    combo = scatter_residuals(disc, weighted) / disc.dual.c_sigma[:, None]
    stepped = forward_euler_step(FieldState(0.0, U, disc, gas), scheme, dt)
    assert np.abs(combo - stepped.U).max() < 1e-13


class _StubScheme:
    """Residual recipe returning a fixed rate, for integrator tests."""

    def __init__(self, disc, rate):
        self.rate = rate
        self.disc = disc


def _stub_stepper(state, dt, rate):
    U = state.U + dt * rate
    return FieldState(state.t + dt, U, state.disc, state.gas)


def test_ssp_rk2_exact_for_constant_rate(gas, small_disc):
    # Heun's method integrates a constant-in-time rate exactly; emulate
    # by stepping a manufactured linear-in-time field
    disc = small_disc
    rng = np.random.default_rng(2)
    U = random_states(rng, disc.dofmap.n_dofs)
    rate = rng.standard_normal(U.shape)
    s1 = _stub_stepper(FieldState(0.0, U, disc, gas), 0.3, rate)
    s2 = _stub_stepper(s1, 0.3, rate)
    heun = 0.5 * (U + s2.U)
    assert np.allclose(heun, U + 0.3 * rate, atol=1e-14)


def test_ssp_rk2_convexity_of_average(gas, small_disc):
    rng = np.random.default_rng(3)
    A = random_states(rng, 10)
    B = random_states(rng, 10)
    assert np.all(euler.admissible(0.5 * (A + B), euler.GasModel()))


def test_ssp_rk2_temporal_order(gas):
    # halving dt at frozen spatial resolution shrinks the temporal error
    # by about four
    start, _ = vortex_start(8)
    disc, U0 = start.disc, start.U
    scheme = Scheme.parse("galerkin")
    t_end = 0.2

    def advance(dt0):
        st = FieldState(0.0, U0.copy(), disc, gas)
        while st.t < t_end - 1e-12:
            st = ssp_rk2_step(st, scheme, min(dt0, t_end - st.t))
        return st.U

    ref = advance(0.0025)
    e1 = np.abs(advance(0.02) - ref).max()
    e2 = np.abs(advance(0.01) - ref).max()
    ratio = e1 / e2
    assert 3.0 <= ratio <= 5.0


def test_assembly_determinism(gas, small_disc):
    U = smooth_field(small_disc, gas)
    R1 = assembled_residual(small_disc, gas, U, Scheme.parse("galerkin+ec+jump"))
    R2 = assembled_residual(small_disc, gas, U.copy(), Scheme.parse("galerkin+ec+jump"))
    assert np.array_equal(R1, R2)


# -- implicit machinery -------------------------------------------------


def _row_sums(matrix):
    return np.asarray(matrix.sum(axis=1)).ravel()


def test_density_system_dt_zero(gas, small_disc):
    disc = small_disc
    rng = np.random.default_rng(4)
    U = random_states(rng, disc.dofmap.n_dofs)
    alpha = alpha_implicit(StageFields(disc, gas, U))
    sys = assemble_density_system(disc, U, 0.0, alpha)
    rho = spla.spsolve(sys.matrix, disc.dual.c_sigma * U[:, 0])
    assert np.allclose(rho, U[:, 0], rtol=1e-13)
    assert np.allclose(_row_sums(sys.matrix), disc.dual.c_sigma, rtol=1e-13)


def test_density_system_stagnant_symmetric(gas):
    disc = make_disc(2, 1.0)
    U = constant_field(disc, gas, u=(0.0, 0.0))
    alpha = alpha_implicit(StageFields(disc, gas, U))
    sys = assemble_density_system(disc, U, 0.05, alpha)
    A = sys.matrix.toarray()
    assert np.abs(A - A.T).max() < 1e-14
    assert np.allclose(_row_sums(sys.matrix), disc.dual.c_sigma, atol=1e-14)
    d = np.diag(A)
    assert np.all(d > 0)
    off = A - np.diag(d)
    assert off.max() <= 1e-14


def test_density_system_alpha_too_small(gas, small_disc):
    disc = small_disc
    U = constant_field(disc, gas, u=(3.0, 0.0))
    with pytest.raises(AlphaTooSmall):
        assemble_density_system(disc, U, 0.1, np.full(disc.mesh.n_tris, 1e-6))


def test_implicit_constant_state_fixed_point(gas, small_disc):
    disc = small_disc
    U = constant_field(disc, gas)
    st = FieldState(0.0, U, disc, gas)
    out = implicit_euler_step(st, 0.05)
    assert np.abs(out.U - U).max() < 1e-12


def test_implicit_matches_explicit_at_small_dt(gas):
    # Richardson: the implicit and explicit steps of the same spatial
    # operator differ at O(dt^2)
    disc = make_disc(4, 2.0)
    U = smooth_field(disc, gas)
    scheme = Scheme(base="lxf", flux_mode="interpolated")

    def gap(dt):
        st = FieldState(0.0, U.copy(), disc, gas)
        ex = forward_euler_step(st, scheme, dt)
        im = implicit_euler_step(st, dt, tol=1e-13)
        return np.abs(ex.U - im.U).max()

    g1, g2 = gap(2e-3), gap(1e-3)
    assert 3.0 <= g1 / g2 <= 5.0


def test_implicit_large_dt_density_positive(gas, small_disc):
    disc = small_disc
    rng = np.random.default_rng(5)
    U = random_states(rng, disc.dofmap.n_dofs, near_vacuum=True)
    fields = StageFields(disc, gas, U)
    alpha = alpha_interpolated(fields)
    dt_exp = admissible_timestep(disc, alpha, cfl=1.0)
    # the standalone M-matrix solve stays positive at ten times the
    # explicit bound
    a_imp = np.maximum(alpha, alpha_implicit(fields))
    sys = assemble_density_system(disc, U, 10 * dt_exp, a_imp)
    rho = spla.spsolve(sys.matrix, disc.dual.c_sigma * U[:, 0])
    assert np.all(rho > 0)
    # and the full Picard step reports positive density as well
    out = implicit_euler_step(FieldState(0.0, U, disc, gas), 10 * dt_exp, max_iter=200)
    assert np.all(out.U[:, 0] > 0)


def test_implicit_step_checks_the_sign_condition(gas, small_disc, monkeypatch):
    # the step builds its matrix through assemble_density_system, so a
    # bound too small for the frozen velocity fails the M-matrix check
    from rdeuler import positivity

    def tiny(fields):
        return np.full(fields.disc.mesh.n_tris, 1e-6)

    monkeypatch.setattr(positivity, "alpha_implicit", tiny)
    monkeypatch.setattr(positivity, "alpha_interpolated", tiny)
    st = FieldState(0.0, constant_field(small_disc, gas, u=(3.0, 0.0)), small_disc, gas)
    with pytest.raises(AlphaTooSmall):
        implicit_euler_step(st, 0.1)


def _implicit_start(gas, small_disc):
    """A smooth state on the small square and the step's own clock dt."""
    st = FieldState(0.0, smooth_field(small_disc, gas), small_disc, gas)
    alpha = np.maximum(st.alpha("interpolated"), st.alpha("implicit"))
    return st, admissible_timestep(small_disc, alpha, cfl=1.0)


def _perturbed_first_sweep(monkeypatch, bump):
    """Record every LU solve and every iterate handed to the residual,
    in order, and add ``bump`` to the residual of the first sweep only:
    the second sweep then solves for a defect that is ``bump`` too large."""
    from rdeuler import stepping

    solves, iterates = [], []
    splu, rhs = spla.splu, stepping.interpolated_lxf_rhs

    class RecordingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            solves.append(self.lu.solve(b))
            return solves[-1]

    def bumped(disc, gas, U, dissipation):
        iterates.append(U.copy())
        R = rhs(disc, gas, U, dissipation)
        return R + bump if len(iterates) == 1 else R

    monkeypatch.setattr(spla, "splu", lambda A, **kw: RecordingLU(splu(A, **kw)))
    monkeypatch.setattr(stepping, "interpolated_lxf_rhs", bumped)
    return solves, iterates


def test_implicit_step_without_contraction_raises_after_max_iter(gas, small_disc):
    st, dt = _implicit_start(gas, small_disc)
    with pytest.raises(PicardDivergence, match="no contraction after 2 sweeps"):
        implicit_euler_step(st, dt, tol=0.0, max_iter=2)
    out = implicit_euler_step(FieldState(0.0, st.U, small_disc, gas), dt)
    assert np.all(out.U[:, 0] > 0.0)


def test_implicit_step_damps_a_sweep_that_loses_positivity(gas, small_disc, monkeypatch):
    # a first-sweep residual that asks DOF 0 to lose about 1000 in density
    # makes the second solve's density negative there; the sweep is halved
    # toward the first (positive) iterate until every density is positive,
    # and the sweeps on the true residual then converge
    st, dt = _implicit_start(gas, small_disc)
    bump = np.zeros_like(st.U)
    bump[0, 0] = 1e3 * small_disc.dual.c_sigma[0] / dt
    solves, iterates = _perturbed_first_sweep(monkeypatch, bump)
    out = implicit_euler_step(st, dt)
    assert np.all(solves[0][:, 0] > 0.0) and np.array_equal(iterates[0], solves[0])
    assert solves[1][0, 0] < 0.0
    damped = [j for j in range(1, 41) if np.array_equal(
        iterates[1], 0.5**j * solves[1] + (1.0 - 0.5**j) * solves[0])]
    assert len(damped) == 1 and damped[0] > 1
    assert np.all(iterates[1][:, 0] > 0.0)
    assert np.all(out.U[:, 0] > 0.0)


def test_implicit_step_raises_when_damping_cannot_restore_positivity(gas, small_disc,
                                                                     monkeypatch):
    # a defect so large that 40 halvings toward the previous iterate
    # leave a negative density
    st, dt = _implicit_start(gas, small_disc)
    solves, _ = _perturbed_first_sweep(monkeypatch, np.full_like(st.U, 1e200))
    with pytest.raises(PicardDivergence, match="density positivity lost in Picard sweep"):
        implicit_euler_step(st, dt)
    assert len(solves) == 2 and np.all(solves[1][:, 0] < 0.0)


def test_entropy_monotone_parachute_steps(gas):
    # LxF distribution with the admissible time step: total entropy
    # non-increasing on rough data
    disc = make_disc(8, 10.0)
    rng = np.random.default_rng(6)
    scheme = Scheme.parse("lxf+ec+jump")
    from rdeuler.positivity import alpha_noninterpolated

    for _ in range(3):
        U = random_states(rng, disc.dofmap.n_dofs)
        st = FieldState(0.0, U, disc, gas)
        for _ in range(15):
            S0 = float(np.sum(disc.dual.c_sigma * euler.entropy_eta(st.U, gas)))
            a = alpha_noninterpolated(StageFields(disc, gas, st.U))
            dt = admissible_timestep(disc, a, cfl=0.2)
            st = forward_euler_step(st, scheme, dt)
            S1 = float(np.sum(disc.dual.c_sigma * euler.entropy_eta(st.U, gas)))
            assert S1 - S0 <= 1e-10 * abs(S0)


def test_field_state_cache_is_not_copied(gas, small_disc):
    # replace starts with an empty cache, so a new U never sees the
    # alpha or residuals of the old one
    from dataclasses import replace

    U = smooth_field(small_disc, gas)
    U2 = smooth_field(small_disc, gas, amp=0.05)
    scheme = Scheme.parse("limited_lxf")
    st = FieldState(0.0, U, small_disc, gas)
    st.residual(scheme)
    fields = StageFields(small_disc, gas, U2)
    alpha2 = alpha_noninterpolated(fields)
    moved = replace(st, U=U2)
    assert np.array_equal(moved.alpha(), alpha2)
    assert np.array_equal(
        moved.residual(scheme).theta, element_theta(fields, scheme, alpha2).theta
    )


# -- implicit LxF kernels and solve ---------------------------------------


def _lxf_advective_einsum(disc, u_frozen):
    """The einsum form of the frozen-velocity advective table (oracle)."""
    u_bar = u_frozen[disc.dofmap.elem_dofs].mean(axis=1)
    return np.einsum("mnki,mi->mnk", disc.phi_grad_integrals, u_bar)


@pytest.mark.parametrize("space", ["s2", "s1"])
@pytest.mark.parametrize("basis,degree", [("lagrange", 1), ("bernstein", 2)])
def test_lxf_operator_matches_einsum_oracle(gas, space, basis, degree):
    from rdeuler.stepping import _lxf_operator

    disc = make_disc(6, 10.0, space, basis, degree)
    rng = np.random.default_rng(21)
    nk = disc.dofmap.n_local
    for U in (smooth_field(disc, gas), random_states(rng, disc.dofmap.n_dofs)):
        alpha = rng.uniform(0.0, 3.0, disc.mesh.n_tris)
        u = euler.velocity(U)
        _, c = _lxf_operator(disc, alpha, u)
        want = _lxf_advective_einsum(disc, u) + alpha[:, None, None] * (np.eye(nk) - 1.0 / nk)
        assert np.abs(c - want).max() <= 1e-14 * np.abs(want).max()


def test_lu_multi_rhs_solve_is_bitwise_the_column_solves(gas):
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from rdeuler.stepping import _lxf_operator

    st, _ = vortex_start(16)
    disc = st.disc
    alpha = np.maximum(st.alpha("interpolated"), st.alpha("implicit"))
    dt = admissible_timestep(disc, st.alpha(), cfl=1.0)
    A, _ = _lxf_operator(disc, alpha, euler.velocity(st.U))
    lu = spla.splu((sp.diags(disc.dual.c_sigma) + dt * A).tocsc(), permc_spec="MMD_AT_PLUS_A")
    rhs = disc.dual.c_sigma[:, None] * st.U
    rhs = rhs + np.random.default_rng(22).normal(size=rhs.shape)
    columns = np.column_stack([lu.solve(rhs[:, c]) for c in range(4)])
    assert np.array_equal(lu.solve(rhs), columns)


def test_implicit_step_ordering_matches_colamd(gas, monkeypatch):
    # minimum degree on A^T + A reorders the same factorisation: the step
    # agrees with the default COLAMD ordering to round-off, in as many sweeps
    import scipy.sparse.linalg as spla

    from rdeuler import stepping

    st, _ = vortex_start(16)
    dt = admissible_timestep(st.disc, st.alpha(), cfl=1.0)
    original_splu, original_rhs = spla.splu, stepping.interpolated_lxf_rhs
    orders, sweeps = [], []

    def splu(A, permc_spec=None, **kw):
        orders.append(permc_spec)
        return original_splu(A, permc_spec=ordering, **kw)

    def rhs(*args, **kwargs):
        sweeps[-1] += 1
        return original_rhs(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", splu)
    monkeypatch.setattr(stepping, "interpolated_lxf_rhs", rhs)
    out = {}
    for ordering in ("MMD_AT_PLUS_A", "COLAMD"):
        sweeps.append(0)
        out[ordering] = implicit_euler_step(FieldState(st.t, st.U, st.disc, gas), dt).U
    assert orders == ["MMD_AT_PLUS_A", "MMD_AT_PLUS_A"]
    assert sweeps[0] == sweeps[1] > 1
    got, want = out["MMD_AT_PLUS_A"], out["COLAMD"]
    assert np.all(np.abs(got - want).max(axis=0) <= 1e-13 * np.abs(want).max(axis=0))


def test_implicit_advance_sweeps_wavespeed_once_per_step(gas, small_disc, monkeypatch):
    # the dt clock's pointwise bound and the implicit sign-condition bound
    # of one state share its wavespeed sweep
    from rdeuler import positivity
    from rdeuler.stepping import advance

    calls = []
    original = positivity._element_max_wavespeed

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(positivity, "_element_max_wavespeed", counted)
    st = FieldState(0.0, smooth_field(small_disc, gas), small_disc, gas)
    steps = list(advance(st, Scheme.parse("lxf+interp"), "implicit", 10.0, 1.0, max_steps=3))
    assert len(steps) == 3
    assert len(calls) == 3


def test_field_state_implicit_bound(gas, small_disc):
    U = smooth_field(small_disc, gas)
    st = FieldState(0.0, U, small_disc, gas)
    fields = StageFields(small_disc, gas, U)
    assert np.array_equal(st.alpha("implicit"), alpha_implicit(fields))
    assert np.array_equal(st.alpha(), alpha_noninterpolated(fields))
    with pytest.raises(ConfigError):
        st.alpha("pointwise+interp")


# -- assembled operators of the implicit step ------------------------------

SPACES = [("s2", "lagrange", 1), ("s1", "lagrange", 1), ("s2", "lagrange", 2),
          ("s1", "lagrange", 2), ("s2", "bernstein", 2), ("s1", "bernstein", 2)]


def _fields(disc, gas, rng):
    return {
        "smooth": smooth_field(disc, gas),
        "random": random_states(rng, disc.dofmap.n_dofs),
        "near_vacuum": random_states(rng, disc.dofmap.n_dofs, near_vacuum=True),
    }


@pytest.mark.parametrize("space,basis,degree", SPACES)
def test_assembled_rhs_equals_scattered_element_residual(gas, space, basis, degree):
    # alpha is the interpolated bound, which reads the DOF states only
    # (P2 Lagrange point values of random data need not be admissible)
    from rdeuler.stepping import _lxf_dissipation, interpolated_lxf_rhs

    disc = make_disc(6, 10.0, space, basis, degree)
    scheme = Scheme(base="lxf", flux_mode="interpolated")
    for name, U in _fields(disc, gas, np.random.default_rng(31)).items():
        fields = StageFields(disc, gas, U)
        alpha = alpha_interpolated(fields)
        dissipation = disc.assemble(_lxf_dissipation(alpha, disc.dofmap.n_local))
        want = scatter_residuals(disc, element_theta(fields, scheme, alpha).theta)
        got = interpolated_lxf_rhs(disc, gas, U, dissipation)
        gap = np.abs(got - want).max(axis=0)
        assert np.all(gap <= 1e-13 * np.abs(want).max(axis=0)), (name, gap)


@pytest.mark.parametrize("space,basis,degree", SPACES)
def test_assembled_operator_matches_coo_oracle(gas, space, basis, degree):
    from oracles import coo_lxf_operator
    from rdeuler.stepping import _lxf_operator

    disc = make_disc(6, 10.0, space, basis, degree)
    rng = np.random.default_rng(32)
    for U in _fields(disc, gas, rng).values():
        alpha = rng.uniform(0.0, 3.0, disc.mesh.n_tris)
        u = euler.velocity(U)
        A, _ = _lxf_operator(disc, alpha, u)
        want = coo_lxf_operator(disc, alpha, u)
        assert np.array_equal(A.indptr, want.indptr)
        assert np.array_equal(A.indices, want.indices)
        assert np.abs(A.data - want.data).max() <= 1e-14 * np.abs(want.data).max()


def test_implicit_run_matches_element_path_oracle(gas):
    # each sweep's right-hand side from the assembled operators against
    # the element residual: same sweeps in every step, final U to round-off
    from oracles import picard_elementwise
    from rdeuler import stepping

    st, _ = vortex_start(16)
    sweeps = []
    original = stepping.interpolated_lxf_rhs

    def rhs(*args, **kwargs):
        sweeps[-1] += 1
        return original(*args, **kwargs)

    oracle, oracle_sweeps = st, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stepping, "interpolated_lxf_rhs", rhs)
        for _ in range(4):
            sweeps.append(0)
            st = implicit_euler_step(st, admissible_timestep(st.disc, st.alpha(), 1.0))
    for _ in range(4):
        dt = admissible_timestep(oracle.disc, oracle.alpha(), 1.0)
        U, n = picard_elementwise(oracle, dt, gas)
        oracle = FieldState(oracle.t + dt, U, oracle.disc, gas)
        oracle_sweeps.append(n)
    assert sweeps == oracle_sweeps and min(sweeps) > 1
    assert np.all(np.abs(st.U - oracle.U).max(axis=0) <= 1e-13 * np.abs(oracle.U).max(axis=0))


def test_implicit_step_makes_no_element_residual(gas, small_disc, monkeypatch):
    from rdeuler import stepping

    def forbidden(*args, **kwargs):
        raise AssertionError("element path called")

    monkeypatch.setattr(stepping, "element_theta", forbidden)
    monkeypatch.setattr(stepping, "scatter_residuals", forbidden)
    st = FieldState(0.0, smooth_field(small_disc, gas), small_disc, gas)
    out = implicit_euler_step(st, admissible_timestep(small_disc, st.alpha(), 1.0))
    assert np.all(out.U[:, 0] > 0)


def test_every_state_keeps_the_gas_it_was_stepped_with(monkeypatch):
    # a non-default gas stepped by the driver under SSP-RK2, the cascade
    # and the implicit step: every state carries it, the cascade's patch
    # rows equal the whole-mesh rows of the state, and one explicit step is
    # the scatter of the corrected residual for that gas, so a default gas
    # creeping back into any step changes the bits
    from dataclasses import replace

    from oracles import mixed_theta_full
    from rdeuler import driver, stepping
    from rdeuler.config import parse_config
    from rdeuler.stabilization import corrected_residual

    gas53 = euler.GasModel(gamma=5.0 / 3.0)
    cfg = parse_config(
        f"problem = sod_smooth\nmesh = structured:24x3\nbasis = lagrange\ngamma = {5.0 / 3.0!r}\n"
        "scheme = galerkin+ec+jump\ncascade = galerkin,limited_lxf,lxf\ncfl = 0.3\nt_end = 10.0\n"
    )

    def run(n=3, **keys):
        sub = replace(cfg, max_steps=n, **keys)
        start, _ = driver.start(sub)
        assert start.gas == gas53
        steps = list(driver.steps(sub, start))
        assert len(steps) == n and all(st.gas is start.gas for st, _, _ in steps)
        return steps

    run()
    run(scheme="lxf+interp", integrator="implicit")
    got = run(n=18, mood_enabled=True)           # the cascade first bumps in step 18
    assert np.any(got[-1][2].level > 0)
    monkeypatch.setattr(stepping, "mixed_theta", mixed_theta_full)
    want = run(n=18, mood_enabled=True)
    assert all(np.array_equal(a.U, b.U) for (a, _, _), (b, _, _) in zip(got, want))

    start, _ = driver.start(cfg)
    disc, U0 = start.disc, start.U.copy()
    (st, dt, _), = run(n=1, integrator="fe")
    R = scatter_residuals(disc, corrected_residual(StageFields(disc, gas53, U0), cfg.scheme_obj()).theta)
    assert np.array_equal(st.U, U0 - (dt / disc.dual.c_sigma)[:, None] * R)
