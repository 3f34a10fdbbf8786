import numpy as np
import pytest

from conftest import make_disc, smooth_field, vortex_start
from rdeuler import euler, mood
from rdeuler.basis import build_dofmap
from rdeuler.discretization import Discretization, StageFields
from rdeuler.errors import ConfigError
from rdeuler.mesh import structured_rect
from rdeuler.mood import (
    DET_CAD,
    DET_NAD,
    DET_PAD,
    CascadeConfig,
    default_cascade,
    detect,
    dmp_bounds,
    mood_step,
    smooth_pardon,
)
from rdeuler.positivity import admissible_timestep, alpha_noninterpolated
from rdeuler.problems import make_problem
from rdeuler.residuals import Scheme
from rdeuler.stepping import FieldState, forward_euler_step, ssp_rk2_step
from rdeuler.verification import check_mood, run_mood_sod


def uniform_field(disc, gas):
    return np.tile(euler.conserved(1.0, 0.1, 0.0, 1.0, gas), (disc.dofmap.n_dofs, 1))


# -- reference pardon: one least-squares fit per element ----------------


def _stencil2_dofs(disc, elem):
    """Two-ring DOF set used by the smoothness fit (unique ids)."""
    nbr = disc.elem_neighbors
    ring = {int(elem)}
    for k in nbr[elem]:
        ring.add(int(k))
    for k in list(ring):
        for k2 in nbr[k]:
            ring.add(int(k2))
    return np.unique(disc.dofmap.elem_dofs[sorted(ring)])


def _wrap(delta, period):
    return delta - period * np.round(delta / period)


def _smooth_extremum(disc, smooth_tol, rho, elem):
    """Oracle for smooth_pardon: lstsq quadratic over the two-ring stencil."""
    sten = _stencil2_dofs(disc, elem)
    pts = disc.dofmap.dof_points[sten]
    own = disc.dofmap.dof_points[disc.dofmap.elem_dofs[elem]]
    center = own.mean(axis=0)
    (x0, x1, y0, y1) = disc.mesh.bbox
    per = (x1 - x0, y1 - y0)
    dx = _wrap(pts[:, 0] - center[0], per[0])
    dy = _wrap(pts[:, 1] - center[1], per[1])
    vals = rho[sten]
    quad = np.column_stack(
        [np.ones_like(dx), dx, dy, dx * dx, dx * dy, dy * dy]
    )
    cq, *_ = np.linalg.lstsq(quad, vals, rcond=None)
    resid = float(np.max(np.abs(quad @ cq - vals)))
    spread = max(float(vals.max() - vals.min()), 1e-300)
    return resid <= smooth_tol * spread


def _assert_pardon_matches_oracle(disc, rho, elems, smooth_tol=0.01):
    """Batched decisions equal the per-element fit's; returns them."""
    got = smooth_pardon(disc, rho, elems, smooth_tol)
    want = np.array([_smooth_extremum(disc, smooth_tol, rho, int(k)) for k in elems])
    assert np.array_equal(got, want), np.nonzero(got != want)[0]
    return got


def _strip_disc(nx, ny):
    """The smoothed-Sod strip of run_mood_sod."""
    mesh = structured_rect(nx, ny, width=10.0, height=10.0 * ny / nx)
    return Discretization(mesh, build_dofmap(mesh, "s2", "lagrange", 1))


def _pardon_fields(disc, rng):
    """Random data (rejected) and smooth quadratic/periodic data (pardoned)."""
    pts = disc.dofmap.dof_points
    (x0, x1, y0, y1) = disc.mesh.bbox
    wave_x = np.cos(2 * np.pi * (pts[:, 0] - x0) / (x1 - x0))
    wave_y = np.sin(2 * np.pi * (pts[:, 1] - y0) / (y1 - y0))
    n = disc.dofmap.n_dofs
    yield rng.uniform(0.5, 1.5, n)
    yield 1.3 - 0.01 * (pts[:, 0] ** 2 + 0.5 * pts[:, 1] ** 2)
    yield 1.0 + 0.2 * wave_x * wave_y
    yield 1.0 + 0.2 * wave_x + 1e-3 * rng.standard_normal(n)


def test_detect_pad_failure(gas, small_disc):
    cfg = CascadeConfig()
    prev = uniform_field(small_disc, gas)
    cand = prev.copy()
    cand[3, 0] = -0.1
    fail, code, worst, _ = detect(small_disc, gas, cfg, cand, dmp_bounds(small_disc, cfg, prev))
    flagged = np.nonzero(fail)[0]
    assert len(flagged) > 0
    assert np.all(code[flagged] == DET_PAD)
    assert 3 in worst[flagged]


def test_detect_cad_failure(gas, small_disc):
    cfg = CascadeConfig()
    prev = uniform_field(small_disc, gas)
    cand = prev.copy()
    cand[5, 3] = np.nan
    fail, code, worst, _ = detect(small_disc, gas, cfg, cand, dmp_bounds(small_disc, cfg, prev))
    flagged = np.nonzero(fail)[0]
    assert len(flagged) > 0
    assert np.all(code[flagged] == DET_CAD)


def test_detect_tests_each_dof_as_its_element_copies(gas):
    # PAD and CAD read each global DOF once and gather the booleans; the
    # oracle tests every element copy of every DOF, as the element loop did
    disc = _strip_disc(12, 3)
    prev = disc.interpolate(make_problem("sod_smooth", disc.mesh.bbox, gas).initial)
    rng = np.random.default_rng(4)
    dofs = disc.dofmap.elem_dofs
    M = disc.mesh.n_tris
    cfg = CascadeConfig()
    bounds = dmp_bounds(disc, cfg, prev)
    for _ in range(20):
        cand = prev * (1.0 + 0.01 * rng.standard_normal(prev.shape))
        bad = rng.choice(len(cand), 6, replace=False)
        cand[bad[0], 0] = -0.1
        cand[bad[1], 3] = 0.0
        cand[bad[2], 2] = np.nan
        cand[bad[3], 1] = np.inf
        cand[bad[4], 0] = np.nan
        cand[bad[5], 0] = 1e-14
        fail, code, worst, _ = detect(disc, gas, cfg, cand, bounds)
        Uc = cand[dofs]
        finite = np.isfinite(Uc).all(axis=(1, 2))
        pad_ok = euler.admissible(Uc, gas)
        pad_fail = ~pad_ok.all(axis=1)
        hard = pad_fail | ~finite
        assert np.array_equal(fail & hard, hard)
        assert np.array_equal(code[hard], np.where(finite, DET_PAD, DET_CAD)[hard])
        assert np.array_equal(worst[hard], dofs[np.arange(M), np.argmax(~pad_ok, axis=1)][hard])
        assert not np.any(code[~hard] == DET_PAD) and not np.any(code[~hard] == DET_CAD)


def test_detect_plateau_skip(gas, small_disc):
    cfg = CascadeConfig()
    prev = uniform_field(small_disc, gas)
    cand = prev.copy()
    cand[:, 0] += 1e-10  # ripple far below the plateau tolerance h^3
    fail, code, worst, skips = detect(small_disc, gas, cfg, cand, dmp_bounds(small_disc, cfg, prev))
    assert not np.any(fail)


def test_detect_nad_and_smooth_pardon(gas):
    # the previous state needs enough variation to defeat the plateau
    # exemption (eps = h^3); a sharp new spike then trips the relaxed
    # maximum principle while a locally parabolic extremum is pardoned
    disc = make_disc(16, 10.0)
    cfg = CascadeConfig(plateau_eps=1e-6)
    pts = disc.dofmap.dof_points
    base = 1.0 + 0.05 * np.sin(2 * np.pi * pts[:, 0] / 10.0)
    zero = np.zeros_like(base)
    prev = euler.conserved(base, zero + 0.1, zero, np.ones_like(base), euler.GasModel())
    cand = prev.copy()
    spike = np.argmin(np.abs(pts).sum(axis=1))
    cand[spike, 0] += 0.5
    fail, code, _, _ = detect(disc, gas, cfg, cand, dmp_bounds(disc, cfg, prev))
    assert np.any(fail & (code == DET_NAD))
    # a candidate whose density is one global quadratic is reproduced
    # exactly by the quadratic fit and pardoned (away from the periodic
    # seam, where a non-periodic quadratic cannot be smooth)
    rho_q = 1.3 - 0.01 * (pts[:, 0] ** 2 + 0.5 * pts[:, 1] ** 2)
    cand2 = prev.copy()
    cand2[:, 0] = rho_q
    fail2, code2, _, _ = detect(disc, gas, cfg, cand2, dmp_bounds(disc, cfg, prev))
    from rdeuler.mood import _stencil_dofs

    sten_pts = disc.dofmap.dof_points[_stencil_dofs(disc)]
    interior = np.all(np.abs(sten_pts) < 4.0, axis=(1, 2))
    assert np.any(interior)
    assert not np.any(fail2 & (code2 == DET_NAD) & interior)


def test_mood_smooth_vortex_no_flags(gas):
    st, _ = vortex_start(12)
    disc, U = st.disc, st.U
    cfg = CascadeConfig()
    a = alpha_noninterpolated(StageFields(disc, gas, U))
    dt = admissible_timestep(disc, a, cfl=0.3)

    def integ(s, dt, levels=None):
        return ssp_rk2_step(
            s, cfg.schemes if levels is not None else cfg.schemes[0], dt,
            levels=levels,
        )

    out, report = mood_step(st, dt, cfg, integ)
    assert np.all(report.level == 0)
    plain = ssp_rk2_step(st, cfg.schemes[0], dt)
    assert np.array_equal(out.U, plain.U)


def test_mood_cascade_length_one_is_parachute(gas, small_disc):
    disc = small_disc
    U = smooth_field(disc, gas)
    st = FieldState(0.0, U, disc, gas)
    cfg = CascadeConfig(schemes=(Scheme.parse("lxf"),))
    a = alpha_noninterpolated(StageFields(disc, gas, U))
    dt = admissible_timestep(disc, a, cfl=0.4)

    def integ(s, dt, levels=None):
        return forward_euler_step(
            s, cfg.schemes if levels is not None else cfg.schemes[0], dt,
            levels=levels,
        )

    out, report = mood_step(st, dt, cfg, integ)
    plain = forward_euler_step(st, cfg.schemes[0], dt)
    assert np.array_equal(out.U, plain.U)


def test_mood_sod_strip_flags_and_conserves():
    # admissible, at least one activation and drift <= 1e-11 on the
    # 24 x 3 strip to t = 0.4: check_mood at its defaults
    assert check_mood()[0]


def test_mood_termination_levels_bounded(gas):
    info = run_mood_sod(nx=16, ny=2, t_end=0.2)
    # completing at all proves the loop settled; levels stay in range
    assert info["steps"] > 0


def test_default_cascade_shape():
    schemes = default_cascade()
    assert schemes[0].base == "galerkin" and schemes[0].correction
    assert schemes[-1].base == "lxf"
    with pytest.raises(Exception):
        CascadeConfig(schemes=())


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs, key", [
    ({"delta_dmp": NAN}, "mood.delta_dmp"), ({"delta_dmp": INF}, "mood.delta_dmp"),
    ({"delta_dmp": -1e-3}, "mood.delta_dmp"),
    ({"smooth_tol": NAN}, "mood.smooth_tol"), ({"smooth_tol": INF}, "mood.smooth_tol"),
    ({"smooth_tol": -1.0}, "mood.smooth_tol"), ({"smooth_tol": 0.0}, "mood.smooth_tol"),
    ({"plateau_eps": NAN}, "mood.plateau"), ({"plateau_eps": INF}, "mood.plateau"),
    ({"plateau_eps": -1e-9}, "mood.plateau"),
    ({"delta_dmp": NAN, "smooth_tol": -1.0, "plateau_eps": NAN}, "mood."),
])
def test_cascade_config_rejects_out_of_range_parameters(kwargs, key):
    # built directly, as a library caller does: with a NaN delta_dmp the
    # DMP bounds would be NaN and no element could fail NAD
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        CascadeConfig(**kwargs)


def test_pardon_matches_oracle_periodic_square():
    disc = make_disc(8, 10.0)
    rng = np.random.default_rng(5)
    elems = np.arange(disc.mesh.n_tris)
    decisions = np.concatenate(
        [_assert_pardon_matches_oracle(disc, rho, elems) for rho in _pardon_fields(disc, rng)]
    )
    assert decisions.any() and not decisions.all()


def test_pardon_matches_oracle_quadratic_case(gas):
    # the non-periodic quadratic data of test_detect_nad_and_smooth_pardon
    disc = make_disc(16, 10.0)
    pts = disc.dofmap.dof_points
    rho_q = 1.3 - 0.01 * (pts[:, 0] ** 2 + 0.5 * pts[:, 1] ** 2)
    decisions = _assert_pardon_matches_oracle(disc, rho_q, np.arange(disc.mesh.n_tris))
    assert decisions.any() and not decisions.all()


def test_pardon_matches_oracle_on_thin_strip(gas):
    # 16x2 cells: two-ring stencils wrap around the short period and the
    # quadratic fit is rank deficient
    disc = _strip_disc(16, 2)
    elems = np.arange(disc.mesh.n_tris)
    rng = np.random.default_rng(9)
    for rho in _pardon_fields(disc, rng):
        _assert_pardon_matches_oracle(disc, rho, elems)
    prob = make_problem("sod_smooth", disc.mesh.bbox, gas)
    _assert_pardon_matches_oracle(disc, disc.interpolate(prob.initial)[:, 0], elems)


def test_pardon_matches_oracle_on_criterion_7_run(monkeypatch):
    calls = []
    batched = mood.smooth_pardon

    def spy(disc, rho, elems, smooth_tol):
        out = batched(disc, rho, elems, smooth_tol)
        calls.append((disc, rho.copy(), elems.copy(), smooth_tol, out))
        return out

    monkeypatch.setattr(mood, "smooth_pardon", spy)
    info = run_mood_sod(nx=32, ny=4, t_end=0.8)
    assert info["ok_pad"] and calls
    n_decisions = 0
    for disc, rho, elems, tol, out in calls:
        want = [_smooth_extremum(disc, tol, rho, int(k)) for k in elems]
        assert np.array_equal(out, want)
        n_decisions += len(want)
    assert n_decisions > 1000


def test_consecutive_mood_steps_match_fresh_ones(gas):
    # cached residuals and alpha of one step must not leak into the next
    disc = _strip_disc(24, 3)
    prob = make_problem("sod_smooth", disc.mesh.bbox, gas)
    cfg = CascadeConfig(schemes=tuple(Scheme.parse(s) for s in ("galerkin", "limited_lxf", "lxf")))

    def integ(s, dt, levels=None):
        return ssp_rk2_step(s, cfg.schemes if levels is not None else cfg.schemes[0], dt,
                            levels=levels)

    def advance(state):
        dt = admissible_timestep(disc, alpha_noninterpolated(StageFields(disc, gas, state.U)), cfl=0.3)
        return mood_step(state, dt, cfg, integ)

    chained = FieldState(0.0, disc.interpolate(prob.initial), disc, gas)
    fresh = FieldState(0.0, chained.U.copy(), disc, gas)
    bumped = 0
    for _ in range(23):
        chained, report = advance(chained)
        fresh, _ = advance(FieldState(fresh.t, fresh.U.copy(), disc, gas))
        bumped += int(np.sum(report.level > 0))
        assert np.array_equal(chained.U, fresh.U)
    assert bumped > 0
