"""The stage fields against the per-function composition they replace.

The oracle below evaluates every point set where each consumer used to:
the traces in the interface flux, the entropy flux and the jump
coefficient, the interior points in the volume term, the entropy
variables and the deviations once per consumer, and the alpha sweep on
the DOFs, the interior points and each element's own side of the traces.
The gradient jumps are re-integrated on the 3-point edge rule.
"""

import numpy as np
import pytest

from conftest import make_disc, random_states, smooth_field
from oracles import (geometry_vectors, grad_integrals, grad_jump_integral_3pt,
                     gradient_jump_terms_3pt)
from rdeuler import euler
from rdeuler.discretization import Discretization, PointValues, StageFields
from rdeuler.errors import NonPositivePressure, VacuumState
from rdeuler.positivity import alpha_implicit, alpha_noninterpolated
from rdeuler.residuals import (LXF_FAMILY, Scheme, _lxf, base_residual, beta_coefficients,
                               boundary_totals, interface_flux)
from rdeuler.stabilization import (JUMP_COEFF, _correction, _deviations, _distribute,
                                   corrected_residual, edge_jump_production,
                                   element_entropy_boundary)
from rdeuler.stepping import FieldState

RTOL = 1e-13


def _traces(disc, X_elem):
    """One (nq, N) x (N, C) product per interface and side."""
    vals_L = disc.edge_vals[disc.mesh.edge_left_loc]
    vals_R = disc.edge_vals[disc.mesh.edge_right_loc][:, ::-1]
    return np.matmul(vals_L, X_elem[disc.if_left]), np.matmul(vals_R, X_elem[disc.if_right])


def _oracle_fnum(disc, gas, U_elem):
    tL, tR = _traces(disc, U_elem)
    if disc.dofmap.space == "s2":
        return np.einsum("eqci,ei->eqc", euler.flux(tL, gas), disc.if_normal)
    n = disc.if_normal[:, None, :]
    s = np.maximum(euler.max_wavespeed(tL, gas), euler.max_wavespeed(tR, gas))
    central = 0.5 * np.einsum("...ci,...i->...c", euler.flux(tL, gas) + euler.flux(tR, gas), n)
    return central - 0.5 * s[..., None] * (tR - tL)


def _oracle_totals(disc, fnum):
    T = disc.if_length[:, None] * np.tensordot(fnum, disc.edge_weights, axes=([1], [0]))
    return disc.scatter_interface(T, -T)


def _oracle_galerkin(disc, gas, U_elem):
    fnum = _oracle_fnum(disc, gas, U_elem)
    bnd = disc.scatter_interface(
        np.matmul(disc.if_vals_L_wl, fnum), np.matmul(disc.if_vals_R_wl, -fnum)
    )
    fq = euler.flux(disc.interior_field(U_elem), gas)
    M, nq = fq.shape[:2]
    vol = np.matmul(disc.int_gradw_mat, fq.transpose(0, 1, 3, 2).reshape(M, nq * 2, 4))
    return bnd - vol, _oracle_totals(disc, fnum)


def _oracle_base(disc, gas, U_elem, scheme, alpha):
    if scheme.base in ("galerkin", "dg"):
        return _oracle_galerkin(disc, gas, U_elem)
    if scheme.base == "galerkin_jump":
        phi, total = _oracle_galerkin(disc, gas, U_elem)
        return phi + gradient_jump_terms_3pt(disc, U_elem, disc.if_length**2), total
    dev = U_elem - U_elem.mean(axis=1, keepdims=True)
    if scheme.flux_mode == "interpolated":
        M, N = U_elem.shape[:2]
        f2 = euler.flux(U_elem, gas).transpose(0, 1, 3, 2).reshape(M, 2 * N, 4)
        phi = np.matmul(disc.phi_grad_integrals.reshape(M, N, 2 * N), f2) + alpha[:, None, None] * dev
        total = np.matmul(grad_integrals(disc).reshape(M, 1, 2 * N), f2)[:, 0]
    else:
        total = _oracle_totals(disc, _oracle_fnum(disc, gas, U_elem))
        phi = total[:, None, :] / disc.dofmap.n_local + alpha[:, None, None] * dev
    if scheme.base == "lxf":
        return phi, total
    small = np.abs(total) < 1e-14
    x = phi / np.where(small, 1.0, total)[:, None, :]
    beta, valid = beta_coefficients(np.moveaxis(x, 1, 0))
    limited = np.moveaxis(beta, 0, 1) * total[:, None, :]
    return np.where((small | ~valid)[:, None, :], phi, limited), total


def _oracle_entropy_boundary(disc, gas, U_elem):
    tL, tR = _traces(disc, U_elem)
    if disc.dofmap.space == "s2":
        gq = np.einsum("eqi,ei->eq", euler.entropy_flux(tL, gas), disc.if_normal)
    else:
        n = disc.if_normal[:, None, :]
        s = np.maximum(euler.max_wavespeed(tL, gas), euler.max_wavespeed(tR, gas))
        central = 0.5 * np.einsum(
            "...i,...i->...", euler.entropy_flux(tL, gas) + euler.entropy_flux(tR, gas), n
        )
        gq = central - 0.5 * s * (euler.entropy_eta(tR, gas) - euler.entropy_eta(tL, gas))
    G = disc.if_length * (gq @ disc.edge_weights)
    return disc.scatter_interface(G, -G)


def _oracle_jump(disc, gas, U_elem, V_elem, zeta):
    tL, tR = _traces(disc, U_elem)
    lam_e = JUMP_COEFF * np.maximum(
        euler.max_wavespeed(tL, gas).max(axis=1), euler.max_wavespeed(tR, gas).max(axis=1)
    )
    if disc.dofmap.space == "s2":
        D = lam_e * disc.if_h**zeta * disc.if_length * grad_jump_integral_3pt(disc, V_elem)
    else:
        VL, VR = _traces(disc, V_elem)
        jump = VR - VL
        D = lam_e * disc.if_length * ((jump * jump).sum(axis=2) @ disc.edge_weights)
    lam_k = np.zeros(disc.mesh.n_tris)
    np.maximum.at(lam_k, disc.if_left, lam_e)
    np.maximum.at(lam_k, disc.if_right, lam_e)
    share = disc.scatter_interface(0.5 * D, 0.5 * D)
    psi, achieved = _distribute(_deviations(V_elem), share, lam_k * disc.mesh.diameters)
    return psi, achieved, D


def _oracle_theta(disc, gas, U, scheme, alpha):
    U_elem = disc.elem_values(U)
    phi, total = _oracle_base(disc, gas, U_elem, scheme, alpha)
    out = {"phi": phi, "total": total, "theta": phi}
    if scheme.correction or scheme.diffusion:
        V_elem = euler.entropy_vars(U_elem, gas)
        g = _oracle_entropy_boundary(disc, gas, U_elem)
        r = psi = np.zeros_like(phi)
        if scheme.correction:
            r = _correction(V_elem, _deviations(V_elem), phi, g)
            out.update(correction=r, mismatch=g - np.einsum("mnc,mnc->m", V_elem, phi))
        if scheme.diffusion:
            psi, out["production"], out["interface_production"] = _oracle_jump(
                disc, gas, U_elem, V_elem, scheme.zeta
            )
        out.update(theta=phi + r + psi, g_boundary=g)
    return out


def _library_parts(fields, scheme, alpha, res):
    """The values of ``_oracle_theta`` from the library's kernels, with
    ``res`` the corrected residual of ``fields``."""
    phi = base_residual(fields, scheme, alpha=alpha)
    if scheme.base in LXF_FAMILY:
        total = _lxf(fields, alpha, scheme.flux_mode)[1]
    else:
        total = boundary_totals(fields.disc, interface_flux(fields))
    out = {"phi": phi, "total": total, "theta": res.theta, "production": res.production}
    if scheme.correction or scheme.diffusion:
        g = element_entropy_boundary(fields)
        V_elem = fields.V_elem
        out.update(
            g_boundary=g,
            mismatch=g - np.einsum("mnc,mnc->m", V_elem, phi),
            correction=_correction(V_elem, _deviations(V_elem), phi, g),
            interface_production=edge_jump_production(fields, zeta=scheme.zeta)[0],
        )
    return out


def _oracle_sweep(disc, gas, U_elem):
    e, side = disc.mesh.elem_edges, disc.mesh.elem_edge_side
    tL, tR = _traces(disc, U_elem)
    own = np.where((side == 0)[..., None, None], tL[e], tR[e])          # (M, 3, nq, 4)
    points = np.concatenate(
        [U_elem, disc.interior_field(U_elem), own.reshape(len(U_elem), -1, 4)], axis=1
    )
    return euler.max_wavespeed(points, gas).max(axis=1)


def _close(got, want):
    scale = max(float(np.abs(want).max()), 1e-300)
    return float(np.abs(got - want).max()) <= RTOL * scale


SPACES = [("s2", "lagrange", 1), ("s1", "lagrange", 1), ("s2", "bernstein", 2), ("s1", "bernstein", 2)]


def _schemes(space):
    bases = ["galerkin", "lxf", "limited_lxf", "lxf+interp", "limited_lxf+interp"]
    bases.append("galerkin_jump" if space == "s2" else "dg")
    return [Scheme.parse(b + m) for b in bases for m in ("", "+ec", "+jump", "+ec+jump")]


@pytest.mark.parametrize("space,basis,degree", SPACES)
@pytest.mark.parametrize("data", ["smooth", "random"])
def test_stage_fields_match_the_per_function_composition(gas, space, basis, degree, data):
    disc = make_disc(5, 10.0, space, basis, degree)
    if data == "smooth":
        U = smooth_field(disc, gas, amp=0.3)
    else:
        U = random_states(np.random.default_rng(31), disc.dofmap.n_dofs)
    U_elem = disc.elem_values(U)
    norms = np.linalg.norm(geometry_vectors(disc), axis=-1).max(axis=(1, 2))
    # every scheme once on a throwaway field set and all of them on one
    # FieldState, whose fields the later schemes find filled
    state = FieldState(0.0, U, disc, gas)
    assert _close(state.alpha(), _oracle_sweep(disc, gas, U_elem) * norms)
    for scheme in _schemes(space):
        alpha = state.alpha(scheme.flux_mode)
        want = _oracle_theta(disc, gas, U, scheme, alpha)
        fresh = StageFields(disc, gas, U)
        for fields, res in ((fresh, corrected_residual(fresh, scheme, alpha=alpha)),
                            (state.fields, state.residual(scheme))):
            got = _library_parts(fields, scheme, alpha, res)
            for key in want:
                assert _close(got[key], want[key]), (scheme.label(), key)


def _count_calls(monkeypatch, owner, name, log):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        log[name] = log.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("space,basis,degree", SPACES)
def test_residual_and_sweep_evaluate_each_point_set_once(gas, space, basis, degree, monkeypatch):
    # one +ec+jump residual plus the pointwise and implicit bounds of one
    # state: the traces come from one product per element, and each point
    # set gets one pressure (DOFs, interior points, the traces; the sweep
    # reads the element's own side of the traces); on S2 the trace is
    # single-valued, so there is one trace set and 3 pressure calls, on S1
    # a left and a right one and 4; the per-function composition made 4
    # trace evaluations and 7 pressure calls on S2
    disc = make_disc(4, 2.0, space, basis, degree)
    U = smooth_field(disc, gas)
    log = {}
    _count_calls(monkeypatch, Discretization, "traces", log)
    _count_calls(monkeypatch, euler, "pressure", log)
    state = FieldState(0.0, U, disc, gas)
    state.residual(Scheme.parse("galerkin+ec+jump" if space == "s2" else "dg+ec+jump"))
    state.alpha()
    state.alpha("implicit")
    # on S1 the jump of V takes the traces of the entropy variables too
    assert log["traces"] == (1 if space == "s2" else 2)
    assert log["pressure"] == (3 if space == "s2" else 4)


def test_kernels_read_the_gas_of_their_fields(gas):
    # the fields carry the gas: a state's bounds and residual are those of
    # a fresh set for the state's gas, and another gas changes them
    disc = make_disc(6, 10.0, "s2", "bernstein", 2)
    U = random_states(np.random.default_rng(8), disc.dofmap.n_dofs)
    gas53 = euler.GasModel(gamma=5.0 / 3.0)
    state = FieldState(0.0, U, disc, gas53)
    scheme = Scheme.parse("galerkin+ec+jump")
    same, default = StageFields(disc, gas53, U), StageFields(disc, gas, U)
    for mode, bound in (("pointwise", alpha_noninterpolated), ("implicit", alpha_implicit)):
        assert np.array_equal(state.alpha(mode), bound(same))
        assert not np.array_equal(state.alpha(mode), bound(default))
    theta = state.residual(scheme).theta
    assert np.array_equal(theta, corrected_residual(same, scheme).theta)
    assert not np.array_equal(theta, corrected_residual(default, scheme).theta)


def test_explicit_step_releases_the_fields_of_its_input(gas):
    # the residual and bound of the stepped state stay memoised; a later
    # residual of another scheme builds the fields again and is unchanged
    from rdeuler.stepping import forward_euler_step

    disc = make_disc(4, 2.0)
    U = smooth_field(disc, gas)
    scheme, other = Scheme.parse("galerkin+ec+jump"), Scheme.parse("lxf")
    state = FieldState(0.0, U, disc, gas)
    res, alpha = state.residual(scheme), state.alpha()
    forward_euler_step(state, scheme, 1e-3)
    assert ("fields",) not in state._memo
    assert state.residual(scheme) is res and state.alpha() is alpha
    again = state.residual(other).theta
    assert np.array_equal(again, FieldState(0.0, U, disc, gas).residual(other).theta)


def test_implicit_step_releases_the_fields_of_its_input(gas):
    # both bounds stay memoised and equal those of a fresh state
    from rdeuler.stepping import implicit_euler_step

    disc = make_disc(4, 2.0, "s2", "lagrange", 1)
    U = smooth_field(disc, gas)
    state = FieldState(0.0, U, disc, gas)
    implicit_euler_step(state, 1e-3)
    assert ("fields",) not in state._memo
    fresh = FieldState(0.0, U, disc, gas)
    for mode in ("interpolated", "implicit"):
        assert np.array_equal(state.alpha(mode), fresh.alpha(mode))
    assert ("fields",) not in state._memo


@pytest.mark.parametrize("space,basis,degree", SPACES)
def test_one_trace_set_on_the_continuous_space(gas, space, basis, degree):
    # the S2 trace is single-valued: one set serves both sides; S1 keeps two
    disc = make_disc(4, 2.0, space, basis, degree)
    fields = StageFields(disc, gas, random_states(np.random.default_rng(4), disc.dofmap.n_dofs))
    if space == "s2":
        assert fields.trace_R is fields.trace_L
    else:
        assert fields.trace_R is not fields.trace_L
        assert not np.array_equal(fields.trace_R.U, fields.trace_L.U)
    tL, tR = _traces(disc, fields.U_elem)
    assert np.array_equal(fields.trace_L.U, tL)
    assert np.array_equal(fields.trace_R.U, tL if space == "s2" else tR)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


@pytest.mark.parametrize("space,basis,degree", SPACES + [("s2", "lagrange", 2)])
def test_dof_values_are_bitwise_the_element_wise_evaluation(gas, space, basis, degree):
    # computed once per DOF the elements touch and gathered, on the whole
    # mesh and on a patch, equal to the evaluation at every element DOF
    disc = make_disc(6, 10.0, space, basis, degree)
    U = random_states(np.random.default_rng(9), disc.dofmap.n_dofs)
    for d in (disc, disc.patch([0, 7, 40])):
        fields = StageFields(d, gas, U)
        U_elem = d.elem_values(U)
        want = PointValues(U_elem, gas)
        assert _same_bits(fields.dofs.p, want.p)
        assert _same_bits(fields.dofs.peak_wavespeed, want.peak_wavespeed)
        assert _same_bits(fields.dofs.flux, want.flux)
        assert fields.dofs.flux.strides == want.flux.strides
        assert _same_bits(fields.V_elem, euler.entropy_vars(U_elem, gas, p=want.p))
        ids, local = d.touched_dofs
        assert np.array_equal(ids[local], d.dofmap.elem_dofs)


@pytest.mark.parametrize("component, error", [(0, VacuumState), (3, NonPositivePressure)])
def test_dof_values_raise_as_the_element_wise_evaluation(gas, component, error):
    # one inadmissible DOF: the whole mesh raises what the element-wise
    # evaluation raises; a patch that does not touch it returns its rows,
    # equal to those of the admissible state
    disc = make_disc(6, 10.0, "s2", "lagrange", 2)
    U = smooth_field(disc, gas)
    bad = U.copy()
    dof = disc.dofmap.elem_dofs[50, 4]
    bad[dof, component] = -1.0
    with pytest.raises(error):
        PointValues(disc.elem_values(bad), gas)
    with pytest.raises(error):
        StageFields(disc, gas, bad).dofs
    elems = np.flatnonzero(~np.any(disc.dofmap.elem_dofs == dof, axis=1))[:5]
    patch = disc.patch(elems)
    assert dof not in patch.touched_dofs[0]
    scheme = Scheme.parse("galerkin+ec+jump")
    rows = corrected_residual(StageFields(patch, gas, bad), scheme).theta[patch.core]
    want = corrected_residual(StageFields(disc, gas, U), scheme).theta[elems]
    assert _same_bits(rows, want)
