"""Independent re-derivations that the tests check the library against.

They live beside the tests, not in the library, so that an oracle and
the code it checks stay apart: a change to the library cannot change
the reference it is measured by.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rdeuler import euler
from rdeuler.basis import (EDGE_T, EDGE_WEIGHTS, INTERIOR_POINTS, INTERIOR_WEIGHTS,
                           basis_ref_grads, basis_values, edge_barycentric)
from rdeuler.discretization import StageFields
from rdeuler.errors import NonPositivePressure, PicardDivergence, VacuumState
from rdeuler.residuals import interface_flux


def wu_shu_functional(U, v_star):
    """Linear functional (|v*|^2/2, -v*, 1) . U.

    Nonnegative for every velocity vector v* exactly when the internal
    energy of U is nonnegative; used as a half-space test for
    admissibility.
    """
    U = np.asarray(U, dtype=float)
    v = np.asarray(v_star, dtype=float)
    v2 = 0.5 * (v[..., 0] ** 2 + v[..., 1] ** 2)
    return (
        v2 * U[..., 0]
        - v[..., 0] * U[..., 1]
        - v[..., 1] * U[..., 2]
        + U[..., 3]
    )


def state_from_entropy_vars(V, gas):
    """Invert the entropy-variable map (useful to manufacture fields)."""
    V = np.asarray(V, dtype=float)
    g = gas.gamma
    rho_over_p = -V[..., 3]
    if np.any(~(rho_over_p > 0.0)):
        raise NonPositivePressure("V[3] must be negative")
    u = V[..., 1:3] / rho_over_p[..., None]
    u2 = u[..., 0] ** 2 + u[..., 1] ** 2
    s = g - (g - 1.0) * (V[..., 0] + 0.5 * rho_over_p * u2)
    # p / rho^gamma = exp(s) combined with rho/p known gives rho.
    rho = (rho_over_p * np.exp(s)) ** (-1.0 / (g - 1.0))
    p = rho / rho_over_p
    return euler.conserved(rho, u[..., 0], u[..., 1], p, gas)


def entropy_hessian(U, gas, step=1e-6):
    """Hessian of eta at a single state, by central differences of V."""
    U = np.asarray(U, dtype=float)
    A = np.empty((4, 4))
    for j in range(4):
        h = step * max(1.0, abs(U[j]))
        Up = U.copy()
        Um = U.copy()
        Up[j] += h
        Um[j] -= h
        A[:, j] = (euler.entropy_vars(Up, gas) - euler.entropy_vars(Um, gas)) / (2.0 * h)
    return A


def element_jacobian(mesh, element):
    p = mesh.nodes[mesh.tris[element]]
    return np.stack([p[..., 1, :] - p[..., 0, :], p[..., 2, :] - p[..., 0, :]], axis=-1)


def barycentric(mesh, elements, x):
    """Barycentric coordinates of the points x (..., 2) in the elements
    (...), (..., 3)."""
    p0 = mesh.nodes[mesh.tris[elements, 0]]
    l12 = np.linalg.solve(element_jacobian(mesh, elements), (x - p0)[..., None])[..., 0]
    return np.concatenate([1.0 - l12.sum(axis=-1, keepdims=True), l12], axis=-1)


def evaluate_in_element(disc, U, elements, x):
    """The field U at the points x (..., 2), each in its element of
    ``elements`` (...), (..., C)."""
    vals = basis_values(disc.dofmap.basis, disc.dofmap.degree, barycentric(disc.mesh, elements, x))
    return np.einsum("...n,...nc->...c", vals, np.asarray(U)[disc.dofmap.elem_dofs[elements]])


def evaluate_at_points(disc, U, points):
    """The field U at the points (P, 2), (P, C): each point is evaluated in
    the element whose smallest barycentric coordinate there is largest,
    found by a search over every element."""
    lam = barycentric(disc.mesh, np.arange(disc.mesh.n_tris), points[:, None])    # (P, M, 3)
    return evaluate_in_element(disc, U, lam.min(axis=-1).argmax(axis=1), points)


def eval_basis(dofmap, element, lam, tol=1e-12):
    """Values and physical gradients of the element basis at one point."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (3,):
        raise ValueError("expected a barycentric triple")
    if abs(lam.sum() - 1.0) > 1e-10 or np.any(lam < -tol) or np.any(lam > 1 + tol):
        raise ValueError(f"point {lam} outside the closed simplex")
    vals = basis_values(dofmap.basis, dofmap.degree, lam)
    ref = basis_ref_grads(dofmap.basis, dofmap.degree, lam)
    J = element_jacobian(dofmap.mesh, element)
    JinvT = np.linalg.inv(J).T
    grads = ref @ JinvT.T
    return {"values": vals, "gradients": grads}


def integrate_element(mesh, element, f):
    """Quadrature of a pointwise integrand f(x) over one element."""
    p = mesh.nodes[mesh.tris[element]]
    xq = INTERIOR_POINTS @ p
    vals = np.array([f(x) for x in xq])
    return mesh.areas[element] * np.tensordot(INTERIOR_WEIGHTS, vals, axes=1)


def integrate_edge(mesh, edge, side, f):
    """Quadrature of f(x) over an interface, traversed by the given side."""
    if side == 0:
        elem, loc = mesh.edge_left[edge], mesh.edge_left_loc[edge]
    else:
        elem, loc = mesh.edge_right[edge], mesh.edge_right_loc[edge]
    lam = edge_barycentric(int(loc), EDGE_T)
    p = mesh.nodes[mesh.tris[elem]]
    xq = lam @ p
    vals = np.array([f(x) for x in xq])
    return mesh.elem_edge_length[elem, loc] * np.tensordot(
        EDGE_WEIGHTS, vals, axes=1
    )


def owner_grads(disc):
    """Left- and right-owner physical basis gradients at the 3-point edge
    points, each (E, 3, N, 2): the reference gradients through the
    owner's inverse Jacobian, the right owner's points reversed to pair
    with the left ones."""
    lam = np.stack([edge_barycentric(loc, EDGE_T) for loc in range(3)])
    ref = basis_ref_grads(disc.dofmap.basis, disc.dofmap.degree, lam)   # (3, 3, N, 2)
    mesh = disc.mesh
    return (np.einsum("eij,eqnj->eqni", disc.jinv_T[disc.if_left], ref[mesh.edge_left_loc]),
            np.einsum("eij,eqnj->eqni", disc.jinv_T[disc.if_right],
                      ref[mesh.edge_right_loc][:, ::-1]))


def trace_grads(disc, X_elem):
    """Left- and right-owner gradients of X at the 3-point edge points,
    each (E, 3, C, 2): the owner's basis gradients against its DOF values."""
    gL, gR = owner_grads(disc)
    return (np.einsum("eqni,enc->eqci", gL, X_elem[disc.if_left]),
            np.einsum("eqni,enc->eqci", gR, X_elem[disc.if_right]))


def grad_jump_integral_3pt(disc, V_elem):
    """oint_e ||[grad V]||^2 per interface on the 3-point edge rule, (E,)."""
    gL, gR = trace_grads(disc, V_elem)
    jump = gR - gL
    return np.einsum("q,eqci->e", EDGE_WEIGHTS, jump * jump)


def gradient_jump_terms_3pt(disc, U_elem, coeff):
    """The gradient-jump penalty on the 3-point edge rule, (M, N, C): per
    interface, coeff |e| oint [grad U] . grad(phi) with minus the left
    owner's basis gradients and the right owner's, summed into the owners."""
    gL, gR = owner_grads(disc)
    tL, tR = trace_grads(disc, U_elem)
    w = EDGE_WEIGHTS
    scale = (coeff * disc.if_length)[:, None, None]
    out = np.zeros(U_elem.shape)
    np.add.at(out, disc.if_left, -scale * np.einsum("q,eqni,eqci->enc", w, gL, tR - tL))
    np.add.at(out, disc.if_right, scale * np.einsum("q,eqni,eqci->enc", w, gR, tR - tL))
    return out


def geometry_vectors(disc):
    """N_{sigma sigma'} = -int_K grad(phi_sigma) phi_sigma' + oint_dK
    phi_sigma phi_sigma' n, (M, N, N, 2): the volume term on the interior
    rule through each element's inverse Jacobian, the boundary term on the
    3-point edge rule, one local edge at a time."""
    mesh, kind, deg = disc.mesh, disc.dofmap.basis, disc.dofmap.degree
    p = mesh.nodes[mesh.tris]
    JinvT = np.linalg.inv(np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)).swapaxes(1, 2)
    grads = np.einsum("mij,qnj->mqni", JinvT, basis_ref_grads(kind, deg, INTERIOR_POINTS))
    vals = basis_values(kind, deg, INTERIOR_POINTS)
    out = -np.einsum("q,m,mqni,qk->mnki", INTERIOR_WEIGHTS, mesh.areas, grads, vals)
    for loc in range(3):
        v = basis_values(kind, deg, edge_barycentric(loc, EDGE_T))
        pp = np.einsum("q,qn,qk->nk", EDGE_WEIGHTS, v, v)
        out += np.einsum("m,nk,mi->mnki", mesh.elem_edge_length[:, loc], pp,
                         mesh.elem_edge_normal[:, loc])
    return out


def grad_integrals(disc):
    """int_K grad(phi_sigma) dx, (M, N, 2), by einsum over the interior rule."""
    areas = disc.mesh.areas[:, None, None]
    return np.einsum("q,mqni->mni", INTERIOR_WEIGHTS, disc.int_grads) * areas


def conservation_defect(fields, phi):
    """Per element, the distance between the DOF sum of the signals phi
    (M, N, 4) and the boundary quadrature of the interface flux, summed
    here owner by owner, scaled by the boundary quadrature of the flux
    magnitude floored at one, so that injected O(1) errors read off
    directly."""
    disc = fields.disc
    fnum = interface_flux(fields)
    T = disc.if_length[:, None] * np.einsum("q,eqc->ec", disc.edge_weights, fnum)
    total = np.zeros((disc.mesh.n_tris, 4))
    np.add.at(total, disc.if_left, T)
    np.add.at(total, disc.if_right, -T)
    mag = disc.if_length * np.einsum("q,eq->e", disc.edge_weights, np.linalg.norm(fnum, axis=-1))
    scale = np.maximum(disc.scatter_interface(mag, mag), 1.0)
    return np.linalg.norm(phi.sum(axis=1) - total, axis=-1) / scale


def split_1d_oracle(U_left, U_mid, U_right, nu, ratio, gas):
    """One LLF update of the middle state, as the mean of two split steps.

    The flux splitting f +- nu U is admissibility preserving when nu
    dominates the local wavespeeds and 2 nu ratio <= 1; their average is
    the classical three-point LLF update.
    """
    states = np.array([U_left, U_mid, U_right], dtype=float)
    if not np.all(euler.admissible(states, gas)):
        raise VacuumState("oracle needs admissible input states")
    if nu < euler.max_wavespeed(states, gas).max() - 1e-13:
        raise ValueError("nu below the local wavespeed maximum")
    if 2.0 * nu * ratio > 1.0 + 1e-13:
        raise ValueError("2 nu dt/dx exceeds one")
    f = euler.flux(states, gas)[..., 0]          # x-direction columns
    fl, fm, fr = f
    Ul, Um, Ur = states
    up = Um - ratio * ((fm + nu * Um) - (fl + nu * Ul))
    down = Um - ratio * ((fr - nu * Ur) - (fm - nu * Um))
    return 0.5 * (up + down)


def coo_lxf_operator(disc, alpha, u_frozen):
    """Frozen-velocity LxF operator A, (n_dofs, n_dofs): the einsum of its
    element tables, assembled as COO triplets that scipy sorts and sums."""
    dofs = disc.dofmap.elem_dofs
    nk = dofs.shape[1]
    u_bar = u_frozen[dofs].mean(axis=1)
    c = np.einsum("mnki,mi->mnk", disc.phi_grad_integrals, u_bar)
    c = c + alpha[:, None, None] * (np.eye(nk) - 1.0 / nk)
    rows = np.repeat(dofs, nk, axis=1).ravel()
    cols = np.tile(dofs, (1, nk)).ravel()
    n = disc.dofmap.n_dofs
    return sp.coo_matrix((c.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def picard_elementwise(state, dt, gas, tol=1e-10, max_iter=50):
    """Implicit Euler step of ``lxf+interp`` whose Picard sweeps take
    R(U_k) from the element residual, scattered; returns (U, sweeps).

    The loop of ``stepping.implicit_euler_step`` (frozen-velocity
    M-matrix, defect correction, damping toward the last iterate), with
    the operator from ``coo_lxf_operator``.
    """
    from rdeuler.residuals import Scheme
    from rdeuler.stepping import element_theta, scatter_residuals

    disc, Un = state.disc, state.U
    scheme = Scheme(base="lxf", flux_mode="interpolated")
    alpha = np.maximum(state.alpha("interpolated"), state.alpha("implicit"))
    A = coo_lxf_operator(disc, alpha, euler.velocity(Un))
    lu = spla.splu((sp.diags(disc.dual.c_sigma) + dt * A).tocsc(), permc_spec="MMD_AT_PLUS_A")
    csig = disc.dual.c_sigma[:, None]
    scale = max(float(np.max(np.abs(Un))), 1e-300)
    Uk, defect = Un.copy(), np.zeros_like(Un)
    for sweep in range(1, max_iter + 1):
        X = lu.solve(csig * Un - dt * defect)
        if np.any(X[:, 0] <= 0.0):
            theta = 1.0
            for _ in range(40):
                theta *= 0.5
                Xd = theta * X + (1.0 - theta) * Uk
                if np.all(Xd[:, 0] > 0.0):
                    X = Xd
                    break
            else:
                raise PicardDivergence("density positivity lost in Picard sweep")
        change = float(np.max(np.abs(X - Uk))) / scale
        Uk = X
        R = scatter_residuals(disc, element_theta(StageFields(disc, gas, Uk), scheme, alpha).theta)
        defect = R - A @ Uk
        nonlinear = float(np.max(np.abs(csig * (Uk - Un) + dt * R))) / max(
            float(np.max(np.abs(csig * Un))), 1e-300
        )
        if change <= tol or nonlinear <= tol:
            return Uk, sweep
    raise PicardDivergence(f"no contraction after {max_iter} sweeps")


def mixed_theta_full(state, cascade, levels, prior=None):
    """Per-element residuals with a cascade level chosen per element, each
    level computed on the whole mesh from the state's memoised residuals
    (``prior`` is ignored): the cascade recomputation without element
    patches, as a drop-in for ``stepping.mixed_theta``."""
    theta = None
    for lv in np.unique(levels):
        res = state.residual(cascade[int(lv)]).theta
        if theta is None:
            theta = res.copy()
        else:
            pick = levels == lv
            theta[pick] = res[pick]
    return theta


def column_bincount(index, weights, n):
    """Sum the rows of ``weights`` (K, C) into ``n`` bins by ``index`` (K,).

    One ``np.bincount`` per column, so each bin adds its rows in index
    order, from 0.0; shape (n, C).
    """
    return np.column_stack(
        [np.bincount(index, weights=weights[:, c], minlength=n) for c in range(weights.shape[1])]
    )
