"""Dissipation-coefficient bounds and the time-step restriction.

Three lower bounds for the LxF coefficient alpha_K are provided, one
per analyzed configuration: interpolated nodal flux (spectral radius
against the scaled normals omega), pointwise quadrature flux (wavespeed
times the norms of the N_sigma_sigma' geometry vectors), and the
implicit density solve (sign condition on the off-diagonal entries).
All three read one geometry table, ``phi_grad_integrals``: by the
divergence theorem N_sigma_sigma' = int_K phi_sigma grad(phi_sigma'),
so the pointwise bound is the wavespeed sweep times
max_sigma_sigma' |int_K phi_sigma grad(phi_sigma')|, and the implicit
bound is N_K times the pointwise one.
The admissible time step turns alpha into a CFL bound under which the
forward-Euler LxF update is a convex combination of admissible states.
"""

import numpy as np

from . import euler
from .discretization import Discretization, StageFields, last_axis_max
from .errors import VacuumState


def scaled_normals(disc: Discretization):
    """omega_{sigma sigma'} = 2 N_K int_K phi_sigma grad(phi_sigma'), (M, N, N, 2)."""
    return 2.0 * disc.dofmap.n_local * disc.phi_grad_integrals


def _norms_and_units(omega):
    """|omega| (M,N,N) and omega/|omega| (M,N,N,2), zero vectors kept at zero."""
    norms = np.linalg.norm(omega, axis=-1)
    safe = np.where(norms > 0, norms, 1.0)
    return norms, omega / safe[..., None]


def _check_admissible(fields: StageFields):
    """Every DOF state admissible; the element DOF values are copies of them."""
    if not np.all(euler.admissible(fields.U, fields.gas)):
        raise VacuumState("inadmissible state in alpha bound")


def alpha_interpolated(fields: StageFields):
    """Upper bound on the spectral radius of A(U).omega over DOFs and pairs, (M,).

    The Euler eigenvalues along a direction n are u.n and u.n +- a|n|,
    so (|u.unit(omega)| + a) * |omega| dominates them; the maximum runs
    over every DOF state of the element and every (sigma, sigma') pair.
    It runs over the DOF states first: rounding is monotone, so the
    product of their maximum with |omega| >= 0 is the maximum product.
    """
    disc, U_elem = fields.disc, fields.U_elem
    _check_admissible(fields)
    norms, unit = disc.cached(
        "omega_norms_units", lambda d: _norms_and_units(scaled_normals(d)), rows="elems"
    )
    u = euler.velocity(U_elem)                                     # (M,N,2)
    a = euler.sound_speed(U_elem, fields.gas, p=fields.dofs.p)     # (M,N)
    best = None
    for d in range(u.shape[1]):
        # u_d . unit summed over the two directions from zero, as np.einsum
        # sums; the sign of a zero does not survive the abs
        proj = u[:, d, 0, None, None] * unit[..., 0]               # (M, N, N)
        proj += u[:, d, 1, None, None] * unit[..., 1]
        np.abs(proj, out=proj)
        proj += a[:, d, None, None]
        best = proj if best is None else np.maximum(best, proj, out=best)
    best *= norms
    return best.reshape(len(best), -1).max(axis=1)


def _element_max_wavespeed(fields: StageFields):
    """Max wavespeed over DOF values, interior and edge quadrature points.

    An element's edge points are its own side of the interface traces:
    the left trace where it owns an interface on the left, the right
    trace where it owns it on the right; on the continuous space the
    two are one single-valued trace.
    """
    mesh = fields.disc.mesh
    e = mesh.elem_edges
    edge = np.where(mesh.elem_edge_side == 0,
                    fields.trace_L.peak_wavespeed[e], fields.trace_R.peak_wavespeed[e])
    return np.maximum(
        np.maximum(fields.dofs.peak_wavespeed, fields.interior.peak_wavespeed),
        last_axis_max(edge),
    )


def _wavespeed_sweep(fields: StageFields):
    """The element wavespeed sweep of the fields, computed once per fields."""
    return fields.cached("wavespeed", lambda: _element_max_wavespeed(fields))


def _phi_grad_norms(disc: Discretization):
    """Largest |int_K phi_sigma grad(phi_sigma')| per element, (M,), kept."""
    return disc.cached("phi_grad_norms", lambda d: np.linalg.norm(
        d.phi_grad_integrals, axis=-1).max(axis=(1, 2)), rows="elems")


def alpha_noninterpolated(fields: StageFields):
    """Wavespeed maximum times the largest ||N_{sigma sigma'}||, (M,).

    N_{sigma sigma'} = int_K phi_sigma grad(phi_sigma'), the entries of
    ``phi_grad_integrals``; the pointwise and implicit bounds of one
    StageFields share its wavespeed sweep and that table's norms.
    """
    _check_admissible(fields)
    return _wavespeed_sweep(fields) * _phi_grad_norms(fields.disc)


def alpha_implicit(fields: StageFields):
    """Sign-condition bound for the implicit density system, (M,).

    The mean-value correction splits as alpha/N_K per off-diagonal
    entry, so alpha must dominate N_K times the advective coefficient
    ||int phi grad(phi')|| times the wavespeed bound on the velocity:
    N_K times the pointwise bound.
    """
    disc = fields.disc
    return disc.dofmap.n_local * _wavespeed_sweep(fields) * _phi_grad_norms(disc)


def admissible_timestep(disc: Discretization, alpha, cfl):
    """cfl * min over elements of |K_sigma| / (N_K alpha_K).

    Elements with vanishing alpha impose no constraint; a uniformly
    constant flow falls back to cfl times 1e-2 of the box diagonal.
    """
    if not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must lie in (0, 1]")
    alpha = np.asarray(alpha, dtype=float)
    nk = disc.dofmap.n_local
    k_sigma = disc.dual.k_sigma
    active = alpha > 1e-300
    if not np.any(active):
        (x0, x1, y0, y1) = disc.mesh.bbox
        return cfl * (1e-2 * float(np.hypot(x1 - x0, y1 - y0)))
    return cfl * float(np.min(k_sigma[active] / (nk * alpha[active])))
