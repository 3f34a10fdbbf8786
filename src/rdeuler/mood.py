"""A-posteriori detection and scheme cascade.

A candidate step is screened element by element: computational
admissibility (finite values), physical admissibility (density and
pressure above their floors at every DOF), a plateau exemption, and a
relaxed discrete maximum principle on the density with a smooth-extremum
pardon.  Flagged elements are recomputed with the next scheme in the
cascade; the final member (the most dissipative LxF distribution) is
accepted once it passes the physical and computational checks.

The recomputation is local.  Each candidate is one integrator call, in
which every level computes residual rows only for its own elements, on
element patches (``stepping.mixed_theta``): the first-stage rows of U^n
accumulate over the candidates of a step, and a second-stage row is
copied from the previous candidate where the element's stencil values
are bit-identical.  The candidates, their detection and the reports are
bit for bit those of recomputing every level on the whole mesh.  The
maximum-principle bounds of U^n are computed once per step (``dmp_bounds``).
"""

from dataclasses import dataclass, field

import numpy as np

from . import euler
from .discretization import Discretization
from .errors import ConfigError, ParachutePadFailure

DET_NONE, DET_PAD, DET_CAD, DET_NAD = 0, 1, 2, 3
DETECTOR_NAMES = {DET_NONE: "", DET_PAD: "PAD", DET_CAD: "CAD", DET_NAD: "NAD"}
# The relaxation, plateau and smoothness constants of the MOOD detectors
# (after Clain, Diot & Loubere, JCP 2011) are fixed, since no run varies
# them: the maximum principle is relaxed by DELTA_DMP times the stencil
# range (and at least 1e-6), an element whose previous stencil range is
# below h_K^3 is a plateau, and a quadratic that fits the two-ring data
# to within SMOOTH_TOL times its spread pardons a smooth extremum.
DELTA_DMP = 1e-3
SMOOTH_TOL = 0.01


def check_cascade(schemes):
    """Raise ConfigError unless the tuple of Schemes ``schemes`` ends in
    the LxF distribution, the level whose step stays admissible."""
    if not schemes or schemes[-1].base != "lxf":
        raise ConfigError("the cascade must end in the LxF distribution")


@dataclass
class DetectorReport:
    accepted: np.ndarray     # (M,) bool
    detector: np.ndarray     # (M,) last failing detector id
    worst_dof: np.ndarray    # (M,) global DOF id of the worst offender
    level: np.ndarray        # (M,) cascade level finally used
    plateau_skips: int = 0
    counts: dict = field(default_factory=dict)


def _stencil_dofs(disc: Discretization):
    """Own plus edge-neighbor DOFs per element."""
    def build(d):
        dofs, nbr = d.dofmap.elem_dofs, d.elem_neighbors
        return np.concatenate([dofs] + [dofs[nbr[:, j]] for j in range(3)], axis=1)

    return disc.cached("stencil", build)


def _wrap(delta, period):
    """The minimal image of an offset on the periodic box."""
    return delta - period * np.round(delta / period)


def _two_ring_dofs(disc: Discretization):
    """Sorted unique DOF ids of each element's two-ring, left-aligned.

    Returns (table, mask) of shape (M, S); padded slots repeat the
    row's first DOF and are False in the mask.
    """
    nbr = disc.elem_neighbors
    M = nbr.shape[0]
    ring1 = np.concatenate([np.arange(M)[:, None], nbr], axis=1)
    ring = np.concatenate([ring1, nbr[ring1].reshape(M, -1)], axis=1)
    ids = np.sort(disc.dofmap.elem_dofs[ring].reshape(M, -1), axis=1)
    mask = np.ones(ids.shape, dtype=bool)
    mask[:, 1:] = ids[:, 1:] != ids[:, :-1]
    order = np.argsort(~mask, axis=1, kind="stable")
    ids = np.take_along_axis(ids, order, axis=1)
    mask = np.take_along_axis(mask, order, axis=1)
    width = int(mask.sum(axis=1).max())
    ids, mask = ids[:, :width], mask[:, :width]
    return np.where(mask, ids, ids[:, :1]), mask


def _smooth_fit(disc: Discretization):
    """Two-ring table, mask and least-squares residual projector per element.

    The projector I - Q Q^+ of the wrapped, centred quadratic design
    matrix Q maps stencil data to the residual of its least-squares
    quadratic fit.  Singular values at or below eps * max(rows, 6) times
    the largest are dropped, the cutoff of ``lstsq(rcond=None)``.  Rows
    and columns of padded slots are zero.
    """
    table, mask = _two_ring_dofs(disc)
    pts = disc.dofmap.dof_points
    center = pts[disc.dofmap.elem_dofs].mean(axis=1)
    (x0, x1, y0, y1) = disc.mesh.bbox
    dx = _wrap(pts[table, 0] - center[:, :1], x1 - x0)
    dy = _wrap(pts[table, 1] - center[:, 1:], y1 - y0)
    quad = np.stack([np.ones_like(dx), dx, dy, dx * dx, dx * dy, dy * dy], axis=-1)
    quad *= mask[..., None]
    u, sv, _ = np.linalg.svd(quad, full_matrices=False)
    cutoff = np.finfo(float).eps * np.maximum(mask.sum(axis=1), quad.shape[-1]) * sv[:, 0]
    u *= (sv > cutoff[:, None])[:, None, :]
    proj = np.matmul(u, u.swapaxes(1, 2))
    np.negative(proj, out=proj)
    diag = np.arange(table.shape[1])
    proj[:, diag, diag] += 1.0
    proj *= mask[:, :, None] & mask[:, None, :]
    return table, mask, proj


def smooth_pardon(disc: Discretization, rho, elems):
    """Pardon test per element of ``elems``: a quadratic over the
    two-ring stencil reproduces the data to within SMOOTH_TOL times its
    spread.

    A smooth extremum is locally parabolic, so the least-squares
    quadratic leaves a residual far below the data spread; grid-scale
    oscillations cannot be captured by one parabola and keep an O(1)
    relative residual.  The fit depends only on geometry and is built
    once per discretization.
    """
    table, mask, proj = disc.cached("smooth_fit", _smooth_fit)
    vals = rho[table[elems]]
    keep = mask[elems]
    resid = np.abs(np.matmul(proj[elems], vals[..., None])[..., 0]).max(axis=1)
    spread = np.where(keep, vals, -np.inf).max(axis=1) - np.where(keep, vals, np.inf).min(axis=1)
    return resid <= SMOOTH_TOL * np.maximum(spread, 1e-300)


def dmp_bounds(disc: Discretization, previous_U):
    """Relaxed maximum principle of the previous state, fixed for a step:
    (low, high, plateau), the stencil minimum and maximum of its density
    widened by delta, each (M, 1), and the mask (M,) of the elements
    whose stencil range is below h_K^3."""
    sten = _stencil_dofs(disc)
    prev_rho = np.asarray(previous_U)[:, 0]
    mn = prev_rho[sten].min(axis=1)
    mx = prev_rho[sten].max(axis=1)
    rng = mx - mn
    delta = np.maximum(1e-6, DELTA_DMP * rng)
    return (mn - delta)[:, None], (mx + delta)[:, None], rng < disc.mesh.diameters**3


def detect(disc: Discretization, gas, candidate_U, bounds):
    """Apply the four detectors, ``bounds`` being the ``dmp_bounds`` of the
    previous state; returns (fail, code, worst_dof, skips)."""
    dofs = disc.dofmap.elem_dofs
    U = np.asarray(candidate_U)
    M = disc.mesh.n_tris

    # each global DOF is tested once, then gathered per element
    finite_dof = np.isfinite(U).all(axis=1)
    finite = finite_dof[dofs].all(axis=1)
    pad_ok = euler.admissible(U, gas)[dofs]
    pad_fail_dof = np.argmax(~pad_ok, axis=1)
    pad_fail = ~pad_ok.all(axis=1)

    code = np.zeros(M, dtype=np.int64)
    code[pad_fail] = DET_PAD
    code[~finite] = DET_CAD
    fail = pad_fail | ~finite
    worst = np.where(fail, dofs[np.arange(M), pad_fail_dof], -1)

    # plateau exemption and relaxed maximum principle on the density
    low, high, plateau = bounds
    rho = U[:, 0]
    cand_rho = np.where(np.isfinite(rho), rho, np.inf)[dofs]
    nad_viol = (cand_rho < low) | (cand_rho > high)
    nad_fail = nad_viol.any(axis=1) & ~plateau & ~fail
    skips = int(np.sum(plateau & nad_viol.any(axis=1) & ~fail))

    flagged = np.nonzero(nad_fail)[0]
    if flagged.size:
        nad_fail[flagged[smooth_pardon(disc, rho, flagged)]] = False
    code[nad_fail] = DET_NAD
    worst[nad_fail] = dofs[nad_fail, np.argmax(nad_viol[nad_fail], axis=1)]
    fail = fail | nad_fail
    return fail, code, worst, skips


def mood_step(state, dt, schemes, integrator):
    """Advance one step under the cascade ``schemes``, a tuple of Schemes.

    ``integrator(state, dt, levels)`` must perform a full step with the
    cascade scheme chosen per element.  Elements failing detection are
    bumped one cascade level and the step is recomputed until stable;
    at the final level only the physical/computational checks apply and
    a failure there is raised loudly.
    """
    disc, gas = state.disc, state.gas
    bounds = dmp_bounds(disc, state.U)
    M = disc.mesh.n_tris
    n_levels = len(schemes)
    levels = np.zeros(M, dtype=np.int64)
    counts = {"pad": 0, "cad": 0, "nad": 0}
    skips_total = 0
    # Each pass that does not return bumps an element, so the loop ends
    # within M (n_levels - 1) + 1 passes.  The accepted state is
    # admissible: every DOF lies in an element that passed PAD and CAD.
    while True:
        candidate = integrator(state, dt, levels)
        fail, code, worst, skips = detect(disc, gas, candidate.U, bounds)
        skips_total += skips
        at_last = levels == n_levels - 1
        hard = fail & at_last & ((code == DET_PAD) | (code == DET_CAD))
        if np.any(hard):
            bad = int(np.nonzero(hard)[0][0])
            raise ParachutePadFailure(
                f"element {bad} fails {DETECTOR_NAMES[int(code[bad])]} at the "
                "final cascade level; the time step or dissipation bound is wrong"
            )
        bump = fail & ~at_last
        for name, det in (("pad", DET_PAD), ("cad", DET_CAD), ("nad", DET_NAD)):
            counts[name] += int(np.sum(bump & (code == det)))
        if not np.any(bump):
            break
        levels[bump] += 1

    counts["parachute"] = (
        int(np.sum(levels == n_levels - 1)) if n_levels > 1 else 0
    )
    report = DetectorReport(
        accepted=~fail | (levels == n_levels - 1),
        detector=code,
        worst_dof=worst,
        level=levels,
        plateau_skips=skips_total,
        counts=counts,
    )
    return candidate, report
