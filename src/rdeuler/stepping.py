"""Right-hand-side assembly and time integrators.

Explicit assembly is two-phase: per-element residual evaluation
(vectorized over elements) followed by an ordered scatter into the
global DOF vector, so results are bitwise reproducible.  Forward Euler
and the two-stage SSP Runge-Kutta method advance the semidiscrete
system; the implicit Euler step solves the interpolated-flux LxF scheme
through Picard iterations preconditioned by a frozen-velocity M-matrix,
on operators assembled into sparse matrices.  ``advance`` is the one
time loop: it picks dt, dispatches the integrator and runs the cascade.

scipy is imported by the implicit functions that use it, so an explicit
run never loads it; ``config.RunConfig.validate`` loads it for a run
that names ``integrator = implicit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import euler, mood, positivity
from .discretization import Discretization, StageFields, elem_mean
from .errors import AlphaTooSmall, ConfigError, PicardDivergence
from .residuals import LXF_FAMILY, Scheme
from .stabilization import corrected_residual


@dataclass
class FieldState:
    t: float
    U: np.ndarray            # (n_dofs, 4)
    disc: Discretization
    gas: euler.GasModel      # every state stepped from this one keeps it
    # Point values, alpha bounds and residuals of U, each computed on
    # first use, the residual rows of cascade levels, and under the
    # cascade the latest first stage stepped from U.  The field is never
    # copied (dataclasses.replace starts it empty), so nothing cached
    # outlives the state it was computed from; U must not be edited in
    # place once a cached value has been read.
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    @property
    def fields(self):
        """Point values of U (StageFields), filled on first use."""
        if ("fields",) not in self._memo:
            self._memo[("fields",)] = StageFields(self.disc, self.gas, self.U)
        return self._memo[("fields",)]

    def release_fields(self):
        """Drop the stage fields; the bounds and residuals read from them stay.

        An explicit step releases its input state once it has applied the
        state's residual, so the start state of an SSP-RK2 step carries no
        point values through the second stage; the implicit step releases
        it once it has both bounds.  A residual asked for later (another
        cascade level) builds the fields again.
        """
        self._memo.pop(("fields",), None)

    def alpha(self, mode="pointwise"):
        """Dissipation bound of U, (M,).

        ``mode`` is an LxF flux mode (``pointwise``, ``interpolated``) or
        ``implicit``, the sign-condition bound of the density solve.  The
        pointwise and implicit bounds share one wavespeed sweep of U.
        """
        key = ("alpha", mode)
        if key not in self._memo:
            self._memo[key] = _bound(mode)(self.fields)
        return self._memo[key]

    def residual(self, scheme: Scheme):
        """Corrected residual of U for one scheme (CorrectedResidual)."""
        key = ("residual", scheme)
        if key not in self._memo:
            alpha = self.alpha(scheme.flux_mode) if scheme.base in LXF_FAMILY else None
            self._memo[key] = element_theta(self.fields, scheme, alpha)
        return self._memo[key]

    def rows(self, scheme: Scheme, pick, prior=None, reuse=None):
        """theta of one scheme on the elements ``pick`` (M,) bool, (M, N, 4);
        the other rows are undefined.

        The full residual answers when the state has it or ``pick`` is
        every element.  Otherwise the rows accumulate in the state's row
        memo over calls: rows of ``prior`` (another state on the same
        mesh) are copied where ``reuse`` (M,) says the element's stencil
        values are bit-identical in both, and the rest are computed on
        the patch of the missing elements.
        """
        full = self._memo.get(("residual", scheme))
        if full is None and pick.all():
            full = self.residual(scheme)
        if full is not None:
            return full.theta
        key = ("rows", scheme)
        if key not in self._memo:
            M, N = self.disc.dofmap.elem_dofs.shape
            self._memo[key] = (np.empty((M, N, 4)), np.zeros(M, dtype=bool))
        theta, have = self._memo[key]
        need = pick & ~have
        known = None if prior is None else prior._known_rows(scheme)
        if known is not None:
            copy = np.flatnonzero(need & reuse & known[1])
            theta[copy] = known[0][copy]
            need[copy] = False
        need = np.flatnonzero(need)
        if len(need):
            theta[need] = _patch_theta(self, scheme, need)
        have |= pick
        return theta

    def _known_rows(self, scheme):
        """(theta, have) of the rows of one scheme computed so far, or None."""
        full = self._memo.get(("residual", scheme))
        if full is not None:
            return full.theta, np.ones(len(full.theta), dtype=bool)
        return self._memo.get(("rows", scheme))


def _bound(mode):
    """The alpha bound function of ``mode``, looked up when called."""
    bounds = {
        "interpolated": positivity.alpha_interpolated,
        "pointwise": positivity.alpha_noninterpolated,
        "implicit": positivity.alpha_implicit,
    }
    if mode not in bounds:
        raise ConfigError(f"unknown flux mode {mode!r}")
    return bounds[mode]


def _patch_theta(state: FieldState, scheme: Scheme, elems):
    """theta rows of the elements ``elems`` computed on their patch.

    An LxF-family scheme reads the state's bound when the state has it
    (the dt clock computed it), else computes it on the patch.
    """
    patch = state.disc.patch(elems)
    fields = StageFields(patch, state.gas, state.U)
    alpha = None
    if scheme.base in LXF_FAMILY:
        full = state._memo.get(("alpha", scheme.flux_mode))
        alpha = full[patch.elems] if full is not None else _bound(scheme.flux_mode)(fields)
    return element_theta(fields, scheme, alpha).theta[patch.core]


def conserved_totals(disc: Discretization, U):
    """Sum of |C_sigma| U_sigma, the discretely conserved quantities."""
    return np.einsum("s,sc->c", disc.dual.c_sigma, np.asarray(U))


def element_theta(fields: StageFields, scheme: Scheme, alpha):
    """Corrected per-element residuals for one scheme.

    ``fields`` are the point values of the state (``FieldState.residual``
    passes the state's).  ``alpha`` is the LxF dissipation bound (None outside
    the LxF family): the state's bound of the scheme's flux mode from
    ``FieldState.residual``.  It stays a function of its own so that
    each explicit right-hand side is one call to count; a Picard sweep
    of the implicit step is one ``interpolated_lxf_rhs`` call instead.
    """
    return corrected_residual(fields, scheme, alpha=alpha)


def scatter_residuals(disc: Discretization, theta):
    """Sum the per-element signals theta (M, N, 4) into the global DOF
    vector, (n_dofs, 4): each DOF sums its element signals in element
    order from 0.0."""
    dm = disc.dofmap
    return disc.owner_sum("dofs", dm.elem_dofs.ravel(), dm.n_dofs, theta.reshape(-1, 4))


def _same_stencil(disc: Discretization, U_old, U_new):
    """(M,) True where every stencil DOF value of the element is bit-identical
    in the two DOF vectors.  The bits are compared as integers, so -0.0
    against 0.0 counts as changed, and so does any NaN."""
    same = np.asarray(U_old).view(np.uint64) == np.asarray(U_new).view(np.uint64)
    same = same.all(axis=1) & ~np.isnan(U_new).any(axis=1)
    return same[mood._stencil_dofs(disc)].all(axis=1)


def mixed_theta(state: FieldState, cascade, levels, prior=None):
    """Per-element residuals with a cascade level chosen per element.

    Each level gives the rows of its own elements (``FieldState.rows``);
    ``prior``, the same stage of the previous cascade candidate, lends
    its rows where the element's stencil values did not change.
    """
    reuse = None if prior is None else _same_stencil(state.disc, prior.U, state.U)
    theta = None
    for lv, scheme in enumerate(cascade):
        pick = levels == lv
        if not pick.any():
            continue
        rows = state.rows(scheme, pick, prior, reuse)
        if theta is None:
            theta = rows.copy()
        else:
            pick = np.flatnonzero(pick)
            theta[pick] = rows[pick]
    return theta


def forward_euler_step(state: FieldState, scheme, dt, levels=None, prior=None) -> FieldState:
    """One Euler step; with ``levels``, ``scheme`` is the cascade and
    ``prior`` the previous candidate's state at this stage (see mixed_theta)."""
    disc = state.disc
    if levels is None:
        R = scatter_residuals(disc, state.residual(scheme).theta)
    else:
        R = scatter_residuals(disc, mixed_theta(state, scheme, levels, prior))
    state.release_fields()
    U = state.U - (dt / disc.dual.c_sigma)[:, None] * R
    return FieldState(t=state.t + dt, U=U, disc=disc, gas=state.gas)


def ssp_rk2_step(state: FieldState, scheme, dt, levels=None) -> FieldState:
    """Heun form: average of the state and a doubly advanced Euler stage.

    Under the cascade the state keeps its latest first stage, so that the
    next candidate's second stage can reuse its rows.
    """
    s1 = forward_euler_step(state, scheme, dt, levels=levels)
    prior = None
    if levels is not None:
        prior = state._memo.get(("stage1",))
        state._memo[("stage1",)] = s1
    s2 = forward_euler_step(s1, scheme, dt, levels=levels, prior=prior)
    U = 0.5 * (state.U + s2.U)
    return FieldState(t=state.t + dt, U=U, disc=state.disc, gas=state.gas)


@dataclass
class DensitySystem:
    matrix: sp.csr_matrix       # (n_dofs, n_dofs)
    operator: sp.csr_matrix     # A, the unscaled frozen-velocity LxF operator
    dissipation: sp.csr_matrix  # L_alpha, the LxF correction part of A


def _lxf_dissipation(alpha, nk):
    """Element tables alpha (delta - 1/N_K) of the LxF correction, (M, N, N)."""
    return alpha[:, None, None] * (np.eye(nk) - 1.0 / nk)


def _lxf_operator(disc: Discretization, alpha, u_frozen):
    """Unscaled frozen-velocity LxF operator A and its element tables c.

    c[m, n, k] contracts int phi grad(phi') with the element mean of the
    frozen velocity (so rows sum to zero for any data) and adds the LxF
    correction alpha (delta - 1/N_K); A is their assembly, (n_dofs, n_dofs).
    """
    u_bar = elem_mean(u_frozen[disc.dofmap.elem_dofs])             # (M, 2)
    M, nk = u_bar.shape[0], disc.dofmap.n_local
    pgi = disc.phi_grad_integrals.reshape(M, nk * nk, 2)
    adv = np.matmul(pgi, u_bar[:, :, None]).reshape(M, nk, nk)
    c = adv + _lxf_dissipation(alpha, nk)
    return disc.assemble(c), c


def interpolated_lxf_rhs(disc: Discretization, gas, U, dissipation):
    """Assembled interpolated-LxF residual R(U) = B_x f_x(U) + B_y f_y(U) + L_alpha U.

    The scatter of the element residual of ``lxf+interp``, written on the
    DOF vector: B_x, B_y are the assembled components of
    ``phi_grad_integrals`` (built once per discretization) and
    ``dissipation`` is L_alpha of the step's DensitySystem.  One checked
    pressure and one flux over the DOFs; each Picard sweep is one call.
    """
    Bx, By = disc.cached("phi_grad_csr", lambda d: tuple(
        d.assemble(d.phi_grad_integrals[..., i]) for i in range(2)))
    f = euler.flux(U, gas)
    R = Bx @ f[..., 0]
    R += By @ f[..., 1]
    R += dissipation @ U
    return R


def assemble_density_system(disc: Discretization, U, dt, alpha):
    """Implicit-Euler density matrix diag(|C_sigma|) + dt A, velocities frozen at U.

    Diagonal entries are |C_sigma| plus a nonnegative dissipation term,
    off-diagonals must come out nonpositive (otherwise AlphaTooSmall),
    and every row sums to |C_sigma| exactly.
    """
    import scipy.sparse as sp

    U = np.asarray(U, dtype=float)
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (disc.mesh.n_tris,))
    A, c = _lxf_operator(disc, alpha, euler.velocity(U))
    nk = disc.dofmap.n_local
    mask_off = ~np.eye(nk, dtype=bool)
    if np.any(c[:, mask_off] > 1e-13 * np.maximum(alpha, 1.0)[:, None]):
        raise AlphaTooSmall("off-diagonal sign condition violated")
    return DensitySystem(matrix=sp.diags(disc.dual.c_sigma) + dt * A, operator=A,
                         dissipation=disc.assemble(_lxf_dissipation(alpha, nk)))


def implicit_euler_step(state: FieldState, dt, tol=1e-10, max_iter=50) -> FieldState:
    """Implicit Euler for the interpolated-flux LxF scheme.

    Picard iterations solve the frozen-velocity M-matrix system with a
    defect-correction right-hand side, R(U_k) - A U_k, where R comes from
    ``interpolated_lxf_rhs``; the first sweep omits the defect,
    which makes the density update a pure M-matrix solve and hence
    positive.  At the fixed point |C|(U - U^n) + dt R(U) = 0 holds for
    the true nonlinear residual.  alpha is the larger of the scheme's
    bound and the sign-condition bound, and the matrix builder checks
    the sign condition in every step.
    """
    import scipy.sparse.linalg as spla

    disc, gas = state.disc, state.gas
    Un = state.U
    alpha = np.maximum(state.alpha("interpolated"), state.alpha("implicit"))
    state.release_fields()
    system = assemble_density_system(disc, Un, dt, alpha)
    # Minimum degree on A^T + A fills the LU of this pattern about half
    # as much as the default COLAMD ordering.
    lu = spla.splu(system.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")

    csig = disc.dual.c_sigma[:, None]
    scale = max(float(np.max(np.abs(Un))), 1e-300)
    Uk = Un.copy()
    defect = np.zeros_like(Un)
    for it in range(max_iter):
        rhs = csig * Un - dt * defect
        X = lu.solve(rhs)
        if np.any(X[:, 0] <= 0.0):
            # damp toward the previous (positive-density) iterate
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
        R = interpolated_lxf_rhs(disc, gas, Uk, system.dissipation)
        defect = R - (system.operator @ Uk)
        nonlinear = float(np.max(np.abs(csig * (Uk - Un) + dt * R))) / max(
            float(np.max(np.abs(csig * Un))), 1e-300
        )
        if change <= tol or nonlinear <= tol:
            return FieldState(t=state.t + dt, U=Uk, disc=disc, gas=gas)
    raise PicardDivergence(f"no contraction after {max_iter} sweeps")


def advance(
    state: FieldState, scheme, integrator, t_end, cfl, *,
    mood_cfg=None, dt_max=None, max_steps=None,
):
    """Step ``state`` toward ``t_end``; yields (state, dt, report) per step.

    ``integrator`` is ``fe``, ``ssprk2`` or ``implicit`` (which always
    steps ``lxf+interp``).  With ``mood_cfg`` every step runs the
    detection cascade over ``mood_cfg.schemes`` in place of ``scheme``
    and ``report`` is its DetectorReport; otherwise it is None.  The loop
    stops at ``t_end`` (the last step is clamped to land on it) or after
    ``max_steps`` steps.

    dt is ``cfl`` times the admissible step of the dissipation bound of
    the schemes being stepped: for explicit integrators the elementwise
    max of alpha over the flux modes of the LxF-family schemes (the one
    scheme, or every cascade level), the pointwise bound when none is in
    the LxF family.  The implicit step is positive for any dt, so the
    pointwise bound only sets its accuracy clock.
    """
    if mood_cfg is not None and integrator == "implicit":
        raise ConfigError("the detection cascade needs an explicit integrator")
    stepped = (scheme,) if mood_cfg is None else mood_cfg.schemes
    modes = sorted({s.flux_mode for s in stepped if s.base in LXF_FAMILY})
    if integrator == "implicit" or not modes:
        modes = ["pointwise"]

    def step(st, dt, levels=None):
        if integrator == "implicit":
            return implicit_euler_step(st, dt)
        sch = scheme if levels is None else mood_cfg.schemes
        explicit = forward_euler_step if integrator == "fe" else ssp_rk2_step
        return explicit(st, sch, dt, levels=levels)

    n = 0
    while state.t < t_end - 1e-12 and (max_steps is None or n < max_steps):
        alpha = np.maximum.reduce([state.alpha(m) for m in modes])
        dt = min(positivity.admissible_timestep(state.disc, alpha, cfl, dt_max), t_end - state.t)
        if mood_cfg is None:
            state, report = step(state, dt), None
        else:
            state, report = mood.mood_step(state, dt, mood_cfg, step)
        n += 1
        yield state, dt, report
