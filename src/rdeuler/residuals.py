"""Element residual catalog.

Every residual splits an element's total boundary-flux integral into
per-DOF signals that sum back to that total.  The catalog covers the
pure (continuous) Galerkin form, Galerkin with gradient-jump
stabilization, the discontinuous form with a Rusanov interface flux,
the local Lax-Friedrichs distribution in its pointwise-flux and
interpolated-flux versions, and the nonlinear limited distribution
built on top of it.
"""

from dataclasses import dataclass, field

import numpy as np

from .discretization import Discretization, PointValues, StageFields, elem_mean
from .errors import ConfigError

BASES = ("galerkin", "galerkin_jump", "dg", "lxf", "limited_lxf")
LXF_FAMILY = ("lxf", "limited_lxf")
MODIFIERS = {"ec": ("correction", True), "jump": ("diffusion", True),
             "interp": ("flux_mode", "interpolated")}
# The limited distribution keeps the LxF one where an element total or a
# positive-part sum falls below this.
LIMITER_GUARD = 1e-14


@dataclass(frozen=True)
class Scheme:
    """Residual recipe: base distribution plus optional corrections."""

    base: str = "galerkin"
    correction: bool = False      # entropy correction term
    diffusion: bool = False       # entropy jump diffusion
    lambda_jump: float = None     # None: local max wavespeed
    zeta: float = 2.0
    flux_mode: str = "pointwise"  # "pointwise" | "interpolated" (lxf family)

    def __post_init__(self):
        if self.base not in BASES:
            raise ConfigError(f"unknown scheme base {self.base!r}")
        if self.flux_mode not in ("pointwise", "interpolated"):
            raise ConfigError(f"unknown flux mode {self.flux_mode!r}")
        if self.flux_mode == "interpolated" and self.base not in LXF_FAMILY:
            raise ConfigError(f"+interp applies to the LxF family only, not to {self.base!r}")
        if not self.zeta >= 2.0:                 # NaN fails too
            raise ConfigError("zeta must be >= 2")

    @classmethod
    def parse(cls, text):
        """Parse strings like ``galerkin+ec+jump`` or ``lxf``: a base and
        each modifier at most once."""
        base, *mods = text.strip().lower().split("+")
        kwargs = {"base": base}
        for m in mods:
            if m not in MODIFIERS:
                raise ConfigError(f"unknown scheme modifier {m!r}")
            key, value = MODIFIERS[m]
            if key in kwargs:
                raise ConfigError(f"scheme modifier {m!r} repeats in {text!r}")
            kwargs[key] = value
        return cls(**kwargs)

    def label(self):
        mods = (m for m, (key, value) in MODIFIERS.items() if getattr(self, key) == value)
        return "+".join((self.base, *mods))


@dataclass
class ElementResidual:
    """Per-DOF signals and element totals for one residual evaluation."""

    phi: np.ndarray          # (M, N_K, 4)
    total: np.ndarray        # (M, 4)
    scheme: str
    alpha: np.ndarray = field(default=None)   # (M,) for the LxF family


def _normal_flux(f, n):
    """f . n for a flux table f (..., 4, 2) and normals n (..., 2).

    The sum runs over the two directions from zero, as ``np.einsum``
    sums, so that the bits do not depend on the memory order of f.
    """
    n = n[..., None, :]
    out = np.multiply(f[..., 0], n[..., 0])
    np.add(0.0, out, out=out)
    out += f[..., 1] * n[..., 1]
    return out


def _rusanov(L, R, n):
    """Rusanov flux of the PointValues L and R through normal n."""
    s = np.maximum(L.wavespeed, R.wavespeed)
    central = 0.5 * _normal_flux(L.flux + R.flux, n)
    return central - 0.5 * s[..., None] * (R.U - L.U)


def rusanov_flux(U_L, U_R, n, gas):
    """Rusanov (local Lax-Friedrichs) numerical flux through normal n."""
    L = PointValues(np.asarray(U_L, dtype=float), gas)
    R = PointValues(np.asarray(U_R, dtype=float), gas)
    return _rusanov(L, R, np.asarray(n, dtype=float))


def interface_flux(fields: StageFields):
    """Numerical flux (already dotted with the left normal) per interface.

    Continuous spaces use the single-valued trace evaluated once from
    the left owner; discontinuous spaces use the Rusanov flux of the two
    traces.  Returns shape (E, nq, 4).  Here and in the residuals below,
    the kernel reads the space, the gas and U from ``fields``.
    """
    disc = fields.disc
    if disc.dofmap.space == "s2":
        return _normal_flux(fields.trace_L.flux, disc.if_normal[:, None, :])
    return _rusanov(fields.trace_L, fields.trace_R, disc.if_normal[:, None, :])


def boundary_totals(disc: Discretization, fnum):
    """Element totals of the boundary flux quadrature, shape (M, 4).

    One quadrature per interface feeds both owners with opposite signs,
    so the global sum telescopes to round-off.
    """
    T = disc.if_length[:, None] * np.tensordot(fnum, disc.edge_weights, axes=([1], [0]))
    return disc.scatter_interface(T, -T)


def _galerkin_parts(fields: StageFields, fnum):
    """Boundary scatter and volume term of the Galerkin-form residual."""
    disc = fields.disc
    coef = np.matmul(disc.if_vals_L_wl, fnum)             # (E, N, 4)
    coef_R = np.matmul(disc.if_vals_R_wl, -fnum)
    bnd = disc.scatter_interface(coef, coef_R)
    fq = fields.interior.flux                             # (M, nq, 4, 2)
    M, nq = fq.shape[:2]
    f2 = fq.transpose(0, 1, 3, 2).reshape(M, nq * 2, 4)
    vol = np.matmul(disc.int_gradw_mat, f2)               # (M, N, 4)
    return bnd, vol


def galerkin_residual(fields: StageFields) -> ElementResidual:
    """Galerkin distribution: oint phi f.n - int grad(phi).f per DOF.

    On the discontinuous space f.n is the Rusanov interface flux, which
    makes this the discontinuous (``dg``) distribution.
    """
    fnum = interface_flux(fields)
    bnd, vol = _galerkin_parts(fields, fnum)
    return ElementResidual(
        phi=bnd - vol, total=boundary_totals(fields.disc, fnum), scheme="galerkin"
    )


def gradient_jump_terms(disc: Discretization, U_elem, coeff):
    """Interface penalty on gradient jumps, per-DOF, conservative per element.

    For each interface the jump of the field gradient is tested against
    minus the own-side basis gradient on the left and the own-side basis
    gradient on the right, on the p-point rule of the jump; each
    element's contributions then sum to zero because the basis gradients
    do.  ``coeff`` has shape (E,) and carries the lambda_e h_e^2 weight.
    """
    jump = disc.trace_grad_jump(U_elem)                              # (E, p, C, 2)
    E, p, C = jump.shape[:3]
    jw = (jump * disc.jump_weights[None, :, None, None]).swapaxes(-1, -2).reshape(E, 2 * p, C)
    # contract the owner gradients against the jump over (q, i)
    G = disc.if_jump_grads
    con = np.matmul(G.reshape(E, 2 * p, -1).swapaxes(1, 2), jw)       # (E, 2N, C)
    con *= (coeff * disc.if_length)[:, None, None]
    N = G.shape[-1] // 2
    return disc.scatter_interface(con[:, :N], con[:, N:])


def galerkin_jump_residual(fields: StageFields, lambda_e=1.0) -> ElementResidual:
    """Galerkin distribution plus lambda_e h_e^2 gradient-jump stabilization."""
    disc = fields.disc
    if disc.dofmap.space != "s2":
        raise ConfigError("jump-stabilized Galerkin needs the continuous space")
    base = galerkin_residual(fields)
    jumps = gradient_jump_terms(disc, fields.U_elem, lambda_e * disc.if_length**2)
    return ElementResidual(
        phi=base.phi + jumps, total=base.total, scheme="galerkin_jump"
    )


def _interpolated_lxf(fields: StageFields, alpha):
    disc, U_elem = fields.disc, fields.U_elem
    f_dofs = fields.dofs.flux                                      # (M, N, 4, 2)
    M, N = U_elem.shape[:2]
    # contract over (k, i) as batched matmuls against views of the tables
    f2 = f_dofs.transpose(0, 1, 3, 2).reshape(M, 2 * N, 4)
    div_part = np.matmul(disc.phi_grad_integrals.reshape(M, N, 2 * N), f2)
    total = div_part.sum(axis=1)                  # sum_sigma phi_sigma = 1
    dev = U_elem - elem_mean(U_elem)[:, None]
    return div_part + alpha[:, None, None] * dev, total


def lxf_residual(fields: StageFields, alpha, flux_mode="pointwise") -> ElementResidual:
    """Local Lax-Friedrichs distribution total/N_K + alpha (U_sigma - mean).

    ``pointwise`` evaluates the element total by boundary quadrature of
    the space's base flux; ``interpolated`` uses the nodal flux
    interpolant, which is the form covered by the explicit positivity
    bound.
    """
    disc = fields.disc
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (disc.mesh.n_tris,))
    if np.any(alpha < 0):
        raise ValueError("alpha must be nonnegative")
    if flux_mode == "interpolated":
        phi, total = _interpolated_lxf(fields, alpha)
        return ElementResidual(phi=phi, total=total, scheme="lxf", alpha=alpha)
    total = boundary_totals(disc, interface_flux(fields))
    U_elem = fields.U_elem
    dev = U_elem - elem_mean(U_elem)[:, None]
    phi = total[:, None, :] / disc.dofmap.n_local + alpha[:, None, None] * dev
    return ElementResidual(phi=phi, total=total, scheme="lxf", alpha=alpha)


def beta_coefficients(x):
    """Limiter weights max(x,0)/sum(max(x,0)) along axis 0.

    Returns (beta, valid) where ``valid`` is False when the positive
    part sums below LIMITER_GUARD and the caller must fall back.
    """
    x = np.asarray(x, dtype=float)
    pos = np.maximum(x, 0.0)
    s = pos.sum(axis=0)
    valid = s >= LIMITER_GUARD
    beta = pos / np.where(valid, s, 1.0)
    return beta, valid


def limited_lxf_residual(fields: StageFields, alpha, flux_mode="pointwise") -> ElementResidual:
    """Limited distribution beta_sigma * total, componentwise.

    Ratios x_sigma = phi_sigma^LxF / total are limited to nonnegative
    weights summing to one.  Components whose element total falls below
    LIMITER_GUARD, or whose positive-part sum degenerates, keep the
    unlimited LxF distribution.
    """
    base = lxf_residual(fields, alpha, flux_mode=flux_mode)
    total = base.total                                             # (M, 4)
    small = np.abs(total) < LIMITER_GUARD
    denom = np.where(small, 1.0, total)
    x = base.phi / denom[:, None, :]
    beta, valid = beta_coefficients(np.moveaxis(x, 1, 0))
    beta = np.moveaxis(beta, 0, 1)
    limited = beta * total[:, None, :]
    use_lxf = (small | ~valid)[:, None, :]
    phi = np.where(use_lxf, base.phi, limited)
    return ElementResidual(phi=phi, total=total, scheme="limited_lxf", alpha=base.alpha)


def conservation_defect(fields: StageFields, res: ElementResidual):
    """Scaled distance between the per-DOF sum and the element flux total.

    The scale is the boundary quadrature of the flux magnitude, floored
    at one so that injected O(1) errors read off directly.
    """
    disc = fields.disc
    fnum = interface_flux(fields)
    mag = disc.if_length * np.einsum(
        "q,eq->e", disc.edge_weights, np.linalg.norm(fnum, axis=-1)
    )
    scale = np.maximum(disc.scatter_interface(mag, mag), 1.0)
    defect = np.linalg.norm(res.phi.sum(axis=1) - res.total, axis=-1)
    return defect / scale


def base_residual(fields: StageFields, scheme: Scheme, alpha=None) -> ElementResidual:
    """Dispatch on the scheme base; alpha is required for the LxF family."""
    if scheme.base == "galerkin":
        return galerkin_residual(fields)
    if scheme.base == "galerkin_jump":
        lam = 1.0 if scheme.lambda_jump is None else scheme.lambda_jump
        return galerkin_jump_residual(fields, lambda_e=lam)
    if scheme.base == "dg":
        if fields.disc.dofmap.space != "s1":
            raise ConfigError("the discontinuous distribution needs the S1 space")
        return galerkin_residual(fields)
    if alpha is None:
        raise ValueError("LxF-family schemes need the dissipation bound alpha")
    if scheme.base == "lxf":
        return lxf_residual(fields, alpha, flux_mode=scheme.flux_mode)
    return limited_lxf_residual(fields, alpha, flux_mode=scheme.flux_mode)
