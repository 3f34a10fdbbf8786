"""Entropy correction and entropy jump diffusion.

The correction redistributes each element's entropy-balance mismatch
E = oint g_num - sum <V_sigma, Phi_sigma> along the deviations of the
entropy variables, which restores the discrete entropy equality without
touching the element total.  The diffusion term adds, per interface, a
nonnegative entropy production proportional to the squared jump of
grad(V) (continuous space) or of V itself (discontinuous space); each
owner element is asked to carry half of it through the same
deviation-based redistribution, with the coefficient capped at the
penalty's magnitude scale for boundedness.  Element sums stay zero and
the achieved production is nonnegative, so the per-element entropy
inequality holds exactly; where the cap is inactive the balance is an
equality.
"""

from dataclasses import dataclass

import numpy as np

from . import euler
from .discretization import StageFields, elem_mean, last_axis_max
from .residuals import Scheme, base_residual

DENOM_GUARD = 1e-14

# Default interface-diffusion coefficient: this fraction of the local
# maximum wavespeed.  The bare wavespeed makes the penalty explosively
# stiff for explicit stepping on under-resolved data; values of order
# 0.01 are the usual range for gradient-jump stabilization constants.
JUMP_COEFF = 0.005


def _entropy_rusanov(L, R, n):
    """Rusanov-form entropy flux of the PointValues L and R through normal n,
    consistent with g = eta u."""
    gas = L.gas
    gL = euler.entropy_flux(L.U, gas, p=L.p)
    gR = euler.entropy_flux(R.U, gas, p=R.p)
    s = np.maximum(L.wavespeed, R.wavespeed)
    central = 0.5 * np.einsum("...i,...i->...", gL + gR, n)
    return central - 0.5 * s * (
        euler.entropy_eta(R.U, gas, p=R.p) - euler.entropy_eta(L.U, gas, p=L.p)
    )


def interface_entropy_flux(fields: StageFields):
    """g_num per interface quadrature point (E, nq), left normal.

    Here and below, the kernels read the space, the gas and U from ``fields``.
    """
    disc, tL = fields.disc, fields.trace_L
    if disc.dofmap.space == "s2":
        g = euler.entropy_flux(tL.U, fields.gas, p=tL.p)
        return np.einsum("eqi,ei->eq", g, disc.if_normal)
    return _entropy_rusanov(tL, fields.trace_R, disc.if_normal[:, None, :])


def element_entropy_boundary(fields: StageFields):
    """oint_dK g_num per element, (M,); telescopes globally."""
    disc = fields.disc
    gq = interface_entropy_flux(fields)
    G = disc.if_length * (gq @ disc.edge_weights)
    return disc.scatter_interface(G, -G)


def _deviations(V_elem):
    dev = V_elem - elem_mean(V_elem)[:, None]
    denom = np.einsum("mnc,mnc->m", dev, dev)
    scale = np.einsum("mnc,mnc->m", V_elem, V_elem) / V_elem.shape[1]
    ok = denom >= DENOM_GUARD * np.maximum(scale, 1.0)
    return dev, denom, ok


def _correction(V_elem, deviations, phi, g_boundary):
    """Entropy correction r_sigma = alpha (V_sigma - mean V).

    alpha matches the mismatch E = g_boundary - sum<V, phi>; the guard
    zeroes the correction on (numerically) constant elements, where E
    vanishes as well.  ``deviations`` is ``_deviations(V_elem)``.
    Returns r, (M, N, 4).
    """
    E = g_boundary - np.einsum("mnc,mnc->m", V_elem, phi)
    dev, denom, ok = deviations
    alpha = np.where(ok, E / np.where(ok, denom, 1.0), 0.0)
    return alpha[:, None, None] * dev


def _field_deviations(fields: StageFields):
    """_deviations of the fields' entropy variables, computed once per fields."""
    return fields.cached("deviations", lambda: _deviations(fields.V_elem))


def grad_jump_integral(fields: StageFields):
    """oint_e ||[grad V]||^2 per interface of the fields' entropy variables,
    (E,), on the p-point rule of the jump; computed once per fields."""
    def build():
        disc = fields.disc
        jump = disc.trace_grad_jump(fields.V_elem)                    # (E,p,C,2)
        jump *= jump
        return jump.sum(axis=(2, 3)) @ disc.jump_weights

    return fields.cached("grad_jump", build)


def edge_jump_production(fields: StageFields, lam=None, zeta=2.0):
    """Entropy production per interface, (E,), plus the lambda_e used.

    Continuous space: lam_e h_e^zeta oint ||[grad V]||^2; discontinuous
    space: lam_e oint ||[V]||^2.  lam defaults to the maximum wavespeed
    over the interface traces.
    """
    disc = fields.disc
    if lam is None:
        lam_e = JUMP_COEFF * np.maximum(
            fields.trace_L.peak_wavespeed, fields.trace_R.peak_wavespeed
        )
    else:
        lam_e = np.full(disc.if_length.shape[0], float(lam))
    if disc.dofmap.space == "s2":
        D = lam_e * disc.if_h**zeta * disc.if_length * grad_jump_integral(fields)
    else:
        VL, VR = disc.traces(fields.V_elem)
        jump = VR - VL                                                # (E,nq,4)
        sq = (jump * jump).sum(axis=2) @ disc.edge_weights
        D = lam_e * disc.if_length * sq
    return D, lam_e


def _distribute(deviations, target, a_max):
    """Per-DOF signals a(V - mean V) carrying a prescribed entropy production.

    ``deviations`` is ``_deviations(V_elem)``.  Conservative per element
    by construction.  The coefficient is capped at ``a_max`` (the
    magnitude scale of a gradient-jump penalty), which keeps the term
    bounded on elements whose internal variation is small compared to
    the neighboring jumps; the achieved production
    a * sum||V - mean V||^2 <= target is reported alongside.
    """
    dev, denom, ok = deviations
    a = np.minimum(np.where(ok, target / np.where(ok, denom, 1.0), 0.0), a_max)
    psi = a[:, None, None] * dev
    achieved = a * denom
    return psi, achieved


def jump_diffusion(fields: StageFields, lam=None, zeta=2.0):
    """Entropy-dissipative interface diffusion.

    Returns (psi, achieved): per-DOF signals (M, N, 4) with zero element
    sums and the per-element achieved production.  Each owner element is
    asked to carry half of its interfaces' production
    (``edge_jump_production``), with the redistribution coefficient
    capped at lam_K h_K (lam_K the largest lambda_e of its interfaces).
    """
    disc = fields.disc
    D, lam_e = edge_jump_production(fields, lam=lam, zeta=zeta)
    share = disc.scatter_interface(0.5 * D, 0.5 * D)
    lam_k = last_axis_max(lam_e[disc.mesh.elem_edges])
    a_max = lam_k * disc.mesh.diameters
    return _distribute(_field_deviations(fields), share, a_max)


@dataclass
class CorrectedResidual:
    theta: np.ndarray             # (M, N, 4) per-DOF signals
    production: np.ndarray        # (M,) achieved entropy production


def corrected_residual(fields: StageFields, scheme: Scheme, alpha=None):
    """Base residual plus entropy correction and jump diffusion.

    A scheme with neither term does no entropy work: theta is the base
    residual.  The entropy boundary flux is computed under ``+ec`` only,
    and the production is zero without ``+jump``.
    """
    phi = base_residual(fields, scheme, alpha=alpha)
    production = np.zeros(phi.shape[0])
    if not (scheme.correction or scheme.diffusion):
        return CorrectedResidual(theta=phi, production=production)
    r = psi = np.zeros_like(phi)
    if scheme.correction:
        r = _correction(fields.V_elem, _field_deviations(fields), phi,
                        element_entropy_boundary(fields))
    if scheme.diffusion:
        psi, production = jump_diffusion(fields, lam=scheme.lambda_jump, zeta=scheme.zeta)
    # (phi + r) + psi, with r = 0 without +ec: the order fixes the bits
    theta = phi + r
    theta += psi
    return CorrectedResidual(theta=theta, production=production)
