"""Run diagnostics: weak-BV norm, consistency errors and their period-10
cosine test functions, entropy budget, entropy-production monitor, and
error norms with observed convergence orders.

The consistency decomposition follows a fixed discrete-time convention:
time integrals use the rectangle rule at the stage-start state, the
test-function time derivative is folded exactly as a telescoping sum,
and the lumped pairing against the piecewise-constant shadow of the test
function uses the dual volumes.  Under these conventions the three terms
for density and momentum reproduce the directly evaluated weak-form
defect to round-off for every scheme, the interpolated-flux ones
included, which is asserted by the test suite.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import euler
from .discretization import Discretization, StageFields
from .errors import MeshMismatch
from .residuals import Scheme
from .stabilization import grad_jump_integral
from .stepping import FieldState, scatter_residuals


@dataclass
class RunRecord:
    """Every-step snapshot trail of one run, for post-processing.

    ``states`` holds the DOF arrays; ``state(n)`` wraps one of them in a
    FieldState on first use, so every diagnostic of a record shares the
    residuals and stage fields of each stored state.
    """

    disc: Discretization
    gas: euler.GasModel
    scheme: object
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    dts: list = field(default_factory=list)
    _field_states: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def state(self, n):
        """FieldState of stored state n, built once per stored array."""
        U = self.states[n]
        st = self._field_states.get(n)
        if st is None or st.U is not U:
            st = self._field_states[n] = FieldState(self.times[n], U, self.disc, self.gas)
        return st


def weak_bv_norm(fields: StageFields, zeta=2.0):
    """Edge-jump seminorm (squared): sum_e h_e^zeta d oint ||[grad V]||^2.

    The integral is the fields' ``grad_jump_integral``, which the jump
    diffusion of the same fields shares.
    """
    disc = fields.disc
    d = 2.0
    return float(np.sum(disc.if_h**zeta * d * disc.if_length * grad_jump_integral(fields)))


def _test_values(fn, t, X, component, grad=False):
    """A test function (or, with ``grad``, its gradient) at the points X
    with a trailing component axis, (..., C) (or (..., C, 2)); a scalar
    'rho' or 'eta' function has C = 1."""
    out = np.asarray(fn(t, X[..., 0], X[..., 1]), dtype=float)
    if component == "m":
        return out
    return out[..., None, :] if grad else out[..., None]


def _volume_quad(disc, integrand_q):
    """sum_K |K| sum_q w integrand(x_q); integrand shape (M, nq, ...)."""
    return float(
        np.sum(
            disc.mesh.areas
            * np.einsum("q,mq->m", disc.int_weights, integrand_q)
        )
    )


def _component_slice(component):
    if component == "rho":
        return [0]
    if component == "m":
        return [1, 2]
    raise ValueError("component must be 'rho', 'm' or 'eta'")


def weak_form_defect(run: RunRecord, phi, grad_phi, component):
    """Directly evaluated weak-form defect, the oracle the terms must match.

    D = [Q(U phi)]_0^T - sum_n Q(U^{n+1}(phi^{n+1}-phi^n))
        - sum_n dt_n Q(f(U^n) : grad phi).
    """
    disc, gas = run.disc, run.gas
    comps = _component_slice(component)
    X = disc.int_phys

    def at_points(n):
        return disc.interior_field(disc.elem_values(run.states[n]))

    def pairing(Uq, ph):
        return _volume_quad(disc, np.einsum("mqc,mqc->mq", Uq[..., comps], ph))

    total = 0.0
    for i, n in ((1, len(run.states) - 1), (-1, 0)):
        total += i * pairing(at_points(n), _test_values(phi, run.times[n], X, component))
    for n, dt in enumerate(run.dts):
        dph = (_test_values(phi, run.times[n + 1], X, component)
               - _test_values(phi, run.times[n], X, component))
        total -= pairing(at_points(n + 1), dph)
        f = euler.flux(at_points(n), gas)[..., comps, :]
        gph = _test_values(grad_phi, run.times[n], X, component, grad=True)
        total -= dt * _volume_quad(disc, np.einsum("mqci,mqci->mq", f, gph))
    return total


def consistency_error(run: RunRecord, phi, grad_phi, component):
    """Consistency-error decomposition for one smooth periodic test function.

    ``phi(t, x, y)`` returns a scalar for 'rho'/'eta' and a 2-vector for
    'm'; ``grad_phi`` returns the matching spatial gradient.  Terms:
    (I) the deviation of the residual from the Galerkin one, paired with
    the test function at the DOFs, (II) mismatch between the quadrature
    and lumped pairings, (III) interpolation defect of the test function
    against the flux, and for the entropy component (IV) the dissipation
    total.  Where the two residuals have equal element totals, term I is
    the pairing with test-function differences phi_sigma - mean_K phi;
    the interpolated-flux LxF totals differ from the Galerkin ones, and
    term I keeps that difference.
    """
    disc, gas = run.disc, run.gas
    if any(s.shape[0] != disc.dofmap.n_dofs for s in run.states):
        raise MeshMismatch("snapshots do not match the discretization")
    dofs_x = disc.dofmap.dof_points
    X = disc.int_phys
    is_eta = component == "eta"
    comps = None if is_eta else _component_slice(component)

    term_I = 0.0
    term_III = 0.0
    term_IV = 0.0
    for n, dt in enumerate(run.dts):
        state = run.state(n)
        U = state.U
        res = state.residual(run.scheme)
        theta = res.theta
        gal = state.residual(Scheme()).theta
        phe = _test_values(phi, run.times[n], dofs_x, component)[disc.dofmap.elem_dofs]  # (M, N, C)
        if is_eta:
            V_elem = euler.entropy_vars(disc.elem_values(U), gas)
            xi = np.einsum("mnc,mnc->mn", V_elem, theta)
            xig = np.einsum("mnc,mnc->mn", V_elem, gal)
            dev = (xi - xig)[..., None]
            term_IV += dt * float(np.sum(res.production))
        else:
            dev = theta[..., comps] - gal[..., comps]
        term_I -= dt * float(np.sum(phe * dev))

        # (III): interpolation defect of phi against the flux
        Uq = disc.interior_field(disc.elem_values(U))
        gph = _test_values(grad_phi, run.times[n], X, component, grad=True)  # (M, nq, C, 2)
        gint = np.einsum("mqni,mnc->mqci", disc.int_grads, phe)
        if is_eta:
            f = euler.entropy_flux(Uq, gas)[..., None, :]
        else:
            f = euler.flux(Uq, gas)[..., comps, :]
        term_III += dt * _volume_quad(disc, np.einsum("mqci,mqci->mq", gint - gph, f))

    term_II = 0.0
    for n in range(len(run.dts)):
        U0, U1 = run.states[n], run.states[n + 1]
        phv = _test_values(phi, run.times[n], dofs_x, component)         # (n_dofs, C)
        ph_q = _test_values(phi, run.times[n], X, component)             # (M, nq, C)
        if is_eta:
            d_q = (euler.entropy_eta(disc.interior_field(disc.elem_values(U1)), gas)
                   - euler.entropy_eta(disc.interior_field(disc.elem_values(U0)), gas))[..., None]
            dU = (euler.entropy_eta(U1, gas) - euler.entropy_eta(U0, gas))[:, None]
        else:
            d_q = disc.interior_field(disc.elem_values(U1 - U0))[..., comps]
            dU = (U1 - U0)[:, comps]
        quad = _volume_quad(disc, np.einsum("mqc,mqc->mq", d_q, ph_q))
        lump = float(np.sum(disc.dual.c_sigma[:, None] * phv * dU))
        term_II += quad - lump

    out = {"I": term_I, "II": term_II, "III": term_III}
    if is_eta:
        out["IV"] = term_IV
        out["total"] = term_I + term_II + term_III + term_IV
    else:
        out["total"] = term_I + term_II + term_III
    return out


_K10 = 2.0 * np.pi / 10.0


def cos_phi(t, x, y):
    """cos(kx) cos(ky) with k = 2 pi / 10, a scalar test function periodic
    on the 10 x 10 square, for 'rho' and 'eta'."""
    return np.cos(_K10 * x) * np.cos(_K10 * y)


def cos_grad_phi(t, x, y):
    k = _K10
    return np.stack(
        [-k * np.sin(k * x) * np.cos(k * y), -k * np.cos(k * x) * np.sin(k * y)], axis=-1
    )


def cos_phi_m(t, x, y):
    """(cos(kx) cos(ky), sin(kx) cos(ky)), the test function for 'm'."""
    return np.stack([cos_phi(t, x, y), np.sin(_K10 * x) * np.cos(_K10 * y)], axis=-1)


def cos_grad_phi_m(t, x, y):
    k = _K10
    g2 = np.stack(
        [k * np.cos(k * x) * np.cos(k * y), -k * np.sin(k * x) * np.sin(k * y)], axis=-1
    )
    return np.stack([cos_grad_phi(t, x, y), g2], axis=-2)


# component -> (phi, grad_phi) of the period-10 cosine test functions
COSINE_TEST_FUNCTIONS = {"rho": (cos_phi, cos_grad_phi), "m": (cos_phi_m, cos_grad_phi_m)}


def entropy_budget(run: RunRecord):
    """Per-step entropy increment, dissipation and their defect."""
    disc, gas = run.disc, run.gas
    rows = []
    for n, dt in enumerate(run.dts):
        S0 = float(
            np.sum(disc.dual.c_sigma * euler.entropy_eta(run.states[n], gas))
        )
        S1 = float(
            np.sum(disc.dual.c_sigma * euler.entropy_eta(run.states[n + 1], gas))
        )
        prod = dt * float(np.sum(run.state(n).residual(run.scheme).production))
        rows.append(
            {
                "t": run.times[n + 1],
                "increment": S1 - S0,
                "production": prod,
                "defect": (S1 - S0) + prod,
            }
        )
    return rows


def entropy_production_monitor(disc: Discretization, gas, U_n, U_np1, dt, scheme):
    """Per-DOF discrete entropy production of one explicit step.

    D_sigma = eta(U^{n+1}) - eta(U^n) + dt/|C| <V^n, R_sigma>, which
    vanishes for a reproduced constant state and is quadratically small
    in dt.
    """
    R = scatter_residuals(disc, FieldState(0.0, U_n, disc, gas).residual(scheme).theta)
    V = euler.entropy_vars(U_n, gas)
    d = (
        euler.entropy_eta(U_np1, gas)
        - euler.entropy_eta(U_n, gas)
        + dt / disc.dual.c_sigma * np.einsum("sc,sc->s", V, R)
    )
    return d


def primitive_errors(disc: Discretization, gas, U, exact_fn, t):
    """Quadrature L1 errors of rho, x-velocity and pressure vs a reference,
    divided by the domain area.

    ``exact_fn(t, x, y)`` returns conserved states at arbitrary points.
    """
    Uq = disc.interior_field(disc.elem_values(U))
    X = disc.int_phys
    Ue = np.asarray(exact_fn(t, X[..., 0], X[..., 1]), dtype=float)
    diffs = {
        "rho": Uq[..., 0] - Ue[..., 0],
        "u": euler.velocity(Uq)[..., 0] - euler.velocity(Ue)[..., 0],
        "p": euler.pressure(Uq, gas) - euler.pressure(Ue, gas, check=False),
    }
    area = float(np.sum(disc.mesh.areas))
    return {k: _volume_quad(disc, np.abs(d)) / area for k, d in diffs.items()}


ROUNDOFF_FLOOR = 1e-12  # of the mean absolute errors of primitive_errors


def convergence_order(errors, h_list):
    """Pairwise observed orders log(e_c/e_f)/log(h_c/h_f).

    Two errors that are both below ``ROUNDOFF_FLOOR`` (1e-12, about 4500
    ulps of 1) compare round-off, not discretization errors, and leave
    the order nan: the constant problem is reproduced to a density error
    of 3e-16 and a velocity error of 0, while the errors of criterion 3's
    vortex family are 6.6e-4 and above.
    """
    errors = np.asarray(errors, dtype=float)
    h = np.asarray(h_list, dtype=float)
    orders = []
    for i in range(len(h) - 1):
        if h[i] == h[i + 1]:
            warnings.warn("identical mesh sizes, order undefined")
            orders.append(float("nan"))
        elif np.all(errors[i:i + 2] < ROUNDOFF_FLOOR):
            orders.append(float("nan"))
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                orders.append(float(np.log(errors[i] / errors[i + 1]) / np.log(h[i] / h[i + 1])))
    return orders
