"""Pointwise algebra for the 2D compressible Euler equations.

Conserved vectors are numpy arrays with a trailing axis of length 4
holding (rho, m_x, m_y, E).  All functions broadcast over leading axes,
so a whole field of states can be processed in one call.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonPositivePressure, VacuumState


@dataclass(frozen=True)
class GasModel:
    """Perfect-gas parameters and admissibility floors."""

    gamma: float = 1.4
    rho_floor: float = 1e-12
    e_floor: float = 1e-12

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")


def conserved(rho, ux, uy, p, gas: GasModel):
    """Assemble (rho, m_x, m_y, E) from primitive values."""
    rho = np.asarray(rho, dtype=float)
    ux = np.asarray(ux, dtype=float)
    uy = np.asarray(uy, dtype=float)
    p = np.asarray(p, dtype=float)
    E = p / (gas.gamma - 1.0) + 0.5 * rho * (ux * ux + uy * uy)
    return np.stack(np.broadcast_arrays(rho, rho * ux, rho * uy, E), axis=-1)


def velocity(U):
    """Velocity vector m/rho, shape (..., 2)."""
    U = np.asarray(U, dtype=float)
    return U[..., 1:3] / U[..., 0:1]


def internal_energy(U):
    """Specific internal energy density rho*e = E - |m|^2/(2 rho)."""
    U = np.asarray(U, dtype=float)
    m2 = U[..., 1] ** 2 + U[..., 2] ** 2
    return U[..., 3] - 0.5 * m2 / U[..., 0]


def pressure(U, gas: GasModel, check=True):
    """Pressure p = (gamma-1) * rho*e of a perfect gas."""
    U = np.asarray(U, dtype=float)
    if check and np.any(~(U[..., 0] > gas.rho_floor)):
        raise VacuumState("density at or below floor")
    p = (gas.gamma - 1.0) * internal_energy(U)
    if check and np.any(~(p > 0.0)):
        raise NonPositivePressure("pressure not positive")
    return p


def _given_or_pressure(U, gas, p):
    return pressure(U, gas) if p is None else p


def sound_speed(U, gas: GasModel, p=None):
    return np.sqrt(gas.gamma * _given_or_pressure(U, gas, p) / np.asarray(U)[..., 0])


def flux(U, gas: GasModel, p=None):
    """Euler flux table, shape (..., 4, 2).

    Column m holds (rho u_m, u_m m + p e_m, u_m (E + p)).  Here and in
    the functions below, ``p`` is the pressure of U when the caller has
    it (checked when it was computed); it is then not recomputed.
    """
    U = np.asarray(U, dtype=float)
    p = _given_or_pressure(U, gas, p)
    rho = U[..., 0]
    mx = U[..., 1]
    my = U[..., 2]
    ux = mx / rho
    uy = my / rho
    Ep = U[..., 3] + p
    # one contiguous column per direction: f views a (..., 2, 4) array
    f = np.empty(U.shape[:-1] + (2, 4)).swapaxes(-1, -2)
    f[..., 0, 0] = mx
    f[..., 1, 0] = mx * ux + p
    f[..., 2, 0] = my * ux
    f[..., 3, 0] = ux * Ep
    f[..., 0, 1] = my
    f[..., 1, 1] = mx * uy
    f[..., 2, 1] = my * uy + p
    f[..., 3, 1] = uy * Ep
    return f


def entropy_eta(U, gas: GasModel, p=None):
    """Mathematical entropy eta = -rho s / (gamma - 1), s = log(p / rho^gamma)."""
    U = np.asarray(U, dtype=float)
    p = _given_or_pressure(U, gas, p)
    rho = U[..., 0]
    s = np.log(p) - gas.gamma * np.log(rho)
    return -rho * s / (gas.gamma - 1.0)


def entropy_flux(U, gas: GasModel, p=None):
    """Entropy flux g = eta * u, shape (..., 2)."""
    eta = entropy_eta(U, gas, p=p)
    return eta[..., None] * velocity(U)


def entropy_vars(U, gas: GasModel, p=None):
    """Entropy variables V = d eta / d U, shape (..., 4)."""
    U = np.asarray(U, dtype=float)
    p = _given_or_pressure(U, gas, p)
    rho = U[..., 0]
    g = gas.gamma
    s = np.log(p) - g * np.log(rho)
    u = U[..., 1:3] / rho[..., None]
    u2 = u[..., 0] ** 2 + u[..., 1] ** 2
    V = np.empty_like(U)
    V[..., 0] = g / (g - 1.0) - s / (g - 1.0) - rho * u2 / (2.0 * p)
    V[..., 1] = rho * u[..., 0] / p
    V[..., 2] = rho * u[..., 1] / p
    V[..., 3] = -rho / p
    return V


def max_wavespeed(U, gas: GasModel, p=None):
    """|u| + a with sound speed a = sqrt(gamma p / rho)."""
    U = np.asarray(U, dtype=float)
    a = sound_speed(U, gas, p=p)
    rho = U[..., 0]
    return np.hypot(U[..., 1] / rho, U[..., 2] / rho) + a


def admissible(U, gas: GasModel):
    """Membership in the admissible set: rho and internal energy above floors.

    NaN or Inf entries yield False.
    """
    U = np.asarray(U, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        ok = np.isfinite(U).all(axis=-1)
        rho_ok = U[..., 0] >= gas.rho_floor
        e = internal_energy(U)
        e_ok = e >= gas.e_floor
    return ok & rho_ok & np.where(np.isfinite(e), e_ok, False)
