"""Initial conditions: moving isentropic vortex, smoothed density/pressure
pulse (Sod-like states) and uniform flow."""

import numpy as np

from . import euler
from .errors import ConfigError, InadmissibleParameters


class VortexProblem:
    """Isentropic vortex advected by a uniform free stream.

    The perturbation decays like exp((1 - r^2)/2); on a periodic box the
    exact solution at time t is the initial field translated by the free
    stream, wrapped around the domain.
    """

    def __init__(self, bbox, gas, beta=5.0, u_inf=1.0, v_inf=0.0, center=(0.0, 0.0)):
        self.bbox = bbox
        self.gas = gas
        self.beta = float(beta)
        self.u_inf = float(u_inf)
        self.v_inf = float(v_inf)
        self.center = np.asarray(center, dtype=float)
        g = gas.gamma
        try:
            t_center = 1.0 - (g - 1.0) * self.beta**2 / (8.0 * g * np.pi**2) * np.exp(1.0)
        except OverflowError:
            t_center = -np.inf      # beta**2 beyond the float range
        if not t_center > gas.e_floor:
            raise InadmissibleParameters(
                f"beta={beta} drives the core temperature to {t_center}"
            )

    def state(self, t, x, y):
        (x0, x1, y0, y1) = self.bbox
        W, H = x1 - x0, y1 - y0
        cx = self.center[0] + self.u_inf * t
        cy = self.center[1] + self.v_inf * t
        xb = x - cx
        yb = y - cy
        # minimal-image wrap onto the periodic box
        xb = xb - W * np.round(xb / W)
        yb = yb - H * np.round(yb / H)
        g = self.gas.gamma
        ex = np.exp(0.5 * (1.0 - (xb**2 + yb**2)))
        # The temperature dip carries the squared profile; this is the
        # pressure-balanced form for which pure translation solves the
        # equations exactly.
        T = 1.0 - (g - 1.0) * self.beta**2 / (8.0 * g * np.pi**2) * ex * ex
        rho = T ** (1.0 / (g - 1.0))
        u = self.u_inf - yb * self.beta / (2.0 * np.pi) * ex
        v = self.v_inf + xb * self.beta / (2.0 * np.pi) * ex
        p = rho**g
        return euler.conserved(rho, u, v, p, self.gas)

    def initial(self, x, y):
        return self.state(0.0, x, y)


class SmoothedSodProblem:
    """Periodic strip with smoothly joined high/low Sod states.

    Density and pressure follow two tanh transitions located at a
    quarter of the domain width left and right of the center; the
    velocity starts at rest.
    """

    def __init__(self, bbox, gas, width=None,
                 left=(1.0, 1.0), right=(0.125, 0.1)):
        self.bbox = bbox
        self.gas = gas
        (x0, x1, _, _) = bbox
        L = x1 - x0
        self.xl = x0 + 0.25 * L
        self.xr = x0 + 0.75 * L
        self.width = L / 40.0 if width is None else float(width)
        self.left = left
        self.right = right

    def initial(self, x, y):
        s = 0.5 * (
            np.tanh((x - self.xl) / self.width) - np.tanh((x - self.xr) / self.width)
        )
        rho = self.right[0] + (self.left[0] - self.right[0]) * s
        p = self.right[1] + (self.left[1] - self.right[1]) * s
        zero = np.zeros_like(np.asarray(x, dtype=float))
        return euler.conserved(rho, zero, zero, p, self.gas)

    state = None  # no closed-form evolution


class ConstantProblem:
    def __init__(self, gas, rho=1.0, ux=0.0, uy=0.0, p=1.0):
        self.gas = gas
        self.values = (rho, ux, uy, p)

    def initial(self, x, y):
        rho, ux, uy, p = self.values
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        one = np.ones(shape)
        return euler.conserved(rho * one, ux * one, uy * one, p * one, self.gas)

    def state(self, t, x, y):
        return self.initial(x, y)


def make_problem(name, bbox, gas, **params):
    if name == "vortex":
        return VortexProblem(bbox, gas, **params)
    if name == "sod_smooth":
        return SmoothedSodProblem(bbox, gas, **params)
    if name == "constant":
        return ConstantProblem(gas, **params)
    raise ConfigError(f"unknown problem {name!r}")

