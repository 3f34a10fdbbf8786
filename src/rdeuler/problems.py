"""Initial conditions: moving isentropic vortex, smoothed density/pressure
pulse (Sod-like states) and uniform flow."""

import numpy as np

from . import euler
from .errors import ConfigError, InadmissibleParameters


class VortexProblem:
    """Isentropic vortex advected by a uniform free stream.

    The vortex starts at CENTER in the free stream (U_INF, V_INF).  The
    perturbation decays like exp((1 - r^2)/2); on a periodic box the
    exact solution at time t is the initial field translated by the free
    stream, wrapped around the domain.
    """

    U_INF, V_INF = 1.0, 0.0
    CENTER = (0.0, 0.0)

    def __init__(self, bbox, gas, beta=5.0):
        self.bbox = bbox
        self.gas = gas
        self.beta = float(beta)
        g = gas.gamma
        try:
            # the temperature is 1 - dip * exp(1 - r^2), 1 - dip * e at the core
            self.dip = (g - 1.0) * self.beta**2 / (8.0 * g * np.pi**2)
        except OverflowError:
            self.dip = np.inf       # beta**2 beyond the float range
        if not np.isfinite(self.dip):
            raise InadmissibleParameters(
                f"gamma={g} and beta={beta} make the vortex temperature dip "
                f"(gamma - 1) beta^2 / (8 gamma pi^2) {self.dip}, not a finite number"
            )
        # rho = T^(1/(gamma - 1)) is real only for T > 0; the floors are
        # checked per DOF by driver.start
        t_center = 1.0 - self.dip * np.exp(1.0)
        if not t_center > 0.0:
            raise InadmissibleParameters(
                f"gamma={g} and beta={beta} drive the vortex core temperature to {t_center}"
            )

    def state(self, t, x, y):
        (x0, x1, y0, y1) = self.bbox
        W, H = x1 - x0, y1 - y0
        cx = self.CENTER[0] + self.U_INF * t
        cy = self.CENTER[1] + self.V_INF * t
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
        T = 1.0 - self.dip * ex * ex
        rho = T ** (1.0 / (g - 1.0))
        u = self.U_INF - yb * self.beta / (2.0 * np.pi) * ex
        v = self.V_INF + xb * self.beta / (2.0 * np.pi) * ex
        p = rho**g
        return euler.conserved(rho, u, v, p, self.gas)

    def initial(self, x, y):
        return self.state(0.0, x, y)


class SmoothedSodProblem:
    """Periodic strip with smoothly joined high/low Sod states.

    Density and pressure, (rho, p) = LEFT between the transitions and
    RIGHT outside them, follow two tanh transitions of width L/40 located
    at a quarter of the domain width L left and right of the center; the
    velocity starts at rest.
    """

    LEFT = (1.0, 1.0)
    RIGHT = (0.125, 0.1)

    def __init__(self, bbox, gas):
        self.bbox = bbox
        self.gas = gas
        (x0, x1, _, _) = bbox
        L = x1 - x0
        self.xl = x0 + 0.25 * L
        self.xr = x0 + 0.75 * L
        self.width = L / 40.0

    def initial(self, x, y):
        s = 0.5 * (
            np.tanh((x - self.xl) / self.width) - np.tanh((x - self.xr) / self.width)
        )
        rho = self.RIGHT[0] + (self.LEFT[0] - self.RIGHT[0]) * s
        p = self.RIGHT[1] + (self.LEFT[1] - self.RIGHT[1]) * s
        zero = np.zeros_like(np.asarray(x, dtype=float))
        return euler.conserved(rho, zero, zero, p, self.gas)


class ConstantProblem:
    """Uniform state (rho, ux, uy, p) = VALUES."""

    VALUES = (1.0, 0.0, 0.0, 1.0)

    def __init__(self, gas):
        self.gas = gas

    def initial(self, x, y):
        rho, ux, uy, p = self.VALUES
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        one = np.ones(shape)
        return euler.conserved(rho * one, ux * one, uy * one, p * one, self.gas)

    def state(self, t, x, y):
        return self.initial(x, y)


def make_problem(name, bbox, gas, beta):
    """The problem ``name`` on the box ``bbox``; only the vortex reads beta."""
    if name == "vortex":
        return VortexProblem(bbox, gas, beta)
    if name == "sod_smooth":
        return SmoothedSodProblem(bbox, gas)
    if name == "constant":
        return ConstantProblem(gas)
    raise ConfigError(f"unknown problem {name!r}")

