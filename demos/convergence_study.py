"""Grid-refinement study on the moving vortex.

Runs the high-order distribution on three nested meshes and the
first-order LxF distribution on the finer pair, then prints L1 errors
and observed orders.  Expect about two for the former and about one for
the latter.
"""

import time

import numpy as np

from rdeuler import GasModel, make_discretization, structured_square
from rdeuler.diagnostics import convergence_order, primitive_errors
from rdeuler.problems import init_vortex
from rdeuler.residuals import Scheme
from rdeuler.stepping import FieldState, advance

gas = GasModel()


def run(n, scheme, t_end, cfl=0.3):
    disc = make_discretization(structured_square(n), "s2", "lagrange", 1)
    U0, problem = init_vortex(disc, gas)
    state = FieldState(0.0, U0, disc, gas)
    for state, _, _ in advance(state, scheme, "ssprk2", t_end, cfl):
        pass
    errs = primitive_errors(disc, gas, state.U, problem.state, state.t)
    return errs, disc.mesh.diameters.max()


for label, meshes, t_end in (
    ("galerkin+ec+jump", (16, 32, 64), 1.0),
    ("lxf", (16, 32), 1.0),
):
    scheme = Scheme.parse(label)
    errs, hs = [], []
    print(f"== {label}, t_end = {t_end}")
    for n in meshes:
        t0 = time.time()
        e, h = run(n, scheme, t_end)
        errs.append(e)
        hs.append(h)
        print(
            f"  n={n:3d} h={h:.3f}  rho {e['rho']:.3e}  u {e['u']:.3e}  "
            f"p {e['p']:.3e}   ({time.time() - t0:.1f}s)"
        )
    for comp in ("rho", "u", "p"):
        orders = convergence_order([e[comp] for e in errs], hs)
        print(f"  observed orders ({comp}): {np.round(orders, 2)}")
