"""Advect the isentropic vortex once around a short stretch of the
periodic box and watch the discrete invariants.

The run uses the entropy-corrected, jump-stabilized Galerkin
distribution with SSP-RK2.  Total mass, momentum and energy must stay
put to round-off; total entropy may only decrease.
"""

import numpy as np

from rdeuler import driver, euler
from rdeuler.config import parse_config
from rdeuler.diagnostics import primitive_errors, weak_bv_norm
from rdeuler.stepping import conserved_totals

cfg = parse_config(
    "problem = vortex\nmesh = structured:24\nbasis = lagrange\n"
    "scheme = galerkin+ec+jump\nintegrator = ssprk2\ncfl = 0.3\nt_end = 1.0\n"
)
state, problem = driver.start(cfg)
disc, gas = state.disc, state.gas

start = conserved_totals(disc, state.U)
print(f"mesh: {disc.mesh.n_tris} triangles, {disc.dofmap.n_dofs} DOFs")
print("   t        mass drift    entropy       bv-seminorm^2")
for step, (state, _, _) in enumerate(driver.steps(cfg, state), 1):
    if step % 10 == 0 or state.t >= cfg.t_end - 1e-12:
        totals = conserved_totals(disc, state.U)
        entropy = float(np.sum(disc.dual.c_sigma * euler.entropy_eta(state.U, gas)))
        bv = weak_bv_norm(state.fields)
        print(
            f"{state.t:7.4f}  {abs(totals[0] - start[0]):.3e}   "
            f"{entropy:+.6f}   {bv:.3e}"
        )

errs = primitive_errors(disc, gas, state.U, problem.state, state.t)
print(f"L1 errors vs the translated vortex: rho {errs['rho']:.3e}, "
      f"u {errs['u']:.3e}, p {errs['p']:.3e}")
