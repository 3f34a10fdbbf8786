"""Detection cascade on a rough double-transition profile.

A smoothed Sod-like strip is advanced with a deliberately fragile first
scheme (pure Galerkin).  The detectors flag oscillating elements, the
cascade recomputes them with the limited and then the plain LxF
distribution, and the density stays positive throughout while the
totals remain conserved.
"""

import numpy as np

from rdeuler import driver, euler
from rdeuler.config import parse_config
from rdeuler.stepping import conserved_totals

cfg = parse_config(
    "problem = sod_smooth\nmesh = structured:32x4\nbasis = lagrange\n"
    "cfl = 0.3\nt_end = 0.8\nmood.enabled = true\ncascade = galerkin,limited_lxf,lxf\n"
)
state, _ = driver.start(cfg)
start = conserved_totals(state.disc, state.U)
print("   t     flagged  parachute  rho_min   mass drift")
for state, _, report in driver.steps(cfg, state):
    flagged = int(np.sum(report.level > 0))
    totals = conserved_totals(state.disc, state.U)
    print(
        f"{state.t:6.3f}   {flagged:5d}   {report.counts['parachute']:6d}"
        f"   {state.U[:, 0].min():8.5f}  {abs(totals[0] - start[0]):.2e}"
    )

assert np.all(euler.admissible(state.U, state.gas))
print("final state admissible at every DOF")
