"""Detection cascade on a rough double-transition profile.

A smoothed Sod-like strip is advanced with a deliberately fragile first
scheme (pure Galerkin).  The detectors flag oscillating elements, the
cascade recomputes them with the limited and then the plain LxF
distribution, and the density stays positive throughout while the
totals remain conserved.
"""

import numpy as np

from rdeuler import GasModel, euler
from rdeuler.config import RunConfig
from rdeuler.driver import build_discretization, initial_state
from rdeuler.stepping import advance, conserved_totals

gas = GasModel()
cfg = RunConfig(
    problem="sod_smooth", mesh="structured:32x4", basis="lagrange",
    cascade="galerkin,limited_lxf,lxf",
).validate()
disc = build_discretization(cfg)
state, _ = initial_state(cfg, disc, gas)
mood_cfg = cfg.cascade_config()

t_end, cfl = 0.8, 0.3
start = conserved_totals(disc, state.U)
print("   t     flagged  parachute  rho_min   mass drift")
for state, _, report in advance(state, None, "ssprk2", t_end, cfl, mood_cfg=mood_cfg):
    flagged = int(np.sum(report.level > 0))
    totals = conserved_totals(disc, state.U)
    print(
        f"{state.t:6.3f}   {flagged:5d}   {report.counts['parachute']:6d}"
        f"   {state.U[:, 0].min():8.5f}  {abs(totals[0] - start[0]):.2e}"
    )

assert np.all(euler.admissible(state.U, gas))
print("final state admissible at every DOF")
