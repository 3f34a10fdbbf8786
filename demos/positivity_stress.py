"""Near-vacuum stress of the LxF distribution under its own bounds.

Random admissible DOF states with densities down to 1e-6 and internal
energies near the floor are advanced with the interpolated-flux LxF
distribution, the dissipation coefficient from the spectral-radius
bound against the scaled normals, and the induced CFL time step.  No
DOF (and, for Bernstein coefficients, no mapped Lagrange value) may
leave the admissible set.
"""

import time

import numpy as np

from rdeuler import GasModel, structured_square
from rdeuler.basis import build_dofmap
from rdeuler.discretization import Discretization
from rdeuler.verification import positivity_stress

gas = GasModel()
mesh = structured_square(4, side=2.0)
rng = np.random.default_rng(1)

for basis, degree, check_pts in (("lagrange", 1, False), ("bernstein", 2, True)):
    disc = Discretization(build_dofmap(mesh, "s2", basis, degree))
    t0 = time.time()
    violations = positivity_stress(
        disc, gas, rng, n_fields=200, n_steps=25, check_lagrange_points=check_pts
    )
    print(
        f"{basis} P{degree}: {violations} violations over 200 fields x 25 steps "
        f"({time.time() - t0:.1f}s)"
    )
