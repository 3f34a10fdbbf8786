"""Grid-refinement study on the moving vortex.

Runs the high-order distribution on three nested meshes and the
first-order LxF distribution on the finer pair through the convergence
harness of ``rdeuler convergence``, then prints L1 errors and observed
orders.  Expect about two for the former and about one for the latter.
"""

import tempfile
import time

from rdeuler import driver
from rdeuler.config import parse_config

for label, meshes in (("galerkin+ec+jump", (16, 32, 64)), ("lxf", (16, 32))):
    t0 = time.time()
    with tempfile.TemporaryDirectory() as out:
        cfg = parse_config(
            f"problem = vortex\nmesh = structured:{meshes[0]}\nbasis = lagrange\n"
            f"scheme = {label}\nintegrator = ssprk2\ncfl = 0.3\nt_end = 1.0\noutput.dir = {out}\n"
        )
        rows = driver.convergence(cfg, [f"structured:{n}" for n in meshes])
    print(f"== {label}, t_end = 1.0   ({time.time() - t0:.1f}s)")
    for r in rows:
        print(
            f"  h={r['mesh_h']:.3f}  rho {r['err_rho_L1']:.3e}  u {r['err_u_L1']:.3e}  "
            f"p {r['err_p_L1']:.3e}   orders {r['order_rho']:.2f} {r['order_u']:.2f} {r['order_p']:.2f}"
        )
