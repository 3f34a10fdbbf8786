"""Dissipation bookkeeping of a corrected run.

With the entropy correction active, each element's entropy balance
closes against its boundary entropy flux up to the prescribed
nonnegative interface production.  Summed over the periodic mesh the
boundary fluxes cancel, so the semidiscrete total entropy can only fall
by the accumulated production; the per-step defect reported below is
the forward-Euler time-discretization remainder.
"""

import tempfile

from rdeuler import driver
from rdeuler.config import parse_config
from rdeuler.diagnostics import entropy_budget

with tempfile.TemporaryDirectory() as out:
    cfg = parse_config(
        "problem = vortex\nmesh = structured:12\nbasis = lagrange\n"
        f"scheme = galerkin+ec+jump\nintegrator = fe\ncfl = 0.3\nt_end = 0.5\noutput.dir = {out}\n"
    )
    rows = entropy_budget(driver.run(cfg, record=True).record)

print("   t       dS per step    production    defect")
for r in rows[::4]:
    print(
        f"{r['t']:7.4f}   {r['increment']:+.3e}   {r['production']:.3e}"
        f"   {r['defect']:+.3e}"
    )
total = sum(r["increment"] for r in rows)
prod = sum(r["production"] for r in rows)
print(f"entropy change {total:+.3e}, accumulated production {prod:.3e}")
