"""Dissipation bookkeeping of a corrected run.

With the entropy correction active, each element's entropy balance
closes against its boundary entropy flux up to the prescribed
nonnegative interface production.  Summed over the periodic mesh the
boundary fluxes cancel, so the semidiscrete total entropy can only fall
by the accumulated production; the per-step defect reported below is
the forward-Euler time-discretization remainder.
"""

from rdeuler import GasModel, make_discretization, structured_square
from rdeuler.diagnostics import RunRecord, entropy_budget
from rdeuler.problems import init_vortex
from rdeuler.residuals import Scheme
from rdeuler.stepping import FieldState, advance

gas = GasModel()
disc = make_discretization(structured_square(12), "s2", "lagrange", 1)
U0, _ = init_vortex(disc, gas)

scheme = Scheme.parse("galerkin+ec+jump")
record = RunRecord(disc=disc, gas=gas, scheme=scheme)
state = FieldState(0.0, U0, disc, gas)
record.times.append(0.0)
record.states.append(state.U.copy())

for state, dt, _ in advance(state, scheme, "fe", 0.5, 0.3):
    record.times.append(state.t)
    record.states.append(state.U.copy())
    record.dts.append(dt)

rows = entropy_budget(record)
print("   t       dS per step    production    defect")
for r in rows[::4]:
    print(
        f"{r['t']:7.4f}   {r['increment']:+.3e}   {r['production']:.3e}"
        f"   {r['defect']:+.3e}"
    )
total = sum(r["increment"] for r in rows)
prod = sum(r["production"] for r in rows)
print(f"entropy change {total:+.3e}, accumulated production {prod:.3e}")
