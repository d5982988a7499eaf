"""
Bracketing the critical intensity
=================================

The search starts at the branching lower bound, ramps the intensity
geometrically until a verdict percolates, then bisects the bracket.
Every verdict is read from a coupled batch of explorations, one batch
per factor 2^(1/4) of the intensity, and kept in the history.
"""

from rcmperc import Gilbert, SimParams, estimate_critical

model = Gilbert(radius=2.0)
params = SimParams(dim=2, gamma=0.0, system_size=60.0)

est = estimate_critical(params, model, runs=200, master_seed=1729, refinements=4)

print("search history (one verdict over up to 200 explorations per line)")
for v in est.history:
    mark = "percolates" if v.percolates else "contained "
    print(f"{v.step_kind:6s}  gamma={v.gamma:8.6f}  {mark}  escapes={v.escapes}  capped={v.capped_runs}")

print()
print(f"bracket  : [{est.lower:.6f}, {est.upper:.6f}]")
print(f"midpoint : {est.midpoint:.6f}")
print(f"width    : {est.width:.2e}")
for w in est.warnings:
    print(f"warning  : {w}")

# at this window size the finite-size bias is still visible: the true
# infinite-volume threshold for these disks is near 0.359, and larger
# windows push the bracket toward it
