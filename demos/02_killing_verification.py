"""Verifying the geometry: duality, bracket closure, Killing equations.

Every identity becomes a residual over a cloud of seeded sample points,
evaluated once per entry and shared by all checks.
The frame metric version of the Killing equations closes on the structure
constants, in the catalog's one bracket convention
[xi_a, xi_b] = C^g_ab xi_g; swapping the frame-metric signature leaves every residual at the
rounding floor, because none of the identities care about signatures.
"""
import numpy as np

from g4motions import catalog, checks, mechanics
from g4motions.catalog import GroupId
from g4motions.geometry import SampleCloud

tol = checks.ToleranceConfig()
EUCLIDEAN = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))

print(f"{'entry':12s} {'closure':>10s} {'jacobi':>10s} {'killing':>10s} "
      f"{'frame-form':>10s} {'killing(++++)':>13s}")
for gid in GroupId:
    model = catalog.get_group(gid)
    pts, _ = mechanics.sample_phase_points(model, 200, seed=42)
    cloud = SampleCloud(model, pts)
    closure = checks.check_lie_closure(cloud, tol)
    jacobi = checks.check_jacobi(model.structure_constants, tol, group=model.name)
    killing = checks.check_killing(cloud, tol)
    frame = checks.check_frame_killing(cloud, tol)
    # same points under eta = ++++: only the metric is recomputed
    killing_pp = checks.check_killing(cloud.with_model(model.with_eta(EUCLIDEAN)), tol)
    print(
        f"{model.name:12s} {closure.max_residual:10.2e} {jacobi.max_residual:10.2e} "
        f"{killing.max_residual:10.2e} {frame.max_residual:10.2e} "
        f"{killing_pp.max_residual:13.2e}"
    )

print("\nwhy the checks are not vacuous: perturb one tetrad entry by 0.01*u1")
import dataclasses

from g4motions.adiff import coords

U1, _, _, _ = coords()
model = catalog.get_group(GroupId.G4_I_CNE1)
bad_e_con = [list(r) for r in model.e_con]
bad_e_con[1][1] = bad_e_con[1][1] + 0.01 * U1
broken = dataclasses.replace(model, e_con=bad_e_con)
pts, _ = mechanics.sample_phase_points(model, 200, seed=42)
res = checks.check_killing(SampleCloud(broken, pts), tol)
print(f"perturbed killing residual: {res.max_residual:.3e}  (passed={res.passed})")
