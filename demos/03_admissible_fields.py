"""Admissible electromagnetic fields and the Abelian zero-field theorem.

A potential is admissible when (xi_a^j A_j)_,i = xi_a^j F_ij, which is
exactly the condition for the free-motion integrals Y_a = xi_a^i p_i to
survive the coupling.  The left side minus the right is the Lie derivative
L_{xi_a} A, which the check compares term by term without forming F.
Every tabulated potential is linear in four constants, so the check runs
basis-wise and localizes any defect to a single constant.

The Abelian-subgroup family (g4-vi-*) is the interesting degenerate case:
its tabulated construction makes the field strength vanish identically
(pure gauge), and only the alpha4 direction is frame-invariant; the
genuinely left-invariant potential (tetrad route) is admissible with a
nonzero field, a tension in the source tables that the report surfaces.
"""
import numpy as np

from g4motions import catalog, checks, mechanics
from g4motions.catalog import ABELIAN_SUBGROUP_IDS, GroupId
from g4motions.geometry import SampleCloud

tol = checks.ToleranceConfig()


def field_strength(cloud, basis="holo_basis"):
    """F_ij = d_i A_j - d_j A_i of the entry's potential over ``basis``."""
    _, dA = cloud.potential(cloud.model.params.alphas(), basis)
    return dA - dA.transpose(0, 2, 1)


print("basis-wise admissibility residuals (holonomic route):")
print(f"{'entry':12s} {'alpha1':>10s} {'alpha2':>10s} {'alpha3':>10s} {'alpha4':>10s}")
for gid in GroupId:
    model = catalog.get_group(gid)
    pts, _ = mechanics.sample_phase_points(model, 200, seed=42)
    row = checks.check_admissibility(SampleCloud(model, pts), tol)
    marks = "".join(" " if r.asserted else "*" for r in row)
    print(
        f"{model.name:12s} "
        + " ".join(f"{r.max_residual:10.2e}" for r in row)
        + f"   {marks}"
    )
print("(* = report-only entries: known source-table quirks or the")
print("   zero-field construction of the Abelian-subgroup family)\n")

print("zero-field theorem: F_ij for g4-vi-* vanishes identically")
for gid in sorted(ABELIAN_SUBGROUP_IDS, key=lambda g: g.value):
    model = catalog.get_group(gid)
    pts, _ = mechanics.sample_phase_points(model, 200, seed=42)
    F = field_strength(SampleCloud(model, pts))
    print(f"  {model.name:12s} max |F| = {np.max(np.abs(F)):.3e}")

print("\n...while the left-invariant (tetrad) potential carries a real field")
model = catalog.get_group(GroupId.G4_VI_1)
pts, _ = mechanics.sample_phase_points(model, 5, seed=42)
F = field_strength(SampleCloud(model, pts), "tetrad_basis")
print(f"  {model.name}: max |F| = {np.max(np.abs(F)):.3f} (tetrad route), and the")
res = checks.check_admissibility(SampleCloud(model, pts), tol, mode="tetrad")
print(f"  admissibility residual stays at {max(r.max_residual for r in res):.2e}")
