"""A quick tour of the catalog.

Fifteen spacetime entries carry a simply transitive four-parameter motion
group: a Killing frame xi_a^i, its dual, a tetrad that assembles the
invariant metric, and the family of electromagnetic potentials that keeps
all four linear motion integrals of a charged test particle.  This script
walks one solvable entry and one rotational entry and prints the raw
ingredients.
"""
import numpy as np

from g4motions import catalog
from g4motions.catalog import GroupId, GroupParams, eval_table
from g4motions.geometry import SampleCloud

np.set_printoptions(precision=4, suppress=True)

# --- a solvable entry, with its free constant c --------------------------
model = catalog.get_group(GroupId.G4_I_CNE1, GroupParams(c=2.0))
print(f"entry: {model.name}")
print("nonzero structure constants (gamma, alpha, beta, value):")
for c in catalog.catalog_entry(model)["structure_constants"]:
    print(f"  C^{c['gamma']}_{c['alpha']}{c['beta']} = {c['value']}")

u = np.array([0.3, -0.4, 0.8, 0.5])
print(f"\nKilling frame xi_a^i at u = {u}:")
print(eval_table(model.xi, u[None])[0])
print("dual frame xi^a_i (rows are coordinate legs):")
print(eval_table(model.dual, u[None])[0])

print("\ntheir contraction is the identity (duality):")
xi = eval_table(model.xi, u[None])[0]
dual = eval_table(model.dual, u[None])[0]
print(xi @ dual)

# --- the admissible potential, linear in four constants ------------------
cloud = SampleCloud(model, u[None])
alphas = model.params.alphas()
print("\nholonomic potential A_i at u for alphas = (1,1,1,1):")
print(cloud.potential(alphas)[0][0])
print("same potential from the left-invariant tetrad legs:")
print(cloud.potential(alphas, "tetrad_basis")[0][0])

# --- a rotation-group entry ----------------------------------------------
spherical = catalog.get_group(GroupId.G4_VIII_A)
print(f"\nentry: {spherical.name} (chart excludes {spherical.domain.excluded})")
u8 = np.array([np.pi / 2, 0.2, 0.4, 0.0])
print("frame at the equator:")
print(eval_table(spherical.xi, u8[None])[0])

# --- every entry records how its source tables behaved -------------------
print("\nsource-table findings recorded in the catalog:")
for gid in GroupId:
    m = catalog.get_group(gid)
    for note in m.notes:
        print(f"  {m.name}: {note}")
