"""Propagating joint-location uncertainty onto the realized arc.

Manufacturing tolerances make the true joint locations (psi_hat, d_hat)
deviate from the nominal ones.  Commanding displacements with the nominal
design and decoding the realized arc with the true one quantifies the
resulting curvature and bending-plane errors across the workspace.
"""

import numpy as np

from clarkekit import PerturbedDesign, builtin_designs, perturbation_analysis, polar_clarke_grid

np.set_printoptions(precision=6, suppress=True)

robot_0 = builtin_designs()["robot_0"]

# With exact locations every deviation vanishes.
exact = PerturbedDesign(nominal=robot_0, true_psi=robot_0.psi, true_d=robot_0.d)
grid = polar_clarke_grid(d_ref=0.01, radii=4, angles=12)
records = perturbation_analysis(exact, grid)
print("exact locations, max |dkappa*l|:", np.max(np.abs(records.dkappa_l)))

# A 50 mrad offset on one joint angle plus sub-millimeter distance errors.
perturbed = PerturbedDesign(
    nominal=robot_0,
    true_psi=robot_0.psi + np.array([0.05, -0.03, 0.02]),
    true_d=robot_0.d + np.array([0.5, -0.3, 0.2]) / 1000.0,
)
records = perturbation_analysis(perturbed, grid)
print("\nperturbed locations over a", len(records), "point latent grid:")
print(f"max |dkappa*l|:  {np.max(np.abs(records.dkappa_l)):.6f} (bend-angle error)")
print(f"max |dtheta|:    {np.max(np.abs(records.dtheta)):.6f} rad")

# The bending-plane error depends on the commanded direction; sweep one ring.
print("\ntheta_cmd [rad] -> dtheta [mrad] on the outermost ring:")
ring = records[np.abs(np.hypot(*records.clarke.T) - np.pi * 0.01) < 1e-12]
for record in ring[::3]:
    print(f"  {record.theta_cmd:+.3f} -> {record.dtheta * 1000:+8.3f}")

# Doubling every distance halves the realized curvature: the same
# displacements act on joints twice as far from the center line.
scaled = PerturbedDesign(nominal=robot_0, true_psi=robot_0.psi, true_d=2.0 * robot_0.d)
records = perturbation_analysis(scaled, grid)
bent = records[records.kappa_cmd > 0]
ratios = set(np.round(bent.kappa_real / bent.kappa_cmd, 12).tolist())
print("\nuniformly doubled distances, realized/commanded curvature:", ratios)
