"""Clarke transform basics: joint vectors, latent coordinates, arc parameters.

A displacement-actuated continuum robot segment with n joints has only two
degrees of freedom, so its n displacements are redundant.  The Clarke
transform compresses them losslessly into the pair (rho_re, rho_im) and
decodes them back, for any joint layout.
"""

import numpy as np

from clarkekit import (
    builtin_designs,
    from_arc,
    symmetric_design,
    to_arc,
)

np.set_printoptions(precision=6, suppress=True)

designs = builtin_designs()
robot_0 = designs["robot_0"]

# The inverse Clarke matrix has one row [cos(psi_i), sin(psi_i)] per joint;
# the forward matrix is its pseudoinverse.  For the classic three-joint
# symmetric layout these are the familiar 2/3-scaled matrices.
pair = robot_0.pair
print("inverse Clarke matrix (n x 2):")
print(pair.inverse_matrix)
print("forward Clarke matrix (2 x n):")
print(pair.forward_matrix)
print("Gram matrix (n/2 on the diagonal for symmetric layouts):")
print(pair.gram)

# Decode a latent pair into joint displacements and encode it back.
clarke = np.array([0.001, 0.0])  # 1 mm along the first latent axis
joints = pair.inverse(clarke)
print("\njoints for (1 mm, 0):", joints * 1000, "mm")
print("reconstructed latent:", pair.forward(joints) * 1000, "mm")
print("joint sum (balanced actuation):", joints.sum())

# The robot-dependent mapping normalizes by the distances d_i and the
# length l, turning displacements into arc parameters.  A latent magnitude
# of pi*d bends the segment into a half circle: kappa * l = pi.
half_circle = pair.inverse([np.pi * 0.01, 0.0])
arc = to_arc(robot_0, half_circle)
print("\nhalf-circle displacements:", half_circle * 1000, "mm")
print(f"kappa = {arc.kappa:.4f} 1/m, theta = {arc.theta:.4f} rad, "
      f"kappa*l = {arc.kappa * robot_0.l:.6f}")

# from_arc is the exact inverse of to_arc.
again = from_arc(robot_0, arc)
print("decoded back from the arc:", again * 1000, "mm")

# Arbitrary layouts work the same way; only fully collinear joint angles
# (all equal modulo pi) are rejected.
robot_D = designs["robot_D"]
pair_D = robot_D.pair
print(f"\nrobot_D: n = {robot_D.n}, Gram condition = {pair_D.condition:.3f}")
print("right-inverse residue:",
      np.max(np.abs(pair_D.forward_matrix @ pair_D.inverse_matrix - np.eye(2))))

# Convenience constructor for symmetric designs of any joint count.
robot_9 = symmetric_design(9, 0.01, 0.1, name="nine_joints")
print("\nnine-joint symmetric design, psi (rad):", robot_9.psi)
