"""Retargeting joint values between robot designs through the latent space.

Joint values of a source robot are encoded to two latent values and decoded
into the target robot's joint space.  Every retarget is one TransferMap from
make_transfer_map(source, target, mode).  The symmetric mode preserves Clarke
coordinates and ignores distances; the general mode also strips/adds the
kinematic design parameters, which makes it geometrically exact for any
pair of designs, including different joint counts.
"""

import numpy as np

from clarkekit import (
    builtin_designs,
    make_transfer_map,
    sample_joints,
    to_arc,
)

np.set_printoptions(precision=6, suppress=True)

designs = builtin_designs()
robot_0 = designs["robot_0"]   # three-joint surrogate
robot_D = designs["robot_D"]   # seven joints, asymmetric angles, mixed distances

rho = sample_joints(robot_0, seed=2024, count=1)[0]
print("surrogate joints:", rho * 1000, "mm")
print("surrogate arc:   ", to_arc(robot_0, rho))

# General mode: the target bends into exactly the same arc.
tmap = make_transfer_map(robot_0, robot_D, "general")
out = tmap.apply(rho)
print("\nrobot_D joints:  ", out * 1000, "mm")
print("robot_D arc:     ", to_arc(robot_D, out))

# Symmetric mode keeps the Clarke coordinates instead; with non-constant
# distances the realized arc then differs, which is what degrades the
# uncompensated control runs.
naive = make_transfer_map(robot_0, robot_D, "symmetric").apply(rho)
print("\nsymmetric-mode joints:", naive * 1000, "mm")
print("symmetric-mode arc:   ", to_arc(robot_D, naive))

# The whole encoder-decoder collapses into one matrix for per-tick reuse:
# decoding the encoded vector gives the same joints.
print("\ntransfer matrix shape:", tmap.matrix.shape)
print("rank (factors through a 2-D latent space):",
      np.linalg.matrix_rank(tmap.matrix))
print("matrix matches encode-then-decode:",
      np.allclose(tmap.decoder @ (tmap.encoder @ rho), out, atol=1e-15))

# Chaining designs composes exactly: A -> B -> C equals A -> C.
robot_B = designs["robot_B"]
to_B = make_transfer_map(robot_0, robot_B, "general")
B_to_D = make_transfer_map(robot_B, robot_D, "general")
chained = B_to_D.apply(to_B.apply(rho))
print("composition deviation:", np.max(np.abs(out - chained)))
