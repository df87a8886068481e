"""Rejection-free sampling of feasible joint values.

Feasible joint vectors live on a 2-D subset of the n-dimensional joint
space, so naive joint-space sampling plus rejection is hopeless for large
n.  Sampling the latent disk directly and decoding makes every draw
feasible: magnitudes pi*d*sqrt(U[0,1]) cover the disk uniformly in area,
capped at the half-circle bound pi*d.
"""

import numpy as np

from clarkekit import builtin_designs, sample_clarke_disk, sample_joints

np.set_printoptions(precision=6, suppress=True)

robot_0 = builtin_designs()["robot_0"]

# The sampler returns the Clarke pairs themselves, a read-only (count, 2) array.
clarke = sample_clarke_disk(seed=42, count=100000, d_ref=0.01)
radius = np.hypot(clarke[:, 0], clarke[:, 1])
angles = np.arctan2(clarke[:, 1], clarke[:, 0])
print(f"samples:        {len(clarke)} (every request is honored, none rejected)")
print(f"max |latent|:   {radius.max():.6f} m   (bound pi*d = {np.pi * 0.01:.6f} m)")
print(f"angle range:    [{angles.min():.4f}, {angles.max():.4f}) rad")

# Area-uniformity: the squared normalized radius should be uniform on [0,1].
u = (radius / (np.pi * 0.01)) ** 2
hist, _ = np.histogram(u, bins=10, range=(0.0, 1.0))
print("squared-radius histogram (10 bins, ~10000 each):", hist)

# Decoding the pairs yields feasible joint vectors; for symmetric
# constant-distance designs they satisfy the balanced-actuation constraint.
joints = sample_joints(robot_0, seed=42, count=100000)
print(f"\njoint batch shape: {joints.shape}")
print(f"max |joint sum|:   {np.max(np.abs(joints.sum(axis=1))):.3e} m")
print(f"max |rho_i|:       {np.max(np.abs(joints)):.6f} m (<= pi*d)")

# Determinism: the same seed reproduces the batch bit for bit; the two
# PCG64 substreams (magnitudes, angles) are derived from one SeedSequence.
again = sample_joints(robot_0, seed=42, count=100000)
print("bit-identical re-run:", np.array_equal(joints, again))

# Every decoded sample reconstructs its source latent pair exactly.
back = joints @ robot_0.forward_matrix.T
print("max decode/encode roundtrip error:",
      np.max(np.abs(back - clarke)), "m")
