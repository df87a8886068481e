"""Rejection-free sampling of feasible configurations on the Clarke disk.

Feasible joint vectors of a design form a 2-D subset of the n-dimensional
joint space, so sampling joints directly and rejecting infeasible draws is
wasteful.  Instead, Clarke coordinates are drawn uniformly from a disk of
radius pi * d_ref (the half-circle bound: at that latent magnitude a
constant-distance robot bends into a half circle) and decoded; every draw
is feasible by construction.

Magnitudes follow L = pi * d_ref * sqrt(U[0, 1]), which makes the disk
uniform in area, and angles are pi * U[-1, 1).  Randomness comes from two
PCG64 substreams derived from one 64-bit seed (SeedSequence spawn order:
child 0 -> magnitudes, child 1 -> angles), so scalar and vectorized call
paths produce bit-identical batches.
"""

from __future__ import annotations

import math

import numpy as np

from .core import RobotDesign, check_integer, check_positive

__all__ = ["sample_clarke_disk", "sample_joints"]


def sample_clarke_disk(seed: int, count: int, d_ref: float) -> np.ndarray:
    """Draw `count` Clarke coordinate pairs uniformly from the feasible disk,
    as a read-only (count, 2) array in meters."""
    seed, count = check_integer(seed, "seed", 0), check_integer(count, "count", 1)
    d_ref = check_positive(d_ref, "d_ref")
    mag_stream, angle_stream = np.random.SeedSequence(seed).spawn(2)
    u = np.random.default_rng(mag_stream).random(count)
    magnitudes = math.pi * d_ref * np.sqrt(u)
    angles = math.pi * np.random.default_rng(angle_stream).uniform(-1.0, 1.0, count)
    clarke = np.column_stack([magnitudes * np.cos(angles), magnitudes * np.sin(angles)])
    clarke.setflags(write=False)
    return clarke


def sample_joints(design: RobotDesign, seed: int, count: int) -> np.ndarray:
    """Draw `count` feasible joint vectors for a design, shape (count, n).

    Stage one samples Clarke coordinates on the disk bounded by the
    smallest center-line distance (the conservative choice when distances
    differ); stage two decodes them with the design's inverse Clarke
    matrix.  No draw is ever rejected.
    """
    return sample_clarke_disk(seed, count, float(np.min(design.d))) @ design.inverse_matrix.T
