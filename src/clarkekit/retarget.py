"""Joint-value retargeting between robot designs through a 2-D latent space.

A joint vector of a source robot is compressed to two latent values and
decoded into the joint space of a target robot.  In symmetric mode the
latent pair is the Clarke coordinates and only the joint angles enter; in
general mode the robot-dependent normalization removes the source's
kinematic design parameters and adds the target's, so the latent pair is
the planar arc pair and the mapping is geometrically exact for any two
designs.  Each mode is an encoder (2 x n) of the source and a decoder
(m x 2) of the target, whose product is one m x n matrix that can be
applied per time step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (RobotDesign, check_integer, check_joints, check_positive, finite_array,
                   float_array, wrap_angle)
from .errors import DimensionMismatch, InvalidParameter

__all__ = ["PerturbedDesign", "TransferMap", "make_transfer_map", "perturbation_analysis",
           "polar_clarke_grid", "transfer_general"]

TRANSFER_MODES = ("symmetric", "general")


@dataclass(frozen=True, eq=False)
class TransferMap:
    """Precomposed m x n retargeting matrix between two designs, with its factors.

    The matrix is decoder @ encoder.  The encoder is the source's 2 x n_s
    joint-to-latent matrix: its Clarke forward matrix in symmetric mode,
    its arc_forward in general mode.  The decoder is the target's n_t x 2
    latent-to-joint matrix: its Clarke inverse matrix in symmetric mode,
    its arc_inverse in general mode.  The matrix factors through the 2-D
    latent space, so its rank is at most two regardless of the joint
    counts involved.
    """

    source: RobotDesign
    target: RobotDesign
    mode: str
    matrix: np.ndarray
    encoder: np.ndarray
    decoder: np.ndarray

    def apply(self, joints) -> np.ndarray:
        """Retarget one joint vector or a (..., n) stack of joint vectors.

        Values are not scanned for finiteness: this is the batch path, and
        NaN or inf input gives NaN or inf output.  The CLI and file readers
        check finiteness where input enters.
        """
        values = float_array(joints, "source joint values")
        if values.ndim == 0 or values.shape[-1] != self.source.n:
            raise DimensionMismatch(
                f"expected {self.source.n} source joint values, got shape {values.shape}")
        return values @ self.matrix.T


def _factors(source: RobotDesign, target: RobotDesign, mode: str):
    """The (encoder, decoder) pair of one ordered design pair and transfer mode."""
    if mode == "symmetric":
        return source.forward_matrix, target.inverse_matrix
    if mode == "general":
        return source.arc_forward, target.arc_inverse
    raise InvalidParameter(f"unknown transfer mode {mode!r}; choose from {TRANSFER_MODES}")


def make_transfer_map(source: RobotDesign, target: RobotDesign,
                      mode: str = "general") -> TransferMap:
    """Build the retargeting matrix, finite in float64, for one ordered design pair."""
    encoder, decoder = _factors(source, target, mode)
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = decoder @ encoder
    if not np.isfinite(matrix).all():
        raise InvalidParameter(f"the {mode} transfer map from {source.name!r} to "
                               f"{target.name!r} is not finite in float64")
    matrix.setflags(write=False)
    return TransferMap(source, target, mode, matrix, encoder, decoder)


def transfer_general(source: RobotDesign, target: RobotDesign, joints) -> np.ndarray:
    """Retarget one finite joint vector between two arbitrary designs, as
    `make_transfer_map(source, target, "general").apply` does.

    The source's kinematic design parameters are stripped and the target's
    added, so both robots realize the same arc.  Kept because the benchmark
    harness binds it.
    """
    return target.arc_inverse @ (source.arc_forward @ check_joints(joints, source.n))


@dataclass(frozen=True, eq=False)
class PerturbedDesign:
    """A nominal design together with the true (perturbed) joint locations."""

    nominal: RobotDesign
    true_psi: np.ndarray
    true_d: np.ndarray

    def __post_init__(self):
        # RobotDesign copies and validates the layout and makes it read-only
        true = RobotDesign(name=self.nominal.name + "_true", psi=self.true_psi,
                           d=self.true_d, l=self.nominal.l)
        if true.n != self.nominal.n:
            raise InvalidParameter("true_psi and true_d must match the nominal joint count")
        object.__setattr__(self, "_true", true)
        object.__setattr__(self, "true_psi", true.psi)
        object.__setattr__(self, "true_d", true.d)

    def true_design(self) -> RobotDesign:
        """The design at the true joint locations, built once."""
        return self._true


# the fields in the column order of the demo's perturbation CSV
PERTURBATION_DTYPE = np.dtype([("clarke", float, (2,)), ("kappa_cmd", float),
                               ("theta_cmd", float), ("kappa_real", float),
                               ("theta_real", float), ("dkappa_l", float), ("dtheta", float)])


def perturbation_analysis(perturbed: PerturbedDesign, clarke_grid) -> np.recarray:
    """Propagate joint-location uncertainty onto the realized arc.

    Each grid point (a row of an (m, 2) array, or one (2,) pair) is a
    Clarke coordinate pair for the nominal design.  It is decoded to a
    commanded arc, the commanded joint displacements are computed on the
    nominal design, and the arc those displacements realize on the true
    design is compared against the commanded one.  With exact joint
    locations every deviation is zero.  The whole grid is processed as
    arrays.

    Returns a read-only record array of PERTURBATION_DTYPE, one record per
    grid point: dkappa_l = (kappa_real - kappa_cmd) * l is dimensionless, and
    dtheta = theta_real - theta_cmd is wrapped to [-pi, pi).
    """
    nominal = perturbed.nominal
    points = np.atleast_2d(finite_array(clarke_grid, "Clarke coordinates"))
    if points.ndim != 2 or points.shape[1] != 2:
        raise DimensionMismatch(f"expected Clarke pairs of shape (m, 2), got shape {points.shape}")
    kappa_cmd, theta_cmd = _polar(points @ nominal.inverse_matrix.T @ nominal.arc_forward.T)
    planar = np.column_stack([kappa_cmd * np.cos(theta_cmd), kappa_cmd * np.sin(theta_cmd)])
    joints = planar @ nominal.arc_inverse.T
    kappa_real, theta_real = _polar(joints @ perturbed.true_design().arc_forward.T)
    dkappa_l = (kappa_real - kappa_cmd) * nominal.l
    # theta is 0 wherever kappa is 0, so dtheta is 0 where both curvatures are 0
    dtheta = wrap_angle(theta_real - theta_cmd)
    table = np.rec.fromarrays([points, kappa_cmd, theta_cmd, kappa_real, theta_real,
                               dkappa_l, dtheta], dtype=PERTURBATION_DTYPE)
    table.flags.writeable = False
    return table


def _polar(planar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Curvatures and bending-plane angles of (m, 2) planar arc pairs; theta
    is 0 where kappa is 0, as in ArcParameters.from_planar."""
    kappa = np.hypot(planar[:, 0], planar[:, 1])
    theta = np.where(kappa == 0.0, 0.0, wrap_angle(np.arctan2(planar[:, 1], planar[:, 0])))
    return kappa, theta


def polar_clarke_grid(d_ref: float, radii: int = 5, angles: int = 16) -> np.ndarray:
    """Polar grid over the feasible latent disk of radius pi * d_ref.

    Convenience for perturbation studies: `radii` rings (excluding the
    center) crossed with `angles` equally spaced bending-plane directions.
    """
    d_ref = check_positive(d_ref, "d_ref")
    radii, angles = check_integer(radii, "radii", 1), check_integer(angles, "angles", 1)
    r = math.pi * d_ref * np.arange(1, radii + 1) / radii
    phi = -math.pi + 2.0 * math.pi * np.arange(angles) / angles
    rr, pp = np.meshgrid(r, phi, indexing="ij")
    return np.column_stack([(rr * np.cos(pp)).ravel(), (rr * np.sin(pp)).ravel()])
