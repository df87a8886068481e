"""Generalized Clarke transform for displacement-actuated continuum robots.

Under the constant-curvature assumption, the n joint displacements of one
segment are linear in two free parameters, the Clarke coordinates
(rho_re, rho_im):

    rho_i = rho_re * cos(psi_i) + rho_im * sin(psi_i)

where psi_i is the angular location of joint i in the cross-section.  This
module builds the n x 2 inverse Clarke matrix with rows [cos(psi_i),
sin(psi_i)], its Moore-Penrose pseudoinverse as the 2 x n forward matrix,
and the robot-dependent normalization that converts displacements to arc
parameters (curvature kappa and bending-plane angle theta).  Joint angles
may be placed arbitrarily; only layouts whose angles all coincide modulo pi
are rejected as degenerate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDesign, DimensionMismatch, InvalidParameter

TWO_PI = 2.0 * math.pi

# Gram matrices with a 2-norm condition number at or above this limit are
# rejected as degenerate joint layouts.
CONDITION_LIMIT = 1e8


def wrap_angle(theta: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return (theta + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True, eq=False)
class RobotDesign:
    """Kinematic design parameters of a single segment.

    psi holds the joint angles in radians, d the center-line distances in
    meters, and l the segment length in meters.  These three parameters
    fully describe the robot for every mapping in this package.  The
    design's Clarke and arc matrices are built on first use and kept, as
    read-only arrays, for the life of the design.
    """

    name: str
    psi: np.ndarray
    d: np.ndarray
    l: float

    def __post_init__(self):
        psi = np.atleast_1d(np.asarray(self.psi, dtype=float)).copy()
        d = np.atleast_1d(np.asarray(self.d, dtype=float)).copy()
        if psi.ndim != 1 or d.ndim != 1 or psi.shape != d.shape:
            raise InvalidParameter("psi and d must be 1-D sequences of equal length")
        if psi.size < 3:
            raise InvalidParameter(f"a design needs at least 3 joints, got {psi.size}")
        if not np.all(np.isfinite(psi)):
            raise InvalidParameter("joint angles must be finite")
        if not np.all(np.isfinite(d)) or not np.all(d > 0.0):
            raise InvalidParameter("center-line distances must be positive and finite")
        l = float(self.l)
        if not math.isfinite(l) or l <= 0.0:
            raise InvalidParameter("segment length must be positive and finite")
        psi.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "l", l)

    @property
    def n(self) -> int:
        return self.psi.size

    @cached_property
    def pair(self) -> "TransformPair":
        """Forward/inverse Clarke matrix pair (see transform_pair).  A
        degenerate design raises DegenerateDesign on every access."""
        return _build_pair(self)

    @cached_property
    def arc_forward(self) -> np.ndarray:
        """2 x n joint-to-arc matrix (see arc_forward_matrix)."""
        return _read_only(self.pair.forward_matrix / self.d[None, :] / self.l)

    @cached_property
    def arc_inverse(self) -> np.ndarray:
        """n x 2 arc-to-joint matrix (see arc_inverse_matrix)."""
        return _read_only(self.l * self.d[:, None] * inverse_clarke_matrix(self.psi))

    def is_symmetric(self, tol: float = 1e-9) -> bool:
        """True when the joints are equally spaced around the cross-section."""
        angles = np.sort(self.psi % TWO_PI)
        gaps = np.diff(angles, append=angles[0] + TWO_PI)
        return bool(np.all(np.abs(gaps - TWO_PI / self.n) < tol))

    def has_constant_d(self, tol: float = 1e-12) -> bool:
        """True when all center-line distances are equal."""
        return bool(np.ptp(self.d) <= tol * np.max(self.d))


class ArcParameters(NamedTuple):
    """Constant-curvature arc: curvature kappa (1/m) and bending-plane
    angle theta (rad, in [-pi, pi))."""

    kappa: float
    theta: float

    @property
    def planar(self) -> np.ndarray:
        """The (kappa*cos(theta), kappa*sin(theta)) vector."""
        return np.array([self.kappa * math.cos(self.theta),
                         self.kappa * math.sin(self.theta)])

    @classmethod
    def from_planar(cls, w) -> "ArcParameters":
        wx, wy = float(w[0]), float(w[1])
        kappa = math.hypot(wx, wy)
        if kappa == 0.0:
            return cls(0.0, 0.0)
        return cls(kappa, wrap_angle(math.atan2(wy, wx)))


@dataclass(frozen=True, eq=False)
class TransformPair:
    """Cached forward (2 x n) and inverse (n x 2) Clarke matrices for one
    design of n joints, together with the 2 x 2 Gram matrix of the inverse
    matrix and its condition number.  It keeps n, not the design, so a
    design and its cached pair form no reference cycle."""

    n: int
    forward_matrix: np.ndarray
    inverse_matrix: np.ndarray
    gram: np.ndarray
    condition: float

    def forward(self, joints) -> np.ndarray:
        """Clarke coordinates of a joint vector (exact linear map)."""
        return self.forward_matrix @ check_joints(joints, self.n)

    def inverse(self, clarke) -> np.ndarray:
        """Joint vector reproducing the given Clarke coordinates."""
        return self.inverse_matrix @ check_clarke(clarke)


def check_joints(joints, n: int) -> np.ndarray:
    """Validate and return a joint vector as a float array of length n."""
    values = np.atleast_1d(np.asarray(joints, dtype=float))
    if values.shape != (n,):
        raise DimensionMismatch(f"expected {n} joint values, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidParameter("joint values must be finite")
    return values


def check_clarke(clarke) -> np.ndarray:
    """Validate and return a Clarke coordinate pair as a float array of length 2."""
    pair = np.atleast_1d(np.asarray(clarke, dtype=float))
    if pair.shape != (2,):
        raise DimensionMismatch(f"expected a Clarke pair, got shape {pair.shape}")
    if not np.all(np.isfinite(pair)):
        raise InvalidParameter("Clarke coordinates must be finite")
    return pair


def check_count(value, name: str) -> int:
    """Validate and return a positive integer count (grid size, draw count)."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise InvalidParameter(f"{name} must be an integer of at least 1, got {value!r}")
    return int(value)


def inverse_clarke_matrix(psi) -> np.ndarray:
    """n x 2 matrix with rows [cos(psi_i), sin(psi_i)].

    Decodes a Clarke coordinate pair into n joint displacements.  Accepts
    any number of angles (a full design requires at least three).
    """
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    return np.column_stack([np.cos(psi), np.sin(psi)])


def _spd2_condition(gram: np.ndarray) -> float:
    """2-norm condition number of a symmetric 2x2 Gram matrix (inf when singular)."""
    a, b, c = float(gram[0, 0]), float(gram[0, 1]), float(gram[1, 1])
    mean = 0.5 * (a + c)
    half_spread = math.hypot(0.5 * (a - c), b)
    low, high = mean - half_spread, mean + half_spread
    if low <= 0.0 or not math.isfinite(high):
        return math.inf
    return high / low


def _inv2x2(gram: np.ndarray) -> np.ndarray:
    a, b, c = float(gram[0, 0]), float(gram[0, 1]), float(gram[1, 1])
    det = a * c - b * b
    return np.array([[c, -b], [-b, a]]) / det


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _build_pair(design: RobotDesign) -> TransformPair:
    minv = _read_only(inverse_clarke_matrix(design.psi))
    gram = _read_only(minv.T @ minv)
    condition = _spd2_condition(gram)
    if not condition < CONDITION_LIMIT:
        raise DegenerateDesign(
            f"design {design.name!r}: Gram condition {condition:.3g} is not "
            f"below {CONDITION_LIMIT:.0e}; joint angles are collinear modulo pi"
        )
    forward = _read_only(_inv2x2(gram) @ minv.T)
    return TransformPair(design.n, forward, minv, gram, condition)


def transform_pair(design: RobotDesign) -> TransformPair:
    """The forward/inverse Clarke matrix pair of a design.

    The forward matrix is the Moore-Penrose pseudoinverse of the inverse
    matrix.  Because the Gram matrix is only 2 x 2, the pseudoinverse is
    computed through its closed-form inverse; a condition number at or
    above CONDITION_LIMIT raises DegenerateDesign.  For symmetric layouts
    the result equals (2/n) times the transposed inverse matrix.  The pair
    is built once per design and its arrays are read-only.
    """
    return design.pair


def gram_condition(design: RobotDesign) -> float:
    """Condition number of the design's Gram matrix (inf when singular);
    never raises, for use in validation reports."""
    minv = inverse_clarke_matrix(design.psi)
    return _spd2_condition(minv.T @ minv)


def arc_forward_matrix(design: RobotDesign) -> np.ndarray:
    """2 x n map from joint displacements to the planar arc pair
    (kappa*cos(theta), kappa*sin(theta)); strips l, psi_i and d_i.
    Built once per design, read-only."""
    return design.arc_forward


def arc_inverse_matrix(design: RobotDesign) -> np.ndarray:
    """n x 2 map from the planar arc pair back to joint displacements;
    adds l, d_i and psi_i.  Built once per design, read-only."""
    return design.arc_inverse


def to_arc(design: RobotDesign, joints) -> ArcParameters:
    """Arc parameters realized by a joint vector.

    theta is defined as 0 for the straight configuration (kappa = 0).
    """
    w = design.arc_forward @ check_joints(joints, design.n)
    return ArcParameters.from_planar(w)


def from_arc(design: RobotDesign, arc) -> np.ndarray:
    """Joint vector realizing the given (kappa, theta) arc parameters."""
    kappa, theta = arc
    w = np.array([kappa * math.cos(theta), kappa * math.sin(theta)])
    return design.arc_inverse @ w


def symmetric_design(n: int, d: float, l: float, name: str = "symmetric") -> RobotDesign:
    """Design with n equally spaced joints at constant center-line distance d."""
    if int(n) != n or n < 3:
        raise InvalidParameter(f"a symmetric design needs an integer n >= 3, got {n}")
    if d <= 0.0 or l <= 0.0:
        raise InvalidParameter("d and l must be positive")
    n = int(n)
    psi = TWO_PI * np.arange(n) / n
    return RobotDesign(name=name, psi=psi, d=np.full(n, float(d)), l=float(l))
