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
import reprlib
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDesign, DimensionMismatch, InvalidParameter

__all__ = ["ArcParameters", "CONDITION_LIMIT", "RobotDesign", "from_arc", "gram_condition",
           "symmetric_design", "to_arc", "wrap_angle"]

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
        psi = np.atleast_1d(finite_array(self.psi, "joint angles")).copy()
        d = np.atleast_1d(float_array(self.d, "center-line distances")).copy()
        if psi.ndim != 1 or d.ndim != 1 or psi.shape != d.shape:
            raise InvalidParameter("psi and d must be 1-D sequences of equal length")
        if psi.size < 3:
            raise InvalidParameter(f"a design needs at least 3 joints, got {psi.size}")
        if not np.all(np.isfinite(d)) or not np.all(d > 0.0):
            raise InvalidParameter("center-line distances must be positive and finite")
        l = check_positive(self.l, "segment length")
        # the arc maps scale by l * d_i and its reciprocal; both must be finite
        # and nonzero, which a subnormal or underflowing product is not
        with np.errstate(over="ignore", divide="ignore"):
            scale = l * d
            finite = np.isfinite(scale).all() and np.isfinite(1.0 / scale).all()
        if not finite:
            raise InvalidParameter(f"l * d_i and its reciprocal must be finite and nonzero for "
                                   f"the arc maps, got l={l} and d={reprlib.repr(d.tolist())}")
        psi.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "l", l)

    @property
    def n(self) -> int:
        return self.psi.size

    @cached_property
    def _gram(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(inverse matrix, Gram matrix, Gram condition) of the design, built
        once; never raises, so a report can read a degenerate condition."""
        minv = _read_only(np.column_stack([np.cos(self.psi), np.sin(self.psi)]))
        gram = _read_only(minv.T @ minv)
        return minv, gram, _spd2_condition(gram)

    @cached_property
    def forward_matrix(self) -> np.ndarray:
        """2 x n Clarke encoder, the Moore-Penrose pseudoinverse of
        `inverse_matrix`.

        Because the Gram matrix is only 2 x 2, the pseudoinverse is computed
        through its closed-form inverse; a condition number at or above
        CONDITION_LIMIT raises DegenerateDesign, on every access.  For
        symmetric layouts the result equals (2/n) times the transposed
        inverse matrix.
        """
        minv, gram, condition = self._gram
        if not condition < CONDITION_LIMIT:
            raise DegenerateDesign(
                f"design {self.name!r}: Gram condition {condition:.3g} is not "
                f"below {CONDITION_LIMIT:.0e}; joint angles are collinear modulo pi"
            )
        return _read_only(_inv2x2(gram) @ minv.T)

    @cached_property
    def inverse_matrix(self) -> np.ndarray:
        """n x 2 Clarke decoder with rows [cos(psi_i), sin(psi_i)]; raises
        DegenerateDesign, on every access, where `forward_matrix` does."""
        self.forward_matrix  # raises DegenerateDesign for a collinear layout
        return self._gram[0]

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def arc_forward(self) -> np.ndarray:
        """2 x n map from joint displacements to the planar arc pair
        (kappa*cos(theta), kappa*sin(theta)); strips l, psi_i and d_i.  Raises
        InvalidParameter if it overflows (a near-collinear layout at a tiny l * d_i)."""
        forward = self.forward_matrix / self.d[None, :] / self.l
        if not np.isfinite(forward).all():
            raise InvalidParameter(f"design {self.name!r}: its arc forward map is not finite")
        return _read_only(forward)

    @cached_property
    def arc_inverse(self) -> np.ndarray:
        """n x 2 map from the planar arc pair back to joint displacements;
        adds l, d_i and psi_i.  Finite: its entries are at most l * d_i."""
        return _read_only(self.l * self.d[:, None] * self.inverse_matrix)

    def forward(self, joints) -> np.ndarray:
        """Clarke coordinates of a joint vector (exact linear map)."""
        return self.forward_matrix @ check_joints(joints, self.n)

    def inverse(self, clarke) -> np.ndarray:
        """Joint vector reproducing the given Clarke coordinates."""
        return self.inverse_matrix @ check_clarke(clarke)

    def is_symmetric(self) -> bool:
        """True when the joints are equally spaced (gaps within 1e-9 rad of 2*pi/n)."""
        angles = np.sort(self.psi % TWO_PI)
        gaps = np.diff(angles, append=angles[0] + TWO_PI)
        return bool(np.all(np.abs(gaps - TWO_PI / self.n) < 1e-9))

    def has_constant_d(self) -> bool:
        """True when all center-line distances are equal (to 1e-12 relative)."""
        return bool(np.ptp(self.d) <= 1e-12 * np.max(self.d))


class ArcParameters(NamedTuple):
    """Constant-curvature arc: curvature kappa (1/m) and bending-plane
    angle theta (rad, in [-pi, pi))."""

    kappa: float
    theta: float

    @classmethod
    def from_planar(cls, w) -> "ArcParameters":
        wx, wy = float(w[0]), float(w[1])
        kappa = math.hypot(wx, wy)
        if kappa == 0.0:
            return cls(0.0, 0.0)
        return cls(kappa, wrap_angle(math.atan2(wy, wx)))


def check_real(value, name: str) -> float:
    """Validate and return a real scalar as a float; a string, None, or any
    other value that is not a number within float64's range raises InvalidParameter."""
    try:
        math.isfinite(value)
    except (TypeError, OverflowError):
        raise InvalidParameter(f"{name} must be a real number, got {value!r}") from None
    return float(value)


def check_positive(value, name: str) -> float:
    """check_real for a length, a limit or a time step: positive and finite."""
    real = check_real(value, name)
    if not (math.isfinite(real) and real > 0.0):
        raise InvalidParameter(f"{name} must be positive and finite, got {value}")
    return real


def float_array(values, what: str) -> np.ndarray:
    """values as a float array, converted once (an array that is already
    float is returned as it is); raises InvalidParameter when an entry is
    not a number, numeric strings and None included, or the entries do not
    form an array.  The message shows the input abbreviated."""
    try:
        array = np.asarray(values)
        # a string anywhere makes the whole array a string kind; a complex
        # kind would lose its imaginary part to the cast, and the cast of an
        # object array would parse a numeric string and turn None into NaN
        kind = array.dtype.kind
        if kind not in "USc" and (kind != "O" or all(isinstance(entry, numbers.Real)
                                                     for entry in array.flat)):
            return array.astype(float, copy=False)
    except (TypeError, ValueError):
        pass
    raise InvalidParameter(f"{what} must be real numbers, got {reprlib.repr(values)}")


def finite_array(values, what: str) -> np.ndarray:
    """float_array whose entries must all be finite."""
    array = float_array(values, what)
    if not np.isfinite(array).all():
        raise InvalidParameter(f"{what} must be finite")
    return array


def check_joints(joints, n: int) -> np.ndarray:
    """Validate and return a joint vector as a float array of length n."""
    values = np.atleast_1d(finite_array(joints, "joint values"))
    if values.shape != (n,):
        raise DimensionMismatch(f"expected {n} joint values, got shape {values.shape}")
    return values


def check_clarke(clarke) -> np.ndarray:
    """Validate and return a Clarke coordinate pair as a float array of length 2."""
    pair = np.atleast_1d(finite_array(clarke, "Clarke coordinates"))
    if pair.shape != (2,):
        raise DimensionMismatch(f"expected a Clarke pair, got shape {pair.shape}")
    return pair


def check_integer(value, name: str, minimum: int) -> int:
    """Validate and return an integer of at least `minimum`, as a Python int
    of any size (a count, a seed, a joint count); a bool is not an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidParameter(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return int(value)


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


def transform_pair(design: RobotDesign) -> RobotDesign:
    """The design itself; kept out of __all__ for bench/workloads.py and bench/tracer.py."""
    return design


def gram_condition(design: RobotDesign) -> float:
    """Condition number of the design's Gram matrix (inf when singular);
    never raises, for use in validation reports."""
    return design._gram[2]


def arc_forward_matrix(design: RobotDesign) -> np.ndarray:
    """`design.arc_forward`; kept out of __all__ for bench/workloads.py and bench/tracer.py."""
    return design.arc_forward


def to_arc(design: RobotDesign, joints) -> ArcParameters:
    """Arc parameters realized by a joint vector.

    theta is defined as 0 for the straight configuration (kappa = 0).  A
    curvature that overflows float64 raises InvalidParameter.
    """
    values = check_joints(joints, design.n)
    with np.errstate(over="ignore", invalid="ignore"):
        arc = ArcParameters.from_planar(design.arc_forward @ values)
    if not math.isfinite(arc.kappa):
        raise InvalidParameter("the curvature of these joint values is not finite in float64")
    return arc


def from_arc(design: RobotDesign, arc) -> np.ndarray:
    """Joint vector realizing the given (kappa, theta) arc parameters; joint
    values that overflow float64 raise InvalidParameter."""
    try:
        kappa, theta = arc
    except (TypeError, ValueError):
        raise DimensionMismatch(f"expected a (kappa, theta) pair, got {arc!r}") from None
    kappa, theta = check_real(kappa, "kappa"), check_real(theta, "theta")
    if not (math.isfinite(kappa) and math.isfinite(theta)):
        raise InvalidParameter(f"arc parameters must be finite, got ({kappa}, {theta})")
    w = np.array([kappa * math.cos(theta), kappa * math.sin(theta)])
    with np.errstate(over="ignore", invalid="ignore"):
        joints = design.arc_inverse @ w
    if not np.isfinite(joints).all():
        raise InvalidParameter(f"the joint values of arc ({kappa}, {theta}) are not finite "
                               "in float64")
    return joints


def symmetric_design(n: int, d: float, l: float, name: str = "symmetric") -> RobotDesign:
    """Design with n equally spaced joints at constant center-line distance d."""
    n = check_integer(n, "n", 3)
    d, l = check_positive(d, "d"), check_positive(l, "l")
    psi = TWO_PI * np.arange(n) / n
    return RobotDesign(name=name, psi=psi, d=np.full(n, d), l=l)
