"""C4-smooth, kinematically limited joint trajectories through via points.

Each joint's move between two via points uses a trapezoidal-like velocity
profile with three phases: lift-off, cruise, and set-down.  The ramps are
shaped by the degree-9 smoothstep, whose first four derivatives vanish at
both ends, so velocity is C4-continuous everywhere, including across
segment blends.  Per segment the joints are synchronized to a common
duration, consecutive segments may overlap by a configurable fraction of
the adjoining ramps, and a final uniform time dilation restores the
velocity/acceleration limits wherever superposition exceeded them.  A plan
keeps the joint positions as one piecewise polynomial and its via times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import check_positive, check_real, finite_array, float_array
from .errors import DimensionMismatch, InvalidParameter, OutOfRange

__all__ = ["DEFAULT_A_MAX", "DEFAULT_LIMITS", "DEFAULT_V_MAX", "PEAK_SLOPE", "KinematicLimits",
           "PlannedTrajectory", "evaluate", "peak_abs", "plan_segment", "plan_trajectory"]

# Peak slope of the degree-9 smoothstep (attained mid-ramp); the realized
# peak acceleration of a ramp is PEAK_SLOPE * v_peak / t_ramp.
PEAK_SLOPE = 315.0 / 128.0

# Kinematic limits used throughout the demos: v = 0.01*pi m/s and
# a = dec = 0.125*pi m/s^2.
DEFAULT_V_MAX = 0.01 * math.pi
DEFAULT_A_MAX = 0.125 * math.pi

# Ramp position shapes in tau, ascending: lift-off (phase 1) covers v*t_lo*P(tau),
# P the smoothstep's running integral, and set-down (phase 3) v*t_sd*(tau - P(tau)).
# Both are written out, exact in float64 and with the -0.0 entries a subtraction
# gives, so that importing this module loads no numpy.polynomial.
# Binomial shift: powers of tau0 times _SHIFT[phase][i, j] = shape_(i+j) * C(i+j, j)
# are the shape's ascending Taylor coefficients about tau0.
_RAMP_POSITION = np.array([0, 0, 0, 0, 0, 0, 21, -60, 67.5, -35, 7])
_TERMS = _RAMP_POSITION.size
_SHIFT = {phase: np.array([[shape[i + j] * math.comb(i + j, j) if i + j < _TERMS else 0.0
                            for j in range(_TERMS)] for i in range(_TERMS)])
          for phase, shape in ((1, _RAMP_POSITION),
                               (3, np.concatenate([[0.0, 1.0], -_RAMP_POSITION[2:]])))}


@dataclass(frozen=True)
class KinematicLimits:
    """Velocity, lift-off acceleration, and set-down deceleration bounds."""

    v_max: float = DEFAULT_V_MAX
    a_max: float = DEFAULT_A_MAX
    dec_max: float = DEFAULT_A_MAX

    def __post_init__(self):
        for label in ("v_max", "a_max", "dec_max"):
            check_positive(getattr(self, label), label)


DEFAULT_LIMITS = KinematicLimits()


class _PiecewisePolynomial(NamedTuple):
    """A piecewise polynomial: c holds each piece's coefficients in the local
    time t - x[piece], highest power first, with shape (degree + 1, pieces,
    columns), over the ascending breakpoints x."""

    c: np.ndarray
    x: np.ndarray


class TrajectoryState(NamedTuple):
    """Move profiles as arrays of one common shape: the signed distance to
    cover delta_rho, the peak velocity v and the phase durations t_lo/t_cr/t_sd."""

    delta_rho: np.ndarray
    v: np.ndarray
    t_lo: np.ndarray
    t_cr: np.ndarray
    t_sd: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.t_lo + self.t_cr + self.t_sd


def plan_segment(delta, limits: KinematicLimits = DEFAULT_LIMITS) -> TrajectoryState:
    """Plan the profile of each signed distance in a scalar or an array.

    The ramp durations satisfy PEAK_SLOPE * v / t_ramp <= bound; when the
    distance is too short for a full trapezoid the cruise phase drops out
    and the peak velocity is reduced (triangular fallback), down to v = 0
    with zero durations for a zero distance.  Because the smoothstep
    integrates to 1/2 over a ramp, the distance closes as
    |delta| = v * (t_lo / 2 + t_cr + t_sd / 2).
    """
    delta = finite_array(delta, "segment distances")
    dist = np.abs(delta)
    t_lo_full = PEAK_SLOPE * limits.v_max / limits.a_max
    t_sd_full = PEAK_SLOPE * limits.v_max / limits.dec_max
    ramp_dist = 0.5 * limits.v_max * (t_lo_full + t_sd_full)
    # dist > 0 keeps a zero distance triangular where the full ramps underflow to 0;
    # the cap keeps distances that take the full profile from overflowing below
    full = (dist >= ramp_dist) & (dist > 0.0)
    # a timing that overflows is rejected below, not warned about here
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.where(full, limits.v_max,
                     np.sqrt(2.0 * np.minimum(dist, ramp_dist) * limits.a_max * limits.dec_max
                             / (PEAK_SLOPE * (limits.a_max + limits.dec_max))))
        states = TrajectoryState(
            delta, v,
            np.where(full, t_lo_full, PEAK_SLOPE * v / limits.a_max),
            np.where(full, dist / limits.v_max - 0.5 * (t_lo_full + t_sd_full), 0.0),
            np.where(full, t_sd_full, PEAK_SLOPE * v / limits.dec_max))
        finite = np.isfinite(states.duration).all()
    if not finite:
        raise InvalidParameter("a segment's timing is not finite in float64: "
                               "the distance is too long for the limits")
    if np.any((v == 0.0) & (dist > 0.0)):
        raise InvalidParameter(f"the limits v_max={limits.v_max}, a_max={limits.a_max}, "
                               f"dec_max={limits.dec_max} give a nonzero distance a peak "
                               "velocity of 0 in float64")
    return states


def _synchronize(states: TrajectoryState) -> TrajectoryState:
    """Stretch the profiles along the last axis (a segment's joints) to their common duration.

    Each profile is uniformly time-dilated to the slowest joint's duration,
    scaling its peak velocity down by the same factor, which preserves the
    distance closure and never increases peak velocity or acceleration.
    Zero-distance joints idle through the common duration.
    """
    duration = states.duration
    if duration.ndim == 0 or duration.shape[-1] == 0:
        raise InvalidParameter("need at least one joint along the last axis")
    common = duration.max(axis=-1, keepdims=True)
    idle = duration == 0.0
    factor = np.divide(common, duration, out=np.ones_like(duration), where=~idle)
    return TrajectoryState(states.delta_rho, states.v / factor, states.t_lo * factor,
                           np.where(idle, common, states.t_cr * factor),
                           states.t_sd * factor)


@dataclass(frozen=True, eq=False)
class PlannedTrajectory:
    """Blended multi-segment trajectory for all joints of one design.

    position_poly holds the joint positions as one exact piecewise
    polynomial in t (degree 10), its coefficients c highest power first with
    shape (11, pieces, joints) over the breakpoints x, and via_times the time
    each segment reaches its via point; the last is the horizon.  dilation
    records the uniform time stretch applied after blending to restore the
    kinematic limits (exactly 1.0 unless a peak exceeded its limit by more
    than 1e-9 relative); a dilated plan holds its planned polynomial in
    t / dilation and its via times scaled by it.  Every array is read-only.
    """

    position_poly: _PiecewisePolynomial
    via_times: np.ndarray
    dilation: float

    @property
    def horizon(self) -> float:
        return float(self.via_times[-1])

    @property
    def n(self) -> int:
        return self.position_poly.c.shape[2]

    @property
    def segment_count(self) -> int:
        return self.via_times.size


def _position_poly(start: np.ndarray, states: TrajectoryState, enable_times: np.ndarray,
                   horizon: float) -> _PiecewisePolynomial:
    """Superpose every moving profile onto start as one piecewise polynomial:
    on each interval a profile adds its phase polynomial shifted to the
    interval start (a ramp shape, the cruise line, or its distance once done)."""
    segment, joint = np.nonzero(states.v)
    e = enable_times[segment]
    delta, v, t_lo, t_cr, t_sd = (field[segment, joint] for field in states)
    bounds = np.stack([e, e + t_lo, e + (t_lo + t_cr), e + (t_lo + t_cr + t_sd)])
    # Ramps are also split at their midpoints, where the monomial terms cancel
    # far less in rounding; a motionless plan still gets one interval.
    mids = np.stack([e + 0.5 * t_lo, bounds[2] + 0.5 * t_sd])
    # The sorted distinct candidates, deduplicated as np.unique does (they are
    # finite), without the numpy.ma import np.unique makes on first use.
    x = np.sort(np.concatenate([[0.0, horizon or 1.0], bounds.ravel(), mids.ravel()]))
    x = x[np.concatenate([[True], x[1:] != x[:-1]])]
    # phase per interval and profile: 0 idle, 1 lift-off, 2 cruise, 3 set-down, 4 done
    phase = (np.arange(x.size - 1)[:, None] >= np.searchsorted(x, bounds)[:, None, :]).sum(0)
    interval, profile = np.nonzero(phase)
    phase = phase[interval, profile]
    left = x[interval]
    contrib = np.zeros((interval.size, _TERMS))
    for which, origin, ramp in ((1, bounds[0], t_lo), (3, bounds[2], t_sd)):
        pick = phase == which
        k = profile[pick]
        tau0 = (left[pick] - origin[k]) / ramp[k]
        scale = (v[k] * ramp[k])[:, None] / ramp[k][:, None] ** np.arange(_TERMS)
        contrib[pick] = (np.vander(tau0, _TERMS, increasing=True) @ _SHIFT[which]) * scale
    k = profile[phase == 2]
    contrib[phase == 2, :2] = np.column_stack([v[k] * (left[phase == 2] - e[k] - 0.5 * t_lo[k]),
                                               v[k]])
    contrib[phase == 3, 0] += (v * (0.5 * t_lo + t_cr))[profile[phase == 3]]
    contrib[phase == 4, 0] = np.abs(delta)[profile[phase == 4]]
    contrib *= np.sign(delta)[profile, None]
    coeffs = np.zeros((x.size - 1, start.size, _TERMS))
    coeffs[:, :, 0] = start
    np.add.at(coeffs, (interval, joint[profile]), contrib)
    return _PiecewisePolynomial(np.ascontiguousarray(coeffs.transpose(2, 0, 1)[::-1]), x)


def _horner(coeffs: np.ndarray, x: np.ndarray, times: np.ndarray, order: int = 2):
    """Value and derivatives up to `order` (at most 2) of a piecewise polynomial
    (coefficients highest power first, and breakpoints) at times in its domain,
    in one Horner pass, which rounds less than power sums where the large ramp
    terms cancel.  It carries half the second derivative, which doubles exactly
    at the end.  Rows are gathered with np.take and the offset spans every
    column, so numpy's inner loops run over whole rows."""
    interval = np.clip(np.searchsorted(x, times, side="right") - 1, 0, coeffs.shape[1] - 1)
    pos = coeffs[0].take(interval, axis=0)
    u = np.empty_like(pos)
    u[...] = (times - x[interval])[:, None]
    # chain[k] holds the k-th derivative (halved for k = 2) of the part seen so far
    chain = [pos] + [np.zeros_like(pos) for _ in range(order)]
    for row in coeffs[1:]:
        for k in range(order, 0, -1):
            chain[k] *= u
            chain[k] += chain[k - 1]
        pos *= u
        pos += row.take(interval, axis=0)
    if order == 2:
        chain[2] *= 2.0
    return tuple(chain)


def evaluate(traj: PlannedTrajectory, t):
    """Positions, velocities and accelerations at time(s) t in [0, horizon].

    One Horner pass over the trajectory's exact piecewise polynomial carries
    the value and its first two derivatives together; accepts a scalar or a
    1-D array of query times (any other shape raises DimensionMismatch) and
    raises OutOfRange for a time outside the horizon or one that is not finite.
    """
    times = np.atleast_1d(float_array(t, "query times"))
    if times.ndim != 1:
        raise DimensionMismatch(f"query times must be a scalar or a 1-D array, got shape "
                                f"{times.shape}")
    scalar = np.ndim(t) == 0
    if times.size and not (np.isfinite(times).all() and times.min() >= -1e-9
                           and times.max() <= traj.horizon + 1e-9):
        raise OutOfRange(f"query time outside [0, {traj.horizon}] or not finite")
    times = np.clip(times, 0.0, traj.horizon)
    poly = traj.position_poly
    pos, vel, acc = _horner(poly.c, poly.x, times)
    if scalar:
        return pos[0], vel[0], acc[0]
    return pos, vel, acc


# Degree of the velocity polynomial: the highest a peak is taken of.
_PEAK_DEGREE = _TERMS - 2
# Ascending power coefficients b_i of a degree-K polynomial on [0, 1] map to its
# Bernstein coefficients as beta_j = sum_{i<=j} C(j, i) / C(K, i) b_i.  The
# polynomial lies in the convex hull of its Bernstein coefficients, so max_j |beta_j|
# bounds it on the piece; a lower degree uses the first columns (degree elevation).
_BERNSTEIN = np.array([[math.comb(j, i) / math.comb(_PEAK_DEGREE, i) if i <= j else 0.0
                        for i in range(_PEAK_DEGREE + 1)] for j in range(_PEAK_DEGREE + 1)])
# Relative to sum |b_i|, rounding in the Bernstein conversion and in Horner's rule
# stays far below this.  A (piece, column) whose bound exceeds the breakpoint and
# midpoint peak by no more than this margin (a tie) can raise the peak by rounding
# only, so its bound settles it without a root search.
_PRUNE_MARGIN = 1e-12
_CHANNEL_ORDER = {"velocity": 1, "acceleration": 2}


def _piece_derivative(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Coefficients (highest power first) of the order-th derivative of every piece."""
    powers = np.arange(coeffs.shape[0] - 1, order - 1, -1)
    falling = np.array([math.perm(p, order) for p in powers], dtype=float)
    return coeffs[:powers.size] * falling[:, None, None]


def _piece_bounds(coeffs: np.ndarray, x: np.ndarray, order: int):
    """Bernstein bound on |d^order/dt^order| of every (piece, column) of a
    piecewise polynomial, and the rounding margin that goes with it.

    coeffs are piece coefficients (highest power first) over breakpoints x;
    both results have shape (pieces, columns).  Raises InvalidParameter when
    a piece is too long for its coefficients on [0, 1] to be finite.
    """
    ascending = _piece_derivative(coeffs, order)[::-1]
    powers = np.arange(ascending.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = ascending * np.diff(x)[None, :, None] ** powers[:, None, None]
    if not np.isfinite(scaled).all():
        raise InvalidParameter("a trajectory piece is too long to bound its peak in float64")
    bernstein = np.einsum("ji,imc->jmc", _BERNSTEIN[:, :powers.size], scaled)
    return np.abs(bernstein).max(axis=0), _PRUNE_MARGIN * np.abs(scaled).sum(axis=0)


def peak_abs(traj: PlannedTrajectory, channel: str = "velocity", weights=None) -> float:
    """Maximum absolute velocity or acceleration anywhere on the horizon.

    With a weight matrix (one row per output, one column per joint) the
    per-joint vector is projected through it first, which bounds retargeted
    streams instead of the planned joints.  The peak is exact to within the
    rounding margin of its pieces (1e-12 of a piece's coefficient sum): the
    candidates are the breakpoints, the piece midpoints and each column's real
    roots of the next derivative.  Roots are sought only on the (piece, column)
    pairs whose Bernstein convex-hull bound (Farouki, CAGD 29, 2012) exceeds
    the largest value at a breakpoint or midpoint by more than that margin.
    Any other pair is a tie: it raises the peak at most to its bound, which no
    value on its piece exceeds.
    Raises InvalidParameter when a piece is too long for that bound to be
    finite in float64, as for via distances near 1e300.
    """
    if channel not in _CHANNEL_ORDER:
        raise InvalidParameter(f"unknown channel {channel!r}; choose from "
                               f"{tuple(_CHANNEL_ORDER)}")
    order = _CHANNEL_ORDER[channel]
    poly = traj.position_poly
    coeffs = poly.c
    if weights is not None:
        weights = finite_array(weights, "weights")
        if weights.ndim != 2 or weights.shape[0] == 0 or weights.shape[1] != traj.n:
            raise DimensionMismatch(f"weights must have shape (rows, {traj.n}) with at least "
                                    f"one row, got {weights.shape}")
        coeffs = coeffs @ weights.T
    x = poly.x
    probes = np.concatenate([x, x[:-1] + 0.5 * np.diff(x)])
    peak = np.max(np.abs(_horner(coeffs, x, probes, order)[order]))
    bound, margin = _piece_bounds(coeffs, x, order)
    tie = bound <= peak + margin
    peak = max(peak, np.max(bound, where=tie, initial=0.0))
    if not tie.all():
        peak = max(peak, _peak_at_roots(coeffs, x, order, ~tie))
    return float(peak)


# A root whose imaginary part is at most this fraction of its piece's width
# counts as real.  The eigenvalue solver can return a real root of multiplicity
# m as a complex cluster whose imaginary parts reach about eps**(1/m) of the
# width; the slope has degree at most 8, and eps**(1/8) is about 0.011.
_IMAG_TOLERANCE = 0.05


def _peak_at_roots(coeffs: np.ndarray, x: np.ndarray, order: int, search: np.ndarray) -> float:
    """Largest |d^order/dt^order| at the real roots of the next derivative, on
    the (piece, column) pairs that the boolean (pieces, columns) mask search
    selects; 0.0 when there are none.

    Each pair's slope polynomial is solved in local time by np.roots, and the
    real part of every root whose imaginary part is within _IMAG_TOLERANCE of
    the piece's width is clipped to the piece.
    Every candidate is then a true value of the polynomial at a point of its
    piece, so the threshold errs towards keeping roots at no risk: an extra
    candidate, such as a near-real root of a complex pair, can only move the
    peak towards the true maximum, never past it, while a dropped real root
    would under-report the peak.
    """
    slope = _piece_derivative(coeffs, order + 1)
    width = np.diff(x)
    times, columns = [], []
    for piece, column in zip(*np.nonzero(search)):
        roots = np.roots(slope[:, piece, column])
        local = roots.real[np.abs(roots.imag) <= _IMAG_TOLERANCE * width[piece]]
        times.append(x[piece] + np.clip(local, 0.0, width[piece]))
        columns.append(np.full(local.size, column))
    times = np.concatenate(times)
    if not times.size:
        return 0.0
    values = _horner(coeffs, x, times, order)[order]
    return float(np.max(np.abs(values[np.arange(times.size), np.concatenate(columns)])))


# A peak at most this far above its limit, relative, does not bind.  The per-tick
# limit checks allow the same tolerance, and a peak that only touches its limit
# overshoots it by a few ulps plus peak_abs's margin (1e-12 relative to a piece's
# coefficients), about a thousand times less.
_BINDING_TOLERANCE = 1e-9


def _dilation(velocity_ratio: float, acceleration_ratio: float = 0.0) -> float:
    """Uniform time stretch that brings peaks at these peak-to-limit ratios
    within their limits: velocity falls as 1/factor, acceleration as 1/factor**2.

    Exactly 1.0 when no ratio exceeds 1 + _BINDING_TOLERANCE; a binding factor
    is padded by 1 + 1e-12, so that rounding in the stretched timeline cannot
    leave a peak above its limit.
    """
    if max(velocity_ratio, acceleration_ratio) <= 1.0 + _BINDING_TOLERANCE:
        return 1.0
    return max(velocity_ratio, math.sqrt(acceleration_ratio)) * (1.0 + 1e-12)


def _tick_count(horizon: float, dt: float) -> int:
    """Ticks of the grid 0, dt, 2 dt, ... up to horizon; a grid too long to allocate raises
    MemoryError first (numpy would raise ValueError, and math.floor OverflowError on inf)."""
    steps = horizon / dt
    if not steps < np.iinfo(np.intp).max / 8:
        raise MemoryError(f"Unable to allocate a grid of {steps:.3g} ticks")
    return int(math.floor(steps)) + 1


def plan_trajectory(via_points, limits: KinematicLimits = DEFAULT_LIMITS,
                    overlap_fraction: float = 0.5) -> PlannedTrajectory:
    """Plan a blended trajectory through an (m+1) x n table of via points.

    Row 0 is the start configuration; each subsequent row adds one segment,
    whose joints are synchronized to a common duration.  Consecutive
    segments overlap by overlap_fraction of the smaller of the adjoining
    set-down and lift-off ramps (minimized over joints, so all joints share
    each enable time); joint positions superpose the segment profiles.  If
    the superposed velocity or acceleration exceeds the limits anywhere,
    every duration is uniformly dilated by the smallest factor restoring
    feasibility.
    """
    via = np.atleast_2d(finite_array(via_points, "via points"))
    if via.ndim != 2 or via.shape[0] < 2:
        raise InvalidParameter("need a 2-D via table with at least start and goal rows")
    overlap_fraction = check_real(overlap_fraction, "overlap_fraction")
    if not 0.0 <= overlap_fraction <= 1.0:
        raise InvalidParameter(f"overlap_fraction must lie in [0, 1], got {overlap_fraction}")
    states = _synchronize(plan_segment(np.diff(via, axis=0), limits))
    durations = states.duration.max(axis=1)
    window = np.minimum(states.t_sd[:-1], states.t_lo[1:]).min(axis=1)
    enable_times = np.zeros(durations.size)
    with np.errstate(over="ignore"):
        for j in range(1, durations.size):
            enable_times[j] = (enable_times[j - 1] + durations[j - 1]
                               - overlap_fraction * window[j - 1])
        via_times = enable_times + durations
    horizon = float(via_times[-1])
    if not math.isfinite(horizon):
        raise InvalidParameter("the trajectory's timing is not finite in float64: "
                               "the segments are too long for the limits")
    # ramps too short for float64 give non-finite coefficients, rejected below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        poly = _position_poly(via[0], states, enable_times, horizon)
    if not np.isfinite(poly.c).all():
        raise InvalidParameter(
            f"the limits v_max={limits.v_max}, a_max={limits.a_max}, dec_max={limits.dec_max} "
            "give ramps too short for the trajectory's polynomial to be finite in float64")
    traj = PlannedTrajectory(poly, via_times, 1.0)

    factor = _dilation(peak_abs(traj, "velocity") / limits.v_max,
                       peak_abs(traj, "acceleration") / min(limits.a_max, limits.dec_max))
    # A ramp that rounds away at its start time leaves a velocity step (a long
    # move ends at full speed; a lost cruise leaves none), and one whose end
    # rounds by an ulp leaves about v * 126 (ulp / ramp)**5 there, as 1 - S(tau)
    # is 126 (1 - tau)**5 near 1: that may not exceed the binding tolerance of v_max.
    e = enable_times[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for end, start, ramp in ((e + states.t_lo, e, states.t_lo),
                                 (e + states.duration, e + (states.t_lo + states.t_cr),
                                  states.t_sd)):
            residual = states.v / limits.v_max * 126.0 * (np.spacing(end) / ramp) ** 5
            bad = ((end == start) | (residual > _BINDING_TOLERANCE)) & (ramp > 0.0)
            if np.any(bad):
                k = np.argmax(np.where(bad, np.spacing(end) / ramp, -1.0))  # the worst ramp
                raise InvalidParameter(f"the limits v_max={limits.v_max}, a_max={limits.a_max}, "
                                       f"dec_max={limits.dec_max} give a ramp too short for "
                                       "float64 to resolve at its start or end time: a "
                                       f"{ramp.flat[k]:.6g} s ramp ends at t = {end.flat[k]:.6g} "
                                       f"s, where an ulp is {np.spacing(end.flat[k]):.6g} s")
    if factor > 1.0:
        # the dilated positions are the planned polynomial in t / factor; scaling
        # may merge breakpoints an ulp apart into a zero-width piece, which
        # _horner and peak_abs accept
        powers = np.arange(poly.c.shape[0] - 1, -1, -1, dtype=float)
        poly = _PiecewisePolynomial(poly.c / factor ** powers[:, None, None], poly.x * factor)
        traj = PlannedTrajectory(poly, via_times * factor, factor)
    for array in (*traj.position_poly, traj.via_times):
        array.setflags(write=False)
    return traj
