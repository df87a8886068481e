"""C4-smooth, kinematically limited joint trajectories through via points.

Each joint's move between two via points uses a trapezoidal-like velocity
profile with three phases: lift-off, cruise, and set-down.  The ramps are
shaped by the degree-9 smoothstep, whose first four derivatives vanish at
both ends, so velocity is C4-continuous everywhere, including across
segment blends.  Per segment the joints are synchronized to a common
duration, consecutive segments may overlap by a configurable fraction of
the adjoining ramps, and a final uniform time dilation restores the
velocity/acceleration limits wherever superposition exceeded them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.interpolate import PPoly

from .errors import DimensionMismatch, InvalidParameter, OutOfRange
from .fileio import write_csv

# Peak slope of the degree-9 smoothstep (attained mid-ramp); the realized
# peak acceleration of a ramp is PEAK_SLOPE * v_peak / t_ramp.
PEAK_SLOPE = 315.0 / 128.0

# Kinematic limits used throughout the demos: v = 0.01*pi m/s and
# a = dec = 0.125*pi m/s^2.
DEFAULT_V_MAX = 0.01 * math.pi
DEFAULT_A_MAX = 0.125 * math.pi

# Ramp position shapes in tau, ascending: lift-off (phase 1) covers v*t_lo*P(tau),
# P the smoothstep's running integral, and set-down (phase 3) v*t_sd*(tau - P(tau)).
# Binomial shift: powers of tau0 times _SHIFT[phase][i, j] = shape_(i+j) * C(i+j, j)
# are the shape's ascending Taylor coefficients about tau0.
_RAMP_POSITION = npoly.polyint([0, 0, 0, 0, 0, 126, -420, 540, -315, 70])
_TERMS = _RAMP_POSITION.size
_SHIFT = {phase: np.array([[shape[i + j] * math.comb(i + j, j) if i + j < _TERMS else 0.0
                            for j in range(_TERMS)] for i in range(_TERMS)])
          for phase, shape in ((1, _RAMP_POSITION), (3, npoly.polysub([0, 1], _RAMP_POSITION)))}


def smoothstep(tau):
    """Degree-9 smoothstep on [0, 1], clamped outside."""
    tau = np.clip(tau, 0.0, 1.0)
    return tau**5 * (126.0 + tau * (-420.0 + tau * (540.0 + tau * (-315.0 + tau * 70.0))))


def smoothstep_slope(tau):
    """First derivative of the smoothstep; equals 630 * tau^4 * (1 - tau)^4."""
    tau = np.clip(tau, 0.0, 1.0)
    return 630.0 * tau**4 * (1.0 - tau)**4


def smoothstep_integral(tau):
    """Running integral of the smoothstep from 0; equals 1/2 at tau = 1."""
    tau = np.clip(tau, 0.0, 1.0)
    return tau**6 * (21.0 + tau * (-60.0 + tau * (67.5 + tau * (-35.0 + tau * 7.0))))


@dataclass(frozen=True)
class KinematicLimits:
    """Velocity, lift-off acceleration, and set-down deceleration bounds."""

    v_max: float = DEFAULT_V_MAX
    a_max: float = DEFAULT_A_MAX
    dec_max: float = DEFAULT_A_MAX

    def __post_init__(self):
        for label, value in (("v_max", self.v_max), ("a_max", self.a_max),
                             ("dec_max", self.dec_max)):
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidParameter(f"{label} must be positive and finite, got {value}")


DEFAULT_LIMITS = KinematicLimits()


@dataclass(frozen=True)
class TrajectoryState:
    """One joint's move within one segment.

    delta_rho is the signed distance to cover, v the peak velocity of the
    profile, a and dec the acceleration/deceleration bounds it was planned
    under, and t_lo/t_cr/t_sd the phase durations.
    """

    delta_rho: float
    v: float
    a: float
    dec: float
    t_lo: float
    t_cr: float
    t_sd: float

    @property
    def duration(self) -> float:
        return self.t_lo + self.t_cr + self.t_sd


def plan_segment(delta: float, limits: KinematicLimits = DEFAULT_LIMITS) -> TrajectoryState:
    """Plan one joint's profile for a signed distance.

    The ramp durations satisfy PEAK_SLOPE * v / t_ramp <= bound; when the
    distance is too short for a full trapezoid the cruise phase drops out
    and the peak velocity is reduced (triangular fallback).  Because the
    smoothstep integrates to 1/2 over a ramp, the distance closes as
    |delta| = v * (t_lo / 2 + t_cr + t_sd / 2).
    """
    if not math.isfinite(delta):
        raise InvalidParameter(f"segment distance must be finite, got {delta}")
    dist = abs(delta)
    if dist == 0.0:
        return TrajectoryState(delta, 0.0, limits.a_max, limits.dec_max, 0.0, 0.0, 0.0)
    t_lo_full = PEAK_SLOPE * limits.v_max / limits.a_max
    t_sd_full = PEAK_SLOPE * limits.v_max / limits.dec_max
    ramp_dist = 0.5 * limits.v_max * (t_lo_full + t_sd_full)
    if dist >= ramp_dist:
        v_peak = limits.v_max
        t_lo, t_sd = t_lo_full, t_sd_full
        t_cr = dist / v_peak - 0.5 * (t_lo + t_sd)
    else:
        v_peak = math.sqrt(2.0 * dist * limits.a_max * limits.dec_max
                           / (PEAK_SLOPE * (limits.a_max + limits.dec_max)))
        t_lo = PEAK_SLOPE * v_peak / limits.a_max
        t_sd = PEAK_SLOPE * v_peak / limits.dec_max
        t_cr = 0.0
    return TrajectoryState(delta, v_peak, limits.a_max, limits.dec_max, t_lo, t_cr, t_sd)


def synchronize(per_joint_states: list[TrajectoryState]) -> list[TrajectoryState]:
    """Stretch the joints of one segment to a common duration.

    Each profile is uniformly time-dilated to the slowest joint's duration,
    scaling its peak velocity down by the same factor, which preserves the
    distance closure and never increases peak velocity or acceleration.
    Zero-distance joints idle through the common duration.
    """
    if not per_joint_states:
        raise InvalidParameter("need at least one joint state")
    common = max(state.duration for state in per_joint_states)
    out = []
    for state in per_joint_states:
        if state.duration == 0.0:
            out.append(replace(state, t_cr=common))
        elif state.duration == common:
            out.append(state)
        else:
            factor = common / state.duration
            out.append(replace(state, v=state.v / factor, t_lo=state.t_lo * factor,
                               t_cr=state.t_cr * factor, t_sd=state.t_sd * factor))
    return out


@dataclass(frozen=True, eq=False)
class PlannedTrajectory:
    """Blended multi-segment trajectory for all joints of one design.

    states is the m x n grid of per-segment, per-joint profiles; all joints
    of a segment share its enable time.  dilation records the uniform time
    stretch applied after blending to restore the kinematic limits (1.0
    when superposition never exceeded them).
    """

    start: np.ndarray
    states: tuple[tuple[TrajectoryState, ...], ...]
    enable_times: np.ndarray
    segment_durations: np.ndarray
    horizon: float
    overlap_fraction: float
    dilation: float = 1.0

    @property
    def n(self) -> int:
        return self.start.size

    @property
    def segment_count(self) -> int:
        return len(self.states)

    @cached_property
    def position_poly(self) -> PPoly:
        """Joint positions as one exact piecewise polynomial in t (degree 10)."""
        return _position_poly(self)

    def goal(self) -> np.ndarray:
        deltas = np.array([[s.delta_rho for s in seg] for seg in self.states])
        return self.start + deltas.sum(axis=0)


def _position_poly(traj: PlannedTrajectory) -> PPoly:
    """Superpose every moving profile onto start as one piecewise polynomial:
    on each interval a profile adds its phase polynomial shifted to the
    interval start (a ramp shape, the cruise line, or its distance once done)."""
    rows = [(enable, j, s.v, s.t_lo, s.t_cr, s.t_sd, s.delta_rho)
            for enable, joint_states in zip(traj.enable_times, traj.states)
            for j, s in enumerate(joint_states) if s.v != 0.0]
    e, joint, v, t_lo, t_cr, t_sd, delta = np.array(rows, dtype=float).reshape(-1, 7).T
    bounds = np.stack([e, e + t_lo, e + (t_lo + t_cr), e + (t_lo + t_cr + t_sd)])
    # Ramps are also split at their midpoints, where the monomial terms cancel
    # far less in rounding; a motionless plan still gets one interval.
    mids = np.stack([e + 0.5 * t_lo, bounds[2] + 0.5 * t_sd])
    x = np.unique(np.concatenate([[0.0, traj.horizon or 1.0], bounds.ravel(), mids.ravel()]))
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
    coeffs = np.zeros((x.size - 1, traj.n, _TERMS))
    coeffs[:, :, 0] = traj.start
    np.add.at(coeffs, (interval, joint[profile].astype(int)), contrib)
    return PPoly(np.ascontiguousarray(coeffs.transpose(2, 0, 1)[::-1]), x)


def _horner(coeffs: np.ndarray, x: np.ndarray, times: np.ndarray):
    """Value, first and second derivative of a piecewise polynomial (PPoly
    coefficients and breakpoints) at times in its domain, in one Horner pass,
    which rounds less than PPoly's power sums where the large ramp terms cancel.
    It carries half the second derivative, which doubles exactly at the end."""
    interval = np.clip(np.searchsorted(x, times, side="right") - 1, 0, coeffs.shape[1] - 1)
    u = (times - x[interval])[:, None]
    pos = coeffs[0, interval]
    vel = np.zeros_like(pos)
    half_acc = np.zeros_like(pos)
    for row in coeffs[1:]:
        half_acc *= u
        half_acc += vel
        vel *= u
        vel += pos
        pos *= u
        pos += row[interval]
    return pos, vel, 2.0 * half_acc


def evaluate(traj: PlannedTrajectory, t):
    """Positions, velocities and accelerations at time(s) t in [0, horizon].

    One Horner pass over the trajectory's exact piecewise polynomial carries
    the value and its first two derivatives together; accepts a scalar or an
    array of query times and raises OutOfRange for a time outside the horizon
    or one that is not finite.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
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
# stays far below this; a piece is searched while its bound plus this margin
# reaches the lower bound, so rounding cannot prune the peak's piece.
_PRUNE_MARGIN = 1e-12
_CHANNEL_ORDER = {"velocity": 1, "acceleration": 2}


def _piece_derivative(coeffs: np.ndarray, order: int) -> np.ndarray:
    """PPoly coefficients of the order-th derivative of every piece."""
    powers = np.arange(coeffs.shape[0] - 1, order - 1, -1)
    falling = np.array([math.perm(p, order) for p in powers], dtype=float)
    return coeffs[:powers.size] * falling[:, None, None]


def _piece_bounds(coeffs: np.ndarray, x: np.ndarray, order: int):
    """Bernstein bound on |d^order/dt^order| of every (piece, column) of a
    piecewise polynomial, and the rounding margin that goes with it.

    coeffs are PPoly coefficients (highest power first) over breakpoints x;
    both results have shape (pieces, columns).
    """
    ascending = _piece_derivative(coeffs, order)[::-1]
    powers = np.arange(ascending.shape[0])
    scaled = ascending * np.diff(x)[None, :, None] ** powers[:, None, None]
    bernstein = np.einsum("ji,imc->jmc", _BERNSTEIN[:, :powers.size], scaled)
    return np.abs(bernstein).max(axis=0), _PRUNE_MARGIN * np.abs(scaled).sum(axis=0)


def peak_abs(traj: PlannedTrajectory, channel: str = "velocity", weights=None) -> float:
    """Maximum absolute velocity or acceleration anywhere on the horizon.

    With a weight matrix (one row per output, one column per joint) the
    per-joint vector is projected through it first, which bounds retargeted
    streams instead of the planned joints.  The peak is exact: the candidates
    are the breakpoints, the piece midpoints and each column's real roots of
    the next derivative.  Roots are sought only on the (piece, column) pairs
    whose Bernstein convex-hull bound (Farouki, CAGD 29, 2012) can reach the
    largest value at a breakpoint or midpoint; no other piece can hold the peak.
    """
    if channel not in _CHANNEL_ORDER:
        raise InvalidParameter(f"unknown channel {channel!r}; choose from "
                               f"{tuple(_CHANNEL_ORDER)}")
    order = _CHANNEL_ORDER[channel]
    poly = traj.position_poly
    coeffs = poly.c
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or weights.shape[1] != traj.n:
            raise DimensionMismatch(
                f"weights must have shape (rows, {traj.n}), got {weights.shape}")
        if not np.isfinite(weights).all():
            raise InvalidParameter("weights must be finite")
        coeffs = coeffs @ weights.T
    x = poly.x
    probes = np.concatenate([x, x[:-1] + 0.5 * np.diff(x)])
    peak = np.max(np.abs(_horner(coeffs, x, probes)[order]))
    bound, margin = _piece_bounds(coeffs, x, order)
    # Next derivative, with every pruned piece set to a nonzero constant: it has
    # no roots, where an all-zero piece would report its start point and a NaN.
    slope = _piece_derivative(coeffs, order + 1)
    pruned = bound + margin < peak
    slope[:, pruned] = 0.0
    slope[-1, pruned] = 1.0
    peak = max(peak, _peak_at_roots(coeffs, x, slope, order))
    return float(peak)


def _peak_at_roots(coeffs: np.ndarray, x: np.ndarray, slope: np.ndarray, order: int) -> float:
    """Largest |d^order/dt^order| of each column at the real roots of its own
    slope polynomial (PPoly coefficients over x); 0.0 when there are none."""
    per_column = PPoly(slope, x).roots(extrapolate=False)
    roots = np.concatenate(per_column)
    column = np.repeat(np.arange(len(per_column)), [r.size for r in per_column])
    finite = np.isfinite(roots)
    if not finite.any():
        return 0.0
    values = _horner(coeffs, x, roots[finite])[order]
    return float(np.max(np.abs(values[np.arange(values.shape[0]), column[finite]])))


def _dilate(traj: PlannedTrajectory, factor: float) -> PlannedTrajectory:
    states = tuple(
        tuple(replace(s, v=s.v / factor, t_lo=s.t_lo * factor, t_cr=s.t_cr * factor,
                      t_sd=s.t_sd * factor)
              for s in joint_states)
        for joint_states in traj.states)
    return replace(traj, states=states,
                   enable_times=traj.enable_times * factor,
                   segment_durations=traj.segment_durations * factor,
                   horizon=traj.horizon * factor,
                   dilation=traj.dilation * factor)


def blend(segments: list[list[TrajectoryState]], start,
          overlap_fraction: float = 0.5,
          limits: KinematicLimits = DEFAULT_LIMITS) -> PlannedTrajectory:
    """Blend synchronized segments into one trajectory per joint.

    Consecutive segments overlap by overlap_fraction of the smaller of the
    adjoining set-down and lift-off ramps (minimized over joints, so all
    joints share each enable time); joint positions superpose the segment
    profiles.  If the superposed velocity or acceleration exceeds the
    limits anywhere, every duration is uniformly dilated by the smallest
    factor restoring feasibility.
    """
    if not 0.0 <= overlap_fraction <= 1.0:
        raise InvalidParameter(f"overlap_fraction must lie in [0, 1], got {overlap_fraction}")
    if not segments:
        raise InvalidParameter("need at least one segment")
    n = len(segments[0])
    if any(len(joint_states) != n for joint_states in segments):
        raise InvalidParameter("all segments must cover the same joints")
    start = np.asarray(start, dtype=float).copy()
    if start.shape != (n,) or not np.all(np.isfinite(start)):
        raise InvalidParameter(f"start must hold {n} finite values")

    durations = np.array([max(s.duration for s in joint_states) for joint_states in segments])
    enable_times = np.zeros(len(segments))
    for j in range(1, len(segments)):
        window = min(min(prev.t_sd, nxt.t_lo)
                     for prev, nxt in zip(segments[j - 1], segments[j]))
        enable_times[j] = enable_times[j - 1] + durations[j - 1] - overlap_fraction * window
    states = tuple(tuple(joint_states) for joint_states in segments)
    start.setflags(write=False)
    enable_times.setflags(write=False)
    durations.setflags(write=False)
    traj = PlannedTrajectory(start=start, states=states, enable_times=enable_times,
                             segment_durations=durations,
                             horizon=float(enable_times[-1] + durations[-1]),
                             overlap_fraction=overlap_fraction)

    factor = max(1.0, peak_abs(traj, "velocity") / limits.v_max,
                 math.sqrt(peak_abs(traj, "acceleration") / min(limits.a_max, limits.dec_max)))
    if factor > 1.0:
        traj = _dilate(traj, factor * (1.0 + 1e-12))
    return traj


def plan_trajectory(via_points, limits: KinematicLimits = DEFAULT_LIMITS,
                    overlap_fraction: float = 0.5) -> PlannedTrajectory:
    """Plan a blended trajectory through an (m+1) x n table of via points.

    Row 0 is the start configuration; each subsequent row adds one segment.
    """
    via = np.atleast_2d(np.asarray(via_points, dtype=float))
    if via.ndim != 2 or via.shape[0] < 2:
        raise InvalidParameter("need a 2-D via table with at least start and goal rows")
    if not np.all(np.isfinite(via)):
        raise InvalidParameter("via points must be finite")
    segments = [
        synchronize([plan_segment(float(delta), limits) for delta in via[j + 1] - via[j]])
        for j in range(via.shape[0] - 1)
    ]
    return blend(segments, via[0], overlap_fraction, limits=limits)


def write_trajectory_csv(path, traj: PlannedTrajectory, dt: float = 1e-3) -> None:
    """CSV export on an exact dt grid: t_s, then rho/vel/acc per joint."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidParameter(f"dt must be positive and finite, got {dt}")
    ticks = int(math.floor(traj.horizon / dt)) + 1
    times = np.arange(ticks) * dt
    pos, vel, acc = evaluate(traj, np.clip(times, 0.0, traj.horizon))
    header = ["t_s"] + [f"{name}_{i + 1}_{unit}" for i in range(traj.n)
                        for name, unit in (("rho", "m"), ("vel", "mps"), ("acc", "mps2"))]
    per_joint = np.stack([pos, vel, acc], axis=2).reshape(ticks, 3 * traj.n)
    write_csv(path, header, np.column_stack([times, per_joint]))
