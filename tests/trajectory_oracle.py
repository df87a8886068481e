"""Reference implementations of trajectory planning, evaluation and peak search.

These are the degree-9 smoothstep with its slope and running integral, which
planning replaced with shifted ramp polynomials, the original scalar
per-joint planning and synchronization that the (segments, joints) profile
arrays replaced, the masked per-phase evaluation, the dense-grid scan with
bounded scalar refinement that the exact piecewise-polynomial path in
`clarkekit.trajectory` replaced, and the exact peak that root-finds the next
derivative on every interval, which Bernstein pruning replaced, and the
Horner pass that gathered rows by fancy indexing and broadcast a (points, 1)
offset, which the contiguous pass replaced.  Tests compare the library
against them.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import PPoly
from scipy.optimize import minimize_scalar

from clarkekit import PEAK_SLOPE


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
class ScalarState:
    """One joint's move within one segment."""

    delta_rho: float
    v: float
    t_lo: float
    t_cr: float
    t_sd: float

    @property
    def duration(self) -> float:
        return self.t_lo + self.t_cr + self.t_sd


def oracle_plan_segment(delta, limits):
    """One joint's profile for a signed distance, with the zero distance and
    the full/triangular choice as explicit branches."""
    dist = abs(delta)
    if dist == 0.0:
        return ScalarState(delta, 0.0, 0.0, 0.0, 0.0)
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
    return ScalarState(delta, v_peak, t_lo, t_cr, t_sd)


def oracle_synchronize(per_joint_states):
    """Stretch a list of one segment's joint profiles to their common duration."""
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


def profile_eval(state, local):
    """Position/velocity/acceleration contribution of one profile at local times."""
    pos = np.zeros_like(local)
    vel = np.zeros_like(local)
    acc = np.zeros_like(local)
    if state.v == 0.0:
        return pos, vel, acc
    t_lo, t_cr, t_sd = state.t_lo, state.t_cr, state.t_sd
    v = state.v
    duration = state.duration
    done = local >= duration
    pos[done] = abs(state.delta_rho)
    lift = (local > 0.0) & (local < t_lo)
    if lift.any():
        tau = local[lift] / t_lo
        pos[lift] = v * t_lo * smoothstep_integral(tau)
        vel[lift] = v * smoothstep(tau)
        acc[lift] = v / t_lo * smoothstep_slope(tau)
    cruise = (local >= t_lo) & (local < t_lo + t_cr)
    if cruise.any():
        pos[cruise] = v * (0.5 * t_lo + local[cruise] - t_lo)
        vel[cruise] = v
    setdown = (local >= t_lo + t_cr) & ~done
    if setdown.any():
        tau = (local[setdown] - t_lo - t_cr) / t_sd
        pos[setdown] = v * (0.5 * t_lo + t_cr) + v * t_sd * (tau - smoothstep_integral(tau))
        vel[setdown] = v * (1.0 - smoothstep(tau))
        acc[setdown] = -v / t_sd * smoothstep_slope(tau)
    if state.delta_rho < 0.0:
        return -pos, -vel, -acc
    return pos, vel, acc


def oracle_evaluate(start, states, enable_times, horizon, t):
    """Superpose every segment x joint profile (states, (segments, joints)
    arrays, each segment starting at its enable time) onto the start
    configuration at time(s) t in [0, horizon]."""
    times = np.clip(np.atleast_1d(np.asarray(t, dtype=float)), 0.0, horizon)
    pos = np.tile(start, (times.size, 1))
    vel = np.zeros((times.size, start.size))
    acc = np.zeros((times.size, start.size))
    for enable, *fields in zip(enable_times, *states):
        local = times - enable
        for i, values in enumerate(zip(*fields)):
            p, v, a = profile_eval(ScalarState(*map(float, values)), local)
            pos[:, i] += p
            vel[:, i] += v
            acc[:, i] += a
    if np.ndim(t) == 0:
        return pos[0], vel[0], acc[0]
    return pos, vel, acc


def oracle_peak_abs(start, states, enable_times, horizon, channel="velocity", weights=None):
    """Dense-grid scan of oracle_evaluate's superposition followed by a
    bounded local refinement per column."""
    index = {"velocity": 1, "acceleration": 2}[channel]
    if horizon == 0.0:
        return 0.0
    profiles = (start, states, enable_times, horizon)
    step = min(1e-4, horizon / 1000.0)
    grid = np.arange(0.0, horizon + step, step)
    grid[-1] = horizon
    values = oracle_evaluate(*profiles, grid)[index]
    if weights is not None:
        values = values @ np.asarray(weights, dtype=float).T
    best = 0.0
    for column in range(values.shape[1]):
        signal = np.abs(values[:, column])
        k = int(np.argmax(signal))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, grid.size - 1)]
        peak = float(signal[k])

        def magnitude(t, column=column):
            vector = oracle_evaluate(*profiles, float(t))[index]
            if weights is not None:
                return -abs(float(np.asarray(weights)[column] @ vector))
            return -abs(float(vector[column]))

        if hi > lo:
            result = minimize_scalar(magnitude, bounds=(lo, hi), method="bounded",
                                     options={"xatol": 1e-12})
            peak = max(peak, -float(result.fun))
        best = max(best, peak)
    return best


def horner(poly, times, order=0):
    """A derivative of a piecewise polynomial (any object with coefficients c
    and breakpoints x) at times in its domain, by Horner's rule over the
    derivative's own coefficients, which scipy's PPoly computes."""
    c = PPoly(poly.c, poly.x).derivative(order).c
    interval = np.clip(np.searchsorted(poly.x, times, side="right") - 1, 0, c.shape[1] - 1)
    u = (times - poly.x[interval])[:, None]
    out = c[0, interval]
    for row in c[1:]:
        out = out * u + row[interval]
    return out


def roots_peak_abs(traj, channel="velocity", weights=None):
    """Exact peak from the breakpoints and the real roots of the next
    derivative on every interval and column, each candidate evaluated in
    every column."""
    order = {"velocity": 1, "acceleration": 2}[channel]
    poly = PPoly(traj.position_poly.c, traj.position_poly.x)
    if weights is not None:
        poly = PPoly(poly.c @ np.asarray(weights, dtype=float).T, poly.x)
    roots = poly.derivative(order + 1).roots(extrapolate=False)
    candidates = np.concatenate([poly.x, *roots])
    return float(np.max(np.abs(horner(poly, candidates[np.isfinite(candidates)], order))))


def oracle_horner(coeffs, x, times):
    """Value, first and second derivative of a piecewise polynomial (PPoly
    coefficients and breakpoints) in one Horner pass: each coefficient row
    gathered by fancy indexing, the offset broadcast from one column, half the
    second derivative carried and doubled at the end."""
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
