"""Reference implementations of trajectory evaluation and peak search.

These are the original masked per-phase evaluation, the dense-grid scan
with bounded scalar refinement that the exact piecewise-polynomial path in
`clarkekit.trajectory` replaced, and the exact peak that root-finds the next
derivative on every interval, which Bernstein pruning replaced.  Tests
compare the library against them.
"""

import numpy as np
from scipy.interpolate import PPoly
from scipy.optimize import minimize_scalar

from clarkekit import smoothstep, smoothstep_integral, smoothstep_slope


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


def oracle_evaluate(traj, t):
    """Superpose every segment x joint profile at time(s) t in [0, horizon]."""
    times = np.clip(np.atleast_1d(np.asarray(t, dtype=float)), 0.0, traj.horizon)
    pos = np.tile(traj.start, (times.size, 1))
    vel = np.zeros((times.size, traj.n))
    acc = np.zeros((times.size, traj.n))
    for enable, joint_states in zip(traj.enable_times, traj.states):
        local = times - enable
        for i, state in enumerate(joint_states):
            p, v, a = profile_eval(state, local)
            pos[:, i] += p
            vel[:, i] += v
            acc[:, i] += a
    if np.ndim(t) == 0:
        return pos[0], vel[0], acc[0]
    return pos, vel, acc


def oracle_peak_abs(traj, channel="velocity", weights=None):
    """Dense-grid scan followed by a bounded local refinement per column."""
    index = {"velocity": 1, "acceleration": 2}[channel]
    if traj.horizon == 0.0:
        return 0.0
    step = min(1e-4, traj.horizon / 1000.0)
    grid = np.arange(0.0, traj.horizon + step, step)
    grid[-1] = traj.horizon
    values = oracle_evaluate(traj, grid)[index]
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
            vector = oracle_evaluate(traj, float(t))[index]
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
    """A derivative of a piecewise polynomial at times in its domain, by
    Horner's rule over the derivative's own coefficients."""
    c = poly.derivative(order).c
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
    poly = traj.position_poly
    if weights is not None:
        poly = PPoly(poly.c @ np.asarray(weights, dtype=float).T, poly.x)
    roots = poly.derivative(order + 1).roots(extrapolate=False)
    candidates = np.concatenate([poly.x, *roots])
    return float(np.max(np.abs(horner(poly, candidates[np.isfinite(candidates)], order))))
