"""Reference implementations of the control-loop simulation and its stream.

These are the exact PT1 step and the original per-tick loop that stepped
every joint of the PT1 actuators and formed the PD error in the latent space,
one tick at a time.  `clarkekit.simulate.run` replaced the loop with a
closed-form scan of the latent recurrence.  The desired stream evaluated on
every surrogate joint and mapped through the transfer matrix, with its
per-tick velocities, is what `desired_stream` replaced with an evaluation of
the positions on the two latent columns and the exact peak speed.
Tests compare the library against them.
"""

import math

import numpy as np

from clarkekit import (DEFAULT_LIMITS, InvalidParameter, SimConfig, SimRun,
                       arc_forward_matrix, peak_abs)
from clarkekit.trajectory import _horner


def pt1_step(state, command, dt: float, time_constant: float):
    """Exact discrete update of a first-order lag over one hold interval:
    state + (1 - exp(-dt/T)) * (command - state)."""
    if dt <= 0.0:
        raise InvalidParameter(f"dt must be positive, got {dt}")
    return state - math.expm1(-dt / time_constant) * (command - state)


def run_loop(desired, design, config, mode) -> SimRun:
    """Step the simulation tick by tick (same inputs and noise as `run`)."""
    desired = np.asarray(desired, dtype=float)
    ticks = desired.shape[0]
    encode = arc_forward_matrix(design)
    decode = design.arc_inverse
    alpha = -math.expm1(-config.dt / config.time_constant)
    closed = mode == "closed_loop"
    noisy = mode in ("open_loop_noisy", "closed_loop") and config.noise_eps > 0.0
    if noisy:
        rng = np.random.default_rng(config.seed)
        noise = rng.uniform(-config.noise_eps, config.noise_eps, size=desired.shape)
    else:
        noise = np.zeros_like(desired)

    measured = np.empty_like(desired)
    commanded = np.empty_like(desired)
    true = np.empty_like(desired)
    state = desired[0].copy()
    latent_desired = desired @ encode.T
    error_prev = None
    kd_over_dt = config.kd / config.dt
    for k in range(ticks):
        true[k] = state
        measurement = state + noise[k]
        measured[k] = measurement
        if closed:
            error = latent_desired[k] - encode @ measurement
            if error_prev is None:
                error_prev = error
            command = decode @ (config.kp * error + kd_over_dt * (error - error_prev))
            error_prev = error
        else:
            command = desired[k]
        commanded[k] = command
        state = state + alpha * (command - state)
    return SimRun(design=design, config=config, mode=mode, transfer_mode=None,
                  t=np.arange(ticks) * config.dt,
                  desired=desired, measured=measured, commanded=commanded, true=true)


def joint_space_stream(trajectory, transfer):
    """The (ticks, n) desired positions and velocities evaluated on the surrogate's
    joints and mapped through transfer.matrix, and the retarget stretch behind their
    timeline: none while the peak speed stays within 1e-9 of the limit, else
    the peak-to-limit ratio padded by 1 + 1e-12."""
    stretch = 1.0
    ratio = peak_abs(trajectory, "velocity", weights=transfer.matrix) / DEFAULT_LIMITS.v_max
    if ratio > 1.0 + 1e-9:
        stretch = ratio * (1.0 + 1e-12)
    ticks = int(math.floor(trajectory.horizon * stretch / SimConfig.dt)) + 1
    times = np.arange(ticks) * SimConfig.dt
    poly = trajectory.position_poly
    positions, velocities = _horner(poly.c, poly.x,
                                    np.clip(times / stretch, 0.0, trajectory.horizon), 1)
    return (positions @ transfer.matrix.T, velocities @ transfer.matrix.T / stretch), stretch
