"""Reference implementation of the control-loop simulation.

This is the original per-tick loop that stepped every joint of the PT1
actuators and formed the PD error in the latent space, one tick at a time.
`clarkekit.simulate.run` replaced it with a closed-form scan of the latent
recurrence; tests compare the library against it.
"""

import math

import numpy as np

from clarkekit import SimRun, arc_forward_matrix, arc_inverse_matrix


def run_loop(desired, design, config) -> SimRun:
    """Step the simulation tick by tick (same inputs and noise as `run`)."""
    desired = np.asarray(desired, dtype=float)
    ticks = desired.shape[0]
    encode = arc_forward_matrix(design)
    decode = arc_inverse_matrix(design)
    alpha = -math.expm1(-config.dt / config.time_constant)
    closed = config.mode == "closed_loop"
    noisy = config.mode in ("open_loop_noisy", "closed_loop") and config.noise_eps > 0.0
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
    return SimRun(design=design, config=config, t=np.arange(ticks) * config.dt,
                  desired=desired, measured=measured, commanded=commanded, true=true)
