"""Discrete-time displacement control of first-order actuators at 1 kHz.

Every joint is an independent first-order lag (unity steady-state gain,
time constant T) stepped with the exact exponential-hold update.  The
closed loop forms its error in the target design's 2-D latent space: the
desired and the noisy measured joint vectors are both encoded with the
design-compensated arc mapping, a single PD gain pair acts on the latent
error, and the latent command is decoded back to joint commands.  Because
the encoding already absorbs the design's distances and length, the same
two gains serve any joint count and any design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import RobotDesign, arc_forward_matrix, arc_inverse_matrix
from .errors import DimensionMismatch, InvalidParameter
from .fileio import write_csv, write_json
from .retarget import TRANSFER_MODES, TransferMap, make_transfer_map
from .sampling import sample_joints
from .trajectory import (DEFAULT_LIMITS, KinematicLimits, PlannedTrajectory, evaluate,
                         peak_abs, plan_trajectory)

MODES = ("open_loop_clean", "open_loop_noisy", "closed_loop")


def pt1_step(state, command, dt: float, time_constant: float):
    """Exact discrete update of a first-order lag over one hold interval:
    state + (1 - exp(-dt/T)) * (command - state)."""
    if dt <= 0.0:
        raise InvalidParameter(f"dt must be positive, got {dt}")
    return state - math.expm1(-dt / time_constant) * (command - state)


@dataclass
class Pt1Actuator:
    """First-order proportional delay element with unity DC gain."""

    time_constant: float
    state: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.time_constant) and self.time_constant > 0.0):
            raise InvalidParameter(f"time constant must be positive, got {self.time_constant}")

    def step(self, command, dt: float):
        self.state = pt1_step(self.state, command, dt, self.time_constant)
        return self.state


@dataclass(frozen=True)
class SimConfig:
    """Control-loop parameters; the defaults reproduce the demo setup
    (1 kHz loop, 250 ms actuator lag, 2.5 mm uniform measurement noise,
    Kp = 75, Kd = 0.0015)."""

    dt: float = 1e-3
    time_constant: float = 0.25
    noise_eps: float = 2.5e-3
    kp: float = 75.0
    kd: float = 0.0015
    seed: int = 0
    mode: str = "closed_loop"
    transfer_mode: str = "general"

    def __post_init__(self):
        for label in ("dt", "time_constant", "noise_eps", "kp", "kd"):
            if not math.isfinite(getattr(self, label)):
                raise InvalidParameter(f"{label} must be finite, got {getattr(self, label)}")
        if self.dt <= 0.0:
            raise InvalidParameter(f"dt must be positive, got {self.dt}")
        if self.noise_eps < 0.0:
            raise InvalidParameter(f"noise_eps must be non-negative, got {self.noise_eps}")
        if self.time_constant <= 0.0:
            raise InvalidParameter(f"time_constant must be positive, got {self.time_constant}")
        if self.mode not in MODES:
            raise InvalidParameter(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.transfer_mode not in TRANSFER_MODES:
            raise InvalidParameter(
                f"unknown transfer mode {self.transfer_mode!r}; choose from {TRANSFER_MODES}")


@dataclass(eq=False)
class SimRun:
    """Time series and error metrics of one simulation run."""

    design: RobotDesign
    config: SimConfig
    t: np.ndarray
    desired: np.ndarray
    measured: np.ndarray
    commanded: np.ndarray
    true: np.ndarray
    transient_cutoff: float = 1.0

    def tracking_error(self) -> np.ndarray:
        return self.desired - self.true

    def _settled(self) -> np.ndarray:
        mask = self.t > self.transient_cutoff
        return mask if mask.any() else np.ones_like(mask)

    def rms_per_joint(self) -> np.ndarray:
        """Per-joint RMS tracking error after the transient cutoff."""
        err = self.tracking_error()[self._settled()]
        return np.sqrt(np.mean(err**2, axis=0))

    def rms_latent(self) -> float:
        """RMS of the latent-space tracking-error norm after the cutoff."""
        latent = self.tracking_error() @ arc_forward_matrix(self.design).T
        return float(np.sqrt(np.mean(np.sum(latent[self._settled()]**2, axis=1))))

    def max_abs_error(self) -> float:
        return float(np.max(np.abs(self.tracking_error()[self._settled()])))

    def steady_state_error(self, window: float = 0.5) -> np.ndarray:
        """Mean absolute per-joint error over the final `window` seconds."""
        mask = self.t >= self.t[-1] - window
        return np.mean(np.abs(self.tracking_error()[mask]), axis=0)

    def metrics(self) -> dict:
        return {
            "robot": self.design.name,
            "mode": self.config.mode,
            "transfer_mode": self.config.transfer_mode,
            "seed": self.config.seed,
            "rms_per_joint_m": [float(x) for x in self.rms_per_joint()],
            "rms_latent": self.rms_latent(),
            "max_abs_err_m": self.max_abs_error(),
            "transient_cutoff_s": self.transient_cutoff,
        }

    def write_csv(self, path) -> None:
        """CSV export: t_s, rho_d_1..n, rho_meas_1..n, rho_cmd_1..n, rho_true_1..n."""
        n = self.design.n
        header = ["t_s"]
        for label in ("rho_d", "rho_meas", "rho_cmd", "rho_true"):
            header += [f"{label}_{i + 1}" for i in range(n)]
        rows = ([self.t[k], *self.desired[k], *self.measured[k],
                 *self.commanded[k], *self.true[k]]
                for k in range(self.t.size))
        write_csv(path, header, rows)

    def write_metrics(self, path) -> None:
        write_json(path, self.metrics())


def run(desired, design: RobotDesign, config: SimConfig) -> SimRun:
    """Simulate one mode over a per-tick desired joint stream.

    The stream must already live on the config's dt grid.  Per tick the
    measurement adds a fresh uniform draw from [-eps, eps] to each joint's
    true state; in closed loop the PD controller acts on the latent error
    (backward-difference derivative, initialized to zero), while the
    open-loop modes feed the desired values to the actuators directly.
    The actuators start on the desired state at t = 0.
    """
    desired = np.asarray(desired, dtype=float)
    if desired.ndim != 2 or desired.shape[1] != design.n:
        raise DimensionMismatch(
            f"desired stream must have shape (ticks, {design.n}), got {desired.shape}")
    ticks = desired.shape[0]
    if ticks == 0:
        raise InvalidParameter("desired stream is empty")
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


class DesiredStream(NamedTuple):
    """Per-tick desired joints for a target robot, derived from a surrogate
    trajectory pushed through a transfer map."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    trajectory: PlannedTrajectory
    transfer: TransferMap
    via_points: np.ndarray
    dilation: float


def desired_stream(surrogate: RobotDesign, target: RobotDesign, seed: int,
                   transfer_mode: str = "general", dt: float = 1e-3,
                   segment_count: int = 5, overlap_fraction: float = 0.5,
                   limits: KinematicLimits = DEFAULT_LIMITS) -> DesiredStream:
    """Sample via points on the surrogate, plan its blended trajectory, and
    retarget every tick to the target design.

    Retargeting can raise individual joint speeds (a latent direction may
    align better with a target joint than with any surrogate joint), so the
    retargeted stream is checked against the velocity limit and, when
    needed, the whole timeline is uniformly stretched by the smallest
    factor restoring it; the reported dilation covers that stretch.
    """
    vias = sample_joints(surrogate, seed, segment_count + 1)
    traj = plan_trajectory(vias, limits, overlap_fraction)
    transfer = make_transfer_map(surrogate, target, transfer_mode)
    stretch = 1.0
    peak_speed = peak_abs(traj, "velocity", weights=transfer.matrix)
    if peak_speed > limits.v_max:
        stretch = peak_speed / limits.v_max * (1.0 + 1e-12)
    horizon = traj.horizon * stretch
    ticks = int(math.floor(horizon / dt)) + 1
    times = np.arange(ticks) * dt
    source_times = np.clip(times / stretch, 0.0, traj.horizon)
    positions, velocities, _ = evaluate(traj, source_times)
    return DesiredStream(times=times, positions=positions @ transfer.matrix.T,
                         velocities=velocities @ transfer.matrix.T / stretch,
                         trajectory=traj, transfer=transfer, via_points=vias,
                         dilation=traj.dilation * stretch)


def run_experiment(surrogate: RobotDesign, target: RobotDesign, seed: int,
                   transfer_mode: str = "general", config: SimConfig | None = None,
                   segment_count: int = 5, overlap_fraction: float = 0.5,
                   limits: KinematicLimits = DEFAULT_LIMITS,
                   modes=MODES) -> dict[str, SimRun]:
    """Full evaluation workflow for one surrogate/target pair.

    Samples segment_count + 1 via points on the surrogate, plans the
    blended trajectory under the kinematic limits, retargets the stream,
    and simulates the requested modes (all three by default).  All modes
    share the same seed, so the noisy ones see identical noise draws.
    """
    base = config if config is not None else SimConfig()
    stream = desired_stream(surrogate, target, seed, transfer_mode, dt=base.dt,
                            segment_count=segment_count,
                            overlap_fraction=overlap_fraction, limits=limits)
    return {
        mode: run(stream.positions, target,
                  replace(base, mode=mode, seed=seed, transfer_mode=transfer_mode))
        for mode in modes
    }
