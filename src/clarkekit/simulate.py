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
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import RobotDesign, check_count, check_positive, check_real, check_seed, finite_array
from .designs import builtin_designs, design_report
from .errors import DimensionMismatch, InvalidParameter
from .retarget import (PerturbedDesign, TransferMap, make_transfer_map, perturbation_analysis,
                       polar_clarke_grid)
from .sampling import sample_joints
from .trajectory import (_BINDING_TOLERANCE, DEFAULT_LIMITS, DEFAULT_V_MAX, PlannedTrajectory,
                         _dilation, _horner, peak_abs, plan_trajectory)

__all__ = ["MODES", "DesiredStream", "SimConfig", "SimRun", "desired_stream", "evaluate_suite",
           "run", "run_experiment", "surrogate_trajectory"]

MODES = ("open_loop_clean", "open_loop_noisy", "closed_loop")

# Error metrics cover the ticks after this time (every tick of a shorter run).
TRANSIENT_CUTOFF_S = 1.0


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

    def __post_init__(self):
        check_seed(self.seed)
        for label in ("dt", "time_constant"):
            check_positive(getattr(self, label), label)
        for label in ("noise_eps", "kp", "kd"):
            if not math.isfinite(check_real(getattr(self, label), label)):
                raise InvalidParameter(f"{label} must be finite, got {getattr(self, label)}")
        if self.noise_eps < 0.0:
            raise InvalidParameter(f"noise_eps must be non-negative, got {self.noise_eps}")
        # Jury's conditions: both poles lie strictly inside the unit circle
        a1, a2 = self._recurrence()[2:]
        if not (abs(a2) < 1.0 and abs(a1) < 1.0 - a2):
            poles = (np.roots([1.0, -a1, -a2]) if math.isfinite(a1) and math.isfinite(a2)
                     else "that are not finite")
            raise InvalidParameter(f"kp={self.kp}, kd={self.kd} give unstable poles {poles}")

    def _recurrence(self) -> tuple[float, float, float, float]:
        """alpha = 1 - exp(-dt/T), kd/dt, and a1, a2 of the latent closed loop
        z[k+1] = a1 z[k] + a2 z[k-1] + forcing (poles: roots of l**2 - a1 l - a2)."""
        alpha = -math.expm1(-self.dt / self.time_constant)
        kd_over_dt = self.kd / self.dt
        return alpha, kd_over_dt, 1.0 - alpha - alpha * (self.kp + kd_over_dt), alpha * kd_over_dt


@dataclass(eq=False)
class SimRun:
    """Time series and error metrics of one simulation run.

    In the open-loop modes the actuators are fed the desired stream itself,
    so commanded is the same array as desired, not a copy.  The runs of one
    stream (`run_experiment`, `evaluate_suite`) also share arrays: desired
    and t in every mode, the open-loop true states (and so the error metrics)
    in both open-loop modes, and the noise draw behind measured in
    open_loop_noisy and closed_loop.  transfer_mode is the mode of the
    TransferMap that built the desired stream, None for a stream given to `run`.
    """

    design: RobotDesign
    config: SimConfig
    mode: str
    transfer_mode: str | None
    t: np.ndarray
    desired: np.ndarray
    measured: np.ndarray
    commanded: np.ndarray
    true: np.ndarray

    @cached_property
    def _error_metrics(self) -> tuple[np.ndarray, float, float]:
        """Per-joint RMS, latent RMS and max |error| of desired - true after the
        transient cutoff, from one error sliced at the first settled tick (t
        increases; latent sliced after the product)."""
        error = self.desired - self.true
        first = int(np.searchsorted(self.t, TRANSIENT_CUTOFF_S, side="right"))
        if first == self.t.size:
            first = 0
        latent = error @ self.design.arc_forward.T
        error = error[first:]
        rms_per_joint = np.sqrt(np.mean(error**2, axis=0))
        rms_per_joint.setflags(write=False)
        return (rms_per_joint, float(np.sqrt(np.mean(np.sum(latent[first:]**2, axis=1)))),
                float(np.max(np.abs(error))))

    def rms_per_joint(self) -> np.ndarray:
        """Per-joint RMS tracking error after the transient cutoff."""
        return self._error_metrics[0]

    def rms_latent(self) -> float:
        """RMS of the latent-space tracking-error norm after the cutoff."""
        return self._error_metrics[1]

    def max_abs_error(self) -> float:
        return self._error_metrics[2]

    def metrics(self) -> dict:
        return {
            "robot": self.design.name,
            "mode": self.mode,
            "transfer_mode": self.transfer_mode,
            "seed": self.config.seed,
            "rms_per_joint_m": [float(x) for x in self.rms_per_joint()],
            "rms_latent": self.rms_latent(),
            "max_abs_err_m": self.max_abs_error(),
            "transient_cutoff_s": TRANSIENT_CUTOFF_S,
        }


def run(desired, design: RobotDesign, config: SimConfig, mode: str = "closed_loop") -> SimRun:
    """Simulate one mode of MODES over a per-tick, finite desired joint stream.

    The stream must already live on the config's dt grid.  Per tick the
    measurement adds a fresh uniform draw from [-eps, eps] to each joint's
    true state; in closed loop the PD controller acts on the latent error
    (backward-difference derivative, initialized to zero), while the
    open-loop modes feed the desired values to the actuators directly.
    The actuators start on the desired state at t = 0.  A log-depth scan
    solves the loop in closed form; it is not stepped tick by tick.
    """
    return _simulate(desired, design, config, (mode,), None)[mode]


def _simulate(desired, design: RobotDesign, config: SimConfig, modes,
              transfer_mode: str | None) -> dict[str, SimRun]:
    """Simulate each mode over one desired stream, as `run` does for that mode,
    computing once what their runs share: the tick grid, the noise draw (the
    config's seed and the stream's shape) and the open-loop state scan with its
    error metrics.  Every run is labelled with transfer_mode."""
    if any(mode not in MODES for mode in modes):
        raise InvalidParameter(f"unknown mode in {tuple(modes)}; choose from {MODES}")
    design.arc_forward  # every run's metrics need it; a map that is not finite raises here
    desired = finite_array(desired, "desired stream")
    if desired.ndim != 2 or desired.shape[1] != design.n:
        raise DimensionMismatch(
            f"desired stream must have shape (ticks, {design.n}), got {desired.shape}")
    ticks = desired.shape[0]
    if ticks == 0:
        raise InvalidParameter("desired stream is empty")
    t = np.arange(ticks) * config.dt
    noise = 0.0
    if config.noise_eps > 0.0 and any(mode != "open_loop_clean" for mode in modes):
        noise = np.random.default_rng(config.seed).uniform(-config.noise_eps, config.noise_eps,
                                                           size=desired.shape)
    runs, open_loop = {}, None
    for mode in modes:
        if mode == "closed_loop":
            true, commanded = _closed_loop(desired, noise, design, config)
        else:
            if open_loop is None:
                open_loop = _open_loop(desired, config)
            true, commanded = open_loop, desired
        measured = (0.0 if mode == "open_loop_clean" else noise) + true
        runs[mode] = SimRun(design=design, config=config, mode=mode, transfer_mode=transfer_mode,
                            t=t, desired=desired, measured=measured, commanded=commanded,
                            true=true)
    # both open-loop modes track desired with the same true states
    opened = [sim for sim in runs.values() if sim.true is open_loop]
    for sim in opened[1:]:
        sim.__dict__["_error_metrics"] = opened[0]._error_metrics
    return runs


def _open_loop(desired: np.ndarray, config: SimConfig) -> np.ndarray:
    """True states when the actuators are fed desired:
    s[k+1] = (1 - alpha) s[k] + alpha d[k] per joint, from s[0] = d[0]."""
    alpha = config._recurrence()[0]
    state = np.concatenate([desired[:1], alpha * desired[:-1]])[None]
    _linear_scan(state, np.array([[1.0 - alpha]]))
    return state[0]


def _closed_loop(desired: np.ndarray, noise, design: RobotDesign, config: SimConfig):
    """True states and joint commands of the latent PD loop.

    E @ D = I2 leaves one recurrence per latent channel: with z = E s,
    r = E (d - w), e = r - z and g = kd/dt,
    z[k+1] = a1 z[k] + a2 z[k-1] + alpha ((kp + g) r[k] - g r[k-1]);
    the first tick takes z[-1] = z[0] and r[-1] = r[0], i.e. e[-1] = e[0].
    """
    alpha, kd_over_dt, a1, a2 = config._recurrence()
    ticks = desired.shape[0]
    encode = design.arc_forward
    reference = (desired - noise) @ encode.T
    latent0 = encode @ desired[0]
    # companion state (z[k], z[k-1]) = A (z[k-1], z[k-2]) + (forcing[k-1], 0)
    companion = np.zeros((2, ticks, 2))
    companion[:, 0] = latent0
    companion[0, 1:] = alpha * ((config.kp + kd_over_dt) * reference[:-1]
                                - kd_over_dt * np.vstack([reference[:1], reference[:-2]]))
    _linear_scan(companion, np.array([[a1, a2], [1.0, 0.0]]))
    error = reference - companion[0]
    command = config.kp * error + kd_over_dt * np.diff(error, axis=0, prepend=error[:1])
    # D E is a projector: the part of s outside D's range decays as (1 - alpha)**k
    decay = np.power(1.0 - alpha, np.arange(ticks))[:, None]
    decode = design.arc_inverse.T
    true = (companion[0] - decay * latent0) @ decode
    true += decay * desired[0]
    return true, command @ decode


def _linear_scan(x: np.ndarray, transition: np.ndarray) -> None:
    """Solve x[:, k] = A x[:, k-1] + b[:, k] in place (x holds b on entry) by a
    Hillis-Steele doubling scan: ceil(log2 ticks) steps, each adding A**s times
    the partial sums s ticks back.  It stops once every entry of A**s is subnormal:
    later powers are zero, and the skipped terms vanish in rounding but run slowly."""
    power, shift = transition, 1
    while shift < x.shape[1] and np.abs(power).max() >= np.finfo(float).tiny:
        x[:, shift:] += np.einsum("ij,jk...->ik...", power, x[:, :-shift])
        power, shift = power @ power, 2 * shift


class DesiredStream(NamedTuple):
    """Per-tick desired joints for a target robot, derived from a surrogate
    trajectory pushed through a transfer map."""

    positions: np.ndarray
    velocities: np.ndarray


def surrogate_trajectory(surrogate: RobotDesign, seed: int,
                         segment_count: int = 5) -> PlannedTrajectory:
    """Sample segment_count + 1 via points on the surrogate and plan their
    blended trajectory under the default limits; one plan serves every
    target and transfer mode."""
    return plan_trajectory(sample_joints(surrogate, seed,
                                         check_count(segment_count, "segment_count") + 1))


def desired_stream(trajectory: PlannedTrajectory, transfer: TransferMap) -> DesiredStream:
    """Retarget every tick (SimConfig's dt) of a planned surrogate trajectory
    to the transfer map's target design.

    Retargeting can raise individual joint speeds (a latent direction may
    align better with a target joint than with any surrogate joint), so the
    retargeted stream is checked against the default velocity limit and,
    when its peak exceeds the limit by more than 1e-9 relative (the rule the
    planner's dilation follows), the whole timeline is uniformly stretched
    by the smallest factor restoring it.  The stream is evaluated on the two
    latent columns of the encoded polynomial and then decoded.
    """
    stretch = _dilation(peak_abs(trajectory, "velocity", weights=transfer.matrix)
                        / DEFAULT_LIMITS.v_max)
    horizon = trajectory.horizon * stretch
    ticks = int(math.floor(horizon / SimConfig.dt)) + 1
    source_times = np.clip(np.arange(ticks) * SimConfig.dt / stretch, 0.0, trajectory.horizon)
    poly = trajectory.position_poly
    decode = transfer.decoder.T
    positions, velocities = _horner(poly.c @ transfer.encoder.T, poly.x, source_times, 1)
    return DesiredStream(positions=positions @ decode, velocities=velocities @ decode / stretch)


def run_experiment(surrogate: RobotDesign, target: RobotDesign, seed: int,
                   transfer_mode: str = "general", segment_count: int = 5,
                   modes=MODES) -> dict[str, SimRun]:
    """Full evaluation workflow for one surrogate/target pair.

    Samples segment_count + 1 via points on the surrogate, plans the
    blended trajectory under the default kinematic limits, retargets the
    stream, and simulates the requested modes (all three by default).
    """
    trajectory = surrogate_trajectory(surrogate, seed, segment_count)
    transfer = make_transfer_map(surrogate, target, transfer_mode)
    stream = desired_stream(trajectory, transfer)
    return _simulate(stream.positions, target, SimConfig(seed=seed), modes, transfer.mode)


def evaluate_suite(seed: int) -> tuple[dict[str, SimRun], np.recarray, dict]:
    """The five-robot evaluation behind `clarkekit demo`, from one plan of the
    surrogate robot_0: every mode on each target's compensated stream, the
    uncompensated closed loop where the two transfer modes differ, and a
    fixed joint-location offset of robot_0 swept over a polar latent grid.
    Returns the runs keyed by output stem, the perturbation table and the summary."""
    designs = builtin_designs()
    surrogate = designs["robot_0"]
    trajectory = surrogate_trajectory(surrogate, seed)
    config = SimConfig(seed=seed)
    runs: dict[str, SimRun] = {}
    summary: dict = {"seed": seed, "surrogate": "robot_0", "robots": {}}
    for name, target in designs.items():
        entry = design_report(target)
        transfer = make_transfer_map(surrogate, target, "general")
        stream = desired_stream(trajectory, transfer)
        entry["max_desired_velocity_mps"] = float(np.max(np.abs(stream.velocities)))
        entry["velocity_limit_mps"] = DEFAULT_V_MAX
        entry["velocity_limit_respected"] = bool(
            entry["max_desired_velocity_mps"] <= DEFAULT_V_MAX * (1.0 + _BINDING_TOLERANCE))
        for mode, sim in _simulate(stream.positions, target, config, MODES,
                                   transfer.mode).items():
            runs[f"{name}_{mode}"] = sim
            entry[f"rms_latent_{mode}"] = sim.rms_latent()
        rms_comp = runs[f"{name}_closed_loop"].rms_per_joint()
        entry["rms_per_joint_closed_loop_m"] = [float(x) for x in rms_comp]
        sym_transfer = make_transfer_map(surrogate, target, "symmetric")
        sym_stream = desired_stream(trajectory, sym_transfer)
        shared = min(sym_stream.positions.shape[0], stream.positions.shape[0])
        deviation = float(np.max(np.abs(sym_stream.positions[:shared]
                                        - stream.positions[:shared])))
        entry["transfer_modes_equivalent"] = bool(
            deviation < 1e-12 and sym_stream.positions.shape == stream.positions.shape)
        entry["transfer_mode_deviation_m"] = deviation
        if not entry["transfer_modes_equivalent"] and name != "robot_0":
            uncomp = _simulate(sym_stream.positions, target, config, ("closed_loop",),
                               sym_transfer.mode)["closed_loop"]
            runs[f"{name}_closed_loop_uncompensated"] = uncomp
            rms_uncomp = float(np.mean(uncomp.rms_per_joint()))
            entry["rms_mean_closed_loop_uncompensated_m"] = rms_uncomp
            entry["degraded_without_compensation"] = bool(
                rms_uncomp > float(np.mean(rms_comp)))
        summary["robots"][name] = entry

    psi_offset = np.array([0.05, -0.03, 0.02])
    d_offset_mm = np.array([0.5, -0.3, 0.2])
    perturbed = PerturbedDesign(nominal=surrogate, true_psi=surrogate.psi + psi_offset,
                                true_d=surrogate.d + d_offset_mm / 1000.0)
    records = perturbation_analysis(
        perturbed, polar_clarke_grid(float(np.min(surrogate.d)), radii=5, angles=16))
    summary["perturbation"] = {
        "robot": "robot_0",
        "psi_offset_rad": [float(x) for x in psi_offset],
        "d_offset_mm": [float(x) for x in d_offset_mm],
        "grid_points": len(records),
        "max_abs_dkappa_l": float(np.max(np.abs(records.dkappa_l))),
        "max_abs_dtheta_rad": float(np.max(np.abs(records.dtheta))),
    }
    return runs, records, summary
