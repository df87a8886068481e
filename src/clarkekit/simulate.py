"""Discrete-time displacement control of first-order actuators at 1 kHz.

Every joint is an independent first-order lag (unity steady-state gain, time constant T)
stepped with the exact exponential-hold update.  The closed loop forms its error in the
target design's 2-D latent space: the desired and the noisy measured joint vectors are both
encoded with the design-compensated arc mapping, a single PD gain pair acts on the latent
error, and the latent command is decoded back to joint commands.  Because the encoding
already absorbs the design's distances and length, the same two gains serve any joint count
and any design.  The five-robot evaluation of `clarkekit demo` is composed from these runs,
and written, by cli.cmd_demo.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .core import RobotDesign, check_integer, check_positive, check_real, finite_array
from .errors import DimensionMismatch, InvalidParameter
from .retarget import TransferMap, make_transfer_map
from .sampling import sample_joints
from .trajectory import (DEFAULT_LIMITS, PlannedTrajectory, _dilation, _horner, _retime,
                         _tick_count, peak_abs, plan_trajectory)

__all__ = ["MODES", "SimConfig", "SimRun", "desired_stream", "run", "run_experiment",
           "surrogate_trajectory"]

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
        object.__setattr__(self, "seed", check_integer(self.seed, "seed", 0))
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

    Each per-tick field is the (ticks, n) transpose of an (n, ticks) array: ticks run along
    contiguous memory.  The open-loop modes feed the actuators the desired stream itself, so
    commanded is desired.  Every stream is solved in all three modes at once (`run` keeps
    one of them), and the three runs share arrays: desired and t in every mode, the open-loop
    true states (and so the error metrics) in both open-loop modes, and the noise draw behind
    measured in open_loop_noisy and closed_loop.  transfer_mode is the mode of the
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
        """Per-joint RMS, latent RMS and max |error| of desired - true after the transient
        cutoff (t increases), reduced along ticks.  Before squaring, each joint's error is
        scaled by the power of two of its peak, and the latent error by that of the largest
        peak: exactly, so no square leaves float64's range, and an RMS in range keeps the
        bits of the unscaled formula."""
        first = int(np.searchsorted(self.t, TRANSIENT_CUTOFF_S, side="right"))
        if first == self.t.size:
            first = 0
        error = (self.desired[first:] - self.true[first:]).T
        peak = np.max(np.abs(error), axis=1)
        exponent = np.frexp(peak)[1]
        scaled = np.ldexp(error, -exponent[:, None])
        rms_per_joint = np.ldexp(np.sqrt(np.mean(np.square(scaled, out=scaled), axis=1)), exponent)
        latent = self.design.arc_forward @ np.ldexp(error, -exponent.max(), out=scaled)
        rms_latent = np.ldexp(np.sqrt(np.mean(np.sum(latent**2, axis=0))), exponent.max())
        rms_per_joint.setflags(write=False)
        return rms_per_joint, float(rms_latent), float(peak.max())

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
    if mode not in MODES:
        raise InvalidParameter(f"unknown mode in {(mode,)}; choose from {MODES}")
    return _simulate(desired, design, config, None)[mode]


def _simulate(desired, design: RobotDesign, config: SimConfig,
              transfer_mode: str | None) -> dict[str, SimRun]:
    """The three runs of one desired stream in MODES order, each as `run` gives it,
    computing once what they share: the tick grid, the noise draw (the config's seed
    and the stream's shape) and the open-loop state scan with its error metrics.
    Every run is labelled with transfer_mode."""
    desired = finite_array(desired, "desired stream")
    if desired.ndim != 2 or desired.shape[1] != design.n:
        raise DimensionMismatch(
            f"desired stream must have shape (ticks, {design.n}), got {desired.shape}")
    if desired.shape[0] == 0:
        raise InvalidParameter("desired stream is empty")
    rows = np.ascontiguousarray(desired.T)  # no copy of a transposed (n, ticks) stream
    desired = rows.T
    noise = 0.0
    if config.noise_eps > 0.0:
        noise = np.ascontiguousarray(np.random.default_rng(config.seed).uniform(
            -config.noise_eps, config.noise_eps, size=desired.shape).T)
    open_true = _open_loop(rows, config).T
    closed_true, command = (states.T for states in _closed_loop(rows, noise, design, config))
    shared = partial(SimRun, design=design, config=config, transfer_mode=transfer_mode,
                     t=np.arange(desired.shape[0]) * config.dt, desired=desired)
    clean = shared(mode="open_loop_clean", measured=(0.0 + open_true.T).T, commanded=desired,
                   true=open_true)
    noisy = shared(mode="open_loop_noisy", measured=(noise + open_true.T).T, commanded=desired,
                   true=open_true)
    # both open-loop modes track desired with the same true states
    noisy.__dict__["_error_metrics"] = clean._error_metrics
    closed = shared(mode="closed_loop", measured=(noise + closed_true.T).T, commanded=command,
                    true=closed_true)
    return {sim.mode: sim for sim in (clean, noisy, closed)}


def _open_loop(desired: np.ndarray, config: SimConfig) -> np.ndarray:
    """True states (n, ticks) when the actuators are fed desired (n, ticks):
    s[k+1] = (1 - alpha) s[k] + alpha d[k] per joint, from s[0] = d[0]."""
    alpha = config._recurrence()[0]
    return _linear_scan(np.concatenate([desired[:, :1], alpha * desired[:, :-1]], axis=1),
                        np.array([[1.0 - alpha]]))


def _closed_loop(desired: np.ndarray, noise, design: RobotDesign, config: SimConfig):
    """(n, ticks) true states and joint commands of the latent PD loop on desired (n, ticks).

    E @ D = I2 leaves one recurrence per latent channel: with z = E s,
    r = E (d - w), e = r - z and g = kd/dt,
    z[k+1] = a1 z[k] + a2 z[k-1] + alpha ((kp + g) r[k] - g r[k-1]);
    the first tick takes z[-1] = z[0] and r[-1] = r[0], i.e. e[-1] = e[0].
    """
    alpha, kd_over_dt, a1, a2 = config._recurrence()
    ticks = desired.shape[1]
    encode = design.arc_forward
    reference = encode @ (desired - noise)
    latent0 = encode @ desired[:, 0]
    # companion state (z[k], z[k-1]) = A (z[k-1], z[k-2]) + (forcing[k-1], 0)
    companion = np.zeros((2, 2, ticks))
    companion[:, :, 0] = latent0
    companion[0, :, 1:] = alpha * ((config.kp + kd_over_dt) * reference[:, :-1]
                                   - kd_over_dt * np.hstack([reference[:, :1], reference[:, :-2]]))
    _linear_scan(companion, np.array([[a1, a2], [1.0, 0.0]]))
    error = reference - companion[0]
    command = config.kp * error + kd_over_dt * np.diff(error, axis=1, prepend=error[:, :1])
    # D E is a projector: the part of s outside D's range decays as (1 - alpha)**k
    decay = np.power(1.0 - alpha, np.arange(ticks))
    decode = design.arc_inverse
    true = decode @ (companion[0] - decay * latent0[:, None])
    true += decay * desired[:, :1]
    return true, decode @ command


def _linear_scan(x: np.ndarray, transition: np.ndarray) -> np.ndarray:
    """Solve x[..., k] = A x[..., k-1] + b[..., k] along the last axis, in place, and return
    x (b on entry; A acts on the first axis, as a scalar when 1 x 1).  A Hillis-Steele doubling
    scan adds A**s times the sums s ticks back, s = 1, 2, 4, ..., until every entry of A**s
    is subnormal: later powers are zero, and their terms vanish in rounding but run slowly."""
    power, shift = transition, 1
    while shift < x.shape[-1] and np.abs(power).max() >= np.finfo(float).tiny:
        x[..., shift:] += (power * x[..., :-shift] if power.size == 1
                           else np.einsum("ij,j...->i...", power, x[..., :-shift]))
        power, shift = power @ power, 2 * shift
    return x


def surrogate_trajectory(surrogate: RobotDesign, seed: int,
                         segment_count: int = 5) -> PlannedTrajectory:
    """Sample segment_count + 1 via points on the surrogate and plan their
    blended trajectory under the default limits; one plan serves every
    target and transfer mode."""
    return plan_trajectory(sample_joints(surrogate, seed,
                                         check_integer(segment_count, "segment_count", 1) + 1))


def desired_stream(trajectory: PlannedTrajectory,
                   transfer: TransferMap) -> tuple[np.ndarray, float]:
    """Retarget every tick (SimConfig's dt) of a planned surrogate trajectory
    to the transfer map's target design: the (ticks, n) desired positions and
    the exact peak joint speed of the retargeted stream.

    Retargeting can raise individual joint speeds (a latent direction may align better
    with a target joint than with any surrogate joint).  When the stream's peak exceeds
    the default velocity limit by more than 1e-9 relative, it is retimed as
    plan_trajectory dilates a plan: its polynomial in t / stretch, for the smallest
    stretch restoring the limit, and the peak speed is divided by that stretch.  The
    stream is the encoded polynomial on its two latent columns, evaluated on the tick
    grid and then decoded; a stream too long to tick raises MemoryError.
    """
    peak = peak_abs(trajectory, "velocity", weights=transfer.matrix)
    stretch = _dilation(peak / DEFAULT_LIMITS.v_max)
    # the grid first: a stream too long to tick raises MemoryError before it is retimed
    times = np.arange(_tick_count(trajectory.horizon * stretch, SimConfig.dt)) * SimConfig.dt
    poly = trajectory.position_poly
    (latent,) = _horner(*_retime(poly._replace(c=poly.c @ transfer.encoder.T), stretch), times, 0)
    return (transfer.decoder @ latent.T).T, peak / stretch


def run_experiment(surrogate: RobotDesign, target: RobotDesign, seed: int,
                   transfer_mode: str = "general", segment_count: int = 5) -> dict[str, SimRun]:
    """Full evaluation workflow for one surrogate/target pair.

    Samples segment_count + 1 via points on the surrogate, plans the
    blended trajectory under the default kinematic limits, retargets it and
    returns the stream's three runs keyed by mode, in MODES order.
    """
    trajectory = surrogate_trajectory(surrogate, seed, segment_count)
    transfer = make_transfer_map(surrogate, target, transfer_mode)
    return _simulate(desired_stream(trajectory, transfer)[0], target, SimConfig(seed=seed),
                     transfer.mode)

