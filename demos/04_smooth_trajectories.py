"""C4-smooth via-point trajectories with kinematic limits.

Each joint's move uses a trapezoidal-like velocity profile whose ramps are
shaped by the degree-9 smoothstep (first four derivatives vanish at the
ramp ends).  Segments are synchronized per via point, blended with a
configurable ramp overlap, and a final uniform time dilation restores the
limits wherever superposition exceeded them.
"""

import numpy as np

from clarkekit import (
    DEFAULT_LIMITS,
    evaluate,
    peak_abs,
    plan_segment,
    plan_trajectory,
    sample_joints,
    builtin_designs,
)

np.set_printoptions(precision=6, suppress=True)

# One segment: 31.416 mm at the demo limits (v = 0.01*pi, a = 0.125*pi).
state = plan_segment(0.031416, DEFAULT_LIMITS)
print(f"single segment: lift-off {state.t_lo:.6f} s, cruise {state.t_cr:.6f} s, "
      f"set-down {state.t_sd:.6f} s, peak {state.v:.6f} m/s")
print(f"distance closure: v*(t_lo/2 + t_cr + t_sd/2) = "
      f"{state.v * (state.t_lo / 2 + state.t_cr + state.t_sd / 2):.6f} m")

# Short moves drop the cruise phase and reduce the peak velocity instead.
short = plan_segment(0.001, DEFAULT_LIMITS)
print(f"short segment:  cruise {short.t_cr} s, peak {short.v:.6f} m/s (triangular)")

# Full pipeline: six sampled via points on the surrogate, five segments.
robot_0 = builtin_designs()["robot_0"]
vias = sample_joints(robot_0, seed=42, count=6)
traj = plan_trajectory(vias, DEFAULT_LIMITS, overlap_fraction=0.5)
print(f"\nblended trajectory: {traj.segment_count} segments, "
      f"horizon {traj.horizon:.3f} s, dilation {traj.dilation:.6f}")
print(f"peak |velocity|:     {peak_abs(traj, 'velocity'):.6f} m/s "
      f"(limit {DEFAULT_LIMITS.v_max:.6f})")
print(f"peak |acceleration|: {peak_abs(traj, 'acceleration'):.6f} m/s^2 "
      f"(limit {DEFAULT_LIMITS.a_max:.6f})")

pos0, vel0, _ = evaluate(traj, 0.0)
posH, velH, _ = evaluate(traj, traj.horizon)
print("start reached:", np.allclose(pos0, vias[0]), " goal reached:",
      np.allclose(posH, vias[-1]), " rest-to-rest:",
      np.max(np.abs(vel0)), np.max(np.abs(velH)))

# With zero overlap every via point is interpolated exactly.
exact = plan_trajectory(vias, DEFAULT_LIMITS, overlap_fraction=0.0)
deviations = np.max(np.abs(evaluate(exact, exact.via_times)[0] - vias[1:]), axis=1)
for j, dev in enumerate(deviations):
    print(f"via {j + 1} deviation: {dev:.2e} m")

# The velocity signal and its first four finite-difference derivatives stay
# continuous across every phase and blend boundary (10 kHz sampling).
h = 1e-4
grid = np.arange(0.0, traj.horizon, h)
velocity = evaluate(traj, grid)[1]
fourth = np.diff(velocity, 4, axis=0) / h**4
print(f"\n4th velocity derivative, max |increment| at 10 kHz: "
      f"{np.max(np.abs(np.diff(fourth, axis=0))):.3e} (no jumps)")
