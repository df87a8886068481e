"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one printed
PASS line per criterion (failures surface as regular pytest failures).
"""

import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from clarkekit import (
    DEFAULT_LIMITS,
    DEFAULT_V_MAX,
    SimConfig,
    builtin_designs,
    desired_stream,
    evaluate,
    make_transfer_map,
    plan_trajectory,
    run,
    run_experiment,
    sample_clarke_disk,
    sample_joints,
    surrogate_trajectory,
    symmetric_design,
    to_arc,
)
from clarkekit.cli import main as cli_main
from conftest import random_design
from simulate_oracle import joint_space_stream, pt1_step
from test_trajectory import (assert_c4_velocity, one_sided_derivatives, plan_with_profiles,
                             smoothness_bounds)


def report(number: int, label: str):
    print(f"ACCEPTANCE {number:2d}: PASS - {label}", flush=True)


def test_criterion_01_right_inverse_identity(designs):
    rng = np.random.default_rng(1001)
    pool = list(designs.values()) + [random_design(rng) for _ in range(200)]
    worst = 0.0
    for design in pool:
        residue = design.forward_matrix @ design.inverse_matrix - np.eye(2)
        worst = max(worst, float(np.max(np.abs(residue))))
    assert worst < 1e-10, worst
    report(1, f"right-inverse identity, {len(pool)} designs, max residue {worst:.2e}")


def test_criterion_02_symmetric_closure():
    worst = 0.0
    for n in range(3, 13):
        design = symmetric_design(n, 0.01, 0.1)
        closed_form = (2.0 / n) * design.inverse_matrix.T
        worst = max(worst, float(np.max(np.abs(design.forward_matrix - closed_form))))
    assert worst < 1e-12, worst
    report(2, f"pseudoinverse equals (2/n) transpose for n=3..12, max dev {worst:.2e}")


def test_criterion_03_lossless_roundtrip(designs):
    rng = np.random.default_rng(1003)
    pool = list(designs.values()) + [random_design(rng) for _ in range(50)]
    worst = 0.0
    for design in pool:
        for _ in range(20):
            clarke = rng.uniform(-0.05, 0.05, 2)
            back = design.forward(design.inverse(clarke))
            worst = max(worst, float(np.max(np.abs(back - clarke))
                                     / max(np.max(np.abs(clarke)), 1e-300)))
    assert worst < 1e-12, worst
    report(3, f"Clarke roundtrip lossless, max relative dev {worst:.2e}")


def test_criterion_04_half_circle_anchor(robot_0):
    joints = robot_0.inverse([math.pi * 0.01, 0.0])
    arc = to_arc(robot_0, joints)
    deviation = abs(arc.kappa * robot_0.l - math.pi)
    assert deviation < 1e-12, deviation
    report(4, f"latent magnitude pi*d bends a half circle, |kappa*l - pi| = {deviation:.2e}")


def test_criterion_05_actuation_constraint():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for n in range(3, 13):
        design = symmetric_design(n, 0.01, 0.1)
        for _ in range(50):
            clarke = rng.uniform(-0.04, 0.04, 2)
            joints = design.inverse(clarke)
            worst = max(worst, abs(float(joints.sum()))
                        / (n * max(np.linalg.norm(clarke), 1e-300)))
    assert worst < 1e-12, worst
    report(5, f"sum of decoded joints vanishes on symmetric designs, worst {worst:.2e}")


def test_criterion_06_geometric_exactness(designs):
    rng = np.random.default_rng(1006)
    pairs = list(itertools.permutations(designs.values(), 2))
    assert len(pairs) == 20
    worst = 0.0
    for source, target in pairs:
        joints = sample_joints(source, int(rng.integers(0, 2**31)), 100)
        enc_src = source.arc_forward
        enc_tgt = target.arc_forward
        general = make_transfer_map(source, target, "general")
        for rho in joints:
            out = general.apply(rho)
            src_planar = enc_src @ rho
            tgt_planar = enc_tgt @ out
            scale = max(1.0, float(np.max(np.abs(src_planar))))
            worst = max(worst, float(np.max(np.abs(tgt_planar - src_planar))) / scale)
    assert worst < 1e-12, worst
    report(6, f"retargeting is geometrically exact on all 20 ordered pairs, worst {worst:.2e}")


def test_criterion_07_sampler():
    count = 100000
    clarke = sample_clarke_disk(42, count, 0.01)
    assert clarke.shape == (count, 2)  # rejection-free
    radius = np.hypot(clarke[:, 0], clarke[:, 1])
    assert np.max(radius) <= math.pi * 0.01
    critical = math.sqrt(math.log(2.0 / 0.01) / 2.0) / math.sqrt(count)
    ks_radius = stats.kstest((radius / (math.pi * 0.01)) ** 2, "uniform").statistic
    ks_angle = stats.kstest(np.arctan2(clarke[:, 1], clarke[:, 0]),
                            stats.uniform(loc=-math.pi, scale=2 * math.pi).cdf).statistic
    assert ks_radius < critical, (ks_radius, critical)
    assert ks_angle < critical, (ks_angle, critical)
    report(7, f"sampler: 1e5 draws, zero rejections, KS {ks_radius:.4f}/{ks_angle:.4f} "
              f"< {critical:.4f}")


def test_criterion_08_trajectory_smoothness_and_limits(robot_0):
    vias = sample_joints(robot_0, 42, 6)
    traj, (_, states, _, _) = plan_with_profiles(vias, DEFAULT_LIMITS, 0.5)
    h = 1e-4
    grid = np.arange(0.0, traj.horizon, h)
    velocity = evaluate(traj, grid)[1]
    acceleration = evaluate(traj, grid)[2]
    assert np.max(np.abs(velocity)) <= DEFAULT_LIMITS.v_max * (1.0 + 1e-9)
    assert np.max(np.abs(acceleration)) <= DEFAULT_LIMITS.a_max * (1.0 + 1e-9)
    bounds = smoothness_bounds(states)
    assert_c4_velocity(velocity, h, bounds)
    # exact C4: at every interior breakpoint the one-sided velocity
    # derivatives of orders 0-4 agree; order 5 jumps at ramp ends, which
    # shows the comparison can see a discontinuity
    jumps = {}
    for order in range(6):
        left, right = one_sided_derivatives(traj.position_poly, order + 1)
        jumps[order] = float(np.max(np.abs(left - right))) / bounds[order]
    assert max(jumps[order] for order in range(5)) < 1e-10, jumps
    assert jumps[5] > 1e-3, jumps
    exact = plan_trajectory(vias, DEFAULT_LIMITS, overlap_fraction=0.0)
    worst_via = float(np.max(np.abs(evaluate(exact, exact.via_times)[0] - vias[1:])))
    assert worst_via < 1e-9, worst_via
    report(8, f"C4-smooth blended trajectory within limits (breakpoint jumps of orders "
              f"0-4 <= {max(jumps[o] for o in range(5)):.1e} of their bounds); "
              f"via-point dev {worst_via:.2e} m")


def test_criterion_09_transformed_profiles_respect_limits(designs):
    surrogate = designs["robot_0"]
    trajectory = surrogate_trajectory(surrogate, 42)
    # the exact peak speed of each stream, and the velocity at each of its
    # ticks evaluated on the surrogate's joints and mapped to the target
    worst = worst_tick = 0.0
    for name in ("robot_A", "robot_B", "robot_C", "robot_D"):
        transfer = make_transfer_map(surrogate, designs[name])
        worst = max(worst, desired_stream(trajectory, transfer)[1])
        (_, velocities), _ = joint_space_stream(trajectory, transfer)
        worst_tick = max(worst_tick, float(np.max(np.abs(velocities))))
    assert worst <= DEFAULT_V_MAX * (1.0 + 1e-9), worst
    assert worst_tick <= DEFAULT_V_MAX * (1.0 + 1e-9), worst_tick
    report(9, f"retargeted profiles stay below 0.01*pi m/s, peak {worst:.6f}, "
              f"max tick {worst_tick:.6f}")


def test_criterion_10_pt1_analytics():
    u, dt, time_constant = 0.005, 1e-3, 0.25
    state = 0.0
    for _ in range(250):
        state = pt1_step(state, u, dt, time_constant)
    step_dev = abs(state - u * (1.0 - math.exp(-1.0)))
    assert step_dev < 1e-9, step_dev

    # lag behind a ramp at the demo cruise speed settles to v * T
    robot = builtin_designs()["robot_0"]
    direction = robot.inverse([1.0, 0.0])
    ticks = 3000
    times = np.arange(ticks) * dt
    desired = np.outer(DEFAULT_V_MAX * times, direction)
    sim = run(desired, robot, SimConfig(seed=0), "open_loop_clean")
    lag = sim.desired[-1, 0] - sim.true[-1, 0]
    expected = DEFAULT_V_MAX * direction[0] * time_constant
    assert lag == pytest.approx(expected, rel=0.01)
    report(10, f"PT1 step response dev {step_dev:.1e}; ramp lag {lag * 1e3:.3f} mm "
               f"vs v*T = {expected * 1e3:.3f} mm")


def test_criterion_11_closed_loop_fixed_point(robot_0):
    setpoint = robot_0.inverse([0.004, 0.002])
    desired = np.tile(setpoint, (3000, 1))
    sim = run(desired, robot_0, SimConfig(seed=0, noise_eps=0.0))
    encode = robot_0.arc_forward
    latent_error = np.linalg.norm(encode @ (desired[-1] - sim.true[-1]))
    expected = np.linalg.norm(encode @ setpoint) / (1.0 + sim.config.kp)
    assert latent_error == pytest.approx(expected, rel=0.01)
    report(11, f"steady-state latent error = setpoint/(1+Kp), ratio "
               f"{latent_error / expected:.6f}")


def test_criterion_12_compensation_dominance(designs):
    surrogate = designs["robot_0"]
    seeds = (1, 2, 3, 4, 5)
    for name in ("robot_B", "robot_C", "robot_D"):
        target = designs[name]
        for seed in seeds:
            general = run_experiment(surrogate, target, seed, "general")["closed_loop"]
            symmetric = run_experiment(surrogate, target, seed, "symmetric")["closed_loop"]
            assert np.all(general.rms_per_joint() < symmetric.rms_per_joint()), (name, seed)
    trajectory = surrogate_trajectory(surrogate, 42)
    sym_positions, _ = desired_stream(
        trajectory, make_transfer_map(surrogate, designs["robot_A"], "symmetric"))
    gen_positions, _ = desired_stream(
        trajectory, make_transfer_map(surrogate, designs["robot_A"], "general"))
    assert sym_positions.shape == gen_positions.shape
    deviation = float(np.max(np.abs(sym_positions - gen_positions)))
    assert deviation < 1e-12, deviation
    report(12, "distance-compensated retargeting strictly dominates on robot_B/C/D "
               f"(5 seeds); robot_A streams agree to {deviation:.1e}")


def test_criterion_13_demo_determinism(tmp_path, capsys):
    import json

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["demo", "--out-dir", str(out_a), "--seed", "42"]) == 0
    assert cli_main(["demo", "--out-dir", str(out_b), "--seed", "42"]) == 0
    capsys.readouterr()
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b and len(names_a) >= 39
    for name in names_a:
        digests = [hashlib.sha256((out / name).read_bytes()).hexdigest() for out in (out_a, out_b)]
        assert digests[0] == digests[1], name

    summary = json.loads((out_a / "summary.json").read_text())
    robots = summary["robots"]
    assert robots["robot_A"]["transfer_modes_equivalent"] is True
    for name in ("robot_B", "robot_C", "robot_D"):
        assert robots[name]["transfer_modes_equivalent"] is False
        assert robots[name]["degraded_without_compensation"] is True
    assert all(entry["velocity_limit_respected"] for entry in robots.values())
    report(13, f"demo suite reproduces byte-identically ({len(names_a)} files)")
