import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import clarkekit
from clarkekit import (
    DEFAULT_V_MAX,
    MODES,
    DimensionMismatch,
    InvalidParameter,
    SimConfig,
    arc_forward_matrix,
    desired_stream,
    make_transfer_map,
    pt1_step,
    run,
    run_experiment,
    surrogate_trajectory,
    transform_pair,
)
from clarkekit.fileio import write_csv
from simulate_oracle import run_loop


class TestPt1:
    def test_fixed_point(self):
        assert pt1_step(0.004, 0.004, 1e-3, 0.25) == 0.004

    def test_step_response_at_one_time_constant(self):
        # analytic: x(t) = u * (1 - exp(-t/T)); the exact discrete update
        # reproduces it on the grid
        u, dt, T = 0.005, 1e-3, 0.25
        state = 0.0
        for _ in range(250):
            state = pt1_step(state, u, dt, T)
        assert abs(state - u * (1.0 - math.exp(-1.0))) < 1e-9

    def test_ramp_lag(self):
        # steady-state tracking lag of a ramp with slope v is v * T
        v, dt, T = DEFAULT_V_MAX, 1e-3, 0.25
        ticks = 5000
        state = 0.0
        for k in range(ticks):
            state = pt1_step(state, v * k * dt, dt, T)
        lag = v * (ticks - 1) * dt - state
        assert lag == pytest.approx(v * T, rel=0.01)
        assert v * T == pytest.approx(7.854e-3, rel=1e-3)

    def test_unity_dc_gain(self):
        # holding a constant command long enough (here 25 T) settles the
        # state onto it to within 1e-9 relative
        u, dt, T = 0.003, 1e-3, 0.25
        state = 0.0
        for _ in range(int(25 * T / dt)):
            state = pt1_step(state, u, dt, T)
        assert abs(state - u) < 1e-9 * abs(u)

    def test_vectorized_state(self):
        state = np.array([0.0, 0.002])
        out = pt1_step(state, np.array([0.001, 0.002]), 1e-3, 0.25)
        assert out.shape == (2,)
        assert out[1] == 0.002


class TestSimConfig:
    def test_defaults(self):
        config = SimConfig()
        assert config.dt == 1e-3
        assert config.time_constant == 0.25
        assert config.noise_eps == 2.5e-3
        assert config.kp == 75.0
        assert config.kd == 0.0015

    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0}, {"noise_eps": -1.0}, {"mode": "banana"}, {"transfer_mode": "x"},
        {"dt": math.nan}, {"dt": math.inf}, {"noise_eps": math.nan}, {"noise_eps": math.inf},
        {"kp": math.nan}, {"kp": math.inf}, {"kd": math.nan}, {"kd": -math.inf},
        {"time_constant": math.inf}, {"time_constant": math.nan},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameter):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("gains", [{"kp": 1e5}, {"kd": -1.0}, {"kp": -1.0}])
    def test_unstable_loop_rejected(self, gains, mode):
        # kp = 1e5 used to overflow to inf states without an error; the
        # poles of l**2 - a1 l - a2 must lie strictly inside the unit circle
        with pytest.raises(InvalidParameter, match="unstable"):
            SimConfig(mode=mode, **gains)

    @pytest.mark.parametrize("gains", [{}, {"kp": 0.0, "kd": 0.0}, {"kd": -0.1}])
    def test_stable_loops_accepted(self, gains):
        # defaults (poles 0.699, -0.0086), the bare actuator pole 1 - alpha,
        # and a complex pair with |l| = 0.63
        SimConfig(**gains)


class TestRun:
    def constant_stream(self, robot, setpoint, ticks=2000):
        return np.tile(transform_pair(robot).inverse(setpoint), (ticks, 1))

    def test_determinism(self, robot_0):
        desired = self.constant_stream(robot_0, [0.004, -0.002])
        config = SimConfig(seed=11)
        a = run(desired, robot_0, config)
        b = run(desired, robot_0, config)
        np.testing.assert_array_equal(a.true, b.true)
        np.testing.assert_array_equal(a.measured, b.measured)
        np.testing.assert_array_equal(a.commanded, b.commanded)

    def test_noise_bounds_and_uniformity(self, robot_0):
        desired = self.constant_stream(robot_0, [0.004, -0.002], ticks=10000)
        sim = run(desired, robot_0, SimConfig(seed=5, mode="open_loop_noisy"))
        noise = (sim.measured - sim.true).ravel()
        eps = sim.config.noise_eps
        assert np.max(np.abs(noise)) <= eps
        critical = math.sqrt(math.log(2.0 / 0.01) / 2.0) / math.sqrt(noise.size)
        ks = stats.kstest(noise, stats.uniform(loc=-eps, scale=2 * eps).cdf).statistic
        assert ks < critical

    def test_open_loop_commands_ignore_noise(self, robot_0):
        desired = self.constant_stream(robot_0, [0.004, -0.002])
        sim = run(desired, robot_0, SimConfig(seed=3, mode="open_loop_noisy"))
        np.testing.assert_array_equal(sim.commanded, desired)
        assert sim.commanded is sim.desired

    def test_open_loop_clean_has_no_noise(self, robot_0):
        desired = self.constant_stream(robot_0, [0.004, -0.002])
        sim = run(desired, robot_0, SimConfig(seed=3, mode="open_loop_clean"))
        np.testing.assert_array_equal(sim.measured, sim.true)

    def test_closed_loop_constant_setpoint_latent_error(self, robot_0):
        # discrete fixed point: with unity-gain actuators the steady-state
        # latent error is the latent setpoint divided by (1 + kp)
        desired = self.constant_stream(robot_0, [0.004, 0.002], ticks=3000)
        sim = run(desired, robot_0, SimConfig(seed=1, noise_eps=0.0))
        encode = arc_forward_matrix(robot_0)
        latent_error = encode @ (desired[-1] - sim.true[-1])
        latent_setpoint = encode @ desired[-1]
        expected = np.linalg.norm(latent_setpoint) / (1.0 + sim.config.kp)
        assert np.linalg.norm(latent_error) == pytest.approx(expected, rel=0.01)

    def test_zero_gain_closed_loop_commands_vanish(self, robot_0):
        desired = self.constant_stream(robot_0, [0.004, 0.002], ticks=500)
        sim = run(desired, robot_0, SimConfig(seed=1, noise_eps=0.0, kp=0.0, kd=0.0))
        assert np.max(np.abs(sim.commanded)) < 1e-15

    def test_actuators_start_on_path(self, robot_0):
        desired = self.constant_stream(robot_0, [0.004, 0.002], ticks=10)
        sim = run(desired, robot_0, SimConfig(seed=1))
        np.testing.assert_array_equal(sim.true[0], desired[0])

    def test_dimension_mismatch(self, robot_0):
        with pytest.raises(DimensionMismatch):
            run(np.zeros((100, 5)), robot_0, SimConfig())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_stream_rejected(self, robot_0, bad):
        desired = self.constant_stream(robot_0, [0.004, 0.002], ticks=20)
        desired[7, 1] = bad
        for mode in MODES:
            with pytest.raises(InvalidParameter, match="finite"):
                run(desired, robot_0, SimConfig(mode=mode))

    def test_metrics_schema(self, robot_0):
        desired = self.constant_stream(robot_0, [0.004, 0.002], ticks=1500)
        sim = run(desired, robot_0, SimConfig(seed=2))
        metrics = sim.metrics()
        assert set(metrics) == {"robot", "mode", "transfer_mode", "seed",
                                "rms_per_joint_m", "rms_latent", "max_abs_err_m",
                                "transient_cutoff_s"}
        assert metrics["robot"] == "robot_0"
        assert len(metrics["rms_per_joint_m"]) == 3
        assert metrics["transient_cutoff_s"] == 1.0

    def test_csv_schema(self, robot_0, tmp_path):
        desired = self.constant_stream(robot_0, [0.004, 0.002], ticks=50)
        sim = run(desired, robot_0, SimConfig(seed=2))
        path = tmp_path / "run.csv"
        sim.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["t_s", "rho_d_1", "rho_d_2", "rho_d_3"]
        assert "rho_meas_1" in lines[0] and "rho_cmd_1" in lines[0] and "rho_true_1" in lines[0]
        assert len(lines) == 51

    def test_csv_bytes_match_row_by_row_formatting(self, designs, tmp_path):
        # the table path must write the same bytes as formatting every numpy
        # scalar of every row on its own
        sim = run_experiment(designs["robot_0"], designs["robot_D"], 13,
                             modes=("closed_loop",))["closed_loop"]
        sim.write_csv(tmp_path / "table.csv")
        header = (tmp_path / "table.csv").read_text().splitlines()[0].split(",")
        rows = ([sim.t[k], *sim.desired[k], *sim.measured[k], *sim.commanded[k], *sim.true[k]]
                for k in range(sim.t.size))
        write_csv(tmp_path / "rows.csv", header, rows)
        assert len(header) == 1 + 4 * 7
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def assert_matches_loop(desired, design, config):
    """true, measured and commanded agree with the per-tick loop to 1e-12 of
    the loop's largest magnitude; the first state and open-loop commands exactly."""
    sim = run(desired, design, config)
    ref = run_loop(desired, design, config)
    for field in ("true", "measured", "commanded"):
        got, want = getattr(sim, field), getattr(ref, field)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(want)), err_msg=field)
    np.testing.assert_array_equal(sim.true[0], desired[0])
    if config.mode != "closed_loop":
        np.testing.assert_array_equal(sim.commanded, desired)


class TestClosedFormMatchesLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("transfer_mode", ["general", "symmetric"])
    @pytest.mark.parametrize("target", ["robot_0", "robot_A", "robot_B", "robot_C", "robot_D"])
    def test_seeded_streams(self, designs, target, transfer_mode, seed):
        trajectory = surrogate_trajectory(designs["robot_0"], seed, segment_count=3 + seed)
        transfer = make_transfer_map(designs["robot_0"], designs[target], transfer_mode)
        stream = desired_stream(trajectory, transfer)
        for mode in MODES:
            config = SimConfig(seed=seed, mode=mode, transfer_mode=transfer_mode)
            assert_matches_loop(stream.positions, designs[target], config)

    @pytest.mark.parametrize("ticks", [1, 2, 3])
    def test_short_streams(self, robot_D, ticks):
        desired = np.random.default_rng(ticks).uniform(-0.01, 0.01, size=(ticks, 7))
        for mode in MODES:
            assert_matches_loop(desired, robot_D, SimConfig(seed=4, mode=mode))

    @pytest.mark.parametrize("overrides", [
        {"kp": 0.0, "kd": 0.0},   # slow pole 1 - alpha
        {"kd": -0.1},             # complex pole pair, |l| = 0.63
        {"noise_eps": 0.0},
    ])
    def test_pole_and_noise_edge_cases(self, designs, overrides):
        stream = desired_stream(surrogate_trajectory(designs["robot_0"], 5),
                                make_transfer_map(designs["robot_0"], designs["robot_C"]))
        for mode in MODES:
            config = SimConfig(seed=5, mode=mode, **overrides)
            assert_matches_loop(stream.positions, designs["robot_C"], config)


def test_import_and_experiment_leave_scipy_signal_unloaded():
    # importing scipy.signal adds about half a second of start-up; the
    # simulator must not pull it in
    src = os.path.dirname(os.path.dirname(clarkekit.__file__))
    code = ("import sys, clarkekit\n"
            "d = clarkekit.builtin_designs()\n"
            "clarkekit.run_experiment(d['robot_0'], d['robot_D'], 1)\n"
            "print('scipy.signal' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


class TestDesiredStream:
    def test_velocity_limit_respected_for_all_targets(self, designs):
        surrogate = designs["robot_0"]
        trajectory = surrogate_trajectory(surrogate, 42)
        for name, target in designs.items():
            for mode in ("general", "symmetric"):
                stream = desired_stream(trajectory, make_transfer_map(surrogate, target, mode))
                assert np.max(np.abs(stream.velocities)) <= DEFAULT_V_MAX * (1.0 + 1e-9), name

    def test_equivalence_on_matching_distances(self, designs):
        # a constant-distance target with the surrogate's distance and
        # length yields identical streams for both transfer modes
        surrogate = designs["robot_0"]
        trajectory = surrogate_trajectory(surrogate, 42)
        sym = desired_stream(trajectory,
                             make_transfer_map(surrogate, designs["robot_A"], "symmetric"))
        gen = desired_stream(trajectory,
                             make_transfer_map(surrogate, designs["robot_A"], "general"))
        assert np.max(np.abs(sym.positions - gen.positions)) < 1e-12

    def test_tick_grid(self, designs):
        stream = desired_stream(surrogate_trajectory(designs["robot_0"], 7),
                                make_transfer_map(designs["robot_0"], designs["robot_B"]))
        assert stream.times[0] == 0.0
        np.testing.assert_allclose(np.diff(stream.times), 1e-3, rtol=1e-12)
        assert stream.positions.shape == (stream.times.size, 3)


class TestRunExperiment:
    def test_closed_loop_beats_open_loop(self, robot_0):
        runs = run_experiment(robot_0, robot_0, 42)
        assert set(runs) == {"open_loop_clean", "open_loop_noisy", "closed_loop"}
        open_rms = np.mean(runs["open_loop_clean"].rms_per_joint())
        closed_rms = np.mean(runs["closed_loop"].rms_per_joint())
        assert closed_rms < open_rms

    def test_compensation_dominance_single_seed(self, designs):
        surrogate = designs["robot_0"]
        target = designs["robot_B"]
        general = run_experiment(surrogate, target, 3, "general",
                                 modes=("closed_loop",))["closed_loop"]
        symmetric = run_experiment(surrogate, target, 3, "symmetric",
                                   modes=("closed_loop",))["closed_loop"]
        assert np.mean(general.rms_per_joint()) < np.mean(symmetric.rms_per_joint())

    def test_shared_noise_across_modes(self, robot_0):
        # same seed, hence the same noise draws; only (state + noise) - state
        # rounding separates the recovered sequences
        runs = run_experiment(robot_0, robot_0, 9)
        noisy = runs["open_loop_noisy"]
        closed = runs["closed_loop"]
        np.testing.assert_allclose(noisy.measured - noisy.true,
                                   closed.measured - closed.true,
                                   rtol=0.0, atol=1e-16)
