import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

import clarkekit
from clarkekit import (
    DEFAULT_LIMITS,
    DEFAULT_V_MAX,
    MODES,
    DimensionMismatch,
    InvalidParameter,
    KinematicLimits,
    RobotDesign,
    SimConfig,
    desired_stream,
    make_transfer_map,
    peak_abs,
    plan_trajectory,
    run,
    run_experiment,
    surrogate_trajectory,
)
from clarkekit.cli import Manifest, _write_run, main
from clarkekit.simulate import TRANSIENT_CUTOFF_S, _simulate
from clarkekit.retarget import TRANSFER_MODES
from clarkekit.trajectory import _dilation
from csv_oracle import repr_csv
from simulate_oracle import joint_space_stream, pt1_step, run_loop

SNAPSHOT = os.path.join(os.path.dirname(__file__), "data", "sim_snapshot.json")


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
        {"dt": 0.0}, {"noise_eps": -1.0}, {"time_constant": 0.0}, {"dt": -1e-3},
        {"dt": math.nan}, {"dt": math.inf}, {"noise_eps": math.nan}, {"noise_eps": math.inf},
        {"kp": math.nan}, {"kp": math.inf}, {"kd": math.nan}, {"kd": -math.inf},
        {"time_constant": math.inf}, {"time_constant": math.nan},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameter):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"dt": "1"}, {"kp": None}, {"noise_eps": 10**400}])
    def test_non_numeric_fields(self, kwargs):
        with pytest.raises(InvalidParameter, match="must be a real number"):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("seed", [-1, np.int64(-2), 1.5, "3", None])
    def test_invalid_seed(self, seed):
        with pytest.raises(InvalidParameter, match="seed"):
            SimConfig(seed=seed)

    def test_numpy_and_large_integer_seeds(self):
        for seed in (np.int64(3), np.uint32(3), 2**70):
            assert SimConfig(seed=seed).seed == seed

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("gains", [{"kp": 1e5}, {"kd": -1.0}, {"kp": -1.0}])
    def test_unstable_loop_rejected(self, robot_0, gains, mode):
        # kp = 1e5 used to overflow to inf states without an error; the
        # poles of l**2 - a1 l - a2 must lie strictly inside the unit circle,
        # and the config is refused before a run of any mode starts
        with pytest.raises(InvalidParameter, match="unstable"):
            run(np.zeros((3, 3)), robot_0, SimConfig(**gains), mode)

    @pytest.mark.parametrize("gains", [{"dt": 1e-300, "kd": 1e10}, {"kp": 1e308, "kd": 1e305}])
    def test_overflowing_recurrence_rejected(self, gains):
        # kd/dt or kp + kd/dt overflows to inf: numpy's roots cannot take the
        # coefficients, so the error names no poles
        with pytest.raises(InvalidParameter, match="unstable poles that are not finite"):
            SimConfig(**gains)

    def test_closed_form_check_matches_pole_moduli(self):
        # Jury's conditions against the rule they replaced (reject when a root of
        # l**2 - a1 l - a2 has modulus >= 1), on gains whose poles keep 1e-9 from
        # the unit circle
        alpha = -math.expm1(-1e-3 / 0.25)
        verdicts = []
        for kp in np.linspace(-600.0, 600.0, 41):
            for kd in np.linspace(-0.3, 0.3, 41):
                a1, a2 = 1.0 - alpha - alpha * (kp + kd / 1e-3), alpha * kd / 1e-3
                moduli = np.abs(np.roots([1.0, -a1, -a2]))
                if np.min(np.abs(moduli - 1.0)) < 1e-9:
                    continue
                unstable = bool(np.any(moduli >= 1.0))
                try:
                    SimConfig(kp=float(kp), kd=float(kd))
                    rejected = False
                except InvalidParameter:
                    rejected = True
                assert rejected == unstable, (kp, kd)
                verdicts.append(unstable)
        assert 200 < sum(verdicts) < len(verdicts) - 200

    @pytest.mark.parametrize("gains", [{}, {"kp": 0.0, "kd": 0.0}, {"kd": -0.1}])
    def test_stable_loops_accepted(self, gains):
        # defaults (poles 0.699, -0.0086), the bare actuator pole 1 - alpha,
        # and a complex pair with |l| = 0.63
        SimConfig(**gains)

    def test_fields_are_the_loop_parameters(self):
        # a run's mode and transfer mode are labels of the run, not of the loop
        assert [field.name for field in dataclasses.fields(SimConfig)] == [
            "dt", "time_constant", "noise_eps", "kp", "kd", "seed"]


class TestRun:
    def constant_stream(self, robot, setpoint, ticks=2000):
        return np.tile(robot.inverse(setpoint), (ticks, 1))

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
        sim = run(desired, robot_0, SimConfig(seed=5), "open_loop_noisy")
        noise = (sim.measured - sim.true).ravel()
        eps = sim.config.noise_eps
        assert np.max(np.abs(noise)) <= eps
        critical = math.sqrt(math.log(2.0 / 0.01) / 2.0) / math.sqrt(noise.size)
        ks = stats.kstest(noise, stats.uniform(loc=-eps, scale=2 * eps).cdf).statistic
        assert ks < critical

    def test_open_loop_commands_ignore_noise(self, robot_0):
        desired = self.constant_stream(robot_0, [0.004, -0.002])
        sim = run(desired, robot_0, SimConfig(seed=3), "open_loop_noisy")
        np.testing.assert_array_equal(sim.commanded, desired)
        assert sim.commanded is sim.desired

    def test_open_loop_clean_has_no_noise(self, robot_0):
        desired = self.constant_stream(robot_0, [0.004, -0.002])
        sim = run(desired, robot_0, SimConfig(seed=3), "open_loop_clean")
        np.testing.assert_array_equal(sim.measured, sim.true)

    def test_closed_loop_constant_setpoint_latent_error(self, robot_0):
        # discrete fixed point: with unity-gain actuators the steady-state
        # latent error is the latent setpoint divided by (1 + kp)
        desired = self.constant_stream(robot_0, [0.004, 0.002], ticks=3000)
        sim = run(desired, robot_0, SimConfig(seed=1, noise_eps=0.0))
        encode = robot_0.arc_forward
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

    def test_non_numeric_stream_rejected(self, robot_0):
        with pytest.raises(InvalidParameter, match="desired stream must be real numbers"):
            run([["a"] * 3], robot_0, SimConfig())

    def test_numeric_string_stream_rejected(self, robot_0):
        for desired in ([["0"] * 3] * 3, np.array([["0"] * 3] * 3, dtype=object)):
            with pytest.raises(InvalidParameter, match="desired stream must be real numbers"):
                run(desired, robot_0, SimConfig())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_stream_rejected(self, robot_0, bad):
        desired = self.constant_stream(robot_0, [0.004, 0.002], ticks=20)
        desired[7, 1] = bad
        for mode in MODES:
            with pytest.raises(InvalidParameter, match="finite"):
                run(desired, robot_0, SimConfig(), mode)

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

    @pytest.mark.parametrize("mode", MODES)
    def test_direct_run_labels(self, robot_0, mode):
        # a raw stream's origin is not known, so no transfer mode is claimed
        desired = self.constant_stream(robot_0, [0.004, 0.002], ticks=20)
        metrics = run(desired, robot_0, SimConfig(seed=2), mode).metrics()
        assert metrics["mode"] == mode
        assert metrics["transfer_mode"] is None

    def test_unknown_mode_rejected(self, robot_0):
        desired = self.constant_stream(robot_0, [0.004, 0.002], ticks=20)
        with pytest.raises(InvalidParameter, match=r"unknown mode in \('banana',\)"):
            run(desired, robot_0, SimConfig(), "banana")

    def test_fields_are_tick_major_views_of_channel_rows(self, designs, robot_D):
        # each per-tick field reads (ticks, n), and its transpose is the
        # C-contiguous (n, ticks) array the simulation stored, which the CSV
        # writer takes row by row
        for mode, sim in run_experiment(designs["robot_0"], designs["robot_D"], 4).items():
            ticks = sim.t.size
            for field in ("desired", "measured", "commanded", "true"):
                array = getattr(sim, field)
                assert array.shape == (ticks, 7), (mode, field)
                assert array.T.flags.c_contiguous, (mode, field)
        sim = run(self.constant_stream(robot_D, [0.004, 0.002], 30), robot_D, SimConfig(seed=2))
        assert sim.desired.shape == (30, 7) and sim.desired.T.flags.c_contiguous

    @staticmethod
    def scaled_runs(robot_0, scales):
        """The three runs, without noise, of a 3 s stream of robot_0 whose joint columns
        are scaled by `scales`: the errors scale with them."""
        t = np.arange(3000) * 1e-3
        stream = np.column_stack([np.sin(t), np.cos(t), np.sin(2.0 * t)]) * scales
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = {mode: run(stream, robot_0, SimConfig(noise_eps=0.0), mode)
                    for mode in MODES}
            for sim in runs.values():
                sim.metrics()
        return runs

    @staticmethod
    def settled_error(sim):
        return np.ascontiguousarray((sim.desired - sim.true)[sim.t > TRANSIENT_CUTOFF_S].T)

    def assert_latent_rms(self, robot_0, scale):
        runs = self.scaled_runs(robot_0, scale)
        for sim in runs.values():
            latent = robot_0.arc_forward @ (self.settled_error(sim) / scale)
            want = math.sqrt(np.mean(np.sum(latent**2, axis=0))) * scale
            assert math.isclose(sim.rms_latent(), want, rel_tol=1e-12), sim.mode
        return runs["closed_loop"].rms_latent()

    def test_latent_rms_of_errors_whose_squares_overflow(self, robot_0):
        # errors near 1e199 are finite, but not their squares
        assert 1e200 < self.assert_latent_rms(robot_0, 1e200) < 1e202

    def test_latent_rms_of_errors_whose_squares_underflow(self, robot_0):
        # errors near 1e-301 square to zero
        assert 1e-300 < self.assert_latent_rms(robot_0, 1e-300) < 1e-298

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-300])
    def test_joint_rms_of_errors_whose_squares_leave_float64(self, robot_0, scale):
        # at 1e-200 the squares of the joint errors underflow where the latent ones do not
        for sim in self.scaled_runs(robot_0, scale).values():
            want = np.sqrt(np.mean((self.settled_error(sim) / scale)**2, axis=1)) * scale
            rms = sim.rms_per_joint()
            assert np.all(rms > 0.0), sim.mode
            np.testing.assert_allclose(rms, want, rtol=1e-12, atol=0.0, err_msg=sim.mode)

    def test_joint_rms_of_errors_whose_squares_overflow(self, robot_0):
        # in open loop each joint tracks alone: only the first joint's errors square past
        # float64, and the other joints' RMS is the plain one, bit for bit
        sim = self.scaled_runs(robot_0, [1e200, 1e-3, 1e-3])["open_loop_clean"]
        error, rms = self.settled_error(sim), sim.rms_per_joint()
        want = math.sqrt(np.mean((error[0] * 1e-200)**2)) / 1e-200
        assert want > 1e199 and math.isclose(rms[0], want, rel_tol=1e-12)
        np.testing.assert_array_equal(rms[1:], np.sqrt(np.mean(error[1:]**2, axis=1)))

    @pytest.mark.parametrize("surrogate, target, transfer_mode, seed, segments", [
        ("robot_0", "robot_0", "general", 42, 5), ("robot_0", "robot_D", "general", 7, 3),
        ("robot_0", "robot_D", "symmetric", 7, 3), ("robot_B", "robot_C", "general", 11, 8),
        ("robot_D", "robot_A", "symmetric", 3, 12), ("robot_C", "robot_B", "general", 5, 4),
    ])
    def test_metrics_equal_the_unscaled_formulas(self, designs, surrogate, target,
                                                  transfer_mode, seed, segments):
        # inside float64's range the exact power-of-two scaling keeps every bit
        runs = run_experiment(designs[surrogate], designs[target], seed, transfer_mode,
                              segments)
        for sim in runs.values():
            error = self.settled_error(sim)
            latent = sim.design.arc_forward @ error
            np.testing.assert_array_equal(sim.rms_per_joint(),
                                          np.sqrt(np.mean(error**2, axis=1)), sim.mode)
            assert sim.rms_latent() == np.sqrt(np.mean(np.sum(latent**2, axis=0))), sim.mode
            assert sim.max_abs_error() == np.max(np.abs(error)), sim.mode

    @pytest.mark.parametrize("scales", [[1e300, 1e-310, 1e-3], 5e-321],
                             ids=["mixed", "subnormal"])
    def test_metrics_of_errors_across_float64(self, robot_0, scales):
        # each reference divides by the peak it reduces, so its squares stay in range
        for sim in self.scaled_runs(robot_0, scales).values():
            error = self.settled_error(sim)
            peaks = np.max(np.abs(error), axis=1)
            want = np.sqrt(np.mean((error / peaks[:, None])**2, axis=1)) * peaks
            rms = sim.rms_per_joint()
            assert np.all(rms > 0.0), sim.mode
            np.testing.assert_allclose(rms, want, rtol=1e-12, atol=0.0, err_msg=sim.mode)
            latent = robot_0.arc_forward @ (error / peaks.max())
            want = math.sqrt(np.mean(np.sum(latent**2, axis=0))) * peaks.max()
            assert sim.rms_latent() > 0.0 and math.isclose(sim.rms_latent(), want,
                                                           rel_tol=1e-12), sim.mode
            assert sim.max_abs_error() == peaks.max(), sim.mode

    def test_csv_schema(self, robot_0, tmp_path):
        desired = self.constant_stream(robot_0, [0.004, 0.002], ticks=50)
        sim = run(desired, robot_0, SimConfig(seed=2))
        path = tmp_path / "run.csv"
        _write_run(tmp_path, "run", sim, Manifest("simulate", {}, [], []))
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["t_s", "rho_d_1", "rho_d_2", "rho_d_3"]
        assert "rho_meas_1" in lines[0] and "rho_cmd_1" in lines[0] and "rho_true_1" in lines[0]
        assert len(lines) == 51

    def test_csv_bytes_match_row_by_row_formatting(self, designs, tmp_path):
        # every run the demo writes must match formatting every cell of every row
        # on its own, with the run rebuilt by run_experiment: the general stream's
        # modes, and the symmetric stream's closed loop for an uncompensated run
        assert main(["demo", "--seed", "42", "--out-dir", str(tmp_path)]) == 0
        written = 0
        for name, target in designs.items():
            runs = {f"{name}_{mode}": sim for mode, sim in
                    run_experiment(designs["robot_0"], target, 42, "general").items()}
            if (tmp_path / f"{name}_closed_loop_uncompensated.csv").exists():
                runs[f"{name}_closed_loop_uncompensated"] = run_experiment(
                    designs["robot_0"], target, 42, "symmetric")["closed_loop"]
            for stem, sim in runs.items():
                header = (tmp_path / f"{stem}.csv").read_text().splitlines()[0].split(",")
                columns = zip(sim.t.tolist(), sim.desired.tolist(), sim.measured.tolist(),
                              sim.commanded.tolist(), sim.true.tolist())
                rows = ([t, *d, *m, *c, *r] for t, d, m, c, r in columns)
                assert len(header) == 1 + 4 * sim.design.n
                assert (tmp_path / f"{stem}.csv").read_bytes() == repr_csv(header, rows), stem
                written += 1
        assert written == 18 == len(list(tmp_path.glob("robot_*.csv")))


def assert_matches_loop(sim, desired):
    """A run's true, measured and commanded agree with the per-tick loop of its
    design, config and mode on the stream `desired` to 1e-12 of the loop's largest
    magnitude; its tick times, first state and open-loop commands exactly."""
    ref = run_loop(desired, sim.design, sim.config, sim.mode)
    np.testing.assert_array_equal(sim.t, ref.t)
    for field in ("true", "measured", "commanded"):
        got, want = getattr(sim, field), getattr(ref, field)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(want)), err_msg=field)
    np.testing.assert_array_equal(sim.true[0], desired[0])
    if sim.mode != "closed_loop":
        np.testing.assert_array_equal(sim.commanded, desired)


class TestClosedFormMatchesLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("transfer_mode", ["general", "symmetric"])
    @pytest.mark.parametrize("target", ["robot_0", "robot_A", "robot_B", "robot_C", "robot_D"])
    def test_seeded_streams(self, designs, target, transfer_mode, seed):
        trajectory = surrogate_trajectory(designs["robot_0"], seed, segment_count=3 + seed)
        transfer = make_transfer_map(designs["robot_0"], designs[target], transfer_mode)
        positions, _ = desired_stream(trajectory, transfer)
        for mode in MODES:
            assert_matches_loop(run(positions, designs[target], SimConfig(seed=seed), mode),
                                positions)

    @pytest.mark.parametrize("ticks", [1, 2, 3])
    def test_short_streams(self, robot_D, ticks):
        desired = np.random.default_rng(ticks).uniform(-0.01, 0.01, size=(ticks, 7))
        for mode in MODES:
            assert_matches_loop(run(desired, robot_D, SimConfig(seed=4), mode), desired)

    @pytest.mark.parametrize("overrides", [
        {"kp": 0.0, "kd": 0.0},   # slow pole 1 - alpha
        {"kd": -0.1},             # complex pole pair, |l| = 0.63
        {"noise_eps": 0.0},
    ])
    def test_pole_and_noise_edge_cases(self, designs, overrides):
        positions, _ = desired_stream(surrogate_trajectory(designs["robot_0"], 5),
                                      make_transfer_map(designs["robot_0"], designs["robot_C"]))
        config = SimConfig(seed=5, **overrides)
        for mode in MODES:
            assert_matches_loop(run(positions, designs["robot_C"], config, mode), positions)


def run_python(code: str) -> str:
    """Run code in a fresh interpreter that imports clarkekit from this tree;
    returns its stdout."""
    src = os.path.dirname(os.path.dirname(clarkekit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_import_and_experiment_leave_scipy_unloaded():
    # importing scipy.interpolate alone took most of a second of start-up;
    # numpy is the only runtime dependency
    out = run_python("import sys, clarkekit\n"
                     "d = clarkekit.builtin_designs()\n"
                     "clarkekit.run_experiment(d['robot_0'], d['robot_D'], 1)\n"
                     "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert out.strip() == "[]"


def test_commands_and_experiment_load_no_numpy_ma_or_polynomial(tmp_path):
    # np.unique imports numpy.ma on first use and numpy.polynomial is a
    # module-level import; together about a tenth of a set-up.  Counting only
    # modules beyond what `import numpy` loads keeps this valid where numpy
    # itself loads both (numpy 1.x)
    out = run_python(
        "import sys, numpy\n"
        "baseline = set(sys.modules)\n"
        "import clarkekit\n"
        "from clarkekit import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "for argv in (['demo', '--seed', '42', '--out-dir', out + '/demo'],\n"
        "             ['traj', 'robot_0', '--out', out + '/traj.csv'],\n"
        "             ['simulate', 'robot_0', 'robot_C', '--out-dir', out + '/sim'],\n"
        "             ['sample', 'robot_0', '--out', out + '/sample.csv'],\n"
        "             ['transform', 'robot_0', '--clarke', '0.001', '0'],\n"
        "             ['design-check', 'robot_0']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "d = clarkekit.builtin_designs()\n"
        "clarkekit.run_experiment(d['robot_0'], d['robot_D'], 1)\n"
        "print(sorted(m for m in set(sys.modules) - baseline\n"
        "             if m.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'polynomial'])))\n")
    assert out.strip().splitlines()[-1] == "[]"


def test_demo_and_experiment_run_where_scipy_cannot_be_imported(tmp_path):
    # a finder ahead of every other one refuses scipy, as if it were not installed
    out = run_python(
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy is not installed')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import clarkekit\n"
        "from clarkekit import cli\n"
        f"assert cli.main(['demo', '--seed', '42', '--out-dir', {str(tmp_path)!r}]) == 0\n"
        "d = clarkekit.builtin_designs()\n"
        "runs = clarkekit.run_experiment(d['robot_0'], d['robot_D'], 1)\n"
        "print(sorted(runs), 'scipy' in sys.modules)\n")
    assert out.strip().splitlines()[-1] == (
        "['closed_loop', 'open_loop_clean', 'open_loop_noisy'] False")
    assert (tmp_path / "manifest.json").is_file()


@pytest.fixture(scope="module")
def rule_cases(designs):
    """The dilation rule's case list, fixed in advance: every design's
    surrogate plan at overlap 0.5 for seeds 0-59, seed s with 3 + s % 10
    segments (each count 3-12 six times per design)."""
    return [(design, seed, surrogate_trajectory(design, seed, 3 + seed % 10))
            for design in designs.values() for seed in range(60)]


class TestOneDilationRule:
    """Plans and retargeted streams share one rule: a peak within 1e-9 of its
    limit does not bind, so no plan at overlap 0.5 is dilated."""

    def test_plans_within_limits_are_not_dilated(self, rule_cases):
        tolerance = 1.0 + 1e-9
        for design, seed, traj in rule_cases:
            assert traj.dilation == 1.0, (design.name, seed)
            assert peak_abs(traj, "velocity") <= DEFAULT_LIMITS.v_max * tolerance
            assert peak_abs(traj, "acceleration") <= min(DEFAULT_LIMITS.a_max,
                                                          DEFAULT_LIMITS.dec_max) * tolerance

    def test_streams_within_the_velocity_limit(self, designs, rule_cases):
        # every target; the transfer mode alternates with the seed
        limit = DEFAULT_V_MAX * (1.0 + 1e-9)
        for surrogate, seed, traj in rule_cases:
            for target in designs.values():
                transfer = make_transfer_map(surrogate, target, TRANSFER_MODES[seed % 2])
                positions, speed = desired_stream(traj, transfer)
                peak = peak_abs(traj, "velocity", weights=transfer.matrix)
                stretch = _dilation(peak / DEFAULT_V_MAX)
                assert positions.shape[0] == math.floor(traj.horizon * stretch / SimConfig.dt) + 1
                assert speed == peak / stretch
                assert speed <= limit, (surrogate.name, target.name, seed)


class TestDesiredStream:
    def test_velocity_limit_respected_for_all_targets(self, designs):
        # the returned peak speed, and the tick velocities of the joint-space stream
        surrogate = designs["robot_0"]
        trajectory = surrogate_trajectory(surrogate, 42)
        limit = DEFAULT_V_MAX * (1.0 + 1e-9)
        for name, target in designs.items():
            for mode in ("general", "symmetric"):
                transfer = make_transfer_map(surrogate, target, mode)
                assert desired_stream(trajectory, transfer)[1] <= limit, (name, mode)
                (_, velocities), _ = joint_space_stream(trajectory, transfer)
                assert np.max(np.abs(velocities)) <= limit, (name, mode)

    def test_equivalence_on_matching_distances(self, designs):
        # a constant-distance target with the surrogate's distance and
        # length yields identical streams for both transfer modes
        surrogate = designs["robot_0"]
        trajectory = surrogate_trajectory(surrogate, 42)
        sym, _ = desired_stream(trajectory,
                                make_transfer_map(surrogate, designs["robot_A"], "symmetric"))
        gen, _ = desired_stream(trajectory,
                                make_transfer_map(surrogate, designs["robot_A"], "general"))
        assert np.max(np.abs(sym - gen)) < 1e-12

    @pytest.mark.parametrize("transfer_mode", TRANSFER_MODES)
    def test_latent_stream_matches_joint_space(self, designs, transfer_mode):
        # evaluated on the 2 latent columns and decoded, against the surrogate's
        # joints mapped through the transfer matrix; the peak speed is the weighted
        # peak of the plan over the joint-space stream's stretch
        stretched = 0
        for pair, names in enumerate(ORDERED_PAIRS):
            surrogate, target = (designs[name] for name in names)
            trajectory = surrogate_trajectory(surrogate, 9001 + 7 * pair, 3 + pair % 4)
            transfer = make_transfer_map(surrogate, target, transfer_mode)
            positions, speed = desired_stream(trajectory, transfer)
            (expected, _), stretch = joint_space_stream(trajectory, transfer)
            stretched += stretch > 1.0
            assert positions.shape == expected.shape
            assert np.max(np.abs(positions - expected)) <= 1e-13 * np.max(np.abs(expected))
            assert speed == peak_abs(trajectory, "velocity", weights=transfer.matrix) / stretch
        assert stretched > 0

    @pytest.mark.parametrize("transfer_mode", TRANSFER_MODES)
    def test_peak_speed_bounds_every_tick(self, designs, transfer_mode):
        # the exact peak is at least the speed of every joint at every tick of
        # the joint-space stream, stretched or not, to 1e-12 relative
        stretched = []
        for pair, names in enumerate(ORDERED_PAIRS):
            surrogate, target = (designs[name] for name in names)
            trajectory = surrogate_trajectory(surrogate, 9001 + 7 * pair, 3 + pair % 4)
            transfer = make_transfer_map(surrogate, target, transfer_mode)
            speed = desired_stream(trajectory, transfer)[1]
            (_, velocities), stretch = joint_space_stream(trajectory, transfer)
            stretched.append(stretch > 1.0)
            assert np.max(np.abs(velocities)) <= speed * (1.0 + 1e-12), names
        assert any(stretched) and not all(stretched)

    def test_stream_too_long_to_tick_raises_memory_error(self):
        # the general map from a design at the lower edge of the length range to one at
        # the upper edge scales speeds by about 1e18, which stretches the stream to
        # 1.3e18 ticks; the tick count is rejected before any array is made
        low, high = (RobotDesign(name=str(x), psi=[0.0, 2.0, 4.0], d=[x] * 3, l=x)
                     for x in (1e-6, 1e3))
        transfer = make_transfer_map(low, high, "general")
        with pytest.raises(MemoryError, match="Unable to allocate a grid of"):
            desired_stream(surrogate_trajectory(low, 42), transfer)

    @pytest.mark.parametrize("length, transfer_mode", [
        (1e-6, "general"), (1e3, "general"), (1e3, "symmetric"),
    ], ids=["lower-general", "upper-general", "upper-symmetric"])
    def test_stream_past_the_tick_budget_raises_before_any_array(self, robot_0, length,
                                                                 transfer_mode):
        # a surrogate at an edge of the length range retargets to robot_0 as a stream of
        # 7e8-1.3e9 ticks, gigabytes per array; it is refused before one is made
        surrogate = RobotDesign(name="edge", psi=[0.0, 2.0, 4.0], d=[length] * 3, l=length)
        trajectory = surrogate_trajectory(surrogate, 42)
        transfer = make_transfer_map(surrogate, robot_0, transfer_mode)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="Unable to allocate a grid of"):
                desired_stream(trajectory, transfer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_stream_stretched_past_float64_powers(self, robot_0):
        # a 1 m move planned at 1e30 m/s retargets to robot_0 at a stretch of about 2e31,
        # whose 10th power overflows float64; the stream still matches the oracle
        limits = KinematicLimits(v_max=1e30, a_max=1e60, dec_max=1e60)
        trajectory = plan_trajectory([[0.0, 0.0, 0.0], [1.0, -1.0, 0.0]], limits)
        transfer = make_transfer_map(robot_0, robot_0, "general")
        positions, _ = desired_stream(trajectory, transfer)
        (expected, _), stretch = joint_space_stream(trajectory, transfer)
        assert stretch > np.finfo(float).max ** 0.1
        assert positions.shape == expected.shape
        assert np.max(np.abs(positions - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_tick_grid(self, designs):
        sim = run_experiment(designs["robot_0"], designs["robot_B"], 7)["open_loop_clean"]
        assert sim.t[0] == 0.0
        np.testing.assert_allclose(np.diff(sim.t), 1e-3, rtol=1e-12)
        assert sim.desired.shape == (sim.t.size, 3)


class TestRunExperiment:
    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_invalid_seed(self, robot_0, seed):
        with pytest.raises(InvalidParameter, match="seed"):
            surrogate_trajectory(robot_0, seed)
        with pytest.raises(InvalidParameter, match="seed"):
            run_experiment(robot_0, robot_0, seed)

    @pytest.mark.parametrize("segment_count", ["3", 1.5, -1, 0, None])
    def test_invalid_segment_count(self, robot_0, segment_count):
        match = f"segment_count must be an integer of at least 1, got {segment_count!r}"
        with pytest.raises(InvalidParameter, match=re.escape(match)):
            surrogate_trajectory(robot_0, 0, segment_count)
        with pytest.raises(InvalidParameter, match=re.escape(match)):
            run_experiment(robot_0, robot_0, 0, segment_count=segment_count)

    def test_large_integer_seed(self, robot_0):
        runs = run_experiment(robot_0, robot_0, 2**70, segment_count=1)
        assert np.isfinite(runs["closed_loop"].true).all()

    def test_closed_loop_beats_open_loop(self, robot_0):
        runs = run_experiment(robot_0, robot_0, 42)
        assert set(runs) == {"open_loop_clean", "open_loop_noisy", "closed_loop"}
        open_rms = np.mean(runs["open_loop_clean"].rms_per_joint())
        closed_rms = np.mean(runs["closed_loop"].rms_per_joint())
        assert closed_rms < open_rms

    def test_compensation_dominance_single_seed(self, designs):
        surrogate = designs["robot_0"]
        target = designs["robot_B"]
        general = run_experiment(surrogate, target, 3, "general")["closed_loop"]
        symmetric = run_experiment(surrogate, target, 3, "symmetric")["closed_loop"]
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


def assert_runs_of_stream(runs, positions, transfer_mode):
    """The runs of one stream come in MODES order, each labelled with its own mode
    and its stream's transfer mode and carrying that stream bit for bit; what the
    runs share is the same array, not a copy."""
    assert tuple(runs) == MODES
    for mode, sim in runs.items():
        assert (sim.mode, sim.transfer_mode) == (mode, transfer_mode)
        metrics = sim.metrics()
        assert (metrics["mode"], metrics["transfer_mode"]) == (mode, transfer_mode)
        np.testing.assert_array_equal(sim.desired, positions, err_msg=mode)
    clean, noisy = runs["open_loop_clean"], runs["open_loop_noisy"]
    assert noisy.true is clean.true and noisy.t is runs["closed_loop"].t


ORDERED_PAIRS = [(s, t) for s in ("robot_0", "robot_A", "robot_B", "robot_C", "robot_D")
                 for t in ("robot_0", "robot_A", "robot_B", "robot_C", "robot_D")]

# indices into ORDERED_PAIRS of two derangements of the five designs, so each
# design is twice a surrogate and twice a target; the per-tick loop is too slow
# to run on all 50 streams
LOOP_PAIRS = (3, 4, 8, 9, 10, 11, 15, 17, 21, 22)


def pair_runs(designs, pair, transfer_mode):
    """run_experiment's runs for ORDERED_PAIRS[pair] and the stream behind them."""
    surrogate, target = (designs[name] for name in ORDERED_PAIRS[pair])
    seed, segments = 9001 + 7 * pair, 3 + pair % 4
    runs = run_experiment(surrogate, target, seed, transfer_mode, segments)
    positions, _ = desired_stream(surrogate_trajectory(surrogate, seed, segments),
                                  make_transfer_map(surrogate, target, transfer_mode))
    return runs, positions


class TestRunsShareStreamWork:
    """run_experiment computes the tick grid, the noise draw and the open-loop
    scan with its metrics once per stream; every run must still be the per-tick
    loop of its own mode."""

    @pytest.mark.parametrize("transfer_mode", ["general", "symmetric"])
    @pytest.mark.parametrize("pair", range(len(ORDERED_PAIRS)))
    def test_every_design_pair(self, designs, pair, transfer_mode):
        runs, positions = pair_runs(designs, pair, transfer_mode)
        assert_runs_of_stream(runs, positions, transfer_mode)

    @pytest.mark.parametrize("transfer_mode", ["general", "symmetric"])
    @pytest.mark.parametrize("pair", LOOP_PAIRS)
    def test_design_pairs_match_the_per_tick_loop(self, designs, pair, transfer_mode):
        runs, positions = pair_runs(designs, pair, transfer_mode)
        for sim in runs.values():
            assert_matches_loop(sim, positions)

    @pytest.mark.parametrize("seed", [42, 12])
    def test_uncompensated_runs_equal_run_experiment(self, designs, seed, tmp_path):
        # the demo's uncompensated run is the closed loop on the symmetric
        # stream; what it writes must be run_experiment's symmetric closed loop
        assert main(["demo", "--seed", str(seed), "--out-dir", str(tmp_path)]) == 0
        for name in ("robot_B", "robot_C", "robot_D"):
            stem = f"{name}_closed_loop_uncompensated"
            alone = run_experiment(designs["robot_0"], designs[name], seed,
                                   "symmetric")["closed_loop"]
            table = np.loadtxt(tmp_path / f"{stem}.csv", delimiter=",", skiprows=1)
            np.testing.assert_array_equal(table, np.column_stack(
                [alone.t, alone.desired, alone.measured, alone.commanded, alone.true]), name)
            recorded = json.loads((tmp_path / f"{stem}_metrics.json").read_text())
            assert recorded == alone.metrics(), name

    @pytest.mark.parametrize("ticks", [1, 2, 999, 1001, 1002])
    def test_streams_around_the_transient_cutoff(self, robot_D, ticks):
        # 1001 ticks end on t = 1.0 s, which is not past the cutoff, so every
        # tick counts; 1002 ticks leave only the last one
        desired = np.random.default_rng(ticks).uniform(-0.01, 0.01, size=(ticks, 7))
        runs = _simulate(desired, robot_D, SimConfig(seed=6), None)
        assert_runs_of_stream(runs, desired, None)
        for sim in runs.values():
            assert_matches_loop(sim, desired)
            settled = sim.t > TRANSIENT_CUTOFF_S
            if not settled.any():
                settled[:] = True
            assert settled.sum() == (1 if ticks == 1002 else ticks)
            # the metrics reduce each joint's contiguous row of ticks
            error = np.ascontiguousarray((sim.desired - sim.true)[settled].T)
            np.testing.assert_array_equal(sim.rms_per_joint(),
                                          np.sqrt(np.mean(error**2, axis=1)))
            assert sim.max_abs_error() == np.max(np.abs(error))


class TestSimSnapshot:
    """Runs against tests/data/sim_snapshot.json, recorded while the simulation
    still stored its per-tick arrays as (ticks, n): every ordered pair of
    built-in designs in both transfer modes (seed 600 + 2 * pair + k and
    3 + (pair + k) % 5 segments, k = 0 general, 1 symmetric), with each mode's
    metrics and t, desired, measured, commanded and true at 32 evenly spaced ticks."""

    def test_runs_match_snapshot(self, designs):
        with open(SNAPSHOT) as handle:
            snapshot = json.load(handle)
        assert len(snapshot["cases"]) == 2 * len(ORDERED_PAIRS)

        def close(got, want, label):
            # a value that is zero in exact arithmetic is rounding noise, so each
            # array is also allowed 1e-12 of its largest magnitude
            want = np.asarray(want)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)),
                                       err_msg=label)

        for case in snapshot["cases"]:
            label = (case["surrogate"], case["target"], case["transfer_mode"], case["seed"])
            runs = run_experiment(designs[case["surrogate"]], designs[case["target"]],
                                  case["seed"], case["transfer_mode"], case["segments"])
            assert tuple(runs) == tuple(case["runs"]) == MODES
            index = np.linspace(0, case["ticks"] - 1, snapshot["tick_samples"]).round().astype(int)
            for mode, want in case["runs"].items():
                sim = runs[mode]
                assert sim.t.size == case["ticks"], label
                close(sim.t[index], case["t"], f"{label} t")
                close(sim.desired[index], case["desired"], f"{label} desired")
                for field in ("measured", "commanded", "true"):
                    close(getattr(sim, field)[index], want[field], f"{label} {mode} {field}")
                close(sim.rms_per_joint(), want["rms_per_joint_m"], f"{label} {mode} rms")
                close(sim.rms_latent(), want["rms_latent"], f"{label} {mode} latent")
                close(sim.max_abs_error(), want["max_abs_err_m"], f"{label} {mode} max")
