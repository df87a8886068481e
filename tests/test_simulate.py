import dataclasses
import math
import os
import re
import subprocess
import sys

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
    SimConfig,
    arc_forward_matrix,
    desired_stream,
    evaluate_suite,
    make_transfer_map,
    peak_abs,
    run,
    run_experiment,
    surrogate_trajectory,
)
from clarkekit.cli import Manifest, _write_run
from clarkekit.simulate import TRANSIENT_CUTOFF_S, DesiredStream, _simulate
from clarkekit.retarget import TRANSFER_MODES
from clarkekit.trajectory import _dilation
from csv_oracle import repr_csv
from simulate_oracle import joint_space_stream, pt1_step, run_loop


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
        with pytest.raises(InvalidParameter, match=r"unknown mode in \('banana',\)"):
            run_experiment(robot_0, robot_0, 0, modes=("banana",))

    def test_csv_schema(self, robot_0, tmp_path):
        desired = self.constant_stream(robot_0, [0.004, 0.002], ticks=50)
        sim = run(desired, robot_0, SimConfig(seed=2))
        path = tmp_path / "run.csv"
        _write_run(tmp_path, "run", sim, Manifest("simulate", {}, [], []))
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["t_s", "rho_d_1", "rho_d_2", "rho_d_3"]
        assert "rho_meas_1" in lines[0] and "rho_cmd_1" in lines[0] and "rho_true_1" in lines[0]
        assert len(lines) == 51

    def test_csv_bytes_match_row_by_row_formatting(self, tmp_path):
        # every run of the demo, written as the demo writes them (one column
        # cache per target), must match formatting every cell of every row
        # on its own
        runs, _, _ = evaluate_suite(42)
        assert len(runs) == 18
        formatted, target, manifest = {}, None, Manifest("demo", {}, [], [])
        for stem, sim in runs.items():
            if sim.design.name != target:
                formatted, target = {}, sim.design.name
            _write_run(tmp_path, stem, sim, manifest, formatted)
            header = (tmp_path / f"{stem}.csv").read_text().splitlines()[0].split(",")
            columns = zip(sim.t.tolist(), sim.desired.tolist(), sim.measured.tolist(),
                          sim.commanded.tolist(), sim.true.tolist())
            rows = ([t, *d, *m, *c, *r] for t, d, m, c, r in columns)
            assert len(header) == 1 + 4 * sim.design.n
            assert (tmp_path / f"{stem}.csv").read_bytes() == repr_csv(header, rows), stem


def assert_matches_loop(desired, design, config, mode):
    """true, measured and commanded agree with the per-tick loop to 1e-12 of
    the loop's largest magnitude; the first state and open-loop commands exactly."""
    sim = run(desired, design, config, mode)
    ref = run_loop(desired, design, config, mode)
    for field in ("true", "measured", "commanded"):
        got, want = getattr(sim, field), getattr(ref, field)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(want)), err_msg=field)
    np.testing.assert_array_equal(sim.true[0], desired[0])
    if mode != "closed_loop":
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
            assert_matches_loop(stream.positions, designs[target], SimConfig(seed=seed), mode)

    @pytest.mark.parametrize("ticks", [1, 2, 3])
    def test_short_streams(self, robot_D, ticks):
        desired = np.random.default_rng(ticks).uniform(-0.01, 0.01, size=(ticks, 7))
        for mode in MODES:
            assert_matches_loop(desired, robot_D, SimConfig(seed=4), mode)

    @pytest.mark.parametrize("overrides", [
        {"kp": 0.0, "kd": 0.0},   # slow pole 1 - alpha
        {"kd": -0.1},             # complex pole pair, |l| = 0.63
        {"noise_eps": 0.0},
    ])
    def test_pole_and_noise_edge_cases(self, designs, overrides):
        stream = desired_stream(surrogate_trajectory(designs["robot_0"], 5),
                                make_transfer_map(designs["robot_0"], designs["robot_C"]))
        for mode in MODES:
            assert_matches_loop(stream.positions, designs["robot_C"],
                                SimConfig(seed=5, **overrides), mode)


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
                stream = desired_stream(traj, transfer)
                peak = peak_abs(traj, "velocity", weights=transfer.matrix)
                stretch = _dilation(peak / DEFAULT_V_MAX)
                assert stream.positions.shape[0] == math.floor(
                    traj.horizon * stretch / SimConfig.dt) + 1
                assert peak / stretch <= limit, (surrogate.name, target.name, seed)
                assert np.max(np.abs(stream.velocities)) <= limit


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

    @pytest.mark.parametrize("transfer_mode", TRANSFER_MODES)
    def test_latent_stream_matches_joint_space(self, designs, transfer_mode):
        # evaluated on the 2 latent columns and decoded, against the surrogate's
        # joints mapped through the transfer matrix
        stretched = 0
        for pair, names in enumerate(ORDERED_PAIRS):
            surrogate, target = (designs[name] for name in names)
            trajectory = surrogate_trajectory(surrogate, 9001 + 7 * pair, 3 + pair % 4)
            transfer = make_transfer_map(surrogate, target, transfer_mode)
            stream = desired_stream(trajectory, transfer)
            expected, stretch = joint_space_stream(trajectory, transfer)
            stretched += stretch > 1.0
            for got, reference in ((stream.positions, expected.positions),
                                   (stream.velocities, expected.velocities)):
                assert got.shape == reference.shape
                assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))
        assert stretched > 0

    def test_tick_grid(self, designs):
        sim = run_experiment(designs["robot_0"], designs["robot_B"], 7,
                             modes=("open_loop_clean",))["open_loop_clean"]
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
        runs = run_experiment(robot_0, robot_0, 2**70, segment_count=1, modes=("closed_loop",))
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


def assert_runs_match_independent_runs(runs, stream, target, seed, transfer_mode):
    """Runs that share one stream's work equal a separate `run` per mode, bit for
    bit, and carry the transfer mode of their stream where `run` carries None."""
    for mode, shared in runs.items():
        alone = run(stream.positions, target, SimConfig(seed=seed), mode)
        for field in ("t", "desired", "measured", "commanded", "true"):
            np.testing.assert_array_equal(getattr(shared, field), getattr(alone, field),
                                          err_msg=f"{mode} {field}")
        assert shared.metrics() == {**alone.metrics(), "transfer_mode": transfer_mode}, mode
        np.testing.assert_array_equal(shared.rms_per_joint(), alone.rms_per_joint())


ORDERED_PAIRS = [(s, t) for s in ("robot_0", "robot_A", "robot_B", "robot_C", "robot_D")
                 for t in ("robot_0", "robot_A", "robot_B", "robot_C", "robot_D")]


class TestRunsShareStreamWork:
    """run_experiment computes the tick grid, the noise draw and the open-loop
    scan with its metrics once per stream; the results must not change."""

    @pytest.mark.parametrize("transfer_mode", ["general", "symmetric"])
    @pytest.mark.parametrize("pair", range(len(ORDERED_PAIRS)))
    def test_every_design_pair(self, designs, pair, transfer_mode):
        surrogate, target = (designs[name] for name in ORDERED_PAIRS[pair])
        seed, segments = 9001 + 7 * pair, 3 + pair % 4
        runs = run_experiment(surrogate, target, seed, transfer_mode, segments)
        assert tuple(runs) == MODES
        stream = desired_stream(surrogate_trajectory(surrogate, seed, segments),
                                make_transfer_map(surrogate, target, transfer_mode))
        assert_runs_match_independent_runs(runs, stream, target, seed, transfer_mode)
        # what the open-loop runs share is the same array, not a copy
        clean, noisy = runs["open_loop_clean"], runs["open_loop_noisy"]
        assert noisy.true is clean.true and noisy.t is runs["closed_loop"].t

    @pytest.mark.parametrize("modes, transfer_mode", [
        (("closed_loop",), "symmetric"),   # evaluate_suite's uncompensated run
        (("open_loop_noisy",), "general"),
        (("open_loop_noisy", "open_loop_clean"), "general"),
    ])
    def test_mode_subsets(self, designs, modes, transfer_mode):
        surrogate, target = designs["robot_0"], designs["robot_B"]
        runs = run_experiment(surrogate, target, 314, transfer_mode, modes=modes)
        assert tuple(runs) == modes
        stream = desired_stream(surrogate_trajectory(surrogate, 314),
                                make_transfer_map(surrogate, target, transfer_mode))
        assert_runs_match_independent_runs(runs, stream, target, 314, transfer_mode)

    @pytest.mark.parametrize("ticks", [1, 2, 999, 1001, 1002])
    def test_streams_around_the_transient_cutoff(self, robot_D, ticks):
        # 1001 ticks end on t = 1.0 s, which is not past the cutoff, so every
        # tick counts; 1002 ticks leave only the last one
        desired = np.random.default_rng(ticks).uniform(-0.01, 0.01, size=(ticks, 7))
        stream = DesiredStream(positions=desired, velocities=np.zeros_like(desired))
        runs = _simulate(stream.positions, robot_D, SimConfig(seed=6), MODES, None)
        assert_runs_match_independent_runs(runs, stream, robot_D, 6, None)
        for sim in runs.values():
            settled = sim.t > TRANSIENT_CUTOFF_S
            if not settled.any():
                settled[:] = True
            assert settled.sum() == (1 if ticks == 1002 else ticks)
            error = (sim.desired - sim.true)[settled]
            np.testing.assert_array_equal(sim.rms_per_joint(),
                                          np.sqrt(np.mean(error**2, axis=0)))
            assert sim.max_abs_error() == np.max(np.abs(error))
