import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from clarkekit import (
    DEFAULT_LIMITS,
    builtin_designs,
    DimensionMismatch,
    InvalidParameter,
    KinematicLimits,
    OutOfRange,
    PEAK_SLOPE,
    evaluate,
    make_transfer_map,
    peak_abs,
    plan_segment,
    plan_trajectory,
    sample_joints,
    smoothstep,
    smoothstep_integral,
    smoothstep_slope,
    surrogate_trajectory,
    synchronize,
    write_trajectory_csv,
)
from clarkekit.retarget import TRANSFER_MODES
from clarkekit.trajectory import _horner, _peak_at_roots, _piece_bounds, _piece_derivative
from trajectory_oracle import horner, oracle_evaluate, oracle_peak_abs, roots_peak_abs

# velocity ramp shape in ascending power order (degree 9)
RAMP_COEFFS = np.array([0, 0, 0, 0, 0, 126, -420, 540, -315, 70], dtype=float)


def ramp_derivative_peak(order: int) -> float:
    """Max |d^order/dtau^order| of the ramp shape over [0, 1] (dense oracle)."""
    coeffs = npoly.polyder(RAMP_COEFFS, order)
    tau = np.linspace(0.0, 1.0, 20001)
    return float(np.max(np.abs(npoly.polyval(tau, coeffs))))


def smoothness_bounds(traj):
    """Analytic max of |d^m v / dt^m| for m = 0..5; overlapping profiles
    can superpose pairwise, hence the factor two."""
    bounds = {}
    for order in range(6):
        shape_peak = ramp_derivative_peak(order)
        worst = 0.0
        for joint_states in traj.states:
            for state in joint_states:
                if state.v == 0.0:
                    continue
                ramp = min(state.t_lo, state.t_sd)
                worst = max(worst, state.v * shape_peak / ramp**order)
        bounds[order] = 2.0 * worst
    return bounds


def one_sided_derivatives(poly, order: int):
    """Left and right limits of d^order/dt^order of a piecewise polynomial at
    its interior breakpoints, one row per breakpoint: the left limit is the
    preceding interval's polynomial at its right end."""
    coeffs = poly.derivative(order).c
    width = np.diff(poly.x)[:-1, None]
    left = np.zeros_like(coeffs[0, :-1])
    for row in coeffs[:, :-1]:
        left = left * width + row
    return left, coeffs[-1, 1:]


def assert_c4_velocity(velocity: np.ndarray, h: float, bounds: dict, safety: float = 2.0):
    """Finite-difference continuity of the velocity signal and its first
    four derivatives: consecutive estimates may differ by no more than the
    local truncation bound h * max|next derivative| (plus rounding noise)."""
    eps = np.finfo(float).eps
    scale = float(np.max(np.abs(velocity)))
    for order in range(1, 5):
        estimate = np.diff(velocity, order, axis=0) / h**order
        jumps = np.abs(np.diff(estimate, axis=0))
        noise = 2.0 ** (order + 2) * eps * scale / h**order
        limit = safety * h * bounds[order + 1] + noise
        assert np.max(jumps) <= limit, f"derivative order {order}: {np.max(jumps)} > {limit}"


class TestSmoothstep:
    def test_endpoint_values(self):
        assert smoothstep(0.0) == 0.0
        assert smoothstep(1.0) == 1.0
        assert smoothstep(-3.0) == 0.0
        assert smoothstep(2.0) == 1.0

    def test_matches_polynomial_oracle(self):
        tau = np.linspace(0.0, 1.0, 1001)
        np.testing.assert_allclose(smoothstep(tau), npoly.polyval(tau, RAMP_COEFFS),
                                   rtol=0.0, atol=1e-13)

    def test_slope_matches_derivative_oracle(self):
        tau = np.linspace(0.0, 1.0, 1001)
        oracle = npoly.polyval(tau, npoly.polyder(RAMP_COEFFS))
        np.testing.assert_allclose(smoothstep_slope(tau), oracle, rtol=0.0, atol=1e-11)

    def test_peak_slope(self):
        assert smoothstep_slope(0.5) == 630.0 / 256.0 == PEAK_SLOPE
        tau = np.linspace(0.0, 1.0, 100001)
        assert np.max(smoothstep_slope(tau)) <= PEAK_SLOPE

    def test_integral_matches_antiderivative_oracle(self):
        anti = npoly.polyint(RAMP_COEFFS)
        tau = np.linspace(0.0, 1.0, 1001)
        np.testing.assert_allclose(smoothstep_integral(tau), npoly.polyval(tau, anti),
                                   rtol=0.0, atol=1e-13)
        assert smoothstep_integral(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_first_four_derivatives_vanish_at_ends(self):
        for order in range(1, 5):
            coeffs = npoly.polyder(RAMP_COEFFS, order)
            assert npoly.polyval(0.0, coeffs) == 0.0
            assert npoly.polyval(1.0, coeffs) == pytest.approx(0.0, abs=1e-9)


class TestPlanSegment:
    def test_zero_distance(self):
        state = plan_segment(0.0)
        assert state.v == 0.0
        assert state.duration == 0.0

    def test_demo_trapezoid_numbers(self):
        state = plan_segment(0.031416, DEFAULT_LIMITS)
        assert state.t_lo == pytest.approx(PEAK_SLOPE * DEFAULT_LIMITS.v_max
                                           / DEFAULT_LIMITS.a_max, rel=1e-15)
        assert state.t_lo == pytest.approx(0.196875, rel=1e-12)
        assert state.t_sd == state.t_lo
        assert state.t_cr == pytest.approx(0.031416 / DEFAULT_LIMITS.v_max - state.t_lo,
                                           rel=1e-12)
        assert state.v == DEFAULT_LIMITS.v_max

    def test_distance_closure(self):
        rng = np.random.default_rng(3)
        for delta in rng.uniform(-0.1, 0.1, 50):
            state = plan_segment(float(delta))
            covered = state.v * (0.5 * state.t_lo + state.t_cr + 0.5 * state.t_sd)
            assert covered == pytest.approx(abs(delta), rel=1e-12, abs=1e-18)

    def test_triangular_fallback(self):
        state = plan_segment(0.001, DEFAULT_LIMITS)
        assert state.t_cr == 0.0
        assert state.v < DEFAULT_LIMITS.v_max
        # the reduced peak still rides the acceleration bound
        assert PEAK_SLOPE * state.v / state.t_lo == pytest.approx(DEFAULT_LIMITS.a_max,
                                                                  rel=1e-12)

    def test_acceleration_bound(self):
        rng = np.random.default_rng(4)
        for delta in rng.uniform(-0.2, 0.2, 100):
            state = plan_segment(float(delta))
            if state.t_lo > 0.0:
                assert PEAK_SLOPE * state.v / state.t_lo <= state.a * (1.0 + 1e-9)
                assert PEAK_SLOPE * state.v / state.t_sd <= state.dec * (1.0 + 1e-9)

    def test_asymmetric_deceleration(self):
        limits = KinematicLimits(v_max=0.02, a_max=0.3, dec_max=0.1)
        state = plan_segment(0.05, limits)
        assert state.t_sd == pytest.approx(3.0 * state.t_lo, rel=1e-12)

    def test_non_finite_distance(self):
        with pytest.raises(InvalidParameter):
            plan_segment(math.nan)
        with pytest.raises(InvalidParameter):
            plan_segment(math.inf)


class TestSynchronize:
    def test_identical_deltas_unchanged(self):
        states = [plan_segment(0.02) for _ in range(3)]
        assert synchronize(states) == states

    def test_zero_delta_idles(self):
        states = synchronize([plan_segment(0.02), plan_segment(0.0)])
        assert states[1].v == 0.0
        assert states[1].duration == pytest.approx(states[0].duration)

    def test_closure_preserved(self):
        states = synchronize([plan_segment(d) for d in (0.05, -0.01, 0.002)])
        assert len({round(s.duration, 9) for s in states}) == 1
        for state in states:
            covered = state.v * (0.5 * state.t_lo + state.t_cr + 0.5 * state.t_sd)
            assert covered == pytest.approx(abs(state.delta_rho), rel=1e-12, abs=1e-18)

    def test_dilation_never_raises_peaks(self):
        originals = [plan_segment(d) for d in (0.05, -0.01, 0.002)]
        for before, after in zip(originals, synchronize(originals)):
            assert after.v <= before.v * (1.0 + 1e-12)
            if after.t_lo > 0.0:
                peak_before = PEAK_SLOPE * before.v / before.t_lo
                peak_after = PEAK_SLOPE * after.v / after.t_lo
                assert peak_after <= peak_before * (1.0 + 1e-12)


@pytest.fixture(scope="module")
def vias(robot_0):
    return sample_joints(robot_0, 42, 6)


class TestBlendAndEvaluate:
    def test_zero_overlap_hits_via_points(self, vias):
        traj = plan_trajectory(vias, DEFAULT_LIMITS, overlap_fraction=0.0)
        checkpoint = 0.0
        for j in range(traj.segment_count):
            checkpoint = traj.enable_times[j] + traj.segment_durations[j]
            pos = evaluate(traj, min(checkpoint, traj.horizon))[0]
            assert np.max(np.abs(pos - vias[j + 1])) < 1e-9

    @pytest.mark.parametrize("overlap", [0.0, 0.25, 0.5, 1.0])
    def test_endpoints(self, vias, overlap):
        traj = plan_trajectory(vias, DEFAULT_LIMITS, overlap)
        pos0, vel0, _ = evaluate(traj, 0.0)
        posH, velH, _ = evaluate(traj, traj.horizon)
        np.testing.assert_allclose(pos0, vias[0], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(posH, vias[-1], rtol=0.0, atol=1e-15)
        assert np.max(np.abs(vel0)) < 1e-12
        assert np.max(np.abs(velH)) < 1e-12

    def test_limits_after_blending(self, vias):
        traj = plan_trajectory(vias, DEFAULT_LIMITS, 0.5)
        assert peak_abs(traj, "velocity") <= DEFAULT_LIMITS.v_max * (1.0 + 1e-9)
        assert peak_abs(traj, "acceleration") <= DEFAULT_LIMITS.a_max * (1.0 + 1e-9)

    def test_dilation_triggers_when_superposition_overshoots(self):
        # a reversal blended at full overlap aligns the set-down of one
        # segment with the lift-off of the next, so the superposed
        # deceleration doubles unless the timeline is stretched
        via = np.array([[0.0], [0.06], [0.0]])
        traj = plan_trajectory(via, DEFAULT_LIMITS, overlap_fraction=1.0)
        assert traj.dilation > 1.3
        assert peak_abs(traj, "velocity") <= DEFAULT_LIMITS.v_max * (1.0 + 1e-9)
        assert peak_abs(traj, "acceleration") <= DEFAULT_LIMITS.a_max * (1.0 + 1e-9)

    def test_invalid_overlap(self, vias):
        with pytest.raises(InvalidParameter):
            plan_trajectory(vias, DEFAULT_LIMITS, overlap_fraction=1.5)

    def test_out_of_range(self, vias):
        traj = plan_trajectory(vias, DEFAULT_LIMITS, 0.5)
        with pytest.raises(OutOfRange):
            evaluate(traj, -0.5)
        with pytest.raises(OutOfRange):
            evaluate(traj, traj.horizon + 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time(self, vias, bad):
        traj = plan_trajectory(vias, DEFAULT_LIMITS, 0.5)
        with pytest.raises(OutOfRange):
            evaluate(traj, bad)
        with pytest.raises(OutOfRange):
            evaluate(traj, np.array([0.0, bad, traj.horizon]))

    def test_finite_difference_velocity_oracle(self, vias):
        traj = plan_trajectory(vias, DEFAULT_LIMITS, 0.5)
        h = 1e-5
        times = np.linspace(5 * h, traj.horizon - 5 * h, 400)
        pos_plus = evaluate(traj, times + h)[0]
        pos_minus = evaluate(traj, times - h)[0]
        central = (pos_plus - pos_minus) / (2.0 * h)
        analytic = evaluate(traj, times)[1]
        assert np.max(np.abs(central - analytic)) < 1e-6

    def test_finite_difference_acceleration_oracle(self, vias):
        traj = plan_trajectory(vias, DEFAULT_LIMITS, 0.5)
        h = 1e-5
        times = np.linspace(5 * h, traj.horizon - 5 * h, 400)
        vel_plus = evaluate(traj, times + h)[1]
        vel_minus = evaluate(traj, times - h)[1]
        central = (vel_plus - vel_minus) / (2.0 * h)
        analytic = evaluate(traj, times)[2]
        assert np.max(np.abs(central - analytic)) < 1e-4

    def test_goal_equals_start_plus_deltas(self, vias):
        traj = plan_trajectory(vias, DEFAULT_LIMITS, 0.3)
        np.testing.assert_allclose(traj.goal(), vias[-1], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("overlap", [0.0, 0.5, 1.0])
    def test_enable_times_non_decreasing(self, vias, overlap):
        traj = plan_trajectory(vias, DEFAULT_LIMITS, overlap)
        assert np.all(np.diff(traj.enable_times) >= 0.0)

    def test_peak_abs_matches_brute_force(self, vias):
        traj = plan_trajectory(vias, DEFAULT_LIMITS, 0.5)
        grid = np.linspace(0.0, traj.horizon, 200001)
        _, vel, acc = evaluate(traj, grid)
        assert peak_abs(traj, "velocity") >= np.max(np.abs(vel)) * (1.0 - 1e-12)
        assert peak_abs(traj, "acceleration") >= np.max(np.abs(acc)) * (1.0 - 1e-12)
        weights = np.array([[0.4, -1.1, 0.3], [0.0, 0.7, -0.2]])
        projected = np.max(np.abs(vel @ weights.T))
        assert peak_abs(traj, "velocity", weights=weights) >= projected * (1.0 - 1e-12)

    def test_negative_deltas_mirror(self):
        traj = plan_trajectory(np.array([[0.01], [-0.02]]), DEFAULT_LIMITS, 0.0)
        mid = evaluate(traj, traj.horizon / 2.0)[0]
        assert mid[0] < 0.01
        assert evaluate(traj, traj.horizon)[0][0] == pytest.approx(-0.02, abs=1e-15)


def random_plans(count: int = 40):
    """Plans over all five designs with 3-12 segments and mixed overlaps,
    each paired with the general transfer matrix to another design."""
    rng = np.random.default_rng(2412)
    pool = list(builtin_designs().values())
    for k in range(count):
        source = pool[(k + k // 10) % len(pool)]
        target = pool[int(rng.integers(len(pool)))]
        vias = sample_joints(source, int(rng.integers(2**31)), 3 + k % 10 + 1)
        overlap = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        yield (plan_trajectory(vias, DEFAULT_LIMITS, overlap),
               make_transfer_map(source, target).matrix)


class TestExactPolynomial:
    """The piecewise polynomial against the masked per-phase evaluation and
    the dense-grid peak search it replaced (tests/trajectory_oracle.py)."""

    def test_peaks_match_dense_grid_oracle(self):
        for traj, weights in random_plans():
            for channel, w in (("velocity", None), ("acceleration", None),
                               ("velocity", weights)):
                exact = peak_abs(traj, channel, weights=w)
                oracle = oracle_peak_abs(traj, channel, weights=w)
                assert oracle * (1.0 - 1e-12) <= exact <= oracle * (1.0 + 1e-9), \
                    (channel, w is not None, exact, oracle)

    def test_evaluation_matches_masked_oracle(self):
        for traj, _ in random_plans():
            times = np.concatenate([np.linspace(0.0, traj.horizon, 2001),
                                    traj.position_poly.x])
            for exact, oracle in zip(evaluate(traj, times), oracle_evaluate(traj, times)):
                scale = np.max(np.abs(oracle))
                assert np.max(np.abs(exact - oracle)) <= 1e-12 * scale

    def test_one_pass_matches_three_horner_passes(self):
        # positions keep the old arithmetic bit for bit; the derivatives come
        # from the same pass instead of the derivative's own coefficients
        for traj, _ in random_plans(10):
            times = np.linspace(0.0, traj.horizon, 2001)
            for order, exact in enumerate(evaluate(traj, times)):
                reference = horner(traj.position_poly, times, order)
                if order == 0:
                    np.testing.assert_array_equal(exact, reference)
                assert np.max(np.abs(exact - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_zero_motion_plan(self):
        traj = plan_trajectory(np.array([[0.01, -0.02], [0.01, -0.02]]))
        assert traj.horizon == 0.0
        assert peak_abs(traj, "velocity") == 0.0
        pos, vel, acc = evaluate(traj, 0.0)
        np.testing.assert_array_equal(pos, [0.01, -0.02])
        np.testing.assert_array_equal(vel, [0.0, 0.0])
        np.testing.assert_array_equal(acc, [0.0, 0.0])


def probe_peak(traj, order, weights=None):
    """Largest |derivative| over the breakpoints and piece midpoints only."""
    poly = traj.position_poly
    coeffs = poly.c if weights is None else poly.c @ np.asarray(weights).T
    probes = np.concatenate([poly.x, poly.x[:-1] + 0.5 * np.diff(poly.x)])
    return float(np.max(np.abs(_horner(coeffs, poly.x, probes)[order])))


def unpruned_peak(traj, channel, weights=None):
    """peak_abs with a root search on every piece, in the library's own
    arithmetic."""
    order = {"velocity": 1, "acceleration": 2}[channel]
    poly = traj.position_poly
    coeffs = poly.c if weights is None else poly.c @ np.asarray(weights).T
    slope = _piece_derivative(coeffs, order + 1)
    return max(probe_peak(traj, order, weights),
               _peak_at_roots(coeffs, poly.x, slope, order))


def assert_matches_roots_oracle(traj, channel, weights=None):
    pruned = peak_abs(traj, channel, weights=weights)
    oracle = roots_peak_abs(traj, channel, weights=weights)
    assert abs(pruned - oracle) <= 1e-12 * oracle, (channel, pruned, oracle)
    return pruned


class TestPrunedPeak:
    """Bernstein-pruned peaks against the root search on every interval
    (tests/trajectory_oracle.py), and the bound the pruning rests on."""

    def test_random_plans_match_roots_oracle(self):
        for traj, weights in random_plans():
            for channel in ("velocity", "acceleration"):
                assert_matches_roots_oracle(traj, channel)
                assert_matches_roots_oracle(traj, channel, weights)

    def test_every_design_pair_and_transfer_mode(self, designs):
        for surrogate in designs.values():
            traj = surrogate_trajectory(surrogate, 11, segment_count=6)
            for target in designs.values():
                for mode in TRANSFER_MODES:
                    matrix = make_transfer_map(surrogate, target, mode).matrix
                    for channel in ("velocity", "acceleration"):
                        assert_matches_roots_oracle(traj, channel, matrix)

    def test_peak_strictly_inside_a_piece(self):
        # two joints with different ramp timing, differenced: the projected
        # velocity peaks between breakpoints, so only a root finds it
        traj = plan_trajectory(np.array([[0.0, 0.0], [0.02, 0.004]]))
        weights = np.array([[1.0, -1.0]])
        peak = assert_matches_roots_oracle(traj, "velocity", weights)
        assert peak > probe_peak(traj, 1, weights) * (1.0 + 1e-3)
        grid = np.linspace(0.0, traj.horizon, 100001)
        assert peak >= np.max(np.abs(evaluate(traj, grid)[1] @ weights.T)) * (1.0 - 1e-12)

    def test_peak_at_ramp_midpoint(self):
        # a lone ramp's acceleration peaks at its midpoint, a breakpoint
        traj = plan_trajectory(np.array([[0.0], [0.05]]))
        peak = assert_matches_roots_oracle(traj, "acceleration")
        assert peak == pytest.approx(DEFAULT_LIMITS.a_max, rel=1e-12)
        assert peak == pytest.approx(probe_peak(traj, 2), rel=1e-15)

    def test_tied_peaks_across_joints(self):
        traj = plan_trajectory(np.array([[0.0, 0.0, 0.0], [0.02, 0.02, 0.02],
                                         [0.03, 0.03, 0.03]]))
        single = plan_trajectory(np.array([[0.0], [0.02], [0.03]]))
        for channel in ("velocity", "acceleration"):
            peak = assert_matches_roots_oracle(traj, channel)
            assert peak == peak_abs(single, channel)

    def test_motionless_plan(self):
        traj = plan_trajectory(np.array([[0.01, -0.02], [0.01, -0.02]]))
        for channel in ("velocity", "acceleration"):
            assert peak_abs(traj, channel) == 0.0
            assert peak_abs(traj, channel, weights=np.eye(2)) == 0.0

    def test_single_triangular_segment(self):
        traj = plan_trajectory(np.array([[0.0], [0.001]]))
        state = traj.states[0][0]
        assert state.t_cr == 0.0
        assert assert_matches_roots_oracle(traj, "velocity") == pytest.approx(state.v,
                                                                               rel=1e-12)
        assert assert_matches_roots_oracle(traj, "acceleration") == pytest.approx(
            DEFAULT_LIMITS.a_max, rel=1e-12)

    def test_pruning_loses_no_candidate(self, robot_D):
        # bit for bit the peak of a search over every piece in the same
        # arithmetic; in the two robot_D plans an interior root's value
        # reaches the breakpoint/midpoint maximum while its piece's computed
        # Bernstein bound lies an ulp below that maximum, so only the
        # rounding margin keeps that piece searched
        cases = [(traj, channel, w) for traj, weights in random_plans(20)
                 for channel in ("velocity", "acceleration") for w in (None, weights)]
        cases += [(surrogate_trajectory(robot_D, seed, segment_count=segments),
                   "acceleration", None) for seed, segments in ((11, 4), (16, 9))]
        for traj, channel, weights in cases:
            assert peak_abs(traj, channel, weights) == unpruned_peak(traj, channel, weights)

    def test_bound_covers_dense_samples(self):
        for traj, weights in list(random_plans())[::4]:
            poly = traj.position_poly
            for coeffs in (poly.c, poly.c @ weights.T):
                for order in (1, 2):
                    bound, margin = _piece_bounds(coeffs, poly.x, order)
                    derivative = np.stack([np.polyder(coeffs[:, p, c], order)
                                           for p in range(coeffs.shape[1])
                                           for c in range(coeffs.shape[2])], axis=1)
                    width = np.repeat(np.diff(poly.x), coeffs.shape[2])
                    offsets = np.linspace(0.0, 1.0, 257)[:, None] * width
                    sampled = np.zeros_like(offsets)
                    for row in derivative:
                        sampled = sampled * offsets + row
                    sampled = np.abs(sampled).max(axis=0).reshape(bound.shape)
                    assert np.all(sampled <= bound + margin)
                    assert np.all(sampled <= bound * (1.0 + 1e-12))

    def test_pruning_searches_few_pieces(self):
        pruned = total = 0
        for traj, weights in random_plans(10):
            poly = traj.position_poly
            for order in (1, 2):
                bound, margin = _piece_bounds(poly.c, poly.x, order)
                pruned += np.count_nonzero(bound + margin < probe_peak(traj, order))
                total += bound.size
        assert pruned > 0.8 * total

    def test_unknown_channel(self, vias):
        traj = plan_trajectory(vias)
        with pytest.raises(InvalidParameter):
            peak_abs(traj, "jerk")

    @pytest.mark.parametrize("shape", [(2, 4), (2, 2), (3,), (1, 2, 3)])
    def test_weight_shape(self, vias, shape):
        traj = plan_trajectory(vias)
        with pytest.raises(DimensionMismatch):
            peak_abs(traj, "velocity", weights=np.ones(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights(self, vias, bad, capfd):
        traj = plan_trajectory(vias)
        weights = np.ones((2, 3))
        weights[1, 2] = bad
        with pytest.raises(InvalidParameter):
            peak_abs(traj, "acceleration", weights=weights)
        assert capfd.readouterr().err == ""


class TestC4Smoothness:
    def test_velocity_is_c4_at_10khz(self, robot_0):
        vias = sample_joints(robot_0, 42, 6)
        traj = plan_trajectory(vias, DEFAULT_LIMITS, 0.5)
        h = 1e-4
        grid = np.arange(0.0, traj.horizon, h)
        velocity = evaluate(traj, grid)[1]
        assert_c4_velocity(velocity, h, smoothness_bounds(traj))

    def test_checker_rejects_linear_ramps(self):
        # negative control: a classic trapezoid (linear ramps, C0 velocity)
        # violates the first-derivative continuity bound immediately
        state = plan_segment(0.031416, DEFAULT_LIMITS)
        traj = plan_trajectory(np.array([[0.0], [0.031416]]), DEFAULT_LIMITS, 0.0)
        h = 1e-4
        grid = np.arange(0.0, state.duration, h)
        t_lo, t_cr, v = state.t_lo, state.t_cr, state.v
        velocity = np.select(
            [grid < t_lo, grid < t_lo + t_cr, grid <= state.duration],
            [v * grid / t_lo, v, v * (state.duration - grid) / state.t_sd],
        )[:, None]
        with pytest.raises(AssertionError):
            assert_c4_velocity(velocity, h, smoothness_bounds(traj))


class TestTrajectoryCsv:
    def test_schema(self, robot_0, tmp_path):
        vias = sample_joints(robot_0, 3, 3)
        traj = plan_trajectory(vias, DEFAULT_LIMITS, 0.5)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, dt=1e-3)
        lines = path.read_text().splitlines()
        assert lines[0] == ("t_s,rho_1_m,vel_1_mps,acc_1_mps2,rho_2_m,vel_2_mps,acc_2_mps2,"
                            "rho_3_m,vel_3_mps,acc_3_mps2")
        assert len(lines) == int(traj.horizon / 1e-3) + 2
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        np.testing.assert_allclose(first[1::3], vias[0], rtol=0.0, atol=1e-15)
