import json
import math
import warnings
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.interpolate import PPoly

from clarkekit import (
    DEFAULT_LIMITS,
    builtin_designs,
    DimensionMismatch,
    InvalidParameter,
    KinematicLimits,
    OutOfRange,
    PEAK_SLOPE,
    PlannedTrajectory,
    evaluate,
    make_transfer_map,
    peak_abs,
    plan_segment,
    plan_trajectory,
    sample_joints,
    surrogate_trajectory,
)
from clarkekit import trajectory
from clarkekit.cli import _write_trajectory_csv
from clarkekit.retarget import TRANSFER_MODES
from clarkekit.trajectory import (_dilation, _horner, _peak_at_roots, _piece_bounds,
                                  _position_poly, _synchronize, _tick_count)
from trajectory_oracle import (ScalarState, horner, oracle_evaluate, oracle_horner,
                               oracle_peak_abs, oracle_plan_segment, oracle_synchronize,
                               roots_peak_abs, smoothstep, smoothstep_integral,
                               smoothstep_slope)

# velocity ramp shape in ascending power order (degree 9)
RAMP_COEFFS = np.array([0, 0, 0, 0, 0, 126, -420, 540, -315, 70], dtype=float)
BENCH = Path(__file__).resolve().parents[1] / "bench"
SNAPSHOT = Path(__file__).parent / "data" / "plan_snapshot.json"


def plan_with_profiles(via, limits=DEFAULT_LIMITS, overlap=0.5):
    """A plan and the profiles it superposes, (start, states, enable_times,
    horizon): the arguments plan_trajectory passes to _position_poly, scaled
    by the plan's dilation f (v / f, durations and enable times times f)."""
    built, build = [], trajectory._position_poly

    def recording(*args):
        built.append(args)
        return build(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trajectory, "_position_poly", recording)
        traj = plan_trajectory(via, limits, overlap)
    start, states, enable_times, _ = built[0]
    f = traj.dilation
    states = states._replace(v=states.v / f, t_lo=states.t_lo * f, t_cr=states.t_cr * f,
                             t_sd=states.t_sd * f)
    return traj, (start, states, enable_times * f, traj.horizon)


def ramp_derivative_peak(order: int) -> float:
    """Max |d^order/dtau^order| of the ramp shape over [0, 1] (dense oracle)."""
    coeffs = npoly.polyder(RAMP_COEFFS, order)
    tau = np.linspace(0.0, 1.0, 20001)
    return float(np.max(np.abs(npoly.polyval(tau, coeffs))))


def smoothness_bounds(states):
    """Analytic max of |d^m v / dt^m| for m = 0..5 over a plan's profiles;
    overlapping profiles can superpose pairwise, hence the factor two."""
    moving = states.v != 0.0
    v = states.v[moving]
    ramp = np.minimum(states.t_lo, states.t_sd)[moving]
    return {order: 2.0 * np.max(v * ramp_derivative_peak(order) / ramp**order, initial=0.0)
            for order in range(6)}


def one_sided_derivatives(poly, order: int):
    """Left and right limits of d^order/dt^order of a piecewise polynomial at
    its interior breakpoints, one row per breakpoint: the left limit is the
    preceding interval's polynomial at its right end; poly is wrapped in
    scipy's PPoly for its derivative."""
    coeffs = PPoly(poly.c, poly.x).derivative(order).c
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

    def test_ramp_tables_match_numpy_polynomial_bit_for_bit(self):
        # the literal tables against the polyint/polysub construction they
        # replaced; tobytes() tells -0.0 from 0.0
        lift_off = npoly.polyint(RAMP_COEFFS)
        set_down = npoly.polysub([0, 1], lift_off)
        assert trajectory._RAMP_POSITION.tobytes() == lift_off.tobytes()
        for phase, shape in ((1, lift_off), (3, set_down)):
            terms = shape.size
            table = np.array([[shape[i + j] * math.comb(i + j, j) if i + j < terms else 0.0
                               for j in range(terms)] for i in range(terms)])
            assert trajectory._SHIFT[phase].tobytes() == table.tobytes()


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
                assert PEAK_SLOPE * state.v / state.t_lo <= DEFAULT_LIMITS.a_max * (1.0 + 1e-9)
                assert PEAK_SLOPE * state.v / state.t_sd <= DEFAULT_LIMITS.dec_max * (1.0 + 1e-9)

    def test_asymmetric_deceleration(self):
        limits = KinematicLimits(v_max=0.02, a_max=0.3, dec_max=0.1)
        state = plan_segment(0.05, limits)
        assert state.t_sd == pytest.approx(3.0 * state.t_lo, rel=1e-12)

    def test_non_finite_distance(self):
        with pytest.raises(InvalidParameter):
            plan_segment(math.nan)
        with pytest.raises(InvalidParameter):
            plan_segment(math.inf)
        with pytest.raises(InvalidParameter):
            plan_segment(np.array([[0.01, math.nan], [0.0, 0.02]]))

    @pytest.mark.parametrize("field", ["v_max", "a_max", "dec_max"])
    def test_non_numeric_limit(self, field):
        with pytest.raises(InvalidParameter, match=f"{field} must be a real number"):
            KinematicLimits(**{field: "0.01"})

    def test_array_matches_scalar_oracle_bit_for_bit(self):
        rng = np.random.default_rng(17)
        # at the boundary of the fourth limits the triangular formula rounds
        # away from the full profile; the last underflow the full ramps to zero
        for limits in (DEFAULT_LIMITS, KinematicLimits(v_max=0.02, a_max=0.3, dec_max=0.1),
                       KinematicLimits(v_max=0.05, a_max=0.2, dec_max=0.9),
                       KinematicLimits(v_max=0.01, a_max=0.05, dec_max=0.2),
                       KinematicLimits(v_max=1e-200, a_max=1e200, dec_max=1e200)):
            # the full/triangular boundary, in the planner's own arithmetic
            full = 0.5 * limits.v_max * (PEAK_SLOPE * limits.v_max / limits.a_max
                                         + PEAK_SLOPE * limits.v_max / limits.dec_max)
            edges = [0.0, -0.0, 1e-300, -1e-300, full, np.nextafter(full, 0.0),
                     np.nextafter(full, 1.0), -full, -np.nextafter(full, 0.0)]
            deltas = np.concatenate([edges, rng.uniform(-0.1, 0.1, 200),
                                     rng.uniform(-full, full, 200)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                states = plan_segment(deltas.reshape(-1, 1), limits)
            for k, delta in enumerate(deltas):
                got = profiles(field[k] for field in states)
                assert bits(got) == bits([oracle_plan_segment(float(delta), limits)]), delta


def profiles(states):
    """The profiles of a 1-D TrajectoryState as scalar oracle states."""
    return [ScalarState(*map(float, values)) for values in zip(*states)]


def bits(states):
    """Every field of scalar states as exact hex, which tells -0.0 from 0.0."""
    return [tuple(value.hex() for value in astuple(state)) for state in states]


class TestSynchronize:
    def test_identical_deltas_unchanged(self):
        states = plan_segment(np.full(3, 0.02))
        for before, after in zip(states, _synchronize(states)):
            np.testing.assert_array_equal(after, before)

    def test_zero_delta_idles(self):
        states = _synchronize(plan_segment(np.array([0.02, 0.0])))
        assert states.v[1] == 0.0
        assert states.duration[1] == pytest.approx(states.duration[0])

    def test_closure_preserved(self):
        states = _synchronize(plan_segment(np.array([0.05, -0.01, 0.002])))
        assert len({round(s.duration, 9) for s in profiles(states)}) == 1
        for state in profiles(states):
            covered = state.v * (0.5 * state.t_lo + state.t_cr + 0.5 * state.t_sd)
            assert covered == pytest.approx(abs(state.delta_rho), rel=1e-12, abs=1e-18)

    def test_dilation_never_raises_peaks(self):
        originals = plan_segment(np.array([0.05, -0.01, 0.002]))
        for before, after in zip(profiles(originals), profiles(_synchronize(originals))):
            assert after.v <= before.v * (1.0 + 1e-12)
            if after.t_lo > 0.0:
                peak_before = PEAK_SLOPE * before.v / before.t_lo
                peak_after = PEAK_SLOPE * after.v / after.t_lo
                assert peak_after <= peak_before * (1.0 + 1e-12)

    def test_segments_match_scalar_oracle_bit_for_bit(self):
        # each row is one segment; some joints idle, some segments idle entirely
        rng = np.random.default_rng(23)
        for limits in (DEFAULT_LIMITS, KinematicLimits(v_max=0.02, a_max=0.3, dec_max=0.1)):
            deltas = rng.uniform(-0.05, 0.05, (60, 4))
            deltas[rng.random(deltas.shape) < 0.3] = 0.0
            deltas[::7] = 0.0
            deltas[1::9, :2] = [1e-300, -1e-300]
            states = _synchronize(plan_segment(deltas, limits))
            for row, segment in enumerate(deltas):
                oracle = oracle_synchronize([oracle_plan_segment(float(d), limits)
                                             for d in segment])
                assert bits(profiles(field[row] for field in states)) == bits(oracle), row

    def test_needs_a_joint(self):
        with pytest.raises(InvalidParameter):
            _synchronize(plan_segment(np.zeros((2, 0))))


@pytest.fixture(scope="module")
def vias(robot_0):
    return sample_joints(robot_0, 42, 6)


class TestBlendAndEvaluate:
    def test_zero_overlap_hits_via_points(self, vias):
        traj = plan_trajectory(vias, DEFAULT_LIMITS, overlap_fraction=0.0)
        assert traj.segment_count == vias.shape[0] - 1
        pos = evaluate(traj, traj.via_times)[0]
        assert np.max(np.abs(pos - vias[1:])) < 1e-9

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

    def test_non_numeric_overlap(self, vias):
        with pytest.raises(InvalidParameter, match="overlap_fraction must be a real number"):
            plan_trajectory(vias, DEFAULT_LIMITS, overlap_fraction="0.5")

    def test_non_numeric_via_points(self):
        with pytest.raises(InvalidParameter, match="via points must be real numbers"):
            plan_trajectory([["a"], ["b"]])

    def test_non_numeric_query_time(self, vias):
        with pytest.raises(InvalidParameter, match="query times must be real numbers"):
            evaluate(plan_trajectory(vias), "a")

    def test_non_numeric_weights(self, vias):
        with pytest.raises(InvalidParameter, match="weights must be real numbers"):
            peak_abs(plan_trajectory(vias), weights=[["a"]])

    def test_query_times_of_two_dimensions(self, vias):
        traj = plan_trajectory(vias)
        for t in (np.zeros((2, 2)), np.zeros((1, 3)), [[0.0]]):
            with pytest.raises(DimensionMismatch, match="query times"):
                evaluate(traj, t)

    def test_weights_with_no_rows(self, vias):
        traj = plan_trajectory(vias)
        for channel in ("velocity", "acceleration"):
            with pytest.raises(DimensionMismatch, match="at least one row"):
                peak_abs(traj, channel, weights=np.zeros((0, traj.n)))

    def test_numeric_string_via_points(self):
        # a numeric string is no more a number in an array than as a scalar,
        # and None is not a NaN
        for via in ([["0"], ["0.001"]], np.array([["0"], ["0.001"]], dtype=object),
                    np.array([[None], ["0.001"]], dtype=object)):
            with pytest.raises(InvalidParameter, match="via points must be real numbers"):
                plan_trajectory(via)
            with pytest.raises(InvalidParameter, match="segment distances must be real numbers"):
                plan_segment(via[1])
        # an object array of numbers is converted like a list
        np.testing.assert_array_equal(
            plan_trajectory(np.array([[0], [0.001]], dtype=object)).position_poly.c,
            plan_trajectory([[0.0], [0.001]]).position_poly.c)

    def test_complex_via_points(self):
        # the cast to float would drop the imaginary part of an array
        for via in ([[0.0], [1j]], np.array([[0.0], [1j]])):
            with pytest.raises(InvalidParameter, match="via points must be real numbers"):
                plan_trajectory(via)

    def test_numeric_string_query_time(self):
        for t in ("0.01", np.array(["0.01"], dtype=object)):
            with pytest.raises(InvalidParameter, match="query times must be real numbers"):
                evaluate(plan_trajectory([[0.0], [0.001]]), t)

    def test_numeric_string_weights(self):
        for weights in ([["1"]], np.array([["1"]], dtype=object)):
            with pytest.raises(InvalidParameter, match="weights must be real numbers"):
                peak_abs(plan_trajectory([[0.0], [0.001]]), weights=weights)

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
        np.testing.assert_allclose(evaluate(traj, traj.horizon)[0], vias[-1],
                                   rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("overlap", [0.0, 0.5, 1.0])
    def test_enable_times_non_decreasing(self, vias, overlap):
        traj, (_, _, enable_times, _) = plan_with_profiles(vias, DEFAULT_LIMITS, overlap)
        assert np.all(np.diff(enable_times) >= 0.0)
        assert np.all(np.diff(traj.via_times) >= 0.0)

    def test_peak_abs_matches_brute_force(self, vias):
        traj = plan_trajectory(vias, DEFAULT_LIMITS, 0.5)
        grid = np.linspace(0.0, traj.horizon, 200001)
        _, vel, acc = evaluate(traj, grid)
        assert peak_abs(traj, "velocity") >= np.max(np.abs(vel)) * (1.0 - 1e-12)
        assert peak_abs(traj, "acceleration") >= np.max(np.abs(acc)) * (1.0 - 1e-12)
        weights = np.array([[0.4, -1.1, 0.3], [0.0, 0.7, -0.2]])
        projected = np.max(np.abs(vel @ weights.T))
        assert peak_abs(traj, "velocity", weights=weights) >= projected * (1.0 - 1e-12)

    def test_zero_joints_rejected(self):
        with pytest.raises(InvalidParameter):
            plan_trajectory(np.zeros((2, 0)))

    def test_piece_too_long_to_bound_rejected(self):
        # the cruise piece's length to the ninth power overflows float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter):
                plan_trajectory(np.array([[0.0], [1e300]]))

    @pytest.mark.parametrize("filter", ["error", "always"])
    @pytest.mark.parametrize("via", [[[0.0], [1e308]], [[0.0], [-1e308]],
                                     [[0.0, 0.0], [1e308, 0.01]], [[0.0], [5e306], [0.0]]])
    def test_timing_too_long_for_float64_rejected(self, via, filter):
        # 1e308 m at v_max overflows a cruise duration, and two 5e306 m moves
        # overflow the horizon; either is rejected before any warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(filter)
            with pytest.raises(InvalidParameter, match="timing is not finite"):
                plan_trajectory(np.array(via))
        assert caught == []

    def test_segment_timing_too_long_for_float64_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match="timing is not finite"):
                plan_segment(np.array([0.01, 1e308]))
            # extreme but finite limits overflow the triangular ramps
            with pytest.raises(InvalidParameter, match="timing is not finite"):
                plan_segment(1e300, KinematicLimits(v_max=1e-300, a_max=1e300,
                                                    dec_max=1e300))

    def test_underflowing_acceleration_product_rejected(self, robot_0):
        # a_max * dec_max underflows to 0, so every triangular profile would get
        # v = 0 and the plan would never leave its start
        limits = KinematicLimits(a_max=1e-300, dec_max=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match="a_max=1e-300, dec_max=1e-300"):
                plan_trajectory(sample_joints(robot_0, 42, 6), limits)
            with pytest.raises(InvalidParameter, match="peak velocity of 0"):
                plan_segment(np.array([0.0, -0.01]), limits)
            assert plan_segment(0.0, limits).v == 0.0

    @pytest.mark.parametrize("distance", [1e14, 1e15, 1e16, -1e15])
    def test_set_down_lost_in_rounding_rejected(self, distance):
        # the 0.197 s set-down is less than half an ulp of its start time, so
        # the plan would end moving at v_max
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidParameter, match="too short for float64"):
                plan_trajectory(np.array([[0.0], [distance]]))
        assert caught == []

    def test_lift_off_lost_in_rounding_rejected(self, vias):
        # a 4e-22 s lift-off vanishes at the later segments' enable times, while
        # the 0.197 s set-down stays
        with pytest.raises(InvalidParameter, match=r"a_max=1e\+20"):
            plan_trajectory(vias, KinematicLimits(a_max=1e20))

    def test_stop_rule_names_the_move(self):
        # the 4e13 m move's fault is its length: its 0.197 s set-down ends at a
        # horizon whose ulp is 0.25 s; the error names the ramp, its end and that ulp
        state = plan_segment(np.array([4e13]))
        end = float(state.t_lo[0] + state.t_cr[0] + state.t_sd[0])
        with pytest.raises(InvalidParameter, match="too short for float64") as caught:
            plan_trajectory(np.array([[0.0, 0.0, 0.0], [4e13, 0.0, 0.0]]))
        message = str(caught.value)
        assert message.startswith("the limits v_max=")
        assert f"a {float(state.t_sd[0]):.6g} s ramp ends at t = {end:.6g} s" in message
        assert f"where an ulp is {np.spacing(end):.6g} s" in message
        assert "ends at t = 1.27324e+15 s, where an ulp is 0.25 s" in message

    def test_every_accepted_long_move_stops(self):
        # a set-down whose end rounds by an ulp of a long horizon leaves a
        # velocity there: 0.49 v_max at 2e13 m and 1.02 v_max at 4e13 m
        accepted = []
        for distance in (1e10, 1e11, 3.2e11, 1.3e12, 2.5e12, 1e13, 2e13, 4e13):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    traj = plan_trajectory(np.array([[0.0], [distance]]))
                except InvalidParameter as error:
                    assert "too short for float64" in str(error)
                    continue
            velocity = evaluate(traj, traj.horizon)[1][0]
            assert abs(velocity) <= 1e-9 * DEFAULT_LIMITS.v_max, distance
            accepted.append(distance)
        assert accepted == [1e10, 1e11]

    def test_benchmark_surrogate_plans_are_accepted(self, designs, monkeypatch):
        # the stop rule rejects none of the plans the benchmark's workloads make
        monkeypatch.syspath_prepend(str(BENCH))
        from workloads import DEMO_SEEDS, experiment_cases
        cases = [(designs[surrogate], seed, segments)
                 for surrogate, _, segments, _, seed in experiment_cases(0, 300)]
        cases += [(designs["robot_0"], seed, 5) for seed in DEMO_SEEDS]
        for surrogate, seed, segments in cases:
            assert surrogate_trajectory(surrogate, seed, segments).horizon > 0.0

    @pytest.mark.parametrize("overlap", [0.0, 0.5, 1.0])
    def test_idle_middle_segment_matches_oracle(self, overlap):
        via = np.array([[0.0, 0.01], [0.02, -0.01], [0.02, -0.01], [0.0, 0.015]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj, profiles = plan_with_profiles(via, DEFAULT_LIMITS, overlap)
            times = np.concatenate([np.linspace(0.0, traj.horizon, 2001),
                                    traj.position_poly.x])
            got = evaluate(traj, times)
            want = oracle_evaluate(*profiles, times)
        states = profiles[1]
        assert np.all(states.v[1] == 0.0)
        assert np.all(states.duration[1] == 0.0)
        assert traj.via_times[1] == traj.via_times[0]
        for exact, oracle in zip(got, want):
            assert np.max(np.abs(exact - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        np.testing.assert_allclose(evaluate(traj, traj.horizon)[0], via[-1], rtol=0.0,
                                   atol=1e-15)

    @pytest.mark.parametrize("overlap", [0.5, 1.0])
    def test_every_array_is_read_only(self, overlap):
        # overlap 1.0 on a reversal dilates the plan, so both paths are covered
        traj = plan_trajectory(np.array([[0.0, 0.0], [0.06, 0.02], [0.0, 0.01]]),
                               DEFAULT_LIMITS, overlap)
        assert (traj.dilation > 1.0) == (overlap == 1.0)
        for array in (traj.position_poly.c, traj.position_poly.x, traj.via_times):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_derived_fields(self):
        # a plan is its polynomial, its via times and its dilation
        assert [field.name for field in fields(PlannedTrajectory)] == [
            "position_poly", "via_times", "dilation"]
        reversal = np.array([[0.0, 0.0], [0.06, 0.02], [0.0, 0.01]])
        plans = [plan_trajectory(reversal, DEFAULT_LIMITS, 0.5),
                 plan_trajectory(reversal, DEFAULT_LIMITS, 1.0),
                 plan_trajectory(np.array([[0.01, -0.02], [0.01, -0.02]]))]
        assert [traj.dilation > 1.0 for traj in plans] == [False, True, False]
        assert [traj.segment_count for traj in plans] == [2, 2, 1]
        assert plans[2].horizon == 0.0
        for traj in plans:
            assert traj.horizon == float(traj.via_times[-1])
            assert traj.segment_count == traj.via_times.size
            assert traj.n == traj.position_poly.c.shape[2] == 2

    def test_negative_deltas_mirror(self):
        traj = plan_trajectory(np.array([[0.01], [-0.02]]), DEFAULT_LIMITS, 0.0)
        mid = evaluate(traj, traj.horizon / 2.0)[0]
        assert mid[0] < 0.01
        assert evaluate(traj, traj.horizon)[0][0] == pytest.approx(-0.02, abs=1e-15)


class TestDilationFactor:
    def test_ratios_within_the_tolerance_do_not_bind(self):
        for ratios in ((0.0,), (1.0,), (1.0 + 1e-9,), (0.5, 1.0 + 1e-9), (1.0 + 1e-9, 1.0)):
            assert _dilation(*ratios) == 1.0

    def test_binding_ratios_are_padded(self):
        assert _dilation(1.0 + 2e-9) == (1.0 + 2e-9) * (1.0 + 1e-12)
        # acceleration falls with the square of the stretch
        assert _dilation(0.5, 4.0) == 2.0 * (1.0 + 1e-12)
        assert _dilation(1.5, 1.21) == 1.5 * (1.0 + 1e-12)



class TestTickCount:
    def test_grid_runs_from_zero_to_the_horizon(self):
        assert _tick_count(0.0, 1e-3) == 1
        assert _tick_count(2.5, 0.5) == 6
        assert _tick_count(0.0009, 1e-3) == 1

    @pytest.mark.parametrize("horizon, dt", [(1e300, 1e-12), (1e300, 1e-300), (math.inf, 1e-3),
                                             (math.nan, 1e-3)])
    def test_grid_too_long_to_allocate_raises_memory_error(self, horizon, dt):
        # rejected before numpy is asked for the array, whose byte count would
        # overflow intp, and before math.floor meets an infinite count
        with pytest.raises(MemoryError, match="Unable to allocate a grid of"):
            _tick_count(horizon, dt)

def random_plans(count: int = 40):
    """Plans over all five designs with 3-12 segments and mixed overlaps,
    each with its profiles (plan_with_profiles) and paired with the general
    transfer matrix to another design."""
    rng = np.random.default_rng(2412)
    pool = list(builtin_designs().values())
    for k in range(count):
        source = pool[(k + k // 10) % len(pool)]
        target = pool[int(rng.integers(len(pool)))]
        vias = sample_joints(source, int(rng.integers(2**31)), 3 + k % 10 + 1)
        overlap = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        yield (*plan_with_profiles(vias, DEFAULT_LIMITS, overlap),
               make_transfer_map(source, target).matrix)


class TestExactPolynomial:
    """The piecewise polynomial against the masked per-phase evaluation and
    the dense-grid peak search it replaced (tests/trajectory_oracle.py)."""

    def test_peaks_match_dense_grid_oracle(self):
        for traj, profiles, weights in random_plans():
            for channel, w in (("velocity", None), ("acceleration", None),
                               ("velocity", weights)):
                exact = peak_abs(traj, channel, weights=w)
                oracle = oracle_peak_abs(*profiles, channel, weights=w)
                assert oracle * (1.0 - 1e-12) <= exact <= oracle * (1.0 + 1e-9), \
                    (channel, w is not None, exact, oracle)

    def test_evaluation_matches_masked_oracle(self):
        for traj, profiles, _ in random_plans():
            times = np.concatenate([np.linspace(0.0, traj.horizon, 2001),
                                    traj.position_poly.x])
            for exact, oracle in zip(evaluate(traj, times), oracle_evaluate(*profiles, times)):
                scale = np.max(np.abs(oracle))
                assert np.max(np.abs(exact - oracle)) <= 1e-12 * scale

    def test_one_pass_matches_three_horner_passes(self):
        # positions keep the old arithmetic bit for bit; the derivatives come
        # from the same pass instead of the derivative's own coefficients
        for traj, _, _ in random_plans(10):
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


class TestBreakpoints:
    """The breakpoints are np.unique of the profile bounds, ramp midpoints,
    0 and the horizon (or 1 for a motionless plan), bit for bit."""

    CASES = [
        # repeated via rows: a zero-distance segment, and a joint that stays put
        (np.array([[0.0, 0.0], [0.01, 0.0], [0.01, 0.0], [0.0, 0.02]]), 0.5),
        (np.array([[0.01, -0.02], [0.01, -0.02]]), 0.5),
        (np.array([[0.0, 0.0, 0.0], [0.02, -0.01, -0.01], [0.0, 0.0, 0.0]]), 0.0),
        (np.array([[0.0, 0.0, 0.0], [0.02, -0.01, -0.01], [0.0, 0.0, 0.0]]), 1.0),
        # reverses at full overlap, so the plan is dilated
        (np.array([[0.0, 0.0], [0.06, 0.02], [0.0, 0.01]]), 1.0),
        (sample_joints(builtin_designs()["robot_D"], 3, 7), 0.0),
        (sample_joints(builtin_designs()["robot_D"], 3, 7), 1.0),
    ]

    @staticmethod
    def candidates(states, enable_times, horizon):
        moving = states.v != 0.0
        e = np.broadcast_to(enable_times[:, None], moving.shape)[moving]
        t_lo, t_cr, t_sd = (field[moving] for field in (states.t_lo, states.t_cr, states.t_sd))
        cruise_end = e + (t_lo + t_cr)
        return np.concatenate([[0.0, horizon or 1.0], e, e + t_lo, cruise_end,
                               e + (t_lo + t_cr + t_sd), e + 0.5 * t_lo,
                               cruise_end + 0.5 * t_sd])

    def test_match_np_unique(self, monkeypatch):
        built, build = [], trajectory._position_poly

        def recording(*args):
            built.append((args, build(*args)))
            return built[-1][1]

        monkeypatch.setattr(trajectory, "_position_poly", recording)
        dilated = 0
        for via, overlap in self.CASES:
            built.clear()
            traj = plan_trajectory(via, DEFAULT_LIMITS, overlap)
            (_, states, enable_times, horizon), poly = built[0]
            expected = np.unique(self.candidates(states, enable_times, horizon))
            assert poly.x.tobytes() == expected.tobytes()
            assert traj.position_poly.x.tobytes() == (expected * traj.dilation).tobytes()
            dilated += traj.dilation > 1.0
        assert dilated >= 1
        motionless = plan_trajectory(self.CASES[1][0])
        np.testing.assert_array_equal(motionless.position_poly.x, [0.0, 1.0])


class TestPlanSnapshot:
    """Plans against tests/data/plan_snapshot.json, recorded while a plan still
    held its profiles: every built-in design x seeds 0-3 (six sampled via
    rows) x overlap 0, 0.5 and 1, each with its horizon, dilation, via arrival
    times and evaluate() at 64 evenly spaced fractions of its horizon."""

    def test_plans_match_snapshot(self, designs):
        snapshot = json.loads(SNAPSHOT.read_text())
        fractions = np.linspace(0.0, 1.0, snapshot["fractions"])
        entries = snapshot["plans"]
        assert len(entries) == 60
        assert sum(entry["dilation"] > 1.0 for entry in entries) >= 5
        for entry in entries:
            label = (entry["design"], entry["seed"], entry["overlap"])
            vias = sample_joints(designs[entry["design"]], entry["seed"], snapshot["via_rows"])
            traj = plan_trajectory(vias, DEFAULT_LIMITS, entry["overlap"])
            assert traj.horizon == pytest.approx(entry["horizon"], rel=1e-12, abs=0.0), label
            assert traj.dilation == pytest.approx(entry["dilation"], rel=1e-12, abs=0.0), label
            np.testing.assert_allclose(traj.via_times, entry["via_times"], rtol=1e-12, atol=0.0,
                                       err_msg=str(label))
            # a value that is zero in exact arithmetic is rounding noise, so each
            # channel is also allowed 1e-12 of its largest magnitude
            for got, key in zip(evaluate(traj, fractions * traj.horizon),
                                ("position", "velocity", "acceleration")):
                want = np.array(entry[key])
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.max(np.abs(want)),
                                           err_msg=f"{label} {key}")


def scaled(poly, factor):
    """poly in t / factor, as plan_trajectory seeds a dilated plan."""
    powers = np.arange(poly.c.shape[0] - 1, -1, -1, dtype=float)
    return PPoly(poly.c / factor ** powers[:, None, None], poly.x * factor)


def shift_piece(coeffs, offset):
    """PPoly coefficients (highest power first) of one piece re-expanded about
    offset: row k from the end holds the k-th derivative at offset over k!."""
    piece = PPoly(coeffs[:, None], [0.0, 2.0 * offset])
    return np.stack([piece(offset, nu=k) / math.factorial(k)
                     for k in range(coeffs.shape[0] - 1, -1, -1)])


class TestDilatedPolynomial:
    """A dilated plan reuses its planned polynomial in t / dilation instead of
    superposing its profiles again."""

    @staticmethod
    def dilated_plans():
        # at full overlap a joint that reverses adds one segment's set-down
        # deceleration to the next one's lift-off, which stretches by up to sqrt(2)
        plans = [plan_with_profiles(np.array([[0.0, 0.0], [0.06, 0.02], [0.0, 0.01]]),
                                    DEFAULT_LIMITS, 1.0)]
        plans += [plan_with_profiles(sample_joints(design, seed, 3 + seed % 4), DEFAULT_LIMITS,
                                     1.0)
                  for design in builtin_designs().values() for seed in range(6)]
        return [(traj, profiles) for traj, profiles in plans if traj.dilation > 1.0]

    def test_matches_rebuilt_polynomial(self):
        plans = self.dilated_plans()
        assert len(plans) > 20
        for traj, profiles in plans:
            # planned once: the plan comes with its polynomial
            assert traj.dilation > 1.2
            seeded = traj.position_poly
            rebuilt = _position_poly(*profiles)
            times = np.concatenate([np.arange(0.0, traj.horizon, 1e-3), seeded.x, rebuilt.x])
            for got, expected in zip(_horner(seeded.c, seeded.x, times),
                                     _horner(rebuilt.c, rebuilt.x, times)):
                scale = np.max(np.abs(expected))
                assert np.max(np.abs(got - expected)) <= 1e-12 * scale

    def test_undilated_plan_builds_its_own(self):
        # short triangular moves stay below the limits; so does the reversal at 0.5
        plans = [plan_with_profiles(np.array([[0.0, 0.0], [1e-4, -2e-4], [3e-4, 0.0]]),
                                    DEFAULT_LIMITS, overlap) for overlap in (0.0, 0.5)]
        plans.append(plan_with_profiles(np.array([[0.0, 0.0], [0.06, 0.02], [0.0, 0.01]]),
                                        DEFAULT_LIMITS, 0.5))
        for traj, profiles in plans:
            assert traj.dilation == 1.0
            rebuilt = _position_poly(*profiles)
            np.testing.assert_array_equal(traj.position_poly.c, rebuilt.c)
            np.testing.assert_array_equal(traj.position_poly.x, rebuilt.x)

    def test_merged_breakpoints_change_nothing(self, vias):
        # Split a piece at two breakpoints one ulp apart just below a power of
        # two, which the dilation padding 1 + 1e-12 carries across it: the
        # scaled breakpoints merge into a zero-width piece.
        traj = plan_trajectory(vias)
        poly, factor = traj.position_poly, 1.0 + 1e-12
        checked = 0
        for edge in 2.0 ** np.arange(-3.0, math.floor(math.log2(traj.horizon)) + 1.0):
            near = np.nextafter(edge / factor, 0.0)
            for _ in range(8):
                after = np.nextafter(near, np.inf)
                if near * factor == after * factor:
                    break
                near = after
            i = int(np.searchsorted(poly.x, near, side="right")) - 1
            assert near * factor == after * factor and poly.x[i] < near < after < poly.x[i + 1]
            pieces = [poly.c[:, i]] + [shift_piece(poly.c[:, i], at - poly.x[i])
                                       for at in (near, after)]
            split = PPoly(np.concatenate([poly.c[:, :i], np.stack(pieces, axis=1),
                                          poly.c[:, i + 1:]], axis=1),
                          np.concatenate([poly.x[:i + 1], [near, after], poly.x[i + 1:]]))
            merged = scaled(split, factor)
            assert np.diff(merged.x)[i + 1] == 0.0
            unmerged = PPoly(np.delete(merged.c, i + 1, axis=1), np.delete(merged.x, i + 1))
            a = replace(traj, position_poly=merged)
            b = replace(traj, position_poly=unmerged)
            times = np.concatenate([np.linspace(0.0, merged.x[-1], 501), merged.x])
            for got, expected in zip(evaluate(a, times), evaluate(b, times)):
                np.testing.assert_array_equal(got, expected)
            for channel in ("velocity", "acceleration"):
                assert peak_abs(a, channel) == peak_abs(b, channel)
                # pruning drops the zero-width piece; a search of every piece does not
                assert unpruned_peak(a, channel) == unpruned_peak(b, channel)
            checked += 1
        assert checked >= 4


class TestHornerMatchesOracle:
    """The contiguous Horner pass, stopped at each order, against the pass it
    replaced (tests/trajectory_oracle.py), bit for bit."""

    @staticmethod
    def assert_every_order_matches(coeffs, x, times):
        expected = oracle_horner(coeffs, x, times)
        for order in (0, 1, 2):
            got = _horner(coeffs, x, times, order)
            assert len(got) == order + 1
            for exact, reference in zip(got, expected):
                np.testing.assert_array_equal(exact, reference)

    def test_random_plans(self):
        for traj, _, weights in random_plans():
            poly = traj.position_poly
            x = poly.x
            times = np.concatenate([np.arange(0.0, traj.horizon, 1e-3), x,
                                    x[:-1] + 0.5 * np.diff(x)])
            self.assert_every_order_matches(poly.c, x, times)
            # peak_abs evaluates projected coefficients
            self.assert_every_order_matches(poly.c @ weights.T, x, times)

    def test_motionless_plan(self):
        poly = plan_trajectory(np.array([[0.01, -0.02], [0.01, -0.02]])).position_poly
        self.assert_every_order_matches(poly.c, poly.x, np.array([0.0, 0.5, 1.0]))

    def test_single_time_query(self, vias):
        poly = plan_trajectory(vias).position_poly
        for time in (0.0, 0.5 * poly.x[-1], poly.x[-1]):
            self.assert_every_order_matches(poly.c, poly.x, np.array([time]))


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
    return max(probe_peak(traj, order, weights),
               _peak_at_roots(coeffs, poly.x, order, np.ones(coeffs.shape[1:], dtype=bool)))


def assert_matches_roots_oracle(traj, channel, weights=None):
    pruned = peak_abs(traj, channel, weights=weights)
    oracle = roots_peak_abs(traj, channel, weights=weights)
    assert abs(pruned - oracle) <= 1e-12 * oracle, (channel, pruned, oracle)
    return pruned


class TestPrunedPeak:
    """Bernstein-pruned peaks against the root search on every interval
    (tests/trajectory_oracle.py), and the bound the pruning rests on."""

    def test_random_plans_match_roots_oracle(self):
        for traj, _, weights in random_plans():
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
        traj, (_, states, _, _) = plan_with_profiles(np.array([[0.0], [0.001]]))
        assert states.t_cr[0, 0] == 0.0
        assert assert_matches_roots_oracle(traj, "velocity") == pytest.approx(states.v[0, 0],
                                                                               rel=1e-12)
        assert assert_matches_roots_oracle(traj, "acceleration") == pytest.approx(
            DEFAULT_LIMITS.a_max, rel=1e-12)

    def test_pruning_loses_no_candidate(self, robot_D):
        # within the rounding margin of a search over every piece in the same
        # arithmetic: a tie's bound may stand in for its peak; in the two
        # robot_D plans an interior root's value reaches the breakpoint/midpoint
        # maximum while its piece's computed Bernstein bound lies an ulp below it
        cases = [(traj, channel, w) for traj, _, weights in random_plans(20)
                 for channel in ("velocity", "acceleration") for w in (None, weights)]
        cases += [(surrogate_trajectory(robot_D, seed, segment_count=segments),
                   "acceleration", None) for seed, segments in ((11, 4), (16, 9))]
        for traj, channel, weights in cases:
            poly = traj.position_poly
            coeffs = poly.c if weights is None else poly.c @ weights.T
            margin = _piece_bounds(coeffs, poly.x, {"velocity": 1, "acceleration": 2}[channel])[1]
            exact = unpruned_peak(traj, channel, weights)
            assert abs(peak_abs(traj, channel, weights) - exact) <= margin.max()

    @staticmethod
    def refuse_root_search(*args):
        raise AssertionError("a root search ran")

    def test_ties_need_no_root_search(self, designs, monkeypatch):
        # every piece of these plans either stays below the breakpoint/midpoint
        # peak or ties with it; their peaks sit on ramp midpoints and cruises
        monkeypatch.setattr(trajectory, "_peak_at_roots", self.refuse_root_search)
        for design in designs.values():
            traj = surrogate_trajectory(design, 42)
            for channel in ("velocity", "acceleration"):
                assert peak_abs(traj, channel) > 0.0

    def test_interior_peak_is_still_searched(self, monkeypatch):
        # the projected velocity peaks strictly between breakpoints, well above
        # every probe, so its piece is no tie
        traj = plan_trajectory(np.array([[0.0, 0.0], [0.02, 0.004]]))
        weights = np.array([[1.0, -1.0]])
        monkeypatch.setattr(trajectory, "_peak_at_roots", self.refuse_root_search)
        with pytest.raises(AssertionError, match="a root search ran"):
            peak_abs(traj, "velocity", weights)

    def test_bound_covers_dense_samples(self):
        for traj, _, weights in list(random_plans())[::4]:
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
        for traj, _, weights in random_plans(10):
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
        traj, (_, states, _, _) = plan_with_profiles(vias, DEFAULT_LIMITS, 0.5)
        h = 1e-4
        grid = np.arange(0.0, traj.horizon, h)
        velocity = evaluate(traj, grid)[1]
        assert_c4_velocity(velocity, h, smoothness_bounds(states))

    def test_checker_rejects_linear_ramps(self):
        # negative control: a classic trapezoid (linear ramps, C0 velocity)
        # violates the first-derivative continuity bound immediately
        state = plan_segment(0.031416, DEFAULT_LIMITS)
        h = 1e-4
        grid = np.arange(0.0, state.duration, h)
        t_lo, t_cr, v = state.t_lo, state.t_cr, state.v
        velocity = np.select(
            [grid < t_lo, grid < t_lo + t_cr, grid <= state.duration],
            [v * grid / t_lo, v, v * (state.duration - grid) / state.t_sd],
        )[:, None]
        with pytest.raises(AssertionError):
            assert_c4_velocity(velocity, h, smoothness_bounds(state))


class TestTrajectoryCsv:
    def test_schema(self, robot_0, tmp_path):
        vias = sample_joints(robot_0, 3, 3)
        traj = plan_trajectory(vias, DEFAULT_LIMITS, 0.5)
        path = tmp_path / "traj.csv"
        _write_trajectory_csv(path, traj, 1e-3)
        lines = path.read_text().splitlines()
        assert lines[0] == ("t_s,rho_1_m,vel_1_mps,acc_1_mps2,rho_2_m,vel_2_mps,acc_2_mps2,"
                            "rho_3_m,vel_3_mps,acc_3_mps2")
        assert len(lines) == int(traj.horizon / 1e-3) + 2
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        np.testing.assert_allclose(first[1::3], vias[0], rtol=0.0, atol=1e-15)
