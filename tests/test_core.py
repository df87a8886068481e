import contextlib
import gc
import io
import json
import math
import re
import warnings
import weakref
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkekit import (
    CONDITION_LIMIT,
    ArcParameters,
    DegenerateDesign,
    DimensionMismatch,
    InvalidParameter,
    ParseError,
    RobotDesign,
    SimConfig,
    builtin_designs,
    from_arc,
    gram_condition,
    load_design,
    make_transfer_map,
    peak_abs,
    polar_clarke_grid,
    run_experiment,
    sample_clarke_disk,
    sample_joints,
    surrogate_trajectory,
    symmetric_design,
    to_arc,
)
from clarkekit.cli import main
from clarkekit.core import arc_forward_matrix, transform_pair
from conftest import RANGE_MESSAGE, random_design

SQRT3 = math.sqrt(3.0)

# the range of a design's length and distances, in metres
LOW, HIGH = 1e-6, 1e3


class TestInverseMatrix:
    def test_rows_are_cos_sin_n3(self):
        minv = symmetric_design(3, 0.01, 0.1).inverse_matrix
        expected = np.array([[1.0, 0.0], [-0.5, SQRT3 / 2], [-0.5, -SQRT3 / 2]])
        np.testing.assert_allclose(minv, expected, rtol=0.0, atol=1e-15)

    def test_rows_are_cos_sin_n4(self):
        minv = symmetric_design(4, 0.01, 0.1).inverse_matrix
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        np.testing.assert_allclose(minv, expected, rtol=0.0, atol=1e-15)

    def test_random_angles_match_direct_evaluation(self):
        rng = np.random.default_rng(3)
        psi = rng.uniform(-10.0, 10.0, 12)
        minv = RobotDesign("random", psi=psi, d=np.full(12, 0.01), l=0.1).inverse_matrix
        for i, angle in enumerate(psi):
            assert minv[i, 0] == math.cos(angle)
            assert minv[i, 1] == math.sin(angle)


class TestTransformPair:
    def test_symmetric_forward_rows(self, robot_0):
        expected = np.array([[2 / 3, -1 / 3, -1 / 3], [0.0, 1 / SQRT3, -1 / SQRT3]])
        np.testing.assert_allclose(robot_0.forward_matrix, expected, rtol=0.0, atol=1e-15)

    def test_symmetric_gram_is_half_n(self, robot_0):
        gram = robot_0.inverse_matrix.T @ robot_0.inverse_matrix
        np.testing.assert_allclose(gram, np.diag([1.5, 1.5]), rtol=0.0, atol=1e-15)
        assert gram[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_pseudoinverse_matches_numpy_pinv(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            design = random_design(rng)
            oracle = np.linalg.pinv(design.inverse_matrix)
            np.testing.assert_allclose(design.forward_matrix, oracle, rtol=0.0, atol=1e-12)

    def test_collinear_angles_are_degenerate(self):
        design = RobotDesign("bad", psi=[0.0, math.pi, 0.0], d=[0.01] * 3, l=0.1)
        with pytest.raises(DegenerateDesign):
            design.forward_matrix
        with pytest.raises(DegenerateDesign):
            design.inverse_matrix
        assert gram_condition(design) == math.inf

    def test_right_inverse_randomized(self, designs):
        rng = np.random.default_rng(7)
        pool = list(designs.values()) + [random_design(rng) for _ in range(50)]
        for design in pool:
            residue = design.forward_matrix @ design.inverse_matrix - np.eye(2)
            assert np.max(np.abs(residue)) < 1e-10

    def test_projection_idempotent(self, designs):
        rng = np.random.default_rng(8)
        for design in list(designs.values()) + [random_design(rng) for _ in range(20)]:
            proj = design.inverse_matrix @ design.forward_matrix
            assert np.max(np.abs(proj @ proj - proj)) < 1e-10

    def test_symmetric_closure(self):
        for n in range(3, 13):
            design = symmetric_design(n, 0.01, 0.1)
            closed_form = (2.0 / n) * design.inverse_matrix.T
            assert np.max(np.abs(design.forward_matrix - closed_form)) < 1e-12

    def test_transform_pair_returns_the_design(self, designs):
        # kept out of the package's names, for the benchmark
        for design in designs.values():
            assert transform_pair(design) is design

    def test_trig_identities_symmetric(self):
        for n in range(3, 13):
            psi = symmetric_design(n, 0.01, 0.1).psi
            assert abs(np.sum(np.cos(psi) ** 2) - n / 2) < 1e-12
            assert abs(np.sum(np.sin(psi) ** 2) - n / 2) < 1e-12
            assert abs(np.sum(np.sin(psi) * np.cos(psi))) < 1e-12


class TestDesignMatrixCache:
    def test_matrices_are_built_once_per_design(self, designs):
        for design in designs.values():
            assert design.forward_matrix is design.forward_matrix
            assert design.inverse_matrix is design.inverse_matrix
            assert design.arc_forward is design.arc_forward
            assert design.arc_inverse is design.arc_inverse

    def test_cached_matrices_are_read_only(self, designs):
        for design in designs.values():
            for matrix in (design.forward_matrix, design.inverse_matrix,
                           design.arc_forward, design.arc_inverse):
                with pytest.raises(ValueError):
                    matrix[0, 0] = 1.0

    def test_arc_forward_matrix_is_the_cached_arc_forward(self, designs):
        # kept out of the package's names, for the benchmark
        for design in designs.values():
            assert arc_forward_matrix(design) is design.arc_forward

    def test_cached_values_match_their_definition(self, robot_D):
        np.testing.assert_array_equal(robot_D.arc_forward,
                                      robot_D.forward_matrix / robot_D.d[None, :] / robot_D.l)
        np.testing.assert_array_equal(
            robot_D.arc_inverse,
            robot_D.l * robot_D.d[:, None] * robot_D.inverse_matrix)
        np.testing.assert_array_equal(
            robot_D.inverse_matrix, np.column_stack([np.cos(robot_D.psi), np.sin(robot_D.psi)]))

    def test_degenerate_design_raises_on_every_call(self):
        design = RobotDesign("bad", psi=[0.0, math.pi, 0.0], d=[0.01] * 3, l=0.1)
        for _ in range(3):
            with pytest.raises(DegenerateDesign):
                design.forward_matrix
            with pytest.raises(DegenerateDesign):
                design.inverse_matrix
            with pytest.raises(DegenerateDesign):
                design.forward(np.zeros(3))
            with pytest.raises(DegenerateDesign):
                design.inverse(np.zeros(2))
            with pytest.raises(DegenerateDesign):
                design.arc_forward
            with pytest.raises(DegenerateDesign):
                design.arc_inverse
        for _ in range(2):
            assert gram_condition(design) == math.inf

    def test_design_is_freed_without_the_cyclic_collector(self):
        # the design caches arrays only, so reference counting frees a
        # design together with its cached matrices
        gc.disable()
        try:
            design = builtin_designs()["robot_D"]
            assert design.forward_matrix.shape == (2, design.n)
            assert design.inverse_matrix.shape == (design.n, 2)
            assert design.arc_forward.shape == (2, design.n)
            assert design.arc_inverse.shape == (design.n, 2)
            alive = weakref.ref(design)
            del design
            assert alive() is None
        finally:
            gc.enable()

    def test_scalar_call_sequence_builds_each_pair_once(self, monkeypatch):
        builds = {}
        build = RobotDesign.forward_matrix.func

        def counting_build(design):
            builds[design.name] = builds.get(design.name, 0) + 1
            return build(design)

        counting = cached_property(counting_build)
        counting.__set_name__(RobotDesign, "forward_matrix")
        monkeypatch.setattr(RobotDesign, "forward_matrix", counting)
        robots = list(builtin_designs().values())
        vectors = [sample_joints(design, 3 + k, 64) for k, design in enumerate(robots)]
        rng = np.random.default_rng(5)
        for s, t, row in rng.integers([5, 5, 64], size=(600, 3)).tolist():
            joints = vectors[s][row]
            design, target = robots[s], robots[t]
            arc = to_arc(design, joints)
            from_arc(target, arc)
            make_transfer_map(design, target, "general").apply(joints)
            make_transfer_map(design, target, "symmetric").apply(joints)
            design.inverse(design.forward(joints))
        assert builds == {design.name: 1 for design in robots}


class TestForwardInverse:
    def test_forward_of_unit_clarke_joints(self, robot_0):
        clarke = robot_0.forward(np.array([1.0, -0.5, -0.5]) * 1e-3)
        np.testing.assert_allclose(clarke, [1e-3, 0.0], rtol=0.0, atol=1e-18)

    def test_zero_maps_to_zero(self, robot_0):
        np.testing.assert_array_equal(robot_0.forward(np.zeros(3)), np.zeros(2))
        np.testing.assert_array_equal(robot_0.inverse(np.zeros(2)), np.zeros(3))

    def test_inverse_examples(self, robot_0, robot_A):
        np.testing.assert_allclose(robot_0.inverse([1e-3, 0.0]),
                                   [1e-3, -0.5e-3, -0.5e-3], rtol=0.0, atol=1e-18)
        np.testing.assert_allclose(robot_A.inverse([0.0, 1e-3]),
                                   [0.0, 1e-3, 0.0, -1e-3], rtol=0.0, atol=1e-18)

    def test_lossless_roundtrip(self, designs):
        rng = np.random.default_rng(21)
        for design in list(designs.values()) + [random_design(rng) for _ in range(20)]:
            for _ in range(10):
                clarke = rng.uniform(-0.05, 0.05, 2)
                back = design.forward(design.inverse(clarke))
                assert np.max(np.abs(back - clarke)) < 1e-12 * max(1.0, np.max(np.abs(clarke)))

    def test_actuation_constraint_symmetric_constant_d(self):
        rng = np.random.default_rng(5)
        for n in range(3, 10):
            design = symmetric_design(n, 0.01, 0.1)
            for _ in range(5):
                clarke = rng.uniform(-0.03, 0.03, 2)
                joints = design.inverse(clarke)
                assert abs(joints.sum()) < 1e-12 * n * np.linalg.norm(clarke)

    def test_dimension_mismatch(self, robot_0):
        with pytest.raises(DimensionMismatch):
            robot_0.forward([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            robot_0.inverse([1.0, 2.0, 3.0])


class TestArcMapping:
    def test_straight_configuration(self, robot_0):
        arc = to_arc(robot_0, np.zeros(3))
        assert arc.kappa == 0.0
        assert arc.theta == 0.0

    def test_half_circle_anchor(self, robot_0):
        joints = robot_0.inverse([math.pi * 0.01, 0.0])
        arc = to_arc(robot_0, joints)
        assert abs(arc.kappa * robot_0.l - math.pi) < 1e-12
        assert arc.theta == pytest.approx(0.0, abs=1e-15)

    def test_from_arc_half_circle_values(self, robot_0):
        joints = from_arc(robot_0, ArcParameters(math.pi / 0.1, 0.0))
        np.testing.assert_allclose(joints, [math.pi * 0.01, -math.pi * 0.005, -math.pi * 0.005],
                                   rtol=1e-15, atol=0.0)

    def test_from_arc_zero_curvature(self, robot_0):
        np.testing.assert_array_equal(from_arc(robot_0, ArcParameters(0.0, 0.3)), np.zeros(3))

    def test_from_arc_scales_with_distance(self, robot_B):
        # entrywise: rho_i = l * d_i * (cos(psi_i) kx + sin(psi_i) ky)
        kappa, theta = 12.0, 0.7
        kx, ky = kappa * math.cos(theta), kappa * math.sin(theta)
        joints = from_arc(robot_B, ArcParameters(kappa, theta))
        for i in range(robot_B.n):
            expected = robot_B.l * robot_B.d[i] * (math.cos(robot_B.psi[i]) * kx
                                                   + math.sin(robot_B.psi[i]) * ky)
            assert joints[i] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("arc", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                                     (1.0, math.inf), (0.0, math.nan)])
    def test_from_arc_rejects_non_finite_values(self, robot_D, arc):
        with pytest.raises(InvalidParameter, match="finite"):
            from_arc(robot_D, arc)

    @pytest.mark.parametrize("arc", [(1, 2, 3), (1.0,), (), 5.0, None])
    def test_from_arc_rejects_a_wrong_length(self, robot_D, arc):
        with pytest.raises(DimensionMismatch):
            from_arc(robot_D, arc)

    def test_from_arc_rejects_non_numeric_values(self, robot_D):
        with pytest.raises(InvalidParameter, match="kappa must be a real number"):
            from_arc(robot_D, ("a", "b"))

    def test_to_arc_rejects_non_numeric_joints(self, robot_D):
        with pytest.raises(InvalidParameter, match="joint values must be real numbers"):
            to_arc(robot_D, ["a", "b", "c"])

    def test_to_arc_rejects_numeric_strings(self, robot_0):
        for joints in (["0.001", "0", "0"], np.array(["0.001", "0", "0"], dtype=object),
                       np.array([0.001, None, 0.0], dtype=object)):
            with pytest.raises(InvalidParameter, match="joint values must be real numbers"):
                to_arc(robot_0, joints)
            with pytest.raises(InvalidParameter, match="joint values must be real numbers"):
                robot_0.forward(joints)

    def test_from_arc_accepts_any_numeric_pair(self, robot_D):
        expected = from_arc(robot_D, ArcParameters(12.0, 0.7))
        for arc in ((12, 0.7), [12.0, 0.7], np.array([12.0, 0.7]),
                    (np.int64(12), np.float64(0.7))):
            np.testing.assert_array_equal(from_arc(robot_D, arc), expected)

    def test_arc_roundtrip(self, designs):
        rng = np.random.default_rng(17)
        for design in list(designs.values()) + [random_design(rng) for _ in range(10)]:
            for _ in range(10):
                kappa = rng.uniform(1e-3, math.pi / design.l)
                theta = rng.uniform(-math.pi, math.pi)
                arc = ArcParameters(kappa, theta)
                back = to_arc(design, from_arc(design, arc))
                assert abs(back.kappa - kappa) < 1e-10 * max(1.0, kappa)
                assert abs((back.theta - theta + math.pi) % (2 * math.pi) - math.pi) < 1e-10

    def test_theta_in_range(self, robot_0):
        for theta in np.linspace(-math.pi, math.pi, 33):
            joints = from_arc(robot_0, ArcParameters(5.0, theta))
            back = to_arc(robot_0, joints)
            assert -math.pi <= back.theta < math.pi

    @pytest.mark.parametrize("joints", [[1e308, 0.0, 0.0], [1e308, -1e308, 1e308]])
    def test_to_arc_overflow_raises_without_a_warning(self, robot_0, joints):
        # finite joints whose curvature overflows float64 (to inf, or to NaN via inf - inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match="curvature .* not finite"):
                to_arc(robot_0, joints)

    def test_from_arc_overflow_raises_without_a_warning(self):
        # at the upper edge of the length range, l * d_i * kappa is about 1e314
        design = RobotDesign(name="huge", psi=[0.0, 2.0, 4.0], d=[1e3] * 3, l=1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match="joint values .* not finite"):
                from_arc(design, (1e308, 0.3))


class TestIntegerRule:
    """Every integer input goes through core.check_integer, and a bool is not an integer."""

    @pytest.mark.parametrize("call", [
        lambda robot_0: sample_clarke_disk(True, 10, 0.01),
        lambda robot_0: sample_clarke_disk(0, True, 0.01),
        lambda robot_0: sample_joints(robot_0, 0, True),
        lambda robot_0: polar_clarke_grid(0.01, radii=True),
        lambda robot_0: polar_clarke_grid(0.01, angles=True),
        lambda robot_0: SimConfig(seed=True),
        lambda robot_0: run_experiment(robot_0, robot_0, 0, segment_count=True),
        lambda robot_0: symmetric_design(True, 0.01, 0.1),
    ], ids=["disk-seed", "disk-count", "sample_joints", "grid-radii", "grid-angles",
            "SimConfig", "run_experiment", "symmetric_design"])
    def test_bool_is_not_an_integer(self, robot_0, call):
        with pytest.raises(InvalidParameter, match="must be an integer of at least .*, got True"):
            call(robot_0)

    def test_design_file_n_true(self, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"name": "b", "n": True, "psi_rad": [0, 2, 4],
                                    "d_mm": [10, 10, 10], "l_m": 0.1}))
        with pytest.raises(ParseError, match="n must be an integer of at least 3, got True"):
            load_design(path)

    def test_symmetric_design_rejects_a_float_n(self):
        # as a design file does: 3.0 is not a joint count
        with pytest.raises(InvalidParameter, match="n must be an integer of at least 3, got 3.0"):
            symmetric_design(3.0, 0.01, 0.1)

    def test_sim_config_stores_a_python_int_seed(self):
        config = SimConfig(seed=np.int64(5))
        assert type(config.seed) is int and config.seed == 5


class TestSymmetricDesign:
    def test_matches_builtin_robot_0(self, robot_0):
        design = symmetric_design(3, 0.01, 0.1)
        np.testing.assert_allclose(design.psi, robot_0.psi)
        np.testing.assert_allclose(design.d, robot_0.d)
        assert design.l == robot_0.l

    def test_matches_builtin_robot_A(self, robot_A):
        design = symmetric_design(4, 0.01, 0.1)
        np.testing.assert_allclose(design.psi, robot_A.psi)

    def test_five_joints(self):
        design = symmetric_design(5, 0.01, 0.1)
        np.testing.assert_allclose(design.psi, 2.0 * np.pi * np.array([0, 0.2, 0.4, 0.6, 0.8]))

    @pytest.mark.parametrize("n,d,l", [(2, 0.01, 0.1), (3, 0.0, 0.1), (3, 0.01, -1.0),
                                       (math.nan, 0.01, 0.1), (None, 0.01, 0.1),
                                       ("3", 0.01, 0.1), (3.5, 0.01, 0.1), (math.inf, 0.01, 0.1),
                                       (3, math.inf, 0.1), (3, 0.01, math.nan)])
    def test_rejects_bad_parameters(self, n, d, l):
        with pytest.raises(InvalidParameter):
            symmetric_design(n, d, l)

    def test_rejects_a_non_numeric_distance(self):
        with pytest.raises(InvalidParameter, match="d must be a real number"):
            symmetric_design(3, "0.01", 0.1)


class TestRobotDesignValidation:
    def test_length_mismatch(self):
        with pytest.raises(InvalidParameter):
            RobotDesign("x", psi=[0.0, 1.0, 2.0], d=[0.01, 0.01], l=0.1)

    def test_too_few_joints(self):
        with pytest.raises(InvalidParameter):
            RobotDesign("x", psi=[0.0, 1.0], d=[0.01, 0.01], l=0.1)

    def test_nonpositive_distance(self):
        with pytest.raises(InvalidParameter):
            RobotDesign("x", psi=[0.0, 1.0, 2.0], d=[0.01, -0.01, 0.01], l=0.1)

    def test_nonfinite_angle(self):
        with pytest.raises(InvalidParameter):
            RobotDesign("x", psi=[0.0, np.nan, 2.0], d=[0.01] * 3, l=0.1)

    def test_non_numeric_angles(self):
        with pytest.raises(InvalidParameter, match="joint angles must be real numbers"):
            RobotDesign("x", psi=["a", "b", "c"], d=[0.01] * 3, l=0.1)

    def test_numeric_string_angles(self):
        for psi in (["0", "2", "4"], np.array(["0", "2", "4"], dtype=object)):
            with pytest.raises(InvalidParameter, match="joint angles must be real numbers"):
                RobotDesign("x", psi, [0.01] * 3, 0.1)

    @pytest.mark.parametrize("d, l", [([1e-320, 0.01, 0.01], 0.1), ([0.01] * 3, 1e-320),
                                      ([1e-200] * 3, 1e-200), ([1e300] * 3, 1e10)],
                             ids=["subnormal-d", "subnormal-l", "product-underflows",
                                  "product-overflows"])
    def test_arc_maps_must_be_finite(self, d, l):
        # the length range keeps l * d_i and its reciprocal finite and normal
        with pytest.raises(InvalidParameter, match=re.escape(RANGE_MESSAGE)):
            RobotDesign("x", psi=[0.0, 2.0, 4.0], d=d, l=l)

    def test_overflowing_forward_map(self):
        # this near-collinear layout's forward matrix holds entries of about 50, and
        # a tiny l * d_i would overflow it once divided: the range rejects the design
        with pytest.raises(InvalidParameter, match=re.escape(RANGE_MESSAGE)):
            RobotDesign("tiny", psi=[0.0, 0.01, 0.02], d=[1e-300] * 3, l=1e-7)

    def test_missing_length(self):
        with pytest.raises(InvalidParameter, match="segment length must be a real number"):
            RobotDesign("x", psi=[0.0, 1.0, 2.0], d=[0.01] * 3, l=None)

    def test_arrays_are_read_only(self, robot_0):
        with pytest.raises(ValueError):
            robot_0.psi[0] = 1.0

    def test_layout_flags(self, designs):
        symmetric = {"robot_0": True, "robot_A": True, "robot_B": True,
                     "robot_C": True, "robot_D": False}
        constant = {"robot_0": True, "robot_A": True, "robot_B": False,
                    "robot_C": False, "robot_D": False}
        for name, design in designs.items():
            assert design.is_symmetric() is symmetric[name]
            assert design.has_constant_d() is constant[name]


def log_uniform(low: float, high: float):
    """Magnitudes 10**e for e uniform in [low, high]."""
    return st.floats(low, high).map(lambda exponent: 10.0 ** exponent)


# a design's lengths: inside the range with both bounds, log-uniform over float64 from
# 1e-320 (subnormal) to 1e308, or at a bound or its neighbour outside
INSIDE = st.one_of(st.sampled_from([LOW, HIGH]), log_uniform(-6.0, 3.0))
LENGTHS = st.one_of(INSIDE, log_uniform(-320.0, 308.0),
                    st.sampled_from([np.nextafter(LOW, 0.0), np.nextafter(HIGH, np.inf)]))


@st.composite
def design_fields(draw):
    """(psi, d, l) of a design with 3 to 6 joints, spread around the circle or
    bunched within 1e-3 or 3e-4 rad (near the Gram condition limit, where the
    arc forward map is largest), with lengths all inside the range or drawn anywhere."""
    n = draw(st.integers(3, 6))
    spread = draw(st.sampled_from([2.0 * math.pi, 1e-3, 3e-4]))
    psi = [spread * u for u in draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))]
    lengths = draw(st.sampled_from([INSIDE, LENGTHS]))
    return psi, draw(st.lists(lengths, min_size=n, max_size=n)), draw(lengths)


def in_range(d, l) -> bool:
    return bool(LOW <= l <= HIGH and np.all((LOW <= np.asarray(d)) & (np.asarray(d) <= HIGH)))


class TestLengthRange:
    """The segment length and every distance of a design lie in [1e-6, 1e3] m.  Inside
    that range every arc and transfer map is finite, and so is a retargeted plan's peak
    speed; outside it the design and the design-check command raise the range error.
    No simulation runs here: a design at 1e3 m plans a horizon of about 1e5 s."""

    @staticmethod
    def design_check(path) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["design-check", str(path)])
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pair=st.lists(design_fields(), min_size=2, max_size=2))
    def test_sweep(self, pair, tmp_path_factory):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            built = []
            for psi, d, l in pair:
                # the file holds millimetres (past 1.8e305 m, Infinity), which the loader
                # divides by 1000
                d_mm = [x * 1000.0 for x in d]
                d_loaded = np.asarray(d_mm) / 1000.0
                path = tmp_path_factory.mktemp("design") / "design.json"
                path.write_text(json.dumps({"name": "drawn", "n": len(psi), "psi_rad": psi,
                                            "d_mm": d_mm, "l_m": l}))
                code, out, err = self.design_check(path)
                if in_range(d_loaded, l):
                    assert code in (0, 3), err
                else:
                    assert (code, out) == (2, ""), err
                    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
                    assert RANGE_MESSAGE in err
                if not in_range(d, l):
                    with pytest.raises(InvalidParameter, match=re.escape(RANGE_MESSAGE)):
                        RobotDesign("drawn", psi, d, l)
                    continue
                design = RobotDesign("drawn", psi, d, l)
                if not gram_condition(design) < CONDITION_LIMIT:
                    with pytest.raises(DegenerateDesign):
                        design.forward_matrix
                    continue
                for matrix in (design.forward_matrix, design.arc_forward, design.arc_inverse):
                    assert np.isfinite(matrix).all()
                built.append(design)
            if len(built) == 2:
                source, target = built
                trajectory = surrogate_trajectory(source, 0, 3)
                for mode in ("general", "symmetric"):
                    matrix = make_transfer_map(source, target, mode).matrix
                    assert np.isfinite(matrix).all()
                    assert math.isfinite(peak_abs(trajectory, "velocity", weights=matrix))

    @pytest.mark.parametrize("d, l", [([LOW] * 3, LOW), ([HIGH] * 3, HIGH),
                                      ([LOW, HIGH, LOW], HIGH)], ids=["low", "high", "mixed"])
    def test_edges_are_admitted(self, d, l):
        design = RobotDesign("edge", [0.0, 2.0, 4.0], d, l)
        assert design.l == l and list(design.d) == d
