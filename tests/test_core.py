import gc
import math
import weakref

import numpy as np
import pytest

from clarkekit import (
    ArcParameters,
    DegenerateDesign,
    DimensionMismatch,
    InvalidParameter,
    RobotDesign,
    arc_forward_matrix,
    arc_inverse_matrix,
    builtin_designs,
    from_arc,
    gram_condition,
    inverse_clarke_matrix,
    make_transfer_map,
    sample_joints,
    symmetric_design,
    to_arc,
    transfer_general,
    transfer_symmetric,
    transform_pair,
)
from clarkekit import core
from conftest import random_design

SQRT3 = math.sqrt(3.0)


class TestInverseMatrix:
    def test_rows_are_cos_sin_n3(self):
        minv = inverse_clarke_matrix(2.0 * np.pi * np.array([0.0, 1 / 3, 2 / 3]))
        expected = np.array([[1.0, 0.0], [-0.5, SQRT3 / 2], [-0.5, -SQRT3 / 2]])
        np.testing.assert_allclose(minv, expected, rtol=0.0, atol=1e-15)

    def test_rows_are_cos_sin_n4(self):
        minv = inverse_clarke_matrix(2.0 * np.pi * np.array([0.0, 0.25, 0.5, 0.75]))
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        np.testing.assert_allclose(minv, expected, rtol=0.0, atol=1e-15)

    def test_single_angle_tolerated(self):
        # construction works for any angle count; only full designs need n >= 3
        np.testing.assert_allclose(inverse_clarke_matrix([0.0]), [[1.0, 0.0]])

    def test_random_angles_match_direct_evaluation(self):
        rng = np.random.default_rng(3)
        psi = rng.uniform(-10.0, 10.0, 12)
        minv = inverse_clarke_matrix(psi)
        for i, angle in enumerate(psi):
            assert minv[i, 0] == math.cos(angle)
            assert minv[i, 1] == math.sin(angle)


class TestTransformPair:
    def test_symmetric_forward_rows(self, robot_0):
        pair = transform_pair(robot_0)
        expected = np.array([[2 / 3, -1 / 3, -1 / 3], [0.0, 1 / SQRT3, -1 / SQRT3]])
        np.testing.assert_allclose(pair.forward_matrix, expected, rtol=0.0, atol=1e-15)

    def test_symmetric_gram_is_half_n(self, robot_0):
        np.testing.assert_allclose(pair_gram := transform_pair(robot_0).gram,
                                   np.diag([1.5, 1.5]), rtol=0.0, atol=1e-15)
        assert pair_gram[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_pseudoinverse_matches_numpy_pinv(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            design = random_design(rng)
            pair = transform_pair(design)
            oracle = np.linalg.pinv(pair.inverse_matrix)
            np.testing.assert_allclose(pair.forward_matrix, oracle, rtol=0.0, atol=1e-12)

    def test_collinear_angles_are_degenerate(self):
        design = RobotDesign("bad", psi=[0.0, math.pi, 0.0], d=[0.01] * 3, l=0.1)
        with pytest.raises(DegenerateDesign):
            transform_pair(design)
        assert gram_condition(design) == math.inf

    def test_right_inverse_randomized(self, designs):
        rng = np.random.default_rng(7)
        pool = list(designs.values()) + [random_design(rng) for _ in range(50)]
        for design in pool:
            pair = transform_pair(design)
            residue = pair.forward_matrix @ pair.inverse_matrix - np.eye(2)
            assert np.max(np.abs(residue)) < 1e-10

    def test_projection_idempotent(self, designs):
        rng = np.random.default_rng(8)
        for design in list(designs.values()) + [random_design(rng) for _ in range(20)]:
            pair = transform_pair(design)
            proj = pair.inverse_matrix @ pair.forward_matrix
            assert np.max(np.abs(proj @ proj - proj)) < 1e-10

    def test_symmetric_closure(self):
        for n in range(3, 13):
            pair = transform_pair(symmetric_design(n, 0.01, 0.1))
            closed_form = (2.0 / n) * pair.inverse_matrix.T
            assert np.max(np.abs(pair.forward_matrix - closed_form)) < 1e-12

    def test_trig_identities_symmetric(self):
        for n in range(3, 13):
            psi = symmetric_design(n, 0.01, 0.1).psi
            assert abs(np.sum(np.cos(psi) ** 2) - n / 2) < 1e-12
            assert abs(np.sum(np.sin(psi) ** 2) - n / 2) < 1e-12
            assert abs(np.sum(np.sin(psi) * np.cos(psi))) < 1e-12


class TestDesignMatrixCache:
    def test_matrices_are_built_once_per_design(self, designs):
        for design in designs.values():
            assert transform_pair(design) is transform_pair(design)
            assert arc_forward_matrix(design) is arc_forward_matrix(design)
            assert arc_inverse_matrix(design) is arc_inverse_matrix(design)

    def test_cached_matrices_are_read_only(self, designs):
        for design in designs.values():
            pair = transform_pair(design)
            for matrix in (pair.forward_matrix, pair.inverse_matrix, pair.gram,
                           arc_forward_matrix(design), arc_inverse_matrix(design)):
                with pytest.raises(ValueError):
                    matrix[0, 0] = 1.0

    def test_cached_values_match_their_definition(self, robot_D):
        pair = transform_pair(robot_D)
        np.testing.assert_array_equal(arc_forward_matrix(robot_D),
                                      pair.forward_matrix / robot_D.d[None, :] / robot_D.l)
        np.testing.assert_array_equal(
            arc_inverse_matrix(robot_D),
            robot_D.l * robot_D.d[:, None] * inverse_clarke_matrix(robot_D.psi))

    def test_degenerate_design_raises_on_every_call(self):
        design = RobotDesign("bad", psi=[0.0, math.pi, 0.0], d=[0.01] * 3, l=0.1)
        for _ in range(3):
            with pytest.raises(DegenerateDesign):
                transform_pair(design)
            with pytest.raises(DegenerateDesign):
                arc_forward_matrix(design)
        for _ in range(2):
            assert gram_condition(design) == math.inf

    def test_design_is_freed_without_the_cyclic_collector(self):
        # the pair keeps n, not the design, so reference counting frees a
        # design together with its cached matrices
        gc.disable()
        try:
            design = builtin_designs()["robot_D"]
            assert transform_pair(design).n == design.n
            assert arc_forward_matrix(design).shape == (2, design.n)
            assert arc_inverse_matrix(design).shape == (design.n, 2)
            alive = weakref.ref(design)
            del design
            assert alive() is None
        finally:
            gc.enable()

    def test_scalar_call_sequence_builds_each_pair_once(self, monkeypatch):
        builds = {}
        build = core._build_pair

        def counting_build(design):
            builds[design.name] = builds.get(design.name, 0) + 1
            return build(design)

        monkeypatch.setattr(core, "_build_pair", counting_build)
        robots = list(builtin_designs().values())
        vectors = [sample_joints(design, 3 + k, 64) for k, design in enumerate(robots)]
        rng = np.random.default_rng(5)
        for s, t, row in rng.integers([5, 5, 64], size=(600, 3)).tolist():
            joints = vectors[s][row]
            pair = transform_pair(robots[s])
            arc = to_arc(robots[s], joints)
            from_arc(robots[t], arc)
            transfer_general(robots[s], robots[t], joints)
            transfer_symmetric(robots[s], robots[t], joints)
            make_transfer_map(robots[s], robots[t])
            pair.inverse(pair.forward(joints))
        assert builds == {design.name: 1 for design in robots}


class TestForwardInverse:
    def test_forward_of_unit_clarke_joints(self, robot_0):
        pair = transform_pair(robot_0)
        clarke = pair.forward(np.array([1.0, -0.5, -0.5]) * 1e-3)
        np.testing.assert_allclose(clarke, [1e-3, 0.0], rtol=0.0, atol=1e-18)

    def test_zero_maps_to_zero(self, robot_0):
        pair = transform_pair(robot_0)
        np.testing.assert_array_equal(pair.forward(np.zeros(3)), np.zeros(2))
        np.testing.assert_array_equal(pair.inverse(np.zeros(2)), np.zeros(3))

    def test_inverse_examples(self, robot_0, robot_A):
        np.testing.assert_allclose(transform_pair(robot_0).inverse([1e-3, 0.0]),
                                   [1e-3, -0.5e-3, -0.5e-3], rtol=0.0, atol=1e-18)
        np.testing.assert_allclose(transform_pair(robot_A).inverse([0.0, 1e-3]),
                                   [0.0, 1e-3, 0.0, -1e-3], rtol=0.0, atol=1e-18)

    def test_lossless_roundtrip(self, designs):
        rng = np.random.default_rng(21)
        for design in list(designs.values()) + [random_design(rng) for _ in range(20)]:
            pair = transform_pair(design)
            for _ in range(10):
                clarke = rng.uniform(-0.05, 0.05, 2)
                back = pair.forward(pair.inverse(clarke))
                assert np.max(np.abs(back - clarke)) < 1e-12 * max(1.0, np.max(np.abs(clarke)))

    def test_actuation_constraint_symmetric_constant_d(self):
        rng = np.random.default_rng(5)
        for n in range(3, 10):
            pair = transform_pair(symmetric_design(n, 0.01, 0.1))
            for _ in range(5):
                clarke = rng.uniform(-0.03, 0.03, 2)
                joints = pair.inverse(clarke)
                assert abs(joints.sum()) < 1e-12 * n * np.linalg.norm(clarke)

    def test_dimension_mismatch(self, robot_0):
        pair = transform_pair(robot_0)
        with pytest.raises(DimensionMismatch):
            pair.forward([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            pair.inverse([1.0, 2.0, 3.0])


class TestArcMapping:
    def test_straight_configuration(self, robot_0):
        arc = to_arc(robot_0, np.zeros(3))
        assert arc.kappa == 0.0
        assert arc.theta == 0.0

    def test_half_circle_anchor(self, robot_0):
        joints = transform_pair(robot_0).inverse([math.pi * 0.01, 0.0])
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

    @pytest.mark.parametrize("n,d,l", [(2, 0.01, 0.1), (3, 0.0, 0.1), (3, 0.01, -1.0)])
    def test_rejects_bad_parameters(self, n, d, l):
        with pytest.raises(InvalidParameter):
            symmetric_design(n, d, l)


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
