import itertools
import math

import numpy as np
import pytest

from clarkekit import (
    ArcParameters,
    DimensionMismatch,
    InvalidParameter,
    PerturbedDesign,
    make_transfer_map,
    perturbation_analysis,
    polar_clarke_grid,
    sample_joints,
    to_arc,
)
from clarkekit.retarget import _polar, transfer_general
from conftest import random_design
from retarget_oracle import perturbation_analysis as perturbation_oracle


def feasible_joints(design, rng, count=10):
    return sample_joints(design, int(rng.integers(0, 2**31)), count)


def general(source, target, joints):
    return make_transfer_map(source, target, "general").apply(joints)


class TestTransferSymmetric:
    def test_preserves_clarke_coordinates(self, robot_0, robot_A):
        rng = np.random.default_rng(2)
        for rho in rng.uniform(-0.02, 0.02, (20, 3)):
            out = make_transfer_map(robot_0, robot_A, "symmetric").apply(rho)
            latent_in = robot_0.forward(rho)
            latent_out = robot_A.forward(out)
            assert np.max(np.abs(latent_out - latent_in)) < 1e-12

    def test_identity_on_column_space(self, robot_0):
        rho = robot_0.inverse([0.004, -0.009])
        out = make_transfer_map(robot_0, robot_0, "symmetric").apply(rho)
        np.testing.assert_allclose(out, rho, rtol=0.0, atol=1e-16)

    def test_zero_input(self, robot_0, robot_A):
        out = make_transfer_map(robot_0, robot_A, "symmetric").apply(np.zeros(3))
        np.testing.assert_array_equal(out, np.zeros(4))


class TestTransferGeneral:
    def test_identity_for_identical_designs(self, robot_B):
        # the general self-map reproduces arc-realizable joint vectors,
        # i.e. those in the range of the design's arc decoder
        from clarkekit import ArcParameters, from_arc

        rng = np.random.default_rng(4)
        for _ in range(5):
            arc = ArcParameters(float(rng.uniform(0.1, 30.0)),
                                float(rng.uniform(-math.pi, math.pi)))
            rho = from_arc(robot_B, arc)
            out = general(robot_B, robot_B, rho)
            np.testing.assert_allclose(out, rho, rtol=0.0, atol=1e-15)

    def test_distance_only_difference_scales(self, robot_0):
        target = robot_0.__class__(name="scaled", psi=robot_0.psi, d=robot_0.d * 0.7,
                                   l=robot_0.l)
        rng = np.random.default_rng(6)
        for rho in rng.uniform(-0.02, 0.02, (10, 3)):
            compensated = general(robot_0, target, rho)
            symmetric = make_transfer_map(robot_0, target, "symmetric").apply(rho)
            np.testing.assert_allclose(compensated, 0.7 * symmetric, rtol=1e-13, atol=1e-18)

    def test_arc_preserved_robot_0_to_robot_D(self, robot_0, robot_D):
        rng = np.random.default_rng(9)
        for rho in feasible_joints(robot_0, rng, 20):
            out = general(robot_0, robot_D, rho)
            src = to_arc(robot_0, rho)
            tgt = to_arc(robot_D, out)
            assert abs(tgt.kappa - src.kappa) < 1e-12 * max(1.0, src.kappa)
            assert abs(tgt.theta - src.theta) < 1e-12

    def test_geometric_exactness_all_pairs(self, designs):
        rng = np.random.default_rng(12)
        for source, target in itertools.permutations(designs.values(), 2):
            for rho in feasible_joints(source, rng, 5):
                out = general(source, target, rho)
                src_planar = source.arc_forward @ rho
                tgt_planar = target.arc_forward @ out
                scale = max(1.0, np.max(np.abs(src_planar)))
                assert np.max(np.abs(tgt_planar - src_planar)) < 1e-12 * scale

    def test_composition(self, designs):
        rng = np.random.default_rng(14)
        triples = [("robot_0", "robot_B", "robot_D"), ("robot_A", "robot_C", "robot_0")]
        for a, b, c in triples:
            da, db, dc = designs[a], designs[b], designs[c]
            for rho in feasible_joints(da, rng, 5):
                direct = general(da, dc, rho)
                chained = general(db, dc, general(da, db, rho))
                assert np.max(np.abs(direct - chained)) < 1e-11 * max(1.0, np.max(np.abs(direct)))

    def test_composition_random_designs(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            da, db, dc = (random_design(rng, name=f"r{i}") for i in range(3))
            rho = rng.uniform(-0.02, 0.02, da.n)
            direct = general(da, dc, rho)
            chained = general(db, dc, general(da, db, rho))
            scale = max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(direct - chained)) < 1e-11 * scale

    def test_linearity(self, robot_0, robot_D):
        rng = np.random.default_rng(15)
        rho1, rho2 = rng.uniform(-0.01, 0.01, (2, 3))
        a, b = 1.7, -0.4
        combined = general(robot_0, robot_D, a * rho1 + b * rho2)
        separate = (a * general(robot_0, robot_D, rho1)
                    + b * general(robot_0, robot_D, rho2))
        np.testing.assert_allclose(combined, separate, rtol=1e-12, atol=1e-18)


class TestTransferMap:
    def test_matrix_matches_operation(self, designs):
        def clarke(source, target, rho):
            return target.inverse(source.forward(rho))

        def arc(source, target, rho):
            return target.arc_inverse @ (source.arc_forward @ rho)

        rng = np.random.default_rng(19)
        for source, target in itertools.permutations(designs.values(), 2):
            rho = rng.uniform(-0.02, 0.02, source.n)
            for mode, op in (("symmetric", clarke), ("general", arc)):
                tmap = make_transfer_map(source, target, mode)
                assert np.max(np.abs(tmap.apply(rho) - op(source, target, rho))) < 1e-13

    def test_transfer_general_matches_the_general_map(self, designs):
        # kept out of the package's names, for the benchmark
        rng = np.random.default_rng(20)
        for source, target in itertools.permutations(designs.values(), 2):
            rho = rng.uniform(-0.02, 0.02, source.n)
            tmap = make_transfer_map(source, target, "general")
            assert np.max(np.abs(transfer_general(source, target, rho) - tmap.apply(rho))) < 1e-13

    def test_shape_and_rank(self, designs):
        tmap = make_transfer_map(designs["robot_0"], designs["robot_A"], "general")
        assert tmap.matrix.shape == (4, 3)
        for source, target in itertools.permutations(designs.values(), 2):
            singular = np.linalg.svd(make_transfer_map(source, target).matrix,
                                     compute_uv=False)
            assert singular.size < 3 or singular[2] < 1e-12 * singular[0]

    def test_self_map_is_idempotent(self, robot_0):
        matrix = make_transfer_map(robot_0, robot_0, "general").matrix
        np.testing.assert_allclose(matrix @ matrix, matrix, rtol=0.0, atol=1e-14)

    def test_batch_apply(self, robot_0, robot_A):
        tmap = make_transfer_map(robot_0, robot_A)
        rng = np.random.default_rng(23)
        stack = rng.uniform(-0.01, 0.01, (7, 3))
        batch = tmap.apply(stack)
        assert batch.shape == (7, 4)
        np.testing.assert_allclose(batch[2], tmap.apply(stack[2]), rtol=1e-14, atol=1e-20)

    def test_wrong_joint_count_is_dimension_mismatch(self, robot_0, robot_A):
        tmap = make_transfer_map(robot_0, robot_A)
        for joints in (np.zeros(4), np.zeros((5, 2)), 0.01):
            with pytest.raises(DimensionMismatch):
                tmap.apply(joints)

    @pytest.mark.parametrize("mode", ["symmetric", "general"])
    def test_encoder_decoder_factor_the_matrix(self, designs, mode):
        for source, target in itertools.product(designs.values(), repeat=2):
            tmap = make_transfer_map(source, target, mode)
            assert tmap.encoder.shape == (2, source.n)
            assert tmap.decoder.shape == (target.n, 2)
            assert not (tmap.encoder.flags.writeable or tmap.decoder.flags.writeable)
            np.testing.assert_array_equal(tmap.decoder @ tmap.encoder, tmap.matrix)
            # the matrix as built from the designs directly
            if mode == "symmetric":
                expected = target.inverse_matrix @ source.forward_matrix
            else:
                expected = target.arc_inverse @ source.arc_forward
            np.testing.assert_array_equal(tmap.matrix, expected)

    def test_unknown_mode(self, robot_0, robot_A):
        with pytest.raises(InvalidParameter):
            make_transfer_map(robot_0, robot_A, "latent")

    def test_non_numeric_joints(self, robot_0, robot_A):
        with pytest.raises(InvalidParameter, match="source joint values must be real numbers"):
            make_transfer_map(robot_0, robot_A).apply(["a", "b", "c"])

    def test_numeric_string_joints(self, robot_0, robot_A):
        for joints in (["0.001", "0", "0"], np.array(["0.001", "0", "0"], dtype=object)):
            with pytest.raises(InvalidParameter, match="source joint values must be real numbers"):
                make_transfer_map(robot_0, robot_A).apply(joints)


class TestPerturbationAnalysis:
    def test_exact_locations_give_zero_deviation(self, robot_0):
        perturbed = PerturbedDesign(nominal=robot_0, true_psi=robot_0.psi, true_d=robot_0.d)
        grid = polar_clarke_grid(0.01, radii=3, angles=8)
        for record in perturbation_analysis(perturbed, grid):
            assert abs(record.dkappa_l) < 1e-12
            assert abs(record.dtheta) < 1e-12

    def test_uniform_distance_scale(self, robot_0):
        # doubling every true distance halves the realized curvature:
        # the commanded displacements act on joints twice as far out
        perturbed = PerturbedDesign(nominal=robot_0, true_psi=robot_0.psi,
                                    true_d=2.0 * robot_0.d)
        grid = polar_clarke_grid(0.01, radii=3, angles=8)
        for record in perturbation_analysis(perturbed, grid):
            assert record.kappa_real == pytest.approx(0.5 * record.kappa_cmd, rel=1e-12)
            assert abs(record.dtheta) < 1e-12

    def test_single_joint_angle_offset_golden(self, robot_0):
        # frozen from an independent composition of the normalized forward map
        # of the true layout with the decoder of the nominal layout
        # (pseudoinverse via numpy.linalg.pinv)
        true_psi = robot_0.psi.copy()
        true_psi[0] += 0.05
        perturbed = PerturbedDesign(nominal=robot_0, true_psi=true_psi, true_d=robot_0.d)
        grid = np.array([[0.02, 0.0], [0.01, 0.015], [-0.005, 0.025]])
        records = perturbation_analysis(perturbed, grid)
        golden = [
            (20.0, 0.0016660868661215744, 1.3884071203840165e-05),
            (18.027756377319953, -0.02747903326857966, 0.022776511883476402),
            (25.495097567963935, 0.016368380336417944, 0.03210051150015225),
        ]
        kappa_cmd, dkappa_l, dtheta = np.array(golden).T
        assert records.kappa_cmd == pytest.approx(kappa_cmd, rel=1e-12)
        assert records.dkappa_l == pytest.approx(dkappa_l, rel=1e-9)
        assert records.dtheta == pytest.approx(dtheta, rel=1e-9)
        assert np.any(np.abs(records.dtheta) > 1e-3)

    def test_matches_per_point_oracle(self, designs):
        rng = np.random.default_rng(47)
        for design in designs.values():
            perturbed = PerturbedDesign(nominal=design,
                                        true_psi=design.psi + rng.uniform(-0.05, 0.05, design.n),
                                        true_d=design.d + rng.uniform(-5e-4, 5e-4, design.n))
            radius = math.pi * float(np.min(design.d))
            grid = np.vstack([np.zeros((1, 2)),
                              polar_clarke_grid(float(np.min(design.d)), radii=7, angles=24),
                              rng.uniform(-radius, radius, (200, 2))])
            batched = perturbation_analysis(perturbed, grid)
            oracle = perturbation_oracle(perturbed, grid)
            assert len(batched) == len(oracle["dtheta"]) == len(grid)
            kappa_scale = np.max(oracle["kappa_cmd"])
            for field, tol in [("kappa_cmd", 1e-12 * kappa_scale),
                               ("kappa_real", 1e-12 * kappa_scale),
                               ("theta_cmd", 1e-12 * math.pi),
                               ("theta_real", 1e-12 * math.pi),
                               ("dkappa_l", 1e-12 * kappa_scale * design.l),
                               ("dtheta", 1e-12)]:
                deviation = np.abs(batched[field] - oracle[field])
                assert np.max(deviation) <= tol, field
            np.testing.assert_array_equal(batched.clarke, grid)
            first = batched[0]
            assert (first.kappa_cmd, first.theta_cmd) == (first.kappa_real,
                                                          first.theta_real) == (0.0, 0.0)
            assert first.dkappa_l == first.dtheta == 0.0

    def test_table_is_read_only_in_csv_order(self, robot_0):
        perturbed = PerturbedDesign(nominal=robot_0, true_psi=robot_0.psi + 0.01,
                                    true_d=robot_0.d)
        records = perturbation_analysis(perturbed, polar_clarke_grid(0.01, radii=2, angles=4))
        assert isinstance(records, np.recarray)
        assert records.dtype.names == ("clarke", "kappa_cmd", "theta_cmd", "kappa_real",
                                       "theta_real", "dkappa_l", "dtheta")
        assert records.clarke.shape == (8, 2)
        with pytest.raises(ValueError, match="read-only"):
            records.dtheta[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            records[0].dtheta = 1.0

    def test_polar_conventions_match_scalar_arcs(self):
        # signed zeros and the negative real axis: theta is 0 at kappa = 0
        # and wraps into [-pi, pi), as for one ArcParameters
        planar = np.array([[-0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-2.0, 0.0],
                           [-2.0, -0.0], [3.0, 4.0]])
        kappa, theta = _polar(planar)
        for row, k, t in zip(planar, kappa, theta):
            assert (k, t) == ArcParameters.from_planar(row)
        np.testing.assert_array_equal(theta[:5], [0.0, 0.0, 0.0, -math.pi, -math.pi])

    def test_grid_input_contract(self, robot_0):
        perturbed = PerturbedDesign(nominal=robot_0, true_psi=robot_0.psi + 0.01,
                                    true_d=robot_0.d)
        single = perturbation_analysis(perturbed, [0.004, -0.002])
        assert len(single) == 1
        assert single[0].dkappa_l == perturbation_oracle(perturbed, [0.004, -0.002])["dkappa_l"][0]
        assert len(perturbation_analysis(perturbed, np.zeros((0, 2)))) == 0
        for bad in ([[0.01, np.nan]], [[0.01, 0.0], [np.inf, 0.0]]):
            with pytest.raises(InvalidParameter):
                perturbation_analysis(perturbed, bad)
        for bad in ([0.01, 0.0, 0.0], np.zeros((4, 3)), np.zeros((2, 2, 2)), 0.01):
            with pytest.raises(DimensionMismatch):
                perturbation_analysis(perturbed, bad)

    def test_rejects_non_numeric_points(self, robot_0):
        perturbed = PerturbedDesign(nominal=robot_0, true_psi=robot_0.psi, true_d=robot_0.d)
        with pytest.raises(InvalidParameter, match="Clarke coordinates must be real numbers"):
            perturbation_analysis(perturbed, [["a", "b"]])

    def test_rejects_numeric_string_points(self, robot_0):
        perturbed = PerturbedDesign(nominal=robot_0, true_psi=robot_0.psi, true_d=robot_0.d)
        for points in ([["0.001", "0"]], np.array([["0.001", "0"]], dtype=object)):
            with pytest.raises(InvalidParameter, match="Clarke coordinates must be real numbers"):
                perturbation_analysis(perturbed, points)

    def test_rejects_non_finite_perturbation(self, robot_0):
        with pytest.raises(InvalidParameter):
            PerturbedDesign(nominal=robot_0, true_psi=[0.0, np.nan, 1.0], true_d=robot_0.d)
        with pytest.raises(InvalidParameter):
            PerturbedDesign(nominal=robot_0, true_psi=robot_0.psi,
                            true_d=[0.01, np.inf, 0.01])

    def test_keeps_its_own_copy_of_the_true_layout(self, robot_0):
        true_psi = robot_0.psi.copy()
        perturbed = PerturbedDesign(nominal=robot_0, true_psi=true_psi, true_d=robot_0.d)
        true_psi[0] += 0.05
        assert perturbed.true_psi[0] == robot_0.psi[0]

    def test_true_design_is_built_once(self, robot_0):
        perturbed = PerturbedDesign(robot_0, robot_0.psi + 0.01, 1.5 * robot_0.d)
        true = perturbed.true_design()
        assert perturbed.true_design() is true
        assert true.psi is perturbed.true_psi and true.d is perturbed.true_d
        assert true.name == "robot_0_true" and true.l == robot_0.l

    def test_rejects_a_valid_layout_of_another_joint_count(self, robot_0, robot_A):
        with pytest.raises(InvalidParameter, match="nominal joint count"):
            PerturbedDesign(robot_0, robot_A.psi, robot_A.d)

    def test_rejects_mismatched_perturbation(self, robot_0):
        with pytest.raises(InvalidParameter):
            PerturbedDesign(nominal=robot_0, true_psi=[0.0, 1.0], true_d=robot_0.d)
        with pytest.raises(InvalidParameter):
            PerturbedDesign(nominal=robot_0, true_psi=robot_0.psi,
                            true_d=[-0.01, 0.01, 0.01])


class TestPolarClarkeGrid:
    def test_rings_and_directions(self):
        grid = polar_clarke_grid(0.01, radii=5, angles=16)
        assert grid.shape == (80, 2)
        np.testing.assert_allclose(np.max(np.hypot(*grid.T)), math.pi * 0.01, rtol=1e-15)

    @pytest.mark.parametrize("d_ref", [np.nan, np.inf, 0.0, -0.01])
    def test_rejects_bad_d_ref(self, d_ref):
        with pytest.raises(InvalidParameter):
            polar_clarke_grid(d_ref)

    @pytest.mark.parametrize("d_ref", ["0.01", None])
    def test_rejects_non_numeric_d_ref(self, d_ref):
        with pytest.raises(InvalidParameter, match="d_ref must be a real number"):
            polar_clarke_grid(d_ref)

    @pytest.mark.parametrize("radii,angles", [(2.5, 16), (5, 2.5), (5.0, 16), (0, 16), (5, -1)])
    def test_rejects_non_integer_or_empty_counts(self, radii, angles):
        with pytest.raises(InvalidParameter):
            polar_clarke_grid(0.01, radii=radii, angles=angles)


class TestRandomDesignTransfers:
    def test_latent_consistency_random_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            source = random_design(rng, name="src")
            target = random_design(rng, name="tgt")
            rho = rng.uniform(-0.02, 0.02, source.n)
            out = make_transfer_map(source, target, "symmetric").apply(rho)
            latent_in = source.forward(rho)
            latent_out = target.forward(out)
            assert np.max(np.abs(latent_out - latent_in)) < 1e-12 * max(1.0, np.max(np.abs(latent_in)))
