import math

import numpy as np
import pytest
from scipy import stats

from clarkekit import (
    InvalidParameter,
    sample_clarke_disk,
    sample_joints,
)
from clarkekit.cli import main

HALF_CIRCLE = math.pi * 0.01


class TestClarkeDiskSampling:
    def test_deterministic_per_seed(self):
        a = sample_clarke_disk(123, 500, 0.01)
        b = sample_clarke_disk(123, 500, 0.01)
        np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self):
        a = sample_clarke_disk(1, 100, 0.01)
        b = sample_clarke_disk(2, 100, 0.01)
        assert not np.array_equal(a, b)

    def test_single_sample(self):
        assert sample_clarke_disk(7, 1, 0.01).shape == (1, 2)

    def test_read_only(self):
        clarke = sample_clarke_disk(7, 4, 0.01)
        with pytest.raises(ValueError):
            clarke[0, 0] = 1.0

    def test_count_is_exact(self):
        # rejection-free: every request is honored sample for sample
        for count in (1, 17, 1000):
            assert sample_clarke_disk(0, count, 0.01).shape == (count, 2)

    def test_half_circle_bound(self):
        clarke = sample_clarke_disk(42, 100000, 0.01)
        assert np.max(np.hypot(clarke[:, 0], clarke[:, 1])) <= HALF_CIRCLE

    def test_angles_in_range(self):
        clarke = sample_clarke_disk(42, 100000, 0.01)
        angles = np.arctan2(clarke[:, 1], clarke[:, 0])
        assert np.min(angles) >= -math.pi
        assert np.max(angles) < math.pi

    def test_disk_uniformity_ks(self):
        # squared normalized radius ~ U[0,1] and angle ~ U[-pi,pi);
        # alpha = 0.01 critical value for n samples is sqrt(ln(2/alpha)/2)/sqrt(n)
        n = 100000
        clarke = sample_clarke_disk(42, n, 0.01)
        critical = math.sqrt(math.log(2.0 / 0.01) / 2.0) / math.sqrt(n)
        radius = np.hypot(clarke[:, 0], clarke[:, 1])
        ks_radius = stats.kstest((radius / HALF_CIRCLE) ** 2, "uniform").statistic
        ks_angle = stats.kstest(np.arctan2(clarke[:, 1], clarke[:, 0]),
                                stats.uniform(loc=-math.pi, scale=2 * math.pi).cdf).statistic
        assert ks_radius < critical
        assert ks_angle < critical

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            sample_clarke_disk(0, 0, 0.01)
        with pytest.raises(InvalidParameter):
            sample_clarke_disk(0, 10, 0.0)
        with pytest.raises(InvalidParameter):
            sample_clarke_disk(0, 10, -0.01)

    @pytest.mark.parametrize("d_ref", ["0.01", None])
    def test_non_numeric_d_ref(self, d_ref):
        with pytest.raises(InvalidParameter, match="d_ref must be a real number"):
            sample_clarke_disk(0, 10, d_ref)

    @pytest.mark.parametrize("count", [2.5, 10.0, "10", None])
    def test_non_integer_count(self, count):
        with pytest.raises(InvalidParameter):
            sample_clarke_disk(0, count, 0.01)

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.5, 2.0, "7", None])
    def test_invalid_seed(self, robot_0, seed):
        with pytest.raises(InvalidParameter, match="seed"):
            sample_clarke_disk(seed, 10, 0.01)
        with pytest.raises(InvalidParameter, match="seed"):
            sample_joints(robot_0, seed, 10)

    def test_numpy_and_large_integer_seeds(self):
        expected = sample_clarke_disk(5, 10, 0.01)
        for seed in (np.int64(5), np.uint8(5)):
            np.testing.assert_array_equal(sample_clarke_disk(seed, 10, 0.01), expected)
        big = sample_clarke_disk(2**70, 10, 0.01)
        np.testing.assert_array_equal(big, sample_clarke_disk(2**70, 10, 0.01))
        assert not np.array_equal(big, sample_clarke_disk(0, 10, 0.01))


class TestJointSampling:
    def test_shape_and_determinism(self, robot_0):
        joints = sample_joints(robot_0, 42, 250)
        assert joints.shape == (250, 3)
        np.testing.assert_array_equal(joints, sample_joints(robot_0, 42, 250))

    def test_actuation_constraint_on_symmetric_design(self, robot_0):
        joints = sample_joints(robot_0, 42, 5000)
        norm = np.linalg.norm(sample_clarke_disk(42, 5000, 0.01), axis=1)
        assert np.all(np.abs(joints.sum(axis=1)) <= 1e-12 * robot_0.n * np.maximum(norm, 1e-300))

    def test_roundtrip_to_source_clarke(self, robot_0):
        clarke = sample_clarke_disk(17, 300, 0.01)
        joints = sample_joints(robot_0, 17, 300)
        forward = robot_0.forward_matrix
        back = joints @ forward.T
        assert np.max(np.abs(back - clarke)) < 1e-12

    def test_joint_bound_on_symmetric_design(self, robot_0):
        joints = sample_joints(robot_0, 42, 5000)
        assert np.max(np.abs(joints)) <= HALF_CIRCLE

    def test_d_ref_is_min_distance(self, robot_B):
        # bound uses the smallest center-line distance (5 mm for this design)
        joints = sample_joints(robot_B, 9, 5000)
        forward = robot_B.forward_matrix
        radius = np.linalg.norm(joints @ forward.T, axis=1)
        assert np.max(radius) <= math.pi * 0.005


class TestSampleCsv:
    def test_schema_and_content(self, robot_0, tmp_path):
        clarke = sample_clarke_disk(5, 10, float(np.min(robot_0.d)))
        path = tmp_path / "samples.csv"
        assert main(["sample", "robot_0", "--count", "10", "--seed", "5", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_idx,rho_re_m,rho_im_m,rho_1_m,rho_2_m,rho_3_m"
        assert len(lines) == 11
        cells = lines[3].split(",")
        assert int(cells[0]) == 2
        assert float(cells[1]) == clarke[2, 0]  # round-trip formatting
