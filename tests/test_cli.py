import json
import math
from pathlib import Path

import numpy as np
import pytest

import clarkekit
from clarkekit import builtin_designs, cli, run_experiment, simulate, trajectory
from clarkekit.cli import main

SNAPSHOT = Path(__file__).parent / "data" / "demo_seed42.json"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDesignCheck:
    def test_builtin_robot_D_flags(self, capsys):
        code, out, _ = invoke(capsys, "design-check", "robot_D")
        assert code == 0
        assert "asymmetric_psi: true" in out
        assert "non_constant_d: true" in out
        assert "gram_condition:" in out

    def test_builtin_robot_0_flags(self, capsys):
        code, out, _ = invoke(capsys, "design-check", "robot_0")
        assert code == 0
        assert "asymmetric_psi: false" in out
        assert "non_constant_d: false" in out

    def test_design_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "robot.json"
        path.write_text(json.dumps({"name": "custom", "n": 3,
                                    "psi_rad": [0.0, 2.0, 4.0],
                                    "d_mm": [10.0, 8.0, 6.0], "l_m": 0.1}))
        code, out, _ = invoke(capsys, "design-check", str(path))
        assert code == 0
        assert "name: custom" in out

    def test_degenerate_design_exits_3(self, capsys, tmp_path):
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps({"name": "flat", "n": 3,
                                    "psi_rad": [0.0, 3.141592653589793, 0.0],
                                    "d_mm": [10.0, 10.0, 10.0], "l_m": 0.1}))
        code, out, err = invoke(capsys, "design-check", str(path))
        assert code == 3
        assert "status: degenerate" in out

    def test_mismatched_psi_length_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"name": "broken", "n": 3,
                                    "psi_rad": [0.0, 2.0],
                                    "d_mm": [10.0, 8.0, 6.0], "l_m": 0.1}))
        code, _, err = invoke(capsys, "design-check", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = invoke(capsys, "design-check", str(tmp_path / "nope.json"))
        assert code == 2


class TestNonNumericDesignFile:
    @pytest.mark.parametrize("field, value", [
        ("l_m", "abc"), ("psi_rad", ["a", 2, 4]), ("l_m", None), ("d_mm", {"a": 1}),
    ], ids=["l_m-text", "psi_rad-text", "l_m-null", "d_mm-object"])
    @pytest.mark.parametrize("command", ["design-check", "simulate"])
    def test_exits_2_without_output(self, capsys, tmp_path, monkeypatch, command, field, value):
        raw = {"name": "custom", "n": 3, "psi_rad": [0.0, 2.0, 4.0],
               "d_mm": [10.0, 8.0, 6.0], "l_m": 0.1, field: value}
        path = tmp_path / "robot.json"
        path.write_text(json.dumps(raw))
        out_dir = tmp_path / "out"
        monkeypatch.setenv("CLARKEKIT_OUT_DIR", str(out_dir))
        designs = [str(path)] if command == "design-check" else ["robot_0", str(path)]
        code, _, err = invoke(capsys, command, *designs)
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not out_dir.exists()


class TestTransform:
    def test_clarke_to_joints(self, capsys):
        code, out, _ = invoke(capsys, "transform", "robot_0", "--clarke", "0.001", "0")
        assert code == 0
        assert "joints_mm: [1.0, -0.5, -0.5]" in out
        assert "roundtrip_clarke_m" in out

    def test_zero_joints(self, capsys):
        code, out, _ = invoke(capsys, "transform", "robot_0",
                              "--joints", "0", "0", "0")
        assert code == 0
        assert "clarke_m: [0.0, 0.0]" in out
        assert "kappa_1pm: 0.0" in out

    def test_wrong_joint_count_exits_2(self, capsys):
        code, _, err = invoke(capsys, "transform", "robot_0", "--joints", "0.001", "0.002")
        assert code == 2
        assert "error" in err


class TestSample:
    def test_deterministic_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert invoke(capsys, "sample", "robot_0", "--count", "200", "--seed", "9",
                      "--out", str(a))[0] == 0
        assert invoke(capsys, "sample", "robot_0", "--count", "200", "--seed", "9",
                      "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.manifest.json").exists()

    def test_row_count_and_sum_constraint(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        invoke(capsys, "sample", "robot_0", "--count", "100", "--seed", "4",
               "--out", str(path))
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (100, 6)
        radius = np.hypot(rows[:, 1], rows[:, 2])
        assert np.all(np.abs(rows[:, 3:].sum(axis=1)) <= 1e-12 * 3 * np.maximum(radius, 1e-300))


class TestTraj:
    def test_via_file(self, capsys, tmp_path):
        via = tmp_path / "via.txt"
        via.write_text("0 0 0\n0.01 -0.005 -0.005\n0 0 0\n")
        out = tmp_path / "t.csv"
        code, stdout, _ = invoke(capsys, "traj", "robot_0", "--via-file", str(via),
                                 "--overlap", "0", "--out", str(out))
        assert code == 0
        assert "planned 2 segments" in stdout
        header = out.read_text().splitlines()[0]
        assert header.startswith("t_s,rho_1_m,vel_1_mps,acc_1_mps2")

    def test_bad_via_file_exits_2(self, capsys, tmp_path):
        via = tmp_path / "via.txt"
        via.write_text("0 0\n0.01 -0.005\n")
        code, _, err = invoke(capsys, "traj", "robot_0", "--via-file", str(via),
                              "--out", str(tmp_path / "t.csv"))
        assert code == 2

    def test_sampled_vias(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, stdout, _ = invoke(capsys, "traj", "robot_0", "--sample", "3",
                                 "--seed", "5", "--out", str(out))
        assert code == 0
        assert "planned 3 segments" in stdout

    def test_unallocatable_dt_exits_4_without_output(self, capsys, tmp_path, monkeypatch):
        # numpy refuses a table of tens of TiB before it allocates anything
        monkeypatch.chdir(tmp_path)
        code, _, err = invoke(capsys, "traj", "robot_0", "--dt", "1e-12")
        assert code == 4
        assert err.startswith("error:")
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    def test_artifacts(self, capsys, tmp_path):
        code, _, _ = invoke(capsys, "simulate", "robot_0", "robot_B",
                            "--mode", "closed_loop", "--transfer", "general",
                            "--seed", "3", "--out-dir", str(tmp_path))
        assert code == 0
        csv = tmp_path / "robot_B_closed_loop_general.csv"
        metrics = tmp_path / "robot_B_closed_loop_general_metrics.json"
        manifest = tmp_path / "robot_B_closed_loop_general.manifest.json"
        assert csv.exists() and metrics.exists() and manifest.exists()
        data = json.loads(metrics.read_text())
        assert data["robot"] == "robot_B"
        assert data["mode"] == "closed_loop"
        assert len(data["rms_per_joint_m"]) == 3
        recorded = json.loads(manifest.read_text())
        names = {entry["name"] for entry in recorded["outputs"]}
        assert names == {csv.name, metrics.name}

    def test_out_dir_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CLARKEKIT_OUT_DIR", str(tmp_path))
        code, _, _ = invoke(capsys, "simulate", "robot_0", "robot_A",
                            "--mode", "open_loop_clean", "--seed", "2")
        assert code == 0
        assert (tmp_path / "robot_A_open_loop_clean_general.csv").exists()


class TestSeedValidation:
    @pytest.mark.parametrize("argv", [
        ["sample", "robot_0", "--out", "s.csv"],
        ["traj", "robot_0", "--out", "t.csv"],
        ["simulate", "robot_0", "robot_A", "--out-dir", "."],
        ["demo", "--out-dir", "."],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_2(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--seed" in err
        assert list(tmp_path.iterdir()) == []


class TestNonFiniteInput:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["transform", "robot_0", "--clarke", "{}", "0.001"],
        ["transform", "robot_0", "--joints", "0.001", "{}", "0.0"],
        ["traj", "robot_0", "--vmax", "{}"],
        ["traj", "robot_0", "--amax", "{}"],
        ["traj", "robot_0", "--decmax", "{}"],
        ["traj", "robot_0", "--overlap", "{}"],
        ["traj", "robot_0", "--dt", "{}"],
    ], ids=lambda argv: argv[2])
    def test_exits_2_without_output(self, capsys, tmp_path, monkeypatch, argv, value):
        monkeypatch.chdir(tmp_path)
        code, _, err = invoke(capsys, *(arg.format(value) for arg in argv))
        assert code == 2
        assert "error:" in err
        assert list(tmp_path.iterdir()) == []


def assert_matches_snapshot(got, want, where="snapshot"):
    """Keys, flags, strings and integers exactly; floats at rtol 1e-9, atol 1e-15."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches_snapshot(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for index, (item, expected) in enumerate(zip(got, want)):
            assert_matches_snapshot(item, expected, f"{where}[{index}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


class TestDemo:
    def test_matches_golden_snapshot(self, capsys, tmp_path):
        assert main(["demo", "--seed", "42", "--out-dir", str(tmp_path)]) == 0
        recorded = {path.name: json.loads(path.read_text()) for path in tmp_path.iterdir()
                    if path.name == "summary.json" or path.name.endswith("_metrics.json")}
        assert_matches_snapshot(recorded, json.loads(SNAPSHOT.read_text()))

    def test_plans_surrogate_once(self, capsys, tmp_path, monkeypatch):
        original = trajectory.plan_trajectory
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (clarkekit, trajectory, simulate, cli):
            monkeypatch.setattr(module, "plan_trajectory", counting)
        assert main(["demo", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_metrics_equal_run_experiment(self, capsys, tmp_path):
        seed = 7
        assert main(["demo", "--seed", str(seed), "--out-dir", str(tmp_path)]) == 0
        designs = builtin_designs()
        for name, target in designs.items():
            runs = run_experiment(designs["robot_0"], target, seed, "general")
            for mode, sim in runs.items():
                recorded = json.loads((tmp_path / f"{name}_{mode}_metrics.json").read_text())
                assert recorded == sim.metrics(), (name, mode)


class TestEvaluateSuite:
    def test_matches_golden_snapshot_without_writing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runs, records, summary = simulate.evaluate_suite(42)
        assert list(tmp_path.iterdir()) == []
        want = json.loads(SNAPSHOT.read_text())
        metrics_names = sorted(name for name in want if name.endswith("_metrics.json"))
        assert len(metrics_names) == 18
        assert sorted(f"{stem}_metrics.json" for stem in runs) == metrics_names
        got = {f"{stem}_metrics.json": sim.metrics() for stem, sim in runs.items()}
        got["summary.json"] = summary
        assert_matches_snapshot(got, want)
        assert summary["perturbation"]["grid_points"] == len(records)
