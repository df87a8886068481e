import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import clarkekit
from clarkekit import (MODES, PerturbedDesign, builtin_designs, cli, perturbation_analysis,
                       polar_clarke_grid, run_experiment, sample_clarke_disk, sample_joints,
                       simulate, trajectory)
from clarkekit.cli import main
from conftest import RANGE_MESSAGE
from csv_oracle import repr_csv

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

    @pytest.mark.parametrize("command", [
        ["design-check", "DESIGN"],
        ["transform", "DESIGN", "--clarke", "0.001", "0"],
        ["transform", "DESIGN", "--joints", "0.001", "0", "-0.001"],
        ["sample", "DESIGN"],
        ["traj", "DESIGN"],
        ["simulate", "robot_0", "DESIGN"],
        ["simulate", "DESIGN", "robot_0", "--transfer", "symmetric"],
    ], ids=["design-check", "transform-clarke", "transform-joints", "sample", "traj",
            "simulate-target", "simulate-surrogate-symmetric"])
    def test_every_command_exits_3_on_a_collinear_design(self, capsys, tmp_path, monkeypatch,
                                                         command):
        path = tmp_path / "collinear.json"
        path.write_text(json.dumps({"name": "flat", "n": 3,
                                    "psi_rad": [0.0, 3.141592653589793, 0.0],
                                    "d_mm": [10.0, 10.0, 10.0], "l_m": 0.1}))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("CLARKEKIT_OUT_DIR", str(work / "out"))
        code, _, err = invoke(capsys, *[str(path) if arg == "DESIGN" else arg
                                        for arg in command])
        assert code == 3, err
        assert "Gram condition" in err
        assert list(work.iterdir()) == []

    def test_mismatched_psi_length_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"name": "broken", "n": 3,
                                    "psi_rad": [0.0, 2.0],
                                    "d_mm": [10.0, 8.0, 6.0], "l_m": 0.1}))
        code, _, err = invoke(capsys, "design-check", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("field, value, message", [
        ("d_mm", [1e-320, 10.0, 10.0], re.escape(RANGE_MESSAGE)),
        ("n", "3", "n must be an integer of at least 3, got '3'"),
        ("n", 3.0, "n must be an integer of at least 3, got 3.0"),
    ], ids=["subnormal-d", "n-text", "n-float"])
    def test_invalid_design_file_exits_2(self, capsys, tmp_path, field, value, message):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps({"name": "invalid", "n": 3, "psi_rad": [0.0, 2.0, 4.0],
                                    "d_mm": [10.0, 10.0, 10.0], "l_m": 0.1, field: value}))
        code, out, err = invoke(capsys, "design-check", str(path))
        assert code == 2
        assert out == ""
        assert re.search(message, err), err

    @pytest.mark.parametrize("command", [
        ["design-check", "DESIGN"],
        ["simulate", "robot_0", "DESIGN"],
        ["simulate", "robot_0", "DESIGN", "--mode", "open_loop_clean", "--transfer", "symmetric"],
    ], ids=["design-check", "simulate", "simulate-open-loop"])
    def test_overflowing_arc_map_exits_2(self, capsys, tmp_path, monkeypatch, command):
        # the near-collinear layout's forward matrix would overflow once divided by
        # this tiny l * d_i, which lies outside the length range; nothing is written
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"name": "tiny", "n": 3, "psi_rad": [0.0, 0.01, 0.02],
                                    "d_mm": [1e-297] * 3, "l_m": 1e-7}))
        out_dir = tmp_path / "out"
        monkeypatch.setenv("CLARKEKIT_OUT_DIR", str(out_dir))
        code, out, err = invoke(capsys, *[str(path) if arg == "DESIGN" else arg
                                          for arg in command])
        assert code == 2
        assert out == ""
        assert RANGE_MESSAGE in err
        assert not out_dir.exists()

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = invoke(capsys, "design-check", str(tmp_path / "nope.json"))
        assert code == 2


class TestNonNumericDesignFile:
    @pytest.mark.parametrize("field, value", [
        ("l_m", "abc"), ("psi_rad", ["a", 2, 4]), ("l_m", None), ("d_mm", {"a": 1}),
        ("l_m", "0.1"), ("psi_rad", ["0", "2", "4"]),
    ], ids=["l_m-text", "psi_rad-text", "l_m-null", "d_mm-object", "l_m-numeric-text",
            "psi_rad-numeric-text"])
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

    @pytest.mark.parametrize("argv", [
        ["robot_D", "--clarke", "1e306", "0"],
        ["robot_0", "--joints", "1e308", "1e308", "1e307"],
    ], ids=lambda argv: argv[1])
    def test_overflow_exits_2_without_inf_or_nan(self, capsys, argv):
        # finite input whose curvature or joints overflow float64
        code, out, err = invoke(capsys, "transform", *argv)
        assert code == 2
        assert not any(word in out.lower() for word in ("inf", "nan"))
        assert len(err.splitlines()) == 1 and err.startswith("error:")


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

    def test_csv_matches_row_by_row_formatting(self, capsys, tmp_path, robot_D):
        # 1,500 rows cross the writer's 1,024-row block; sample_idx is an integer column
        path = tmp_path / "s.csv"
        assert invoke(capsys, "sample", "robot_D", "--count", "1500", "--seed", "3",
                      "--out", str(path))[0] == 0
        clarke = sample_clarke_disk(3, 1500, d_ref=float(np.min(robot_D.d)))
        joints = sample_joints(robot_D, 3, 1500)
        header = (["sample_idx", "rho_re_m", "rho_im_m"]
                  + [f"rho_{i + 1}_m" for i in range(robot_D.n)])
        rows = ([i, *c, *j] for i, c, j in zip(range(1500), clarke.tolist(), joints.tolist()))
        assert path.read_bytes() == repr_csv(header, rows)


class TestTraj:
    def test_via_file(self, capsys, tmp_path):
        via = tmp_path / "via.txt"
        out = tmp_path / "t.csv"
        # cells split by whitespace or by commas
        for text in ("0 0 0\n0.01 -0.005 -0.005\n0 0 0\n",
                     "0,0,0\n0.01, -0.005, -0.005\n0, 0,0\n"):
            via.write_text(text)
            code, stdout, _ = invoke(capsys, "traj", "robot_0", "--via-file", str(via),
                                     "--overlap", "0", "--out", str(out))
            assert code == 0
            assert "planned 2 segments" in stdout
            header = out.read_text().splitlines()[0]
            assert header.startswith("t_s,rho_1_m,vel_1_mps,acc_1_mps2")

    def test_bad_via_file_exits_2(self, capsys, tmp_path):
        via = tmp_path / "via.txt"
        # too few joints per row, rows of unequal length, then empty comma-separated
        # cells, which would otherwise leave 4-field rows read as 3 joints
        for text in ("0 0\n0.01 -0.005\n", "0 0 0\n0.01 -0.005\n",
                     "0,,0,0\n0.001,0.002,,0.003\n"):
            via.write_text(text)
            code, _, err = invoke(capsys, "traj", "robot_0", "--via-file", str(via),
                                  "--out", str(tmp_path / "t.csv"))
            assert code == 2 and err.startswith("error:")
            assert list(tmp_path.iterdir()) == [via]

    @pytest.mark.parametrize("argv, via", [(["--amax", "1e-300"], None),
                                           ([], "0 0 0\n1e14 0 0\n"),
                                           (["--dt", "1e12"], "0 0 0\n4e13 0 0\n")],
                             ids=["amax", "via", "stop"])
    def test_plan_without_motion_or_set_down_exits_2(self, capsys, tmp_path, monkeypatch,
                                                      argv, via):
        # underflowing limits would plan no motion, a 1e14 m move would end at
        # full speed, and a 4e13 m move's set-down would end an ulp off its
        # horizon still moving at 1.02 v_max; all exit 2 before any file is written
        monkeypatch.chdir(tmp_path)
        if via is not None:
            (tmp_path / "via.txt").write_text(via)
            argv = [*argv, "--via-file", "via.txt"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(capsys, "traj", "robot_0", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: the limits v_max=")
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if via is None else ["via.txt"])

    def test_plan_within_limits_reports_no_dilation(self, capsys, tmp_path, monkeypatch):
        # the demo plan's peaks only touch their limits, which does not bind
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = invoke(capsys, "traj", "robot_0", "--seed", "42")
        assert code == 0
        assert "dilation 1;" in stdout

    def test_sampled_vias(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, stdout, _ = invoke(capsys, "traj", "robot_0", "--sample", "3",
                                 "--seed", "5", "--out", str(out))
        assert code == 0
        assert "planned 3 segments" in stdout

    @pytest.mark.parametrize("sample", ["-1", "0"])
    def test_sample_below_one_exits_2_without_output(self, capsys, tmp_path, monkeypatch,
                                                      sample):
        # the error names the option, not the M + 1 draws or the planner's via table
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(capsys, "traj", "robot_0", "--sample", sample, "--out", "t.csv")
        assert code == 2
        assert out == ""
        assert err == f"error: --sample must be an integer of at least 1, got {sample}\n"
        assert list(tmp_path.iterdir()) == []

    def test_unallocatable_dt_exits_4_without_output(self, capsys, tmp_path, monkeypatch):
        # numpy refuses a table of tens of TiB before it allocates anything
        monkeypatch.chdir(tmp_path)
        code, _, err = invoke(capsys, "traj", "robot_0", "--dt", "1e-12")
        assert code == 4
        assert err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, exit_code", [
        (["--dt", "1e-300"], 4),
        (["--dt", "5e-324"], 4),
        (["--amax", "1e300"], 2),
        (["--vmax", "1e-300"], 2),
    ], ids=lambda value: "_".join(value) if isinstance(value, list) else None)
    def test_extreme_input_exits_without_traceback(self, capsys, tmp_path, monkeypatch,
                                                   argv, exit_code):
        # a grid too fine to index, or ramps too short for the polynomial in float64
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(capsys, "traj", "robot_0", *argv)
        assert code == exit_code
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        if exit_code == 2:
            assert "the limits v_max=" in err
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    @pytest.mark.parametrize("mode", MODES)
    def test_artifacts(self, capsys, tmp_path, mode):
        # every mode is solved, but only the chosen run is written
        code, _, _ = invoke(capsys, "simulate", "robot_0", "robot_B",
                            "--mode", mode, "--transfer", "general",
                            "--seed", "3", "--out-dir", str(tmp_path))
        assert code == 0
        csv = tmp_path / f"robot_B_{mode}_general.csv"
        metrics = tmp_path / f"robot_B_{mode}_general_metrics.json"
        manifest = tmp_path / f"robot_B_{mode}_general.manifest.json"
        assert sorted(tmp_path.iterdir()) == sorted([csv, metrics, manifest])
        data = json.loads(metrics.read_text())
        assert data["robot"] == "robot_B"
        assert data["mode"] == mode
        assert data["transfer_mode"] == "general"
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


class TestExtremeDesigns:
    """Designs whose lengths leave the range: design-check and simulate exit 2 and name
    it, before anything is written.  Inside the range, a pair of designs at its two
    edges retargets to a stream too long to tick."""

    @pytest.mark.parametrize("d_mm, l_m", [
        ([1e300, 10, 10], 0.1), ([10, 10, 10], 1e308), ([1e-290, 1e-290, 1e-290], 1e-10),
    ], ids=["long", "huge", "small"])
    def test_simulate_exits_without_traceback(self, capsys, tmp_path, d_mm, l_m):
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps({"name": "extreme", "n": 3, "psi_rad": [0, 2, 4],
                                    "d_mm": d_mm, "l_m": l_m}))
        out_dir = tmp_path / "out"
        for command in (["design-check", str(path)],
                        ["simulate", "robot_0", str(path), "--out-dir", str(out_dir)],
                        ["simulate", str(path), "robot_0", "--out-dir", str(out_dir)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = invoke(capsys, *command)
            assert (code, out) == (2, ""), err
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
            assert RANGE_MESSAGE in err
        assert not out_dir.exists()

    def test_tiny_surrogate_exits_2_with_runtime_warnings_as_errors(self, tmp_path):
        # in a fresh interpreter, as a user runs it: no numpy warning escapes as a traceback
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"name": "tiny", "n": 3, "psi_rad": [0, 2, 4],
                                    "d_mm": [1e-60] * 3, "l_m": 1}))
        src = Path(clarkekit.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="error::RuntimeWarning")
        done = subprocess.run([sys.executable, "-m", "clarkekit.cli", "simulate", str(path),
                               "robot_0", "--out-dir", str(tmp_path / "out")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2 and done.stdout == ""
        assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")
        assert RANGE_MESSAGE in done.stderr
        assert not (tmp_path / "out").exists()

    def test_edge_designs_stream_too_long_to_tick_exits_4(self, capsys, tmp_path):
        # the general map from the lower edge to the upper one scales speeds by about
        # 1e18: the stream would take 1.3e18 ticks, rejected before any grid is made
        out_dir = tmp_path / "out"
        paths = []
        for name, value in (("low", 1e-6), ("high", 1e3)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({"name": name, "n": 3, "psi_rad": [0, 2, 4],
                                             "d_mm": [value * 1000.0] * 3, "l_m": value}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(capsys, "simulate", *map(str, paths),
                                    "--out-dir", str(out_dir))
        assert (code, out) == (4, ""), err
        assert err.startswith("error: Unable to allocate a grid of ") and len(err.splitlines()) == 1
        assert not out_dir.exists()


class TestManifestDigests:
    @pytest.mark.parametrize("argv, manifest", [
        (["demo", "--seed", "3", "--out-dir", "."], "manifest.json"),
        (["traj", "robot_0", "--sample", "3", "--seed", "5", "--out", "t.csv"],
         "t.csv.manifest.json"),
        (["sample", "robot_0", "--count", "50", "--seed", "9", "--out", "s.csv"],
         "s.csv.manifest.json"),
        (["simulate", "robot_0", "robot_B", "--mode", "closed_loop", "--seed", "3",
          "--out-dir", "."], "robot_B_closed_loop_general.manifest.json"),
    ])
    def test_digest_of_every_output_matches_its_file(self, capsys, tmp_path, monkeypatch,
                                                    argv, manifest):
        monkeypatch.chdir(tmp_path)
        assert invoke(capsys, *argv)[0] == 0
        outputs = json.loads((tmp_path / manifest).read_text())["outputs"]
        assert outputs
        for entry in outputs:
            data = (tmp_path / entry["name"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest(), entry["name"]


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

    def test_perturbation_csv_matches_row_by_row_formatting(self, capsys, tmp_path):
        # the table is rebuilt from the offsets the summary records
        assert main(["demo", "--seed", "42", "--out-dir", str(tmp_path)]) == 0
        recorded = json.loads((tmp_path / "summary.json").read_text())["perturbation"]
        robot_0 = builtin_designs()["robot_0"]
        perturbed = PerturbedDesign(
            nominal=robot_0, true_psi=robot_0.psi + np.array(recorded["psi_offset_rad"]),
            true_d=robot_0.d + np.array(recorded["d_offset_mm"]) / 1000.0)
        records = perturbation_analysis(
            perturbed, polar_clarke_grid(float(np.min(robot_0.d)), radii=5, angles=16))
        header = ["rho_re_m", "rho_im_m", "kappa_cmd_1pm", "theta_cmd_rad",
                  "kappa_real_1pm", "theta_real_rad", "dkappa_l", "dtheta_rad"]
        rows = [[r.clarke[0], r.clarke[1], r.kappa_cmd, r.theta_cmd, r.kappa_real,
                 r.theta_real, r.dkappa_l, r.dtheta] for r in records]
        assert recorded["grid_points"] == len(rows) == 80
        assert (tmp_path / "perturbation_robot_0.csv").read_bytes() == repr_csv(header, rows)
