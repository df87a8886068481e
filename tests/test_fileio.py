import os
import stat

import numpy as np
import pytest

from clarkekit import run_experiment
from clarkekit.fileio import write_atomic, write_csv

EDGE_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e+308,
               -1.7976931348623157e+308, 1e16, 9999999999999998.0, 1e-05, 0.0001,
               np.inf, -np.inf, np.nan]


def array_and_rows_bytes(tmp_path, header, table):
    """Bytes of the array path and of the row-by-row iterable path."""
    write_csv(tmp_path / "array.csv", header, table)
    write_csv(tmp_path / "rows.csv", header, (list(row) for row in table.tolist()))
    return (tmp_path / "array.csv").read_bytes(), (tmp_path / "rows.csv").read_bytes()


class TestArrayPathMatchesRows:
    def test_edge_values(self, tmp_path):
        col = np.array(EDGE_VALUES)
        table = np.column_stack([col, col[::-1], np.roll(col, 5)])
        got, want = array_and_rows_bytes(tmp_path, ["a", "b", "c"], table)
        assert got == want
        assert got.splitlines()[2] == b"-0.0,-inf,0.0001"

    def test_integer_array_prints_floats(self, tmp_path):
        table = np.arange(12).reshape(4, 3)
        got, want = array_and_rows_bytes(tmp_path, ["a", "b", "c"], table)
        assert got == want
        assert got.splitlines()[1] == b"0.0,1.0,2.0"

    def test_zero_rows_write_the_header_only(self, tmp_path):
        got, want = array_and_rows_bytes(tmp_path, ["a", "b"], np.zeros((0, 2)))
        assert got == want == b"a,b\n"

    def test_rows_without_columns_write_empty_lines(self, tmp_path):
        got, want = array_and_rows_bytes(tmp_path, [], np.zeros((2, 0)))
        assert got == want == b"\n\n\n"

    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2500])
    def test_row_blocks(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        table = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-8, 8, (rows, 4))
        got, want = array_and_rows_bytes(tmp_path, ["a", "b", "c", "d"], table)
        assert got == want


class TestFormattedCache:
    def test_shared_dict_matches_separate_calls(self, tmp_path):
        rng = np.random.default_rng(1)
        t, x, y = rng.standard_normal((3, 50))
        tables = [np.column_stack([t, x, x]), np.column_stack([t, y, x])]
        formatted = {}
        for i, table in enumerate(tables):
            write_csv(tmp_path / f"shared{i}.csv", ["t", "p", "q"], table, formatted)
            write_csv(tmp_path / f"alone{i}.csv", ["t", "p", "q"], table)
            assert ((tmp_path / f"shared{i}.csv").read_bytes()
                    == (tmp_path / f"alone{i}.csv").read_bytes())
        assert len(formatted) == 3

    def test_signed_zero_columns_stay_apart(self, tmp_path):
        formatted = {}
        table = np.column_stack([np.zeros(4), -np.zeros(4), np.zeros(4)])
        write_csv(tmp_path / "zeros.csv", ["a", "b", "c"], table, formatted)
        assert len(formatted) == 2
        assert (tmp_path / "zeros.csv").read_bytes().splitlines()[1] == b"0.0,-0.0,0.0"

    def test_open_loop_clean_run_has_one_plus_2n_distinct_columns(self, designs, tmp_path):
        # rho_cmd is rho_d and rho_meas is rho_true in the noiseless open loop
        for name in ("robot_0", "robot_D"):
            sim = run_experiment(designs["robot_0"], designs[name], 5,
                                 modes=("open_loop_clean",))["open_loop_clean"]
            formatted = {}
            sim.write_csv(tmp_path / f"{name}.csv", formatted)
            assert len(formatted) == 1 + 2 * sim.design.n


class TestWriteAtomic:
    def test_str_and_bytes_write_the_same_file(self, tmp_path):
        write_atomic(tmp_path / "text.txt", "a,b\n1.0,2.0\n")
        write_atomic(tmp_path / "bytes.txt", b"a,b\n1.0,2.0\n")
        assert (tmp_path / "text.txt").read_bytes() == (tmp_path / "bytes.txt").read_bytes()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            write_atomic(tmp_path / "out.json", "{}\n")
            write_csv(tmp_path / "out.csv", ["a"], np.ones((2, 1)))
        finally:
            os.umask(previous)
        for name in ("out.json", "out.csv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "taken").mkdir()
        with pytest.raises(OSError):
            write_atomic(tmp_path / "taken", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
