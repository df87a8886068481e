import hashlib
import itertools
import os
import stat
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarkekit import cli, fileio, run_experiment
from clarkekit.fileio import write_atomic, write_csv
from csv_oracle import repr_csv

EDGE_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e+308,
               -1.7976931348623157e+308, 1e16, 9999999999999998.0, 1e-05, 0.0001,
               np.inf, -np.inf, np.nan]


def columns_and_rows_bytes(tmp_path, header, table):
    """Bytes of write_csv given the columns of a 2-D table, and of the
    table's rows formatted cell by cell."""
    write_csv(tmp_path / "columns.csv", header, list(table.T))
    return (tmp_path / "columns.csv").read_bytes(), repr_csv(header, table.tolist())


class TestArrayPathMatchesRows:
    def test_edge_values(self, tmp_path):
        col = np.array(EDGE_VALUES)
        table = np.column_stack([col, col[::-1], np.roll(col, 5)])
        got, want = columns_and_rows_bytes(tmp_path, ["a", "b", "c"], table)
        assert got == want
        assert got.splitlines()[2] == b"-0.0,-inf,0.0001"

    def test_integer_columns_print_digits(self, tmp_path):
        table = np.arange(12).reshape(4, 3) - 5
        got, want = columns_and_rows_bytes(tmp_path, ["a", "b", "c"], table)
        assert got == want
        assert got.splitlines()[1] == b"-5,-4,-3"
        write_csv(tmp_path / "wide.csv", ["i", "u"],
                  [np.array([np.iinfo(np.int64).min]), np.array([np.iinfo(np.uint64).max])])
        assert (tmp_path / "wide.csv").read_bytes() == (
            b"i,u\n-9223372036854775808,18446744073709551615\n")

    def test_zero_rows_write_the_header_only(self, tmp_path):
        got, want = columns_and_rows_bytes(tmp_path, ["a", "b"], np.zeros((0, 2)))
        assert got == want == b"a,b\n"

    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2500])
    def test_row_blocks(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        table = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-8, 8, (rows, 4))
        got, want = columns_and_rows_bytes(tmp_path, ["a", "b", "c", "d"], table)
        assert got == want


class TestScatter:
    """Cells of every length laid out in order: a cell's NUL tail reaches past
    the cells that follow it, which overwrite it."""

    SHORT_AND_LONG = [0.0, np.nan, np.inf, -2.2250738585072014e-308]

    def test_three_byte_cells_next_to_twenty_four_byte_cells(self, tmp_path):
        # every sequence of 3 cells: a 3-byte cell's tail reaches past the next
        # two cells and, at the end of a row, past its newline into the next row
        table = np.array(list(itertools.product(self.SHORT_AND_LONG, repeat=3)))
        got, want = columns_and_rows_bytes(tmp_path, ["a", "b", "c"], table)
        assert got == want
        assert got.splitlines()[1:3] == [b"0.0,0.0,0.0", b"0.0,0.0,nan"]

    @pytest.mark.parametrize("rows", [1, 5, 1025])
    def test_one_column_table(self, tmp_path, rows):
        table = np.resize(self.SHORT_AND_LONG + [0.5, -1e-7], (rows, 1))
        got, want = columns_and_rows_bytes(tmp_path, ["a"], table)
        assert got == want

    @pytest.mark.parametrize("width", [1, 2, 29])
    def test_one_row_table(self, tmp_path, width):
        table = np.resize(self.SHORT_AND_LONG + [123.456], (1, width))
        got, want = columns_and_rows_bytes(tmp_path, [f"c{j}" for j in range(width)], table)
        assert got == want

    def test_integer_column_between_float_columns(self, tmp_path):
        rows = 1030
        floats = np.resize(self.SHORT_AND_LONG + [-0.001, 12.5], (2, rows))
        ints = np.arange(rows) * 997 - 10 ** 6
        write_csv(tmp_path / "mixed.csv", ["x", "i", "y"], [floats[0], ints, floats[1]])
        want = repr_csv(["x", "i", "y"], zip(floats[0].tolist(), ints.tolist(), floats[1].tolist()))
        assert (tmp_path / "mixed.csv").read_bytes() == want

    def test_no_block_allocates(self, tmp_path):
        # once this thread's buffers are warm, a table raises the traced peak by
        # its column cache (keys, cells and lengths) and at most BOUND beside
        bound = 256 * 1024
        rng = np.random.default_rng(4)
        header = [f"c{j}" for j in range(29)]
        write_csv(tmp_path / "warm.csv", header, list(rng.standard_normal((29, 20_000))))
        columns, formatted = list(rng.standard_normal((29, 20_000)) * 1e-3), {}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_csv(tmp_path / "table.csv", header, columns, formatted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cached = sum(len(key) + sum(part.nbytes for part in value)
                     for key, value in formatted.items())
        assert len(formatted) == 29 and cached > 29 * 20_000 * 24
        assert peak - before <= cached + bound, (peak - before - cached) / 1024


class TestColumnShapes:
    def test_count_mismatch_raises(self, tmp_path):
        # a (rows, 3) table passed whole is 4 columns of 3 values, not 3 columns
        with pytest.raises(ValueError, match="3 header names for 4 columns"):
            write_csv(tmp_path / "out.csv", ["a", "b", "c"], np.zeros((4, 3)))
        assert list(tmp_path.iterdir()) == []

    def test_ragged_columns_raise(self, tmp_path):
        with pytest.raises(ValueError, match="1-D and of one length"):
            write_csv(tmp_path / "out.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])
        with pytest.raises(ValueError, match="1-D and of one length"):
            write_csv(tmp_path / "out.csv", ["a", "b"], [np.zeros((3, 1)), np.zeros((3, 1))])
        assert list(tmp_path.iterdir()) == []

    def test_no_columns_raise(self, tmp_path):
        with pytest.raises(ValueError, match="1-D and of one length"):
            write_csv(tmp_path / "out.csv", [], [])
        assert list(tmp_path.iterdir()) == []


def assert_cells_match_repr(values):
    """_repr_cells gives repr(float(v)) of every value, NUL-padded, byte for
    byte, and its length."""
    values = np.asarray(values, dtype=float)
    got, lengths = fileio._repr_cells(values)
    texts = [repr(v).encode() for v in values.tolist()]
    want = np.array(texts, dtype="S24")
    bad = np.flatnonzero((got != want.view(np.uint8).reshape(-1, 24)).any(axis=1)
                         | (lengths != [len(text) for text in texts]))
    assert bad.size == 0, [(values[i].hex(), bytes(got[i]), lengths[i]) for i in bad[:5]]


def decided(values):
    """Mask of the values the integer kernel formats without repr."""
    values = np.ascontiguousarray(values, dtype=float)
    cells = np.empty((values.size, 24), dtype=np.uint8)
    lengths = np.empty(values.size, dtype=np.uint8)
    blocks = [slice(start, start + fileio._BLOCK) for start in range(0, values.size, fileio._BLOCK)]
    # a returned mask is valid until the next call
    return np.concatenate([fileio._block_cells(values[b], cells[b], lengths[b]).copy()
                           for b in blocks] or [np.zeros(0, dtype=bool)])


class TestReprCells:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    def test_any_floats(self, values):
        assert_cells_match_repr(values)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(11)
        assert_cells_match_repr(rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
                                .view(np.float64))

    def test_log_uniform_magnitudes(self):
        rng = np.random.default_rng(12)
        values = rng.choice([-1.0, 1.0], 10 ** 6) * 10.0 ** rng.uniform(-12.0, 18.0, 10 ** 6)
        assert_cells_match_repr(values)
        # repr takes magnitudes outside [1e-6, 1e16) and exact ties, which grow
        # common above 1e12 where few fraction bits are left (6% near 1e14)
        inside = (np.abs(values) >= 1e-6) & (np.abs(values) < 1e12)
        assert decided(values[inside]).mean() > 0.999

    def test_millisecond_grid_and_rounded_decimals(self):
        rng = np.random.default_rng(13)
        grid = np.arange(20_000) * 1e-3
        rounded = rng.integers(-10 ** 9, 10 ** 9, 200_000) / 10.0 ** rng.integers(0, 16, 200_000)
        assert_cells_match_repr(grid)
        assert_cells_match_repr(rounded)
        assert decided(grid[1:]).mean() > 0.99

    def test_decade_edges_and_powers_of_two(self):
        edges = np.array([1e-6, 1e-5, 1e-4, 1e15, 1e16])
        steps = np.arange(-50, 51)
        neighbours = [edge + steps * np.spacing(edge) for edge in edges]
        neighbours += [np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)]
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        values = np.concatenate([*neighbours, powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf)])
        assert_cells_match_repr(np.concatenate([values, -values]))

    @pytest.mark.parametrize("size", [8191, 8192, 8193])
    def test_block_boundaries(self, size):
        rng = np.random.default_rng(size)
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 18, size)
        # cells left to repr, spread over both blocks
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 0.5, 5e-324, 1e-7, 1e17]
        values[::1000] = np.resize(specials, values[::1000].size)
        assert_cells_match_repr(values)

    def test_every_cell_layout(self):
        # one value per (decimal exponent E, significant digits p, sign) that
        # the kernel lays out: p <= 15 digits read back as written, and for
        # p = 16, 17 the next floats up are tried until repr has p digits
        def layout(text):
            value = Decimal(text)
            return value.adjusted(), len(value.normalize().as_tuple().digits), value.is_signed()

        values, layouts = [], set()
        for e in range(-6, 16):
            for p in range(1, 18):
                digits = "12345678901234567"[:p - 1] + "7"
                x = float(f"{digits[0]}.{digits[1:]}e{e}")
                while layout(repr(x))[1] != p:
                    x = float(np.nextafter(x, np.inf))
                for v in (x, -x):
                    assert layout(repr(v)) == (e, p, v < 0)
                    layouts.add(layout(repr(v)))
                    values.append(v)
        assert len(layouts) == len(values) == 22 * 17 * 2
        values = np.array(values)
        assert decided(values).all()
        assert_cells_match_repr(values)

    def test_demo_cells_mostly_skip_repr(self, tmp_path, monkeypatch):
        columns = []
        real = fileio._repr_cells

        def keeping(col):
            columns.append(np.array(col))
            return real(col)

        monkeypatch.setattr(fileio, "_repr_cells", keeping)
        assert cli.main(["demo", "--seed", "42", "--out-dir", str(tmp_path)]) == 0
        total = sum(col.size for col in columns)
        kept = sum(int(decided(col[start:start + 8192]).sum())
                   for col in columns for start in range(0, col.size, 8192))
        assert total > 10 ** 6
        assert kept >= 0.99 * total


class TestFormattedCache:
    def test_shared_dict_matches_separate_calls(self, tmp_path):
        rng = np.random.default_rng(1)
        t, x, y = rng.standard_normal((3, 50))
        tables = [[t, x, x], [t, y, x]]
        formatted = {}
        for i, table in enumerate(tables):
            write_csv(tmp_path / f"shared{i}.csv", ["t", "p", "q"], table, formatted)
            write_csv(tmp_path / f"alone{i}.csv", ["t", "p", "q"], table)
            assert ((tmp_path / f"shared{i}.csv").read_bytes()
                    == (tmp_path / f"alone{i}.csv").read_bytes())
        assert len(formatted) == 3

    def test_signed_zero_columns_stay_apart(self, tmp_path):
        formatted = {}
        columns = [np.zeros(4), -np.zeros(4), np.zeros(4)]
        write_csv(tmp_path / "zeros.csv", ["a", "b", "c"], columns, formatted)
        assert len(formatted) == 2
        assert (tmp_path / "zeros.csv").read_bytes().splitlines()[1] == b"0.0,-0.0,0.0"

    def test_integer_column_does_not_share_a_float_columns_cells(self, tmp_path):
        # the same eight bytes per value: 1 as int64 and 5e-324 as float64
        ints = np.ones(3, dtype=np.int64)
        floats = ints.view(np.float64)
        formatted = {}
        write_csv(tmp_path / "a.csv", ["i", "x"], [ints, floats], formatted)
        write_csv(tmp_path / "b.csv", ["x", "i"], [floats, ints], formatted)
        assert (tmp_path / "a.csv").read_bytes().splitlines()[1] == b"1,5e-324"
        assert (tmp_path / "b.csv").read_bytes().splitlines()[1] == b"5e-324,1"
        assert len(formatted) == 1

    def test_open_loop_clean_run_has_one_plus_2n_distinct_columns(self, designs, tmp_path):
        # rho_cmd is rho_d and rho_meas is rho_true in the noiseless open loop
        for name in ("robot_0", "robot_D"):
            sim = run_experiment(designs["robot_0"], designs[name], 5)["open_loop_clean"]
            formatted = {}
            cli._write_run(tmp_path, name, sim, cli.Manifest("simulate", {}, [], []), formatted)
            assert len(formatted) == 1 + 2 * sim.design.n


class TestWriteAtomic:
    def test_str_and_bytes_write_the_same_file(self, tmp_path):
        write_atomic(tmp_path / "text.txt", "a,b\n1.0,2.0\n")
        write_atomic(tmp_path / "bytes.txt", b"a,b\n1.0,2.0\n")
        assert (tmp_path / "text.txt").read_bytes() == (tmp_path / "bytes.txt").read_bytes()

    def test_creates_missing_directories(self, tmp_path):
        path = tmp_path / "fresh" / "sub" / "map.json"
        write_atomic(path, '{"mode": "general"}\n')
        assert path.read_text() == '{"mode": "general"}\n'
        assert [p.name for p in path.parent.iterdir()] == ["map.json"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            write_atomic(tmp_path / "out.json", "{}\n")
            write_csv(tmp_path / "out.csv", ["a"], [np.ones(2)])
        finally:
            os.umask(previous)
        for name in ("out.json", "out.csv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "taken").mkdir()
        with pytest.raises(OSError):
            write_atomic(tmp_path / "taken", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_chunks_are_written_and_hashed_in_order(self, tmp_path):
        chunks = [b"a,b\n", np.frombuffer(b"1.0,2.0\n", dtype=np.uint8), b"", b"3.0,4.0\n"]
        digest = write_atomic(tmp_path / "chunks.csv", chunks)
        data = (tmp_path / "chunks.csv").read_bytes()
        assert data == b"a,b\n1.0,2.0\n3.0,4.0\n"
        assert digest == hashlib.sha256(data).hexdigest()

    def test_failed_replace_of_chunks_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "taken").mkdir()
        with pytest.raises(OSError):
            write_atomic(tmp_path / "taken", [b"a\n", b"b\n"])
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_failing_chunk_source_leaves_no_file(self, tmp_path):
        def chunks():
            yield b"a\n"
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            write_atomic(tmp_path / "out.csv", chunks())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shape", [(0, 2), (2, 1), (1025, 3)])
    def test_table_digest_is_the_file_digest(self, tmp_path, shape):
        table = np.arange(np.prod(shape), dtype=float).reshape(shape) / 7.0
        header = [f"c{j}" for j in range(shape[1])]
        digest = write_csv(tmp_path / "table.csv", header, list(table.T))
        got, want = columns_and_rows_bytes(tmp_path, header, table)
        assert got == want
        assert digest == hashlib.sha256(got).hexdigest()
