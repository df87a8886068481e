"""File output helpers: round-trip float formatting, atomic writes, hashing.

CSV cells use Python's shortest round-trip float representation so that
re-running a command with the same seed reproduces byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np


def write_atomic(path, data: str | bytes) -> None:
    """Write text (UTF-8) or bytes to path via a temp file in the same
    directory.  The file gets mode 0o666 less the process umask, as a plain
    `open` would give it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode()
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    # O_EXCL never opens an existing file; the kernel applies the umask to 0o666
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header: list[str], rows, formatted: dict | None = None) -> None:
    """Write a CSV file with round-trip float formatting (atomic).

    `rows` is a 2-D array or an iterable of rows whose cells are numbers or
    preformatted strings; a number is written as its shortest round-trip
    text, `repr(float(cell))`.

    An array is formatted one column at a time.  `formatted` caches the
    formatted columns keyed by the column's bytes, so a column that recurs
    within the table, or in every table written with the same dict, is
    formatted once; the bytes key keeps 0.0 and -0.0 apart.  The caller owns
    the dict and decides how long it lives.
    """
    if isinstance(rows, np.ndarray):
        head = (",".join(header) + "\n").encode()
        write_atomic(path, b"".join([head, *_table_chunks(rows, formatted)]))
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else repr(float(cell))
                              for cell in row))
    write_atomic(path, "\n".join(lines) + "\n")


# longest repr of a float64, e.g. -2.2250738585072014e-308
_CELL = 24
# rows laid out per byte grid: bounds the grid and its mask to ~0.7 MB at 29 columns
_ROWS = 1024


def _table_chunks(rows: np.ndarray, formatted: dict | None) -> list[np.ndarray]:
    """The CSV lines of a 2-D array as byte chunks.  Each column is formatted
    once, or taken from `formatted`, as NUL-padded cells; a block of rows is
    laid out with its separators in one byte grid and the padding dropped."""
    table = rows.astype(float, copy=False)
    if table.shape[1] == 0:
        # rows without cells: one empty line each, as the iterable path writes
        return [b"\n" * table.shape[0]]
    if formatted is None:
        formatted = {}
    columns = []
    for col in table.T:
        key = col.tobytes()
        cells = formatted.get(key)
        if cells is None:
            text = np.array(list(map(repr, col.tolist())), dtype=f"S{_CELL}")
            cells = formatted[key] = text.view(np.uint8).reshape(-1, _CELL)
        columns.append(cells)
    chunks = []
    for start in range(0, table.shape[0], _ROWS):
        stop = min(start + _ROWS, table.shape[0])
        # each cell: its NUL-padded text, then the separator that follows it
        grid = np.empty((stop - start, len(columns), _CELL + 1), dtype=np.uint8)
        for j, cells in enumerate(columns):
            grid[:, j, :_CELL] = cells[start:stop]
        grid[:, :, _CELL] = ord(",")
        grid[:, -1, _CELL] = ord("\n")
        chunks.append(grid[grid != 0])
    return chunks


def write_json(path, obj) -> None:
    """Write a JSON file with sorted keys (atomic, deterministic)."""
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
