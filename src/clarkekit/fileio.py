"""File output helpers: round-trip float formatting, atomic writes, hashing.

CSV cells use Python's shortest round-trip float representation so that
re-running a command with the same seed reproduces byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np


def fmt(value) -> str:
    """Shortest decimal representation that parses back to the same float."""
    return repr(float(value))


def write_atomic(path, text: str) -> None:
    """Write text to path via a temp file in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header: list[str], rows) -> None:
    """Write a CSV file with round-trip float formatting (atomic).

    `rows` is a 2-D float array or an iterable of rows whose cells are
    numbers or preformatted strings.  An array row is converted to Python
    floats in one call, so each cell is formatted by `repr` alone (the same
    text as `fmt`); converting row by row keeps the whole table from being
    held as Python floats at once.
    """
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray):
        lines += [",".join(map(repr, row.tolist())) for row in rows.astype(float, copy=False)]
    else:
        for row in rows:
            lines.append(",".join(cell if isinstance(cell, str) else fmt(cell) for cell in row))
    write_atomic(path, "\n".join(lines) + "\n")


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
