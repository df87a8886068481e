"""File output helpers: round-trip float formatting, atomic writes, hashing.

CSV cells use Python's shortest round-trip float representation so that
re-running a command with the same seed reproduces byte-identical files.
A float column is formatted by an exact integer kernel (float64 and int64
numpy operations, `_block_cells`) whose cells equal `repr(float(x))` byte
for byte; the cells it cannot decide, such as zeros, non-finite values,
magnitudes outside [1e-6, 1e16) and exact ties, are formatted by `repr`.
It builds each cell as three uint64 words: the digits shifted into place
and masked, or-ed with the constant bytes of the cell's layout.  A table is
written and hashed a block of rows at a time, never held whole.  Every
writer returns the SHA-256 of the bytes it wrote, so manifests need not
read the files back.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable
from pathlib import Path

import numpy as np


def write_atomic(path, data: str | bytes | Iterable) -> str:
    """Write text (UTF-8), bytes or an iterable of byte chunks, each written
    and hashed in turn, to path via a temp file in the same directory and
    return the SHA-256 hex digest of the bytes written.  The file gets mode
    0o666 less the process umask, as a plain `open` would give it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, (str, bytes)):
        data = [data.encode() if isinstance(data, str) else data]
    digest = hashlib.sha256()
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    # O_EXCL never opens an existing file; the kernel applies the umask to 0o666
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in data:
                handle.write(chunk)
                digest.update(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


def write_csv(path, header: list[str], columns, formatted: dict | None = None) -> str:
    """Write a CSV file, one column per header name (atomic); returns the
    SHA-256 hex digest of the file's bytes.

    `columns` is a sequence of equal-length 1-D arrays.  An integer column
    is written as its decimal digits; any other column is taken as float64
    and each value written as its shortest round-trip text, `repr(float(v))`.

    `formatted` caches the formatted float columns keyed by the column's
    bytes, so a column that recurs within the table, or in every table
    written with the same dict, is formatted once; the bytes key keeps 0.0
    and -0.0 apart.  The caller owns the dict and decides how long it lives.
    """
    columns = [np.asarray(col) for col in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    if len({col.shape for col in columns}) != 1 or columns[0].ndim != 1:
        raise ValueError(f"columns must be 1-D and of one length, got shapes "
                         f"{[col.shape for col in columns]}")
    return write_atomic(path, _table_chunks(header, columns, formatted))


# longest repr of a float64, e.g. -2.2250738585072014e-308
_CELL = 24
# rows laid out per byte grid: bounds the grid and its mask to ~0.7 MB at 29 columns
_ROWS = 1024


def _table_chunks(header: list[str], columns: list[np.ndarray], formatted: dict | None):
    """The CSV lines of a header and its columns as byte chunks, made one at
    a time.  Each column is formatted once, or taken from `formatted`, as
    NUL-padded cells; a block of rows is laid out with its separators in one
    byte grid and the padding dropped."""
    yield (",".join(header) + "\n").encode()
    if formatted is None:
        formatted = {}
    texts = []
    for col in columns:
        if col.dtype.kind in "iu":
            # digits, never cached: an integer column's bytes may equal a float column's
            cells = col.astype(f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
        else:
            col = col.astype(float, copy=False)
            key = col.tobytes()
            cells = formatted.get(key)
            if cells is None:
                cells = formatted[key] = _repr_cells(col)
        texts.append(cells)
    rows = columns[0].size
    for start in range(0, rows, _ROWS):
        stop = min(start + _ROWS, rows)
        # each cell: its NUL-padded text, then the separator that follows it
        grid = np.empty((stop - start, len(texts), _CELL + 1), dtype=np.uint8)
        for j, cells in enumerate(texts):
            grid[:, j, :_CELL] = cells[start:stop]
        grid[:, :, _CELL] = ord(",")
        grid[:, -1, _CELL] = ord("\n")
        yield grid[grid != 0]


# Values formatted per call of _block_cells: bounds its temporaries to ~3 MB.
_BLOCK = 8192
# The kernel tries a value when 1e-6 <= |x| < 1e16 and its mantissa is not a
# power of two, where the rounding interval is asymmetric.  Non-negative
# floats order as their bit patterns do.
_FAST_LO = np.float64(1e-6).view(np.int64)
_FAST_HI = np.float64(1e16).view(np.int64)
_MANTISSA = (1 << 52) - 1
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)
# 10**q is exact in float64 for q <= 22; Dekker's 2**27 + 1 splits it in halves
_SPLIT = 134217729.0
_POW10 = np.array([float(10 ** q) for q in range(23)])
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_E16, _E17 = 10 ** 16, 10 ** 17
# A cell is three little-endian uint64 words, and so is D, the 17 digits of
# the scaled value, built from the ASCII of 0000..9999 (one word per 4-digit
# group, first digit in the low byte); and each group's trailing zeros.
_WORD = np.dtype("<u8")
_BYTE, _U24, _U40, _U56 = (np.uint64(bits) for bits in (8, 24, 40, 56))
_GROUPS = np.arange(10_000)
_DIGITS4 = (np.stack([_GROUPS // 1000, _GROUPS // 100 % 10, _GROUPS // 10 % 10, _GROUPS % 10],
                     axis=1).astype(np.uint8) + ord("0")).view("<u4").ravel().astype(np.uint64)
_ZEROS4 = ((_GROUPS % 10 == 0).astype(np.int64) + (_GROUPS % 100 == 0)
           + (_GROUPS % 1000 == 0) + (_GROUPS == 0))


def _layouts():
    """Cell layouts per (decimal exponent E in [-6, 15], digit count p,
    sign): positional for -4 <= E < 16, else d.ddde-0X.  A layout is its
    constant bytes ("-", "0.", ".", "e-0X"), the shift in bits (at most 6
    bytes) that moves D's leading digits into place, and the masks of the
    digits before and after the point; those after it sit one byte further
    on.  Each is given as three uint64 word arrays indexed by the key."""
    pictures = []
    for e in range(-6, 16):
        for p in range(1, 18):
            if e >= 0:
                # past p, the digits are zeros: 100.0 takes its "0" after the point
                pic = "d" * (e + 1) + "." + "d" * max(p - e - 1, 1)
            elif e >= -4:
                pic = "0." + "0" * (-e - 1) + "d" * p
            else:
                pic = "d" + ("." + "d" * (p - 1) if p > 1 else "") + f"e-0{-e}"
            pictures += [pic, "-" + pic]
    text = np.frombuffer("".join(pic.ljust(_CELL, "\0") for pic in pictures).encode(),
                         dtype=np.uint8).reshape(-1, _CELL)
    digit = text == ord("d")
    # a digit's position less its index in D: the shift of the run it is in
    shift = np.arange(_CELL) - np.cumsum(digit, axis=1) + 1
    first = shift[np.arange(len(pictures)), digit.argmax(axis=1)][:, None]
    cells = np.stack([np.where(digit, 0, text), 255 * (digit & (shift == first)),
                      255 * (digit & (shift == first + 1))]).astype(np.uint8)
    # row j of each table: word j of every layout's cell
    const, run1, run2 = np.ascontiguousarray(cells.view(_WORD).transpose(0, 2, 1), np.uint64)
    return const, (8 * first.ravel()).astype(np.uint64), run1, run2


_CONST, _SHIFT, _RUN1, _RUN2 = _layouts()


def _block_cells(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write repr(float(v)) of each value of x into the NUL-padded rows of
    `out` where the exact integer kernel can decide it; returns that mask.

    With E = floor(log10|v|) and q = 16 - E, y = |v| * 10**q is formed
    exactly as hi + lo (Dekker's product) and rounded to the 17-digit
    integer N = hi + rint(lo), y = N + r; hi is even, so a tie rounds to
    even as in dtoa.  A decimal reads back as v when it lies within h,
    half an ulp of v scaled by 10**q, of y.  Since h < 11.2, a 15-digit
    candidate (a multiple of 100 in N's units) that round-trips is the
    only one at 15 or fewer digits, so the shortest text is it with its
    trailing zeros dropped; else the nearest 16-digit candidate, else N.
    Each distance is rounded once at most, so a strict comparison with
    the exact h holds for the exact distance too; a distance equal to h,
    an exact tie of two candidates or a misjudged E leaves the cell to repr.

    A cell's words are its layout's constant bytes | X & first-run mask |
    Y & second-run mask, where X is D moved up by the layout's shift and Y
    is X moved one byte further (past the point).
    """
    bits = x.view(np.int64)
    mag = bits & _MAGNITUDE
    decided = (mag >= _FAST_LO) & (mag < _FAST_HI) & ((mag & _MANTISSA) != 0)
    a = np.where(decided, np.abs(x), 1.5)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    q = np.clip(16 - e10, 1, 22)
    b, b_hi, b_lo = _POW10[q], _POW10_HI[q], _POW10_LO[q]
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    hi = a * b
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    rounded = np.rint(lo)
    n17 = hi.astype(np.int64) + rounded.astype(np.int64)
    r = lo - rounded
    h = np.spacing(a) * (0.5 * b)
    decided &= (n17 < _E17) & ((n17 > _E16) | ((n17 == _E16) & (r >= 0.0)))
    # the nearest 16-digit candidate (a multiple of 10), then 15-digit (of 100):
    # y lies rem + r above the multiple below it and s - rem - r below the next
    cand = n17
    fits = np.ones(x.size, dtype=bool)
    for s in (10, 100):
        rem = n17 - n17 // s * s
        below = rem + r
        above = (s - rem) - r
        tried = fits
        fits = tried & ((below < h) | (above < h))
        # a rounded distance equal to h may be either side of it, and equal
        # distances tie: either leaves a cell to repr where it decides the digits
        decided &= ~(tried & ((np.minimum(below, above) == h) | (fits & (below == above))))
        cand = np.where(fits, n17 - rem + s * (above < below), cand)
    wrap = cand == _E17
    cand = np.where(wrap, _E16, cand)
    e10 += wrap
    decided &= e10 <= 15
    # cells left to repr get placeholder digits that index the tables safely
    cand = np.where(decided, cand, _E16)
    e10 = np.where(decided, e10, 0)
    # four 4-digit groups, lowest first, then the lead digit: // by a scalar beats % and divmod
    groups, lead = [], cand
    for _ in range(4):
        high = lead // 10_000
        groups.append(lead - high * 10_000)
        lead = high
    g4, g3, g2, g1 = groups
    zeros = _ZEROS4[g4] + (g4 == 0) * (_ZEROS4[g3] + (g3 == 0) * (
        _ZEROS4[g2] + (g2 == 0) * _ZEROS4[g1]))
    key = ((e10 + 6) * 17 + (16 - zeros)) * 2 + (bits < 0)
    w2, w4 = _DIGITS4[g2], _DIGITS4[g4]
    d0 = (lead.view(np.uint64) + np.uint64(ord("0"))) | _DIGITS4[g1] << _BYTE | w2 << _U40
    d1 = w2 >> _U24 | _DIGITS4[g3] << _BYTE | w4 << _U40
    d2 = w4 >> _U24
    # a word's top bytes carry into the next; two shifts keep each below 64
    s = _SHIFT[key]
    back = _U56 - s
    x = (d0 << s, d1 << s | (d0 >> _BYTE) >> back, d2 << s | (d1 >> _BYTE) >> back)
    y = (x[0] << _BYTE, x[1] << _BYTE | x[0] >> _U56, x[2] << _BYTE | x[1] >> _U56)
    words = out.view(_WORD)
    for j in range(3):
        words[:, j] = _CONST[j][key] | x[j] & _RUN1[j][key] | y[j] & _RUN2[j][key]
    return decided


def _repr_cells(col) -> np.ndarray:
    """repr(float(v)) of every value of a 1-D array as NUL-padded (n, 24)
    uint8 cells: the kernel's cells, block by block, and repr for the rest."""
    col = np.ascontiguousarray(col, dtype=float)
    out = np.empty((col.size, _CELL), dtype=np.uint8)
    for start in range(0, col.size, _BLOCK):
        x = col[start:start + _BLOCK]
        cells = out[start:start + x.size]
        rest = np.flatnonzero(~_block_cells(x, cells))
        if rest.size:
            text = np.array(list(map(repr, x[rest].tolist())), dtype=f"S{_CELL}")
            cells[rest] = text.view(np.uint8).reshape(-1, _CELL)
    return out


def write_json(path, obj) -> str:
    """Write a JSON file with sorted keys (atomic, deterministic); returns
    the SHA-256 hex digest of the file's bytes."""
    return write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
