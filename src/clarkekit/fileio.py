"""File output helpers: round-trip float formatting, atomic writes, hashing.

CSV cells use Python's shortest round-trip float representation so that
re-running a command with the same seed reproduces byte-identical files.
A float column is formatted by an exact integer kernel (float64 and int64
numpy operations, `_block_cells`) whose cells equal `repr(float(x))` byte
for byte; the cells it cannot decide, such as zeros, non-finite values,
magnitudes outside [1e-6, 1e16) and exact ties, are formatted by `repr`.
It builds each cell as three uint64 words: the digits shifted into place
and masked, or-ed with the constant bytes of the cell's layout, whose
length it also records.  A table is written and hashed a block of rows at a
time, never held whole: a block's cells are assigned in order at offsets
given by the running sum of their lengths, and each separator after its
cell.  The kernel and the row layout work in buffers that each thread keeps
and reuses across columns, blocks and tables, so no block allocates its own.
Every writer returns the SHA-256 of the bytes it wrote, so manifests need
not read the files back.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
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

    `formatted` caches the formatted float columns, each as its cells and
    their lengths, keyed by the column's bytes, so a column that recurs
    within the table, or in every table written with the same dict, is
    formatted once; the bytes key keeps 0.0 and -0.0 apart.  The caller owns
    the dict and decides how long it lives.  Beyond that cache and the digits
    of integer columns, writing a table allocates no memory that grows with
    it: every block of rows is formatted and laid out in buffers that this
    thread reuses.
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
# rows laid out per block: bounds the layout's buffers to ~1.9 MB at 29 columns
_ROWS = 1024
_workspace = threading.local()


def _reused(name: str, size: int, dtype) -> np.ndarray:
    """`size` elements of this thread's buffer `name`, made on first use and
    when a larger one is asked for, else the same memory as the last call's.
    A buffer is as large as the largest request so far, so a process that
    only writes small tables holds only small buffers."""
    buffer = getattr(_workspace, name, None)
    if buffer is None or buffer.size < size:
        buffer = np.empty(size, dtype=dtype)
        setattr(_workspace, name, buffer)
    return buffer[:size]


def _table_chunks(header: list[str], columns: list[np.ndarray], formatted: dict | None):
    """The CSV lines of a header and its columns as byte chunks, made one at
    a time.  Each column is formatted once, or taken from `formatted`, as
    NUL-padded cells and their lengths.  A block of rows is laid out by an
    ordered scatter: its cells, copied row by row into one buffer, are
    assigned in order at each cell's offset in the line, so the cells that
    follow overwrite each cell's NUL tail; the separators go in after.

    A chunk after the header is a view of a buffer this thread reuses: it is
    valid only until the next chunk is made."""
    yield (",".join(header) + "\n").encode()
    if formatted is None:
        formatted = {}
    texts = []
    for col in columns:
        if col.dtype.kind in "iu":
            # digits, never cached: an integer column's bytes may equal a float column's
            digits = col.astype(f"S{_CELL}")
            cells = digits.view(np.uint8).reshape(-1, _CELL), np.char.str_len(digits)
        else:
            col = col.astype(float, copy=False)
            key = col.tobytes()
            cells = formatted.get(key)
            if cells is None:
                cells = formatted[key] = _repr_cells(col)
        texts.append(cells)
    rows, width = columns[0].size, len(texts)
    if not rows:
        return
    # a cell is copied and scattered whole, as one 24-byte void item
    cell = np.dtype(f"V{_CELL}")
    texts = [(text.view(cell)[:, 0], length) for text, length in texts]
    most = min(rows, _ROWS) * width
    cells = _reused("cells", most * _CELL, np.uint8).view(cell)
    lengths = _reused("lengths", most, np.int64)
    ends = _reused("ends", most + 1, np.int64)
    line = _reused("line", most * (_CELL + 1), np.uint8)
    # the line seen as cells that start at every byte
    slots = np.ndarray((line.size - _CELL + 1,), dtype=cell, buffer=line, strides=(1,))
    ends[0] = 0
    for start in range(0, rows, _ROWS):
        stop = min(start + _ROWS, rows)
        size = (stop - start) * width
        grid, lengths_grid = cells[:size].reshape(-1, width), lengths[:size].reshape(-1, width)
        for j, (text, length) in enumerate(texts):
            grid[:, j] = text[start:stop]
            lengths_grid[:, j] = length[start:stop]
        # ends[k + 1]: where cell k's separator ends; cell k starts at ends[k]
        lengths[:size] += 1
        np.cumsum(lengths[:size], out=ends[1:size + 1])
        slots[ends[:size]] = cells[:size]
        separators = np.subtract(ends[1:size + 1], 1, out=lengths[:size])
        line[separators] = ord(",")
        line[separators[width - 1::width]] = ord("\n")
        yield line[:ends[size]]


# Values formatted per call of _block_cells: bounds its buffers to ~0.7 MB.
_BLOCK = 8192
# The kernel tries a value when 1e-6 <= |x| < 1e16 and its mantissa is not a
# power of two, where the rounding interval is asymmetric.  Non-negative
# floats order as their bit patterns do.
_FAST_LO = np.float64(1e-6).view(np.int64)
_FAST_HI = np.float64(1e16).view(np.int64)
_MANTISSA = (1 << 52) - 1
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)
# the ulp of a normal float is 2**(exponent - 52): its exponent bits less 52
_EXPONENT = np.int64(0x7FF << 52)
_ULP_EXPONENT = np.int64(52 << 52)
# 10**q is exact in float64 for q <= 22; Dekker's 2**27 + 1 splits a float in halves
_SPLIT = 134217729.0
_POW10 = np.array([float(10 ** q) for q in range(23)])
_E16, _E17 = 10 ** 16, 10 ** 17
# A cell is three little-endian uint64 words, and so is D, the 17 digits of
# the scaled value, built from the ASCII of 0000..9999 (one word per 4-digit
# group, first digit in the low byte); and each group's trailing zeros.
_WORD = np.dtype("<u8")
_BYTE, _U24, _U40, _U56 = (np.uint64(bits) for bits in (8, 24, 40, 56))
_ZERO = np.uint64(ord("0"))
_GROUPS = np.arange(10_000)
_DIGITS4 = (np.stack([_GROUPS // 1000, _GROUPS // 100 % 10, _GROUPS // 10 % 10, _GROUPS % 10],
                     axis=1).astype(np.uint8) + ord("0")).view("<u4").ravel().astype(np.uint64)
_ZEROS4 = ((_GROUPS % 10 == 0).astype(np.int64) + (_GROUPS % 100 == 0)
           + (_GROUPS % 1000 == 0) + (_GROUPS == 0))


def _layouts():
    """Cell layouts per (decimal exponent E in [-6, 15], digit count p,
    sign): positional for -4 <= E < 16, else d.ddde-0X.  A layout is its
    constant bytes ("-", "0.", ".", "e-0X"), the shift in bits (at most 6
    bytes) that moves D's leading digits into place, the masks of the
    digits before and after the point, and its length; the digits after the
    point sit one byte further on.  Each is given as uint64 word arrays (the
    length as uint8) indexed by the key."""
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
    text = np.array(pictures, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    digit = text == ord("d")
    # a digit's position less its index in D: the shift of the run it is in
    shift = np.arange(_CELL) - np.cumsum(digit, axis=1) + 1
    first = shift[np.arange(len(pictures)), digit.argmax(axis=1)][:, None]
    cells = np.stack([np.where(digit, 0, text), 255 * (digit & (shift == first)),
                      255 * (digit & (shift == first + 1))]).astype(np.uint8)
    # row j of each table: word j of every layout's cell
    const, run1, run2 = np.ascontiguousarray(cells.view(_WORD).transpose(0, 2, 1), np.uint64)
    lengths = (text != 0).sum(axis=1, dtype=np.uint8)
    return const, (8 * first.ravel()).astype(np.uint64), run1, run2, lengths


_CONST, _SHIFT, _RUN1, _RUN2, _LENGTH = _layouts()


def _block_cells(x: np.ndarray, out: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Write repr(float(v)) of each value of x (at most _BLOCK of them, C
    contiguous) into the NUL-padded rows of `out`, and its length into
    `lengths`, where the exact integer kernel can decide it; returns that
    mask, a view of a buffer that is valid until the next call.

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
    is X moved one byte further (past the point).  Every step writes into
    this thread's reused rows, named for what they hold at the time.
    """
    n = x.size
    ints = _reused("kernel", 10 * n, np.int64).reshape(10, n)
    floats, words = ints.view(np.float64), ints.view(np.uint64)
    masks = _reused("kernel_masks", 5 * n, bool).reshape(5, n)
    decided, fits, tried, m, m2 = masks
    bits = x.view(np.int64)
    # a = |v| where the kernel tries v, else 1.5
    a = floats[0]
    np.bitwise_and(bits, _MAGNITUDE, out=ints[0])
    np.greater_equal(ints[0], _FAST_LO, out=decided)
    np.less(ints[0], _FAST_HI, out=m)
    decided &= m
    np.bitwise_and(ints[0], _MANTISSA, out=ints[1])
    np.not_equal(ints[1], 0, out=m)
    decided &= m
    np.logical_not(decided, out=m)
    np.copyto(a, 1.5, where=m)
    e10, q, b, b_hi, b_lo = ints[1], ints[2], floats[3], floats[4], floats[5]
    np.log10(a, out=floats[2])
    np.floor(floats[2], out=floats[2])
    np.copyto(e10, floats[2], casting="unsafe")
    # q is at least 1 here and at most 22 by take's clip mode
    np.subtract(16, e10, out=q)
    np.maximum(q, 1, out=q)
    _POW10.take(q, out=b, mode="clip")
    # a = a_hi + a_lo and b = b_hi + b_lo, then hi + lo = a * b exactly
    a_hi, a_lo, hi, lo, product = floats[6], floats[7], floats[8], floats[9], floats[2]
    for v, v_hi, v_lo in ((b, b_hi, b_lo), (a, a_hi, a_lo)):
        np.multiply(v, _SPLIT, out=v_hi)
        np.subtract(v_hi, v, out=v_lo)
        np.subtract(v_hi, v_lo, out=v_hi)
        np.subtract(v, v_hi, out=v_lo)
    np.multiply(a, b, out=hi)
    np.multiply(a_hi, b_hi, out=lo)
    lo -= hi
    for left, right in ((a_hi, b_lo), (a_lo, b_hi), (a_lo, b_lo)):
        np.multiply(left, right, out=product)
        lo += product
    rounded, n17, r = floats[4], ints[5], lo
    np.rint(lo, out=rounded)
    np.copyto(n17, hi, casting="unsafe")
    np.copyto(ints[2], rounded, casting="unsafe")
    n17 += ints[2]
    np.subtract(lo, rounded, out=r)
    h = floats[8]
    np.bitwise_and(ints[0], _EXPONENT, out=ints[8])
    ints[8] -= _ULP_EXPONENT
    b *= 0.5
    h *= b
    # N has 17 digits, and is 10**16 only when y is not below it
    np.less(n17, _E17, out=m)
    decided &= m
    np.greater(n17, _E16, out=m)
    np.equal(n17, _E16, out=m2)
    np.greater_equal(r, 0.0, out=tried)
    m2 &= tried
    m |= m2
    decided &= m
    # the nearest 16-digit candidate (a multiple of 10), then 15-digit (of 100):
    # y lies rem + r above the multiple below it and s - rem - r below the next
    cand, rem, step = ints[0], ints[2], ints[7]
    remf, below, above = floats[3], floats[4], floats[6]
    np.copyto(cand, n17)
    fits.fill(True)
    for s in (10, 100):
        np.floor_divide(n17, s, out=rem)
        rem *= s
        np.subtract(n17, rem, out=rem)
        np.copyto(remf, rem)
        np.add(remf, r, out=below)
        np.subtract(s, remf, out=above)
        above -= r
        np.copyto(tried, fits)
        np.less(below, h, out=m)
        np.less(above, h, out=fits)
        fits |= m
        fits &= tried
        # a rounded distance equal to h may be either side of it, and equal
        # distances tie: either leaves a cell to repr where it decides the digits
        np.minimum(below, above, out=remf)
        np.equal(remf, h, out=m)
        np.equal(below, above, out=m2)
        m2 &= fits
        m |= m2
        m &= tried
        np.logical_not(m, out=m)
        decided &= m
        # cand += fits * (n17 - rem + s * (above < below) - cand): masks this random
        # are far slower as a `where`
        np.less(above, below, out=m)
        np.copyto(step, m)
        step *= s
        step -= rem
        step += n17
        step -= cand
        np.multiply(step, fits, out=step)
        cand += step
    np.equal(cand, _E17, out=m)
    np.copyto(cand, _E16, where=m)
    e10 += m
    np.less_equal(e10, 15, out=m)
    decided &= m
    # cells left to repr get placeholder digits that index the tables safely
    np.logical_not(decided, out=m)
    np.copyto(cand, _E16, where=m)
    np.copyto(e10, 0, where=m)
    # four 4-digit groups, lowest first, then the lead digit: // by a scalar beats % and divmod
    g4, g3, g2, g1 = ints[2], ints[3], ints[4], ints[5]
    lead, high = cand, ints[6]
    for group in (g4, g3, g2, g1):
        np.floor_divide(lead, 10_000, out=high)
        np.multiply(high, 10_000, out=group)
        np.subtract(lead, group, out=group)
        lead, high = high, lead
    zeros, z = ints[7], ints[8]
    _ZEROS4.take(g1, out=zeros, mode="clip")
    for group in (g2, g3, g4):
        np.not_equal(group, 0, out=m)
        np.copyto(zeros, 0, where=m)
        _ZEROS4.take(group, out=z, mode="clip")
        zeros += z
    # key = ((E + 6) * 17 + p - 1) * 2 + sign, with p = 17 - zeros
    key = e10
    key *= 17
    key += 6 * 17 + 16
    key -= zeros
    key *= 2
    np.right_shift(bits, 63, out=z)
    key -= z
    _LENGTH.take(key, out=lengths, mode="clip")
    d0, d1, d2, t = words[6], words[7], words[8], words[9]
    # d0 = lead | g1 << 8 | g2 << 40, d1 = g2 >> 24 | g3 << 8 | g4 << 40, d2 = g4 >> 24
    np.add(lead.view(np.uint64), _ZERO, out=d0)
    for inner, outer, word, carry in ((g1, g2, d0, d1), (g3, g4, d1, d2)):
        _DIGITS4.take(inner, out=t, mode="clip")
        t <<= _BYTE
        word |= t
        _DIGITS4.take(outer, out=t, mode="clip")
        np.right_shift(t, _U24, out=carry)
        t <<= _U40
        word |= t
    # a word's top bytes carry into the next; two shifts keep each below 64
    s, back = words[2], words[3]
    _SHIFT.take(key, out=s, mode="clip")
    np.subtract(_U56, s, out=back)
    x0, x1, x2 = words[0], words[4], words[5]
    np.left_shift(d0, s, out=x0)
    for low, word, shifted in ((d0, d1, x1), (d1, d2, x2)):
        np.right_shift(low, _BYTE, out=t)
        t >>= back
        np.left_shift(word, s, out=shifted)
        shifted |= t
    y0, y1, y2 = d0, d1, d2
    np.left_shift(x0, _BYTE, out=y0)
    for low, word, shifted in ((x0, x1, y1), (x1, x2, y2)):
        np.left_shift(word, _BYTE, out=shifted)
        np.right_shift(low, _U56, out=t)
        shifted |= t
    cell, c = out.view(_WORD), words[2]
    for j, (xj, yj) in enumerate(((x0, y0), (x1, y1), (x2, y2))):
        _CONST[j].take(key, out=c, mode="clip")
        _RUN1[j].take(key, out=t, mode="clip")
        t &= xj
        c |= t
        _RUN2[j].take(key, out=t, mode="clip")
        t &= yj
        np.bitwise_or(c, t, out=cell[:, j])
    return decided


def _repr_cells(col) -> tuple[np.ndarray, np.ndarray]:
    """repr(float(v)) of every value of a 1-D array as NUL-padded (n, 24)
    uint8 cells and their (n,) uint8 lengths: the kernel's cells, block by
    block, and repr for the rest."""
    col = np.ascontiguousarray(col, dtype=float)
    out = np.empty((col.size, _CELL), dtype=np.uint8)
    lengths = np.empty(col.size, dtype=np.uint8)
    for start in range(0, col.size, _BLOCK):
        x = col[start:start + _BLOCK]
        cells, sizes = out[start:start + x.size], lengths[start:start + x.size]
        rest = np.flatnonzero(~_block_cells(x, cells, sizes))
        if rest.size:
            texts = list(map(repr, x[rest].tolist()))
            cells[rest] = np.array(texts, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
            sizes[rest] = list(map(len, texts))
    return out, lengths


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
