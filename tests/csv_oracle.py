"""Reference CSV bytes, every cell formatted on its own.

`clarkekit.fileio.write_csv` formats whole columns at once, integer
columns as digits and float columns with an exact integer kernel.  The
bytes it writes must equal these: `str` of a Python int, `repr(float(v))`
of any other cell.
"""


def repr_csv(header, rows) -> bytes:
    """The CSV bytes of a header and an iterable of rows of Python numbers."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(cell) if isinstance(cell, int) else repr(float(cell))
                              for cell in row))
    return ("\n".join(lines) + "\n").encode()
