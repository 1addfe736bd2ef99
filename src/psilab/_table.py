"""CSV tables of numbers: a header line of column names, then one row per item.

Reading checks the header and parses the body with one ``np.loadtxt`` call
straight from the stream; only when numpy refuses the body is it read again
as lines, to name the first bad one. Writing formats rows from ``.tolist()``
columns, floats as the ``repr`` that reads back bit for bit.
"""

from __future__ import annotations

import io
import warnings

import numpy as np


def read_text(source) -> str:
    """Text of a string, bytes or a readable stream."""
    text = source.read() if hasattr(source, "read") else source
    return text.decode() if isinstance(text, bytes) else text


def first_bad_row(rows: list[str], parse) -> int:
    """Index of the first row ``parse`` refuses with ValueError, found by bisection; some row must fail."""
    lo, hi = 0, len(rows)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse(rows[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    return lo


def read_table(source, header: str, dtypes=(float, float)) -> list[np.ndarray]:
    """One array per column of a CSV whose header starts with ``header`` (any case).

    ``source`` is a string, bytes or a text or binary stream. Extra columns
    are ignored and blank lines skipped; a short row or a field that is not
    a number raises ValueError naming its 1-based file line (numpy's own
    message when the stream cannot seek back to the body).
    """
    stream = io.StringIO(read_text(source)) if isinstance(source, (str, bytes)) else source
    names = header.split(",")
    first = stream.readline()
    found = (first.decode() if isinstance(first, bytes) else first).split(",")[: len(names)]
    if [h.strip().lower() for h in found] != names:
        raise ValueError(f"expected CSV header {header!r}")
    body_start = stream.tell() if stream.seekable() else None
    dtype = list(zip(names, dtypes))

    def parse(src):
        return np.loadtxt(src, delimiter=",", usecols=range(len(names)), dtype=dtype, comments=None, ndmin=1)

    with warnings.catch_warnings():  # a header-only table, or a run of blank lines, is just empty
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            rows = parse(stream)
        except ValueError:
            if body_start is None:
                raise
            stream.seek(body_start)
            lines = read_text(stream).splitlines()
            k = first_bad_row(lines, parse)
            raise ValueError(f"line {k + 2}: expected {header} numbers, got {lines[k].strip()!r}") from None
    return [np.ascontiguousarray(rows[name]) for name in names]


def format_table(header: str, *columns: np.ndarray) -> str:
    """CSV text of equal-length columns under ``header``; floats as their ``repr``."""
    line = ",".join(["%r"] * len(columns)) + "\n"
    return header + "\n" + "".join([line % row for row in zip(*(c.tolist() for c in columns))])
