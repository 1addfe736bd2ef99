"""CSV tables of numbers: a header line of column names, then one row per item.

Reading checks the header, steps over blank lines to the first row and
parses the rest with one ``np.loadtxt`` call straight from the stream (a
stream that cannot seek, such as a pipe, is read into memory first); only
when numpy refuses the body are its non-blank lines bisected to name the
first bad one. Writing formats rows from ``.tolist()`` columns, floats as
the ``repr`` that reads back bit for bit.
"""

from __future__ import annotations

import io

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
    a number raises ValueError naming its 1-based file line.
    """
    seekable = hasattr(source, "seekable") and source.seekable()
    stream = source if seekable else io.StringIO(read_text(source))
    names = header.split(",")
    first = stream.readline()
    found = (first.decode() if isinstance(first, bytes) else first).split(",")[: len(names)]
    if [h.strip().lower() for h in found] != names:
        raise ValueError(f"expected CSV header {header!r}")
    body_start = first_row = stream.tell()
    while (line := stream.readline()) in ("\n", "\r\n", b"\n", b"\r\n"):  # the lines loadtxt skips
        first_row = stream.tell()
    if not line:  # a header-only table, or a run of blank lines, is just empty; loadtxt would warn
        return [np.empty(0, dtype) for dtype in dtypes]
    stream.seek(first_row)
    dtype = list(zip(names, dtypes))

    def parse(src):
        return np.loadtxt(src, delimiter=",", usecols=range(len(names)), dtype=dtype, comments=None, ndmin=1)

    try:
        rows = parse(stream)
    except ValueError:
        stream.seek(body_start)
        numbered = [(k, line) for k, line in enumerate(read_text(stream).splitlines(), start=2) if line]
        k, line = numbered[first_bad_row([line for _, line in numbered], parse)]
        raise ValueError(f"line {k}: expected {header} numbers, got {line.strip()!r}") from None
    return [np.ascontiguousarray(rows[name]) for name in names]


def format_table(header: str, *columns: np.ndarray) -> str:
    """CSV text of equal-length columns under ``header``; floats as their ``repr``."""
    line = ",".join(["%r"] * len(columns)) + "\n"
    return header + "\n" + "".join([line % row for row in zip(*(c.tolist() for c in columns))])
