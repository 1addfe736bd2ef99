"""CSV tables of numbers: a header line of column names, then one row per item.

Reading checks the header and parses the body with one ``np.loadtxt`` call
straight from the stream; writing formats rows from ``.tolist()`` columns,
floats as the ``repr`` that reads back bit for bit.
"""

from __future__ import annotations

import io
import warnings

import numpy as np


def read_text(source) -> str:
    """Text of a string, bytes or a readable stream."""
    text = source.read() if hasattr(source, "read") else source
    return text.decode() if isinstance(text, bytes) else text


def read_table(source, header: str, dtypes=(float, float)) -> list[np.ndarray]:
    """One array per column of a CSV whose header starts with ``header`` (any case).

    ``source`` is a string, bytes or a text or binary stream. Extra columns
    are ignored and blank lines skipped; a short row or a field that is not
    a number raises ValueError.
    """
    stream = io.StringIO(read_text(source)) if isinstance(source, (str, bytes)) else source
    names = header.split(",")
    first = stream.readline()
    found = (first.decode() if isinstance(first, bytes) else first).split(",")[: len(names)]
    if [h.strip().lower() for h in found] != names:
        raise ValueError(f"expected CSV header {header!r}")
    with warnings.catch_warnings():  # a header-only table is just empty
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        dtype = list(zip(names, dtypes))
        rows = np.loadtxt(stream, delimiter=",", usecols=range(len(names)), dtype=dtype, comments=None, ndmin=1)
    return [np.ascontiguousarray(rows[name]) for name in names]


def format_table(header: str, *columns: np.ndarray) -> str:
    """CSV text of equal-length columns under ``header``; floats as their ``repr``."""
    line = ",".join(["%r"] * len(columns)) + "\n"
    return header + "\n" + "".join([line % row for row in zip(*(c.tolist() for c in columns))])
