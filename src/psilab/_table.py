"""CSV tables of numbers: a header line of column names, then one row per item.

Reading checks the header, steps over empty lines to the first row and
parses the rest with one ``np.loadtxt`` call: by path if given one, which
numpy reads in chunks with its C reader (an open stream it reads a Python
line at a time, about 1.4 times slower), else from the source's text, read
once with CR, LF and CRLF line ends alike, as ``open`` reads a file. Only
when numpy refuses the body are its non-empty lines bisected to name the
first bad one. A line of only whitespace is not empty: it is refused. A
byte that does not decode is named by its line too, found in the bytes
read again from the start. Writing formats rows from ``.tolist()``
columns, floats as the ``repr`` that reads back bit for bit.
"""

from __future__ import annotations

import io
import os

import numpy as np


def read_text(source) -> str:
    """Text of a string, bytes or a readable stream."""
    text = source.read() if hasattr(source, "read") else source
    return text.decode() if isinstance(text, bytes) else text


def undecodable(source, exc: UnicodeDecodeError) -> tuple[int, str]:
    """(1-based line, problem) of the first byte of ``source`` that does not decode, where reading it raised
    ``exc``. ``source`` is bytes or a stream, whose bytes are read again from the first one: the decoder's
    position counts from wherever its piece began. A stream that cannot seek (a pipe) is decoded in one
    piece from its first byte, so ``exc`` holds the position."""
    try:
        if isinstance(source, bytes):
            data = source
        else:
            raw = getattr(source, "buffer", source)  # the bytes under a text stream
            raw.seek(0)
            data = raw.read()
        data.decode(exc.encoding)
    except UnicodeDecodeError as whole:
        exc = whole
    except OSError:
        pass  # a stream that cannot seek
    lines = (exc.object[: exc.start].decode(exc.encoding) + "x").splitlines()
    return len(lines), f"{exc.encoding!r} codec can't decode byte {exc.object[exc.start]:#04x}: {exc.reason}"


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

    ``source`` is a path (``os.PathLike``, opened as ``open`` opens it), a
    string, bytes or a text or binary stream. Extra columns are ignored and
    empty lines skipped; a short row, a field that is not a number or a line
    of only whitespace raises ValueError naming its 1-based file line, and so
    does a byte that does not decode.
    """
    if isinstance(source, os.PathLike):
        with open(source) as stream:
            # numpy reads a str path through its DataSource, which would fetch a "scheme://" name: make it absolute
            path = os.path.join(os.getcwd(), source) if stream.seekable() else None  # a pipe is read once
            return _read_table(stream, header, dtypes, path)
    return _read_table(source, header, dtypes, None)


def _read_table(source, header: str, dtypes, path: str | None) -> list[np.ndarray]:
    """``read_table`` of a string, bytes or stream, whose body numpy parses from ``path``, if given: the file
    ``source`` was opened from."""
    try:
        return _parse_table(source, header, dtypes, path)
    except UnicodeDecodeError as exc:
        raise ValueError("line {}: {}".format(*undecodable(source, exc))) from None


def _parse_table(source, header: str, dtypes, path: str | None) -> list[np.ndarray]:
    stream = source if path else io.StringIO(read_text(source), newline=None)  # CR, LF or CRLF, as open reads
    names = header.split(",")
    found = stream.readline().split(",")[: len(names)]
    if [h.strip().lower() for h in found] != names:
        raise ValueError(f"expected CSV header {header!r}")
    body_start = first_row = stream.tell()
    skipped = 1  # the lines before the first row
    while (line := stream.readline()) == "\n":  # the lines loadtxt skips
        first_row = stream.tell()
        skipped += 1
    if not line:  # a header-only table, or a run of empty lines, is just empty; loadtxt would warn
        return [np.empty(0, dtype) for dtype in dtypes]
    stream.seek(first_row)
    dtype = list(zip(names, dtypes))

    def parse(src, skiprows=0):
        return np.loadtxt(src, delimiter=",", usecols=range(len(names)), dtype=dtype, comments=None, ndmin=1,
                          skiprows=skiprows)

    try:
        rows = parse(stream) if path is None else parse(path, skipped)
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
