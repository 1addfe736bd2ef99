"""CSV tables of numbers (a header line of column names, then one row per item), and indented JSON.

Reading checks the header, steps over empty lines to the first row and
parses the rest with one ``np.loadtxt`` call: by path if given one, which
numpy reads in chunks with its C reader (an open stream it reads a Python
line at a time, about 1.4 times slower), else from the source's text, read
once with CR, LF and CRLF line ends alike, as ``open`` reads a file. Only
when numpy refuses the body are its non-empty lines bisected to name the
first bad one. A line of only whitespace is not empty: it is refused. A
byte that does not decode is named by its line too, counted in the bytes
decoded in one piece with it (a file numpy reads by path is decoded again
whole).

Writing is one rule for every table psilab writes but the blowup sweep (whose
rows ``counterexample.sweep_to_csv`` spells itself, a little faster): each cell
is its ``str``, so a float is the ``repr`` that reads back bit for bit, and a
``None`` is an empty cell. The JSON writer puts each item on a line of its own
from one C-encoder call per value. An array, in a table or a JSON payload, is
written a block of rows at a time, and each distinct value of a block (by its
bits, so ``-0.0`` and ``0.0`` are two) is spelled once and its text reused for
every cell that holds it: the surfaces psilab measures repeat their per-vertex
numbers a lot. Only one block's cell texts exist at once, and the bytes are
those of spelling every cell.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np


def read_text(source) -> str:
    """Text of a string, bytes or a readable stream."""
    text = source.read() if hasattr(source, "read") else source
    return text.decode() if isinstance(text, bytes) else text


def undecodable(exc: UnicodeDecodeError) -> tuple[int, str]:
    """(1-based line, problem) of the byte ``exc`` could not decode, raised by decoding a source in one piece
    from its first byte."""
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
    path = None
    try:
        if not isinstance(source, os.PathLike):
            return _parse_table(source, header, dtypes, None)
        with open(source) as stream:
            # numpy reads a str path through its DataSource, which would fetch a "scheme://" name: make it absolute
            path = os.path.join(os.getcwd(), source) if stream.seekable() else None  # a pipe is read once
            return _parse_table(stream, header, dtypes, path)
    except UnicodeDecodeError as exc:
        if path:  # io and numpy decoded the file in pieces: decode it whole, so the position counts from its start
            with open(path, "rb") as raw:
                try:
                    raw.read().decode(exc.encoding)
                except UnicodeDecodeError as whole:
                    exc = whole
        raise ValueError("line {}: {}".format(*undecodable(exc))) from None


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


_BLOCK = 16384  # rows formatted at a time: fewer rows spell a repeated value in more blocks, more hold more cells


def _texts(values: np.ndarray, spell) -> list[str]:
    """The text of each item of a 1-d array of bools, integers or floats. Each distinct item, told apart by its
    bits, is spelled once: ``spell`` maps the list of their ``.tolist()`` values to their texts."""
    distinct, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    return np.array(spell(distinct.view(values.dtype).tolist()), dtype=object)[inverse].tolist()


def _str_cells(values: list) -> list[str]:
    return list(map(str, values))


def format_table(header: str, *columns) -> str:
    """CSV text of equal-length columns, arrays or lists, under ``header``: each cell is its ``str`` (an array's
    from ``.tolist()``), and a ``None`` in a list is an empty cell. The rows are formatted a block at a time."""
    blocks = [header + "\n"]
    for start in range(0, min(map(len, columns), default=0), _BLOCK):
        cells = [_texts(c[start:start + _BLOCK], _str_cells) if isinstance(c, np.ndarray)
                 else ["" if x is None else str(x) for x in c[start:start + _BLOCK]] for c in columns]
        blocks.append("\n".join(map(",".join, zip(*cells))) + "\n")
    return "".join(blocks)


_ITEM_LINES = json.JSONEncoder(separators=(",\n", ": "))  # an item per line; an encoded string holds no raw line break


def _json_cells(values: list) -> list[str]:
    return _ITEM_LINES.encode(values)[1:-1].split(",\n")  # numbers and booleans: no item holds the separator


def indented_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2)`` of a dict of scalars, flat lists, 1-d arrays (as their ``.tolist()``),
    flat dicts and lists of non-empty flat dicts, one C-encoder call per value or array block: each item on a
    line of its own, the indentation put in by ``str.replace``. A flat dict ends in a scalar, so "},\n{" falls
    only between the dicts of a list."""
    items = []
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            text = ",\n    ".join([",\n    ".join(_texts(value[start:start + _BLOCK], _json_cells))
                                    for start in range(0, len(value), _BLOCK)])
            text = "[\n    " + text + "\n  ]" if text else "[]"
        else:
            text = _ITEM_LINES.encode(value)
        if isinstance(value, list) and value and isinstance(value[0], dict):
            text = text[2:-2].replace(",\n", ",\n      ").replace("},\n      {", "\n    },\n    {\n      ")
            text = "[\n    {\n      " + text + "\n    }\n  ]"
        elif isinstance(value, (list, dict)) and value:
            text = text[0] + "\n    " + text[1:-1].replace(",\n", ",\n    ") + "\n  " + text[-1]
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}" if items else "{}"
