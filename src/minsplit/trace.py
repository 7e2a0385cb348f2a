"""Per-iteration residual records and deterministic CSV serialisation.

Floats are written with ``repr``, the shortest representation that
round-trips to the same double, so identical runs produce identical bytes.
The same rule serves the plain-text matrix files of schemes and of the
recovered ``rpca`` matrices.
"""

import math

import numpy as np

from .errors import SchemeParseError


def format_float(v):
    """Shortest round-trip decimal representation of a float."""
    return repr(float(v))


class ResidualTrace:
    """Columnar per-sweep records of named values; row ``k`` is sweep ``k``."""

    def __init__(self, columns):
        self.column_names = list(columns)
        self.columns = {name: [] for name in self.column_names}

    def append(self, values):
        for name in self.column_names:
            self.columns[name].append(float(values[name]))

    def __len__(self):
        return len(self.columns[self.column_names[0]]) if self.column_names else 0

    def last(self, name):
        return self.columns[name][-1]

    def rows(self, names=None):
        names = self.column_names if names is None else list(names)
        for idx in range(len(self)):
            yield [str(idx + 1)] + [format_float(self.columns[n][idx]) for n in names]


def write_csv(path, header, rows):
    """Write pre-formatted rows (lists of strings) under a header line."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_rows(fh, arr):
    """Write a matrix, or a vector as one row, as whitespace-separated lines."""
    for row in np.atleast_2d(np.asarray(arr, dtype=np.float64)):
        fh.write(" ".join(format_float(v) for v in row) + "\n")


def read_blocks(path, layout):
    """Parse a header line followed by whitespace-separated matrix blocks.

    Blank lines and lines starting with ``#`` are skipped.  ``layout`` maps
    the header's fields to ``(shapes, build)``: ``shapes`` lists the blocks
    as ``(name, rows, cols)`` in file order, and ``build(**blocks)`` makes
    the result from the parsed arrays.  A ``ValueError`` from ``layout``
    marks a malformed header, one from ``build`` inconsistent blocks.  Every
    row must hold ``cols`` finite numbers, and the file must end after the
    last block.

    Raises :class:`SchemeParseError` with a 1-based line number on malformed
    input.
    """
    with open(path) as fh:
        lines = [(no, line.strip()) for no, line in enumerate(fh, start=1)
                 if line.strip() and not line.strip().startswith("#")]
    if not lines:
        raise SchemeParseError(1, "empty file")
    head_no, header = lines[0]
    try:
        shapes, build = layout(header.split())
    except ValueError as exc:
        raise SchemeParseError(head_no, f"bad header {header!r}: {exc}")
    cursor = 1
    blocks = {}
    for name, rows, cols in shapes:
        if rows < 1 or cols < 1:
            raise SchemeParseError(head_no, f"header gives {name} the shape {rows}x{cols}")
        data = []
        for r in range(rows):
            if cursor >= len(lines):
                raise SchemeParseError(
                    lines[-1][0], f"unexpected end of file while reading {name}"
                )
            no, line = lines[cursor]
            cursor += 1
            fields = line.split()
            if len(fields) != cols:
                raise SchemeParseError(
                    no, f"{name} row {r + 1} needs {cols} entries, got {len(fields)}"
                )
            try:
                data.append([float(f) for f in fields])
            except ValueError:
                raise SchemeParseError(no, f"non-numeric entry in {name} row {r + 1}")
            if not all(map(math.isfinite, data[-1])):
                raise SchemeParseError(no, f"{name} row {r + 1} contains non-finite entries")
        blocks[name] = np.array(data)
    if cursor != len(lines):
        raise SchemeParseError(lines[cursor][0], f"trailing content after {name} block")
    try:
        return build(**blocks)
    except ValueError as exc:
        raise SchemeParseError(head_no, str(exc))
