"""Per-sweep residual records and the byte-stable writers of every output.

:class:`ResidualTrace` holds the sweeps; :func:`write_csv` and
:func:`write_rows` write CSVs and plain-text matrices (scheme files and
``rpca`` matrices), every float by ``repr`` (:func:`format_float`), the
shortest form that round-trips, so identical runs give identical bytes.
"""

import numpy as np


def format_float(v):
    """Shortest round-trip decimal representation of a float."""
    return repr(float(v))


class ResidualTrace:
    """Columnar per-sweep records of named values; row ``k`` is sweep ``k``."""

    stop_reason = None  # why the run ended, as minsplit.splitting.iterate sets it

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
