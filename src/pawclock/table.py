"""The one CSV writer: a header line, then one row per index of 1-D columns.

The bytes are those numpy's savetxt writes for ``np.column_stack(columns)``
with fmt="%.17g", delimiter=",", header=",".join(names), comments="" and
newline="\\n".  Instead of formatting every cell, each block of rows formats
every bitwise-distinct value of a column once and gathers the strings; grid
coordinates repeat by construction, and so do many density values.  Values
are told apart by their bits, so -0.0 and 0.0 keep their own text.
Deduplicating per block, not over the whole table, bounds the memory.
"""

from __future__ import annotations

import numpy as np

# Rows formatted and written per block.
_BLOCK_ROWS = 1 << 14


def _cell_text(column: np.ndarray) -> np.ndarray:
    """The "%.17g" text of every cell, formatting each distinct bit pattern once."""
    distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array(list(map("%.17g".__mod__, distinct.view(np.float64).tolist())),
                    dtype=object)
    return text[inverse]


def write_table(path, names, columns) -> None:
    """Write equal-length float columns under the header ``names`` as CSV."""
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    rows = len(columns[0]) if columns else 0
    if any(len(column) != rows for column in columns):
        raise ValueError("columns differ in length")
    line = ",".join(["%s"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(names) + "\n")
        for start in range(0, rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, rows)
            cells = np.empty((stop - start, len(columns)), dtype=object)
            for index, column in enumerate(columns):
                cells[:, index] = _cell_text(column[start:stop])
            handle.write((line * (stop - start)) % tuple(cells.ravel().tolist()))
