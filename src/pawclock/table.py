"""The one CSV writer: a header line, then one row per index of 1-D columns.

The bytes are those numpy's savetxt writes for ``np.column_stack(columns)``
with fmt="%.17g", delimiter=",", header=",".join(names), comments="" and
newline="\\n".  Instead of formatting every cell, each column formats every
bitwise-distinct value it holds once, over the whole table, and the rows
gather those texts; grid coordinates repeat by construction, and so do many
density values.  Values are told apart by their bits, so -0.0 and 0.0 keep
their own text.  The cost beyond the columns is one index array per column,
in the smallest unsigned type that counts its distinct values, plus the text
of each distinct value; rows are still assembled and written in blocks.
"""

from __future__ import annotations

import numpy as np

# Rows assembled and written per block.
_BLOCK_ROWS = 1 << 14


def _distinct_text(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The "%.17g" text of each distinct bit pattern, and each cell's index into it."""
    distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array(list(map(b"%.17g".__mod__, distinct.view(np.float64).tolist())),
                    dtype=object)
    return text, inverse.astype(np.min_scalar_type(distinct.size))


def write_table(path, names, columns) -> None:
    """Write equal-length 1-D float columns under the header ``names`` as CSV."""
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    if len(names) != len(columns):
        raise ValueError(f"{len(names)} names for {len(columns)} columns")
    if any(column.ndim != 1 for column in columns):
        raise ValueError("columns must be 1-D")
    rows = len(columns[0]) if columns else 0
    if any(len(column) != rows for column in columns):
        raise ValueError("columns differ in length")
    cells = [_distinct_text(column) for column in columns]
    line = b",".join([b"%s"] * len(columns)) + b"\n"
    with open(path, "wb") as handle:
        handle.write(",".join(names).encode("utf-8") + b"\n")
        for start in range(0, rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, rows)
            block = np.empty((stop - start, len(columns)), dtype=object)
            for index, (text, inverse) in enumerate(cells):
                block[:, index] = text[inverse[start:stop]]
            handle.write((line * (stop - start)) % tuple(block.ravel().tolist()))
