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


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct bit patterns of a float64 array, ascending as int64, and
    each element's index into them.

    One argsort, then not_equal, cumsum and a scatter straight into the
    smallest unsigned type that counts the distinct values: the peak is 17
    bytes per element plus the distinct values, ~2.1x the bytes of a column
    of many repeats, where np.unique(return_inverse=True) takes ~5.1x.
    """
    bits = values.view(np.int64).ravel()
    order = np.argsort(bits)
    ranked = bits[order]
    first = np.empty(ranked.size, dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    distinct = ranked[first].view(np.float64)
    del ranked
    inverse = np.empty(bits.size, dtype=np.min_scalar_type(distinct.size))
    rank = np.cumsum(first, dtype=inverse.dtype)
    rank -= 1
    inverse[order] = rank
    return distinct, inverse


def _distinct_text(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The "%.17g" text of each distinct bit pattern, and each cell's index into it."""
    distinct, inverse = _distinct(column)
    text = np.array(list(map(b"%.17g".__mod__, distinct.tolist())), dtype=object)
    return text, inverse


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
