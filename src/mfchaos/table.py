"""The CSV format of every artifact: a header line, then comma-joined cells.

Rows come in blocks, each a tuple of equal-length columns: a numpy
array, a sequence of numbers or a list of `str` cells. Numbers are
written by `repr` of the Python number (arrays through `tolist()`, numpy
scalars through `item()`, so a float64 prints as a Python float that
reads back exactly), `str` cells as they are. Long tables pass one block
per grid time, so one block's text is held at once.
"""

from __future__ import annotations

import numpy as np


def _cells(column) -> list[str]:
    if isinstance(column, np.ndarray):
        column = column.tolist()
    else:
        column = [c.item() if isinstance(c, np.generic) else c for c in column]
    return [c if isinstance(c, str) else repr(c) for c in column]


def write_table(path, header: str, blocks) -> None:
    """Write `header`, then the rows of each block in turn, to `path`."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for block in blocks:
            rows = zip(*(_cells(c) for c in block), strict=True)
            fh.write("".join(",".join(row) + "\n" for row in rows))
