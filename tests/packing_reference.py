"""Reference layout functions, for the tests to check the encoder's layout against.

``prefix_roots`` finds each row's root by sorting the trimmed prefixes as
tuples, and ``pack`` places segments by a linear first-fit scan: the plain
loops that ``model.PrefixTable.roots`` and ``model._pack`` must equal
exactly. Not a test module: pytest collects only ``test_*.py``.
"""

from typing import Sequence

import numpy as np


def prefix_roots(trimmed: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Index of each row's root: a row that it is a prefix of and that is a prefix of no other row.

    In lexicographic order every row that starts with ``a`` follows ``a``
    directly, so ``a`` is a prefix of some other row if and only if it is a
    prefix of the row right after it, whose root it then shares. Equal rows
    share a root.
    """
    root = np.arange(len(trimmed))
    order = sorted(range(len(trimmed)), key=trimmed.__getitem__)
    for k in range(len(order) - 2, -1, -1):
        row, nxt = order[k], order[k + 1]
        if trimmed[nxt][: len(trimmed[row])] == trimmed[row]:
            root[row] = root[nxt]
    return root


def pack(lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """First-fit-decreasing packing of segments into rows as wide as the longest.

    Returns each segment's first token as a flat index into the (rows, width)
    layout, and the number of rows.
    """
    width = int(lengths.max())
    size = lengths.tolist()
    free: list[int] = []  # space left in each row
    start = np.empty(len(size), dtype=np.int64)
    full = 0  # every row before this one is full
    for i in np.argsort(-lengths, kind="stable").tolist():
        while full < len(free) and free[full] == 0:
            full += 1
        for row in range(full, len(free)):
            if free[row] >= size[i]:
                break
        else:
            row = len(free)
            free.append(width)
        start[i] = row * width + width - free[row]
        free[row] -= size[i]
    return start, len(free)
