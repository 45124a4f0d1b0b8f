"""The one CSV reader and the one CSV writer behind every rankflow file.

Rows are written a block at a time with one ``%`` operation. The bytes match
``csv.writer``'s default dialect for numeric fields: no quoting, ``\\r\\n`` ends.
"""

from __future__ import annotations

import csv

import numpy as np

_BLOCK = 8192  # rows per % operation; keeps the temporaries small


def read_columns(path, header, types) -> list[tuple]:
    """Columns of a CSV file with the given header, each field passed through
    its entry of ``types``. Blank lines are skipped; errors carry line numbers."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None:
            raise ValueError(f"{path}: empty file")
        if [h.strip() for h in got] != list(header):
            raise ValueError(f"{path}: expected header {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, {row!r}")
            try:
                rows.append([conv(v) for conv, v in zip(types, row)])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return list(zip(*rows)) or [()] * len(header)


def open_csv(path, header):
    """Open ``path`` for writing and emit the header row."""
    fh = open(path, "w", newline="")
    fh.write(",".join(header) + "\r\n")
    return fh


def write_rows(fh, fmt: str, *columns) -> None:
    """Write equal-length ``columns`` (numpy arrays or ranges) as rows of the
    per-row %-format ``fmt``; numpy blocks go through ``tolist`` first."""
    n, k = len(columns[0]), len(columns)
    line = fmt + "\r\n"
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        flat = [None] * ((hi - lo) * k)
        for j, col in enumerate(columns):
            part = col[lo:hi]
            flat[j::k] = part.tolist() if isinstance(part, np.ndarray) else part
        fh.write((line * (hi - lo)) % tuple(flat))
