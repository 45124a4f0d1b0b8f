"""The one CSV reader and the one CSV writer behind every rankflow file.

Rows match ``csv.writer``'s default dialect for numeric fields: no quoting,
``\\r\\n`` ends, and each number as Python's ``%d`` or ``%.12g`` writes it. A
block of rows is a byte matrix: each field is its digit bytes ANDed with a
mask row that zeroes the unused bytes and supplies the point and leading
zeros, and deleting the zero bytes leaves the rows. Python formats the rare
value whose rounding is in doubt, or that ``%g`` writes in exponent notation.
"""

from __future__ import annotations

import csv
import math

import numpy as np

_BLOCK = 16384  # rows per block

# "0000".."9999" in memory order, from the two-digit table: as uint32 for %d,
# and as uint64 with a 0xff byte after each digit for %.12g (entry 10000 is
# all 0xff). _KEPT[g] is how many digits of group g stay without trailing zeros.
_DIGIT = np.arange(48, 58, dtype=np.uint8)  # ASCII "0".."9"
_TWO = np.stack(np.broadcast_arrays(_DIGIT[:, None], _DIGIT), -1).reshape(100, 2)
_FOUR = np.concatenate(np.broadcast_arrays(_TWO[:, None], _TWO), -1).reshape(10000, 4)
_GROUP = _FOUR.view(np.uint32).ravel()
_SPACED = np.full((10001, 8), 255, dtype=np.uint8)
_SPACED[:10000, ::2] = _FOUR
_SPACED = _SPACED.view(np.uint64).ravel()
_KEPT = np.where(np.arange(100) % 10 > 0, 2, np.arange(100) > 0)
_KEPT = np.where(_KEPT > 0, _KEPT + 2, _KEPT[:, None]).ravel()

# a %.12g field is a prefix word "...0.000", then digit j at byte 8 + 2j and
# a free byte after it. A fixed number (e >= 0) keeps max(e + 1, kept) digits
# and a point after digit e; a small one (e < 0) keeps "0.", -e - 1 zeros and
# its kept digits. Mask row (e + 4) * 13 + kept.
_POS, _E, _K = np.arange(32), np.arange(-4, 12)[:, None, None], np.arange(13)[:, None]
_DIGITS_KEPT = np.where(_E < 0, _K, np.maximum(_E + 1, _K))
_G_MASK = np.select(
    [(_POS >= 8) & (_POS % 2 == 0) & ((_POS - 8) // 2 < _DIGITS_KEPT),
     (_E >= 0) & (_POS == 9 + 2 * _E) & (_K > _E + 1),
     (_E < 0) & (_POS >= 3) & (_POS < 4 - _E)],
    [255, ord("."), np.array(list(b"\0\0\0" + b"0.000" + bytes(24)))],
).astype(np.uint8).reshape(-1, 32)
_POW10 = np.array([float(10 ** k) for k in range(16)])  # exact doubles
# a %d field is 12 zero-padded digits; mask row d - 1 keeps the last d
_D_MASK = np.where(np.arange(12) >= 11 - np.arange(12)[:, None], 255, 0).astype(np.uint8)
# _D_ROW[p, g]: the mask row of a value whose leading group is g at group p
# (0 high, 1 mid, 2 low); 0 for g = 0
_D_ROW = np.repeat(np.arange(4, dtype=np.int8), [10, 90, 900, 9000]) + np.int8([[8], [4], [0]])
_D_ROW[:, 0] = 0


def finite_float(text: str) -> float:
    """A field as a float, rejecting NaN and infinities."""
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v}")
    return v


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
    """Open ``path`` for binary writing and emit the header row."""
    fh = open(path, "wb")
    fh.write((",".join(header) + "\r\n").encode())
    return fh


def _general_field(x):
    """(True where Python must format, digit bytes, mask) of ``%.12g``."""
    ok = (x > 0.0) & (x < np.inf)
    if not ok.all():
        x = np.where(ok, x, 1.0)
    e = np.floor(np.log10(x)).astype(np.int64)
    y = x * _POW10.take(11 - e, mode="clip")
    if not (y.min() >= 1e11 and y.max() < 1e12):  # where log10 was one off
        e += (y >= 1e12).astype(np.int64) - (y < 1e11)
        y = x * _POW10.take(11 - e, mode="clip")
    m = np.rint(y)
    carry = m == 1e12  # rounds up to the next power of ten
    e += carry
    # y is within 2**-13 of x * 10**k, so m is its correct rounding unless
    # y is within 2**-11 of a tie
    odd = (~ok | (e < -4) | (e > 11) | (m < 1e11) | (m > 1e12)
           | (np.abs(y - m) >= 0.5 - 2.0 ** -11))
    if odd.any() or carry.any():
        np.copyto(m, 1e11, where=odd | carry)
    # the 4-digit groups [high, mid, low] of m, split in exact float
    # arithmetic below 1e12, after the prefix word when a value needs it
    words = np.empty((m.size, 3 + bool(np.any(e < 0))), dtype=np.int64)
    if words.shape[1] == 4:
        words[:, 0] = 10000
    top = np.floor(m / 1e4)
    words[:, -1] = m - top * 1e4
    words[:, -3] = high = np.floor(top / 1e4)
    words[:, -2] = top - high * 1e4
    # the kept digits of the low group, or of mid or high where it is zero
    e *= 13
    e += _KEPT.take(words[:, -1]) + 60  # mask row (e + 4) * 13 + kept
    zero = np.flatnonzero(words[:, -1] == 0)
    mid = words[zero, -2]
    e[zero] += np.where(mid > 0, _KEPT.take(mid) - 4, _KEPT.take(words[zero, -3]) - 8)
    mask = _G_MASK[:, 32 - 8 * words.shape[1]:].take(e, axis=0, mode="clip")
    return odd, _SPACED.take(words).view(np.uint8), mask


def _int_field(v):
    """Like ``_general_field``, in as many 4-digit groups as the longest needs."""
    if v.dtype.kind not in "iu":
        raise ValueError(f"a %d field needs integers, got {v.dtype}")
    odd = (v < 0) | (v >= 10 ** 12)
    if odd.any():
        v = np.where(odd, 0, v)
    top = int(v.max())
    groups = 1 + (top >= 10 ** 4) + (top >= 10 ** 8)
    words = np.empty((v.size, groups), dtype=np.int64)
    words[:, -1] = v
    for c in range(groups - 1, 0, -1):  # split off the low group
        words[:, c - 1] = words[:, c] // 10 ** 4
        words[:, c] -= words[:, c - 1] * 10 ** 4
    # mask row digits - 1: the largest of each group's row from the table
    digits = _D_ROW[3 - groups].take(words[:, 0])
    for c in range(1, groups):
        np.maximum(digits, _D_ROW[3 - groups + c].take(words[:, c]), out=digits)
    return odd, _GROUP.take(words).view(np.uint8), _D_MASK[:, 12 - 4 * groups:].take(digits, axis=0)


def write_rows(fh, fmt: str, *columns) -> None:
    """Write equal-length ``columns`` (numpy arrays or ranges) to the binary
    ``fh`` as rows of ``fmt``: ``%d`` and ``%.12g`` fields joined by commas."""
    kinds = fmt.split(",")
    if not set(kinds) <= {"%d", "%.12g"} or len(kinds) != len(columns):
        raise ValueError(f"row format {fmt!r} does not fit {len(columns)} columns")
    for lo in range(0, len(columns[0]), _BLOCK):
        values, fields = [], []
        for kind, col in zip(kinds, columns):
            part = col[lo:lo + _BLOCK]
            if isinstance(part, range):
                part = np.arange(part.start, part.stop, part.step)
            values.append(np.asarray(part, None if kind == "%d" else np.float64))
            fields.append((_int_field if kind == "%d" else _general_field)(values[-1]))
        rows = values[0].size
        b = np.empty((rows, sum(w.shape[1] + 1 for _, w, _ in fields) + 1), dtype=np.uint8)
        s = 0
        for _, words, mask in fields:  # each field, then its , or \r
            np.bitwise_and(words, mask, out=b[:, s:s + words.shape[1]])
            s += words.shape[1] + 1
            b[:, s - 1] = ord(",")
        b[:, -2:] = [ord("\r"), ord("\n")]
        # runs of laid-out rows alternate with runs that Python formats
        odd = np.logical_or.reduce([f[0] for f in fields])
        cuts = [0, *(np.flatnonzero(odd[1:] != odd[:-1]) + 1).tolist(), rows]
        pieces = []
        for a, z in zip(cuts, cuts[1:]):
            if odd[a]:
                flat = [None] * ((z - a) * len(values))
                for j, v in enumerate(values):
                    flat[j::len(values)] = v[a:z].tolist()
                pieces.append((((fmt + "\r\n") * (z - a)) % tuple(flat)).encode())
            else:
                pieces.append(b[a:z].tobytes().translate(None, b"\0"))
        fh.write(b"".join(pieces))
