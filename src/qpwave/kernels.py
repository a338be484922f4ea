"""Shared array kernels: index packing, grouped reduction, exact surd signs, phi1.

All reductions here are deterministic: rows are ordered by a stable lexsort
before ``reduceat``, so results do not depend on input order.
"""

from __future__ import annotations

import numpy as np


def pack_rows(idx: np.ndarray) -> np.ndarray:
    """Pack integer rows (M, r) into single int64 keys that order as the rows
    do lexicographically.

    Each column is offset by its own minimum and takes the bits of its own
    range [min, max], so a wide column does not widen the others and keys are
    only comparable within one call.  Falls back to a lexicographic rank when
    the ranges together need more than 62 bits.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim == 1:
        idx = idx[:, None]
    m, r = idx.shape
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    # column by column: an axis=0 reduction over (M, r) rows is slower
    cols = [idx[:, j] for j in range(r)]
    lows = [int(c.min()) for c in cols]
    bits = [(int(c.max()) - lo).bit_length() for c, lo in zip(cols, lows)]
    if sum(bits) <= 62:
        out = cols[0] - lows[0]
        for c, lo, b in zip(cols[1:], lows[1:], bits[1:]):
            out <<= b
            out += c - lo
        return out
    # rank fallback: unique rows -> dense ids
    _, inv = np.unique(idx, axis=0, return_inverse=True)
    return inv.astype(np.int64)


def group_boundaries(sorted_keys: np.ndarray) -> np.ndarray:
    """Start offsets of equal-key runs in an already sorted key array; the rows
    of a 2-d array compare whole."""
    if len(sorted_keys) == 0:
        return np.zeros(0, dtype=np.intp)
    cols = sorted_keys.T if sorted_keys.ndim > 1 else [sorted_keys]
    change = np.zeros(len(sorted_keys), dtype=bool)
    change[0] = True
    for c in cols:  # column by column: faster than .any(axis=1) on narrow rows
        change[1:] |= c[1:] != c[:-1]
    return np.flatnonzero(change)


def group_sum(idx: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``values`` over equal rows of ``idx``; returns (unique rows, sums) in
    lexicographic row order.  Rows that already strictly increase come back
    as given (the input arrays, not copies)."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim == 1:
        idx = idx[:, None]
    if len(idx) == 0:
        return idx, np.asarray(values)
    keys = pack_rows(idx)
    if (keys[1:] > keys[:-1]).all():  # already sorted and unique: every group is one row
        return idx, np.asarray(values)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    idx = idx[order]
    values = np.asarray(values)[order]
    cuts = group_boundaries(keys)
    return idx[cuts], np.add.reduceat(values, cuts)


def surd_sign(a, b, D: int) -> np.ndarray:
    """Exact elementwise sign (int64) of a + b sqrt(D), D >= 1 an integer, on object
    arrays of Python ints or Fractions: the sign a and b share, or else the sign of
    the term that dominates in a^2 against D b^2 (equal only for a square D: zero)."""
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    sa, sb = np.sign(a).astype(np.int64), np.sign(b).astype(np.int64)
    out = np.where(sa != 0, sa, sb)
    mixed = sa * sb < 0
    out[mixed] *= np.sign(a[mixed] ** 2 - D * b[mixed] ** 2).astype(np.int64)
    return out


def phi1(z: np.ndarray | complex) -> np.ndarray | complex:
    """(e^z - 1)/z, continuous through z = 0.

    Near zero the direct quotient cancels catastrophically; a 4-term Taylor
    polynomial takes over below |z| = 1e-4 (error there ~ |z|^4/120 < 1e-18).
    """
    scalar = np.isscalar(z)
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    out = np.where(small, 1 + z / 2 + z * z / 6 + z * z * z / 24, np.expm1(zs) / zs)
    return complex(out[()]) if scalar else out
