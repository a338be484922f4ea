"""Shared array kernels: row grouping, grouped reduction, exact surd signs, and
phi1(theta) = (e^{i theta} - 1)/(i theta) of a real phase theta: the mean of
e^{i r s} over s in [0, T] at theta = r T, evaluated in real arithmetic.

All reductions here are deterministic: rows are ordered by one stable
lexicographic sort (``sort_rows``: packed int64 keys, each tagged with its
row number) before ``reduceat``, so results do not depend on input order.
"""

from __future__ import annotations

import numpy as np


def sort_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts) of an (n, r) integer array, or of a 1-d array taken as
    one column: the stable lexicographic argsort of the rows, and the offsets
    in that order where each run of equal rows begins.

    Each column is offset by its own minimum and packed into the bits of its
    own range; the row number is tagged into the low b = bit_length(n - 1)
    bits, so all keys are distinct and one plain sort returns the stable
    order.  Rows whose column bits and tag together exceed 63 bits are first
    replaced by their dense lexicographic rank, which is below n.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim == 1:
        rows = rows[:, None]
    n = len(rows)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.intp)
    b = (n - 1).bit_length()
    # column by column: an axis=0 reduction over (n, r) rows is slower
    cols = [rows[:, j] for j in range(rows.shape[1])]
    lows = [int(c.min()) for c in cols]
    bits = [(int(c.max()) - lo).bit_length() for c, lo in zip(cols, lows)]
    if sum(bits) + b > 63:
        cols, lows = [np.unique(rows, axis=0, return_inverse=True)[1].reshape(n)], [0]
    key = cols[0] - lows[0]
    for c, lo, w in zip(cols[1:], lows[1:], bits[1:]):
        key <<= w
        key += c - lo
    key <<= b
    key |= np.arange(n)
    key.sort()
    order = key & ((1 << b) - 1)
    key >>= b
    return order, group_boundaries(key)


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
    if _rows_increase(idx):  # every group is one row, already in order: no sort
        return idx, np.asarray(values)
    order, starts = sort_rows(idx)
    return idx[order[starts]], np.add.reduceat(np.asarray(values)[order], starts)


def _rows_increase(rows: np.ndarray) -> bool:
    """Whether the rows of an (n, r) array strictly increase lexicographically.
    Column 0 is tested for non-decreasing first, which rejects most unsorted
    tables in one pass; then column by column, a row exceeds the one before
    it at the first column where they differ."""
    first = rows[:, 0]
    if not (first[1:] >= first[:-1]).all():
        return False
    greater = first[1:] > first[:-1]
    tied = ~greater
    for c in rows.T[1:]:
        greater |= tied & (c[1:] > c[:-1])
        tied &= c[1:] == c[:-1]
    return bool(greater.all())


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


def phi1(theta: np.ndarray | float) -> np.ndarray | complex:
    """(e^{i theta} - 1)/(i theta) for real theta, continuous through theta = 0
    (value 1); a Python complex for a scalar argument.

    Evaluated as e^{i h} sin(h)/h with h = theta/2, in real arithmetic: no
    difference of nearly equal terms anywhere, so no small-argument branch.
    sin(h) and cos(h) are written into the result's imaginary and real parts
    and h is overwritten by sin(h)/h, so beside the result only h and a
    boolean mask are allocated.  A complex argument raises TypeError (the
    phase is real).
    """
    if np.iscomplexobj(theta):
        raise TypeError("phi1 takes the real phase theta, not a complex argument")
    scalar = np.isscalar(theta)
    h = np.divide(theta, 2, out=np.empty(np.shape(theta)), dtype=float)
    out = np.empty(h.shape, dtype=complex)
    np.sin(h, out=out.imag)
    np.cos(h, out=out.real)
    zero = h == 0
    with np.errstate(invalid="ignore"):
        sinc = np.divide(out.imag, h, out=h)
    sinc[zero] = 1.0
    out.real *= sinc
    out.imag *= sinc
    return complex(out[()]) if scalar else out
