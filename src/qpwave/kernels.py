"""Shared array kernels: index packing, grouped reduction, exact surd signs, and
phi1(theta) = (e^{i theta} - 1)/(i theta) of a real phase theta: the mean of
e^{i r s} over s in [0, T] at theta = r T, evaluated in real arithmetic.

All reductions here are deterministic: rows are ordered by a stable sort of
row-tagged keys (``stable_order``: packed int64 keys, lexicographic row
order, each tagged with its row number) before ``reduceat``, so results do
not depend on input order.
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


def stable_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, sorted keys) of non-negative int64 keys: the stable argsort and
    keys[order], by one plain sort of row-tagged keys.

    Each key is shifted left by b = bit_length(n - 1) bits and its row number
    ORed into the freed bits, so all tagged keys are distinct and any sort
    returns them in the stable order; the low bits are the order and the high
    bits the sorted keys.  Keys too wide for the tag (key bits + b > 63) are
    first replaced by their dense rank.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    b = max(n - 1, 0).bit_length()
    uniq = None
    if n and int(keys.max()).bit_length() + b > 63:
        uniq, keys = np.unique(keys, return_inverse=True)
    tagged = keys << b
    tagged |= np.arange(n)
    tagged.sort()
    order = tagged & ((1 << b) - 1)
    tagged >>= b
    return order, tagged if uniq is None else uniq[tagged]


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
    order, keys = stable_order(keys)
    cuts = group_boundaries(keys)
    return idx[order[cuts]], np.add.reduceat(np.asarray(values)[order], cuts)


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
