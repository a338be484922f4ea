"""Mean-value L^p norms and exact space-time norms of free evolutions.

For a finite mode sum the long-interval average of |f|^p (even p) is a tuple
sum over index combinations with matching sums; grouping the p/2-fold
coefficient products by their index sum turns it into a sum of squared group
totals, which is exact, manifestly nonnegative, and O(M^(p/2)).

Both space-time norms start from one tuple fold, and so does the first
Picard iterate (``nls.first_picard_iterate`` folds its ``power`` plain
factors side by side).  A factor repeated from the one before it
(``mixed_norm_free`` passes [f] * k) is enumerated as multisets of rows, each
once with its multinomial weight, so [f, f] builds M(M+1)/2 rows instead of
M^2.  The rows are grouped once: sorted by index sum and, on an exact
lattice, merged by phase key through one stable lexicographic sort of the
rows (``kernels.sort_rows``); neither norm sorts them again for that.

The windowed space-time norm of a free evolution carries one time integral
per pair of tuples with equal index sum, T phi1(T(r_i - r_j)) with the real
phase theta = T(r_i - r_j) and phi1(theta) = (e^{i theta} - 1)/(i theta),
evaluated as e^{i theta/2} sin(theta/2)/(theta/2) in real arithmetic
(``kernels.phi1``).  Groups of equal size are paired in (k, s, s) blocks,
and the phases are factored: with e_i = e^{iT r_i} (taken relative to the
group's first rate) the kernel is (e_i conj(e_j) - 1) / (i(r_i - r_j)), so
only off-diagonal pairs with |T(r_i - r_j)| < 1, where that numerator
cancels, evaluate phi1; the diagonal is exactly T.  The globally averaged
norm keeps only tuples whose dispersive phases cancel exactly.  On an exact
lattice (any d) that is decided on int64 phase keys, the rates scaled by the
generators' common denominator, and is the fold's merge; in float mode rate
sums coincide within FLOAT_SUM_TOL of the summed sizes of their terms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from . import budget as _budget
from .errors import NumericConsistencyError
from .evolution import DispersionSymbol
from .kernels import group_boundaries, phi1, sort_rows
from .trigpoly import FLOAT_SUM_TOL, Linspace, TrigPoly, multiply

__all__ = [
    "MixedNormSpec",
    "mean_value",
    "mean_value_numeric",
    "lp_norm_exact",
    "lp_norm_numeric",
    "mixed_norm_free",
    "windowed_product_norm_sq",
    "global_product_norm_sq",
    "fit_exponent",
    "FitResult",
    "predicted_exponent",
    "ExponentPrediction",
]

IMAG_RESIDUE_TOL = 1e-12
# Pairs per (k, s, s) block of the windowed pairing: one numpy pass per block
# while its complex temporaries stay a few MB.
PAIR_BLOCK = 1 << 18
# Samples per chunk of the quadrature sums: 512 KB of complex samples, so a
# chunk and its |f|^p temporary stay in cache.
SUM_CHUNK = 1 << 15


@dataclass(frozen=True)
class MixedNormSpec:
    """Even integrability p plus the time mode: [0,T] window or global mean."""

    p: int = 4
    time_mode: str = "window"
    T: float | None = None

    def __post_init__(self):
        if self.p not in (2, 4, 6):
            raise ValueError("p must be one of 2, 4, 6")
        if self.time_mode not in ("window", "global"):
            raise ValueError("time_mode must be 'window' or 'global'")
        if self.time_mode == "window":
            if self.T is None or not self.T > 0:
                raise ValueError("windowed mode needs T > 0")


# -- mean value ------------------------------------------------------------------


def mean_value(f: TrigPoly) -> complex:
    """Long-interval average of f: the zero-index coefficient, exactly."""
    return f.coeff((0,) * f.spec.rank)


def _check_window(L) -> None:
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"the window half-width L must be positive and finite, got {L}")


def _trapezoid_mean(f: TrigPoly, L: float, n: int, term=None):
    """Trapezoid-rule mean of term(f) over the n - 1 equal steps of
    ``Linspace(-L, L, n)`` (n >= 2; no term: the samples of f themselves).

    n is checked against the work budget before any sampling; the samples come
    from one ``TrigPoly.evaluate`` call on that grid (block and offset phases,
    d = 1 only; no abscissa array is built).  term maps SUM_CHUNK consecutive
    samples at a time to an array of the same length, so no other array of
    the grid's length is built.  Each chunk is summed by numpy; ``math.fsum``
    adds the chunk sums and minus half of the two endpoint terms exactly (real
    and imaginary parts apart), and the total is divided by n - 1.
    """
    _budget.check(n, what="quadrature grid")
    v = f.evaluate(Linspace(-L, L, n))
    parts = []
    for i in range(0, n, SUM_CHUNK):
        q = v[i : i + SUM_CHUNK]
        if term is not None:
            q = term(q)
        if i == 0:
            parts.append(-0.5 * q[0])
        parts.append(q.sum())
    parts.append(-0.5 * q[-1])
    parts = np.array(parts)
    if np.iscomplexobj(parts):
        return complex(math.fsum(parts.real) / (n - 1), math.fsum(parts.imag) / (n - 1))
    return math.fsum(parts) / (n - 1)


def mean_value_numeric(f: TrigPoly, L: float, points: int = 200_001) -> complex:
    """Trapezoid average over [-L, L] from ``points`` equally spaced samples;
    cross-validates the exact mean.  The samples are f on
    ``Linspace(-L, L, points)``, summed in chunks of ``SUM_CHUNK`` samples;
    ``math.fsum`` adds the chunk sums and minus half of the two endpoint
    samples exactly, real and imaginary parts apart, and the mean is that
    total over points - 1.  ``points`` is checked against the work budget
    before any sampling.  A window that is not positive and finite, or fewer
    than 2 points, raise ``ValueError``."""
    _check_window(L)
    if points < 2:
        raise ValueError(f"the trapezoid average needs at least 2 points, got {points}")
    return _trapezoid_mean(f, L, points)


# -- exact mean L^p norms (even p) ---------------------------------------------------


def _tuple_power(f: TrigPoly, k: int) -> TrigPoly:
    """f^k by k - 1 products with f: its indices are the distinct k-fold index
    sums of f, grouped exactly by ``multiply``, and its coefficients the summed
    products of their tuples.  Each product's outer-sum table is capped like
    a tuple-fold step."""
    g = f
    for _ in range(k - 1):
        _budget.check_memory(len(g) * len(f), what="tuple-power table")
        g = multiply(g, f)
    return g


def lp_norm_exact(f: TrigPoly, p: int) -> float:
    """Mean L^p norm via matched index tuples; p in {2, 4, 6}.  For p = 2k the
    mean of |f|^p is the squared l^2 norm of the coefficients of f^k, whose
    index rows are the k-fold index sums of f (``_tuple_power``)."""
    if p == 2:
        return f.l2_norm()
    if p not in (4, 6):
        raise ValueError("exact mean norms are available for p in {2, 4, 6}")
    if not f:
        return 0.0
    _, v = _tuple_power(f, p // 2).as_arrays()
    return float((v.real**2 + v.imag**2).sum()) ** (1.0 / p)


def lp_norm_numeric(
    f: TrigPoly,
    p: int,
    L: float | None = None,
    min_points_per_period: int = 8,
) -> float:
    """Quadrature estimate of the mean L^p norm over [-L, L]; the independent
    check for ``lp_norm_exact``.

    Without an explicit L the window is sized from f^(p/2)
    (``_tuple_power``, budget-checked as a "coefficient convolution"): its
    indices are the distinct p/2-fold index sums of f, already grouped
    exactly, and the smallest spacing of their sorted float frequencies
    controls the slowest surviving oscillation of |f|^p.  L is 1e4 over that
    gap, or 1e3 if it is 0 (one sum, or coinciding frequencies).  An explicit
    L must be positive and finite (else ``ValueError``).
    |f| is sampled on ``Linspace(-L, L, n)``, n equally spaced points of
    [-L, L] with no abscissa array built, at least ``min_points_per_period``
    per period of the fastest mode (``TrigPoly.evaluate``: block and offset
    phase tables, one matrix product; d = 1 only).  |f|^p is formed and
    summed in chunks of ``SUM_CHUNK`` samples, so no other array of the
    grid's length is built, and ``math.fsum`` adds the chunk sums and minus
    half of the two endpoint values exactly: the trapezoid mean is that total
    over n - 1.
    The grid size n is checked against the work budget before any sampling.
    ``ValueError`` unless p is a positive even integer (the window is sized
    from p/2-fold sums) and ``min_points_per_period`` an integer >= 2 (fewer
    samples per period cannot resolve the fastest mode).
    """
    if not (isinstance(p, numbers.Integral) and p > 0 and p % 2 == 0):
        raise ValueError(f"p must be a positive even integer, got {p!r}")
    if not (isinstance(min_points_per_period, numbers.Integral) and min_points_per_period >= 2):
        raise ValueError(
            f"min_points_per_period must be an integer >= 2, got {min_points_per_period!r}"
        )
    if f.spec.d != 1:
        raise ValueError("numeric mean norms require d = 1")
    if L is not None:
        _check_window(L)
    if not f:
        return 0.0
    max_lam = max(1.0, float(np.abs(f.freqs_float()).max()))
    if L is None:
        gaps = np.diff(np.sort(_tuple_power(f, p // 2).freqs_float()))
        gap = float(gaps.min()) if len(gaps) else 0.0
        L = 1e4 / gap if gap > 0 else 1e3
    step = 2 * math.pi / (min_points_per_period * max_lam)
    n = int(2 * L / step) + 2

    def power(w):
        q = w.real * w.real
        q += w.imag * w.imag
        q **= p / 2
        return q

    return _trapezoid_mean(f, L, n, power) ** (1.0 / p)


# -- space-time norms of free evolutions ------------------------------------------------


def evolved_factor_data(f: TrigPoly, symbol: DispersionSymbol, conjugated: bool = False):
    """Per-mode data of one product factor: (indices, coefficients, phase
    rates, exact phase keys or None).  A conjugated factor carries negated
    indices, coefficients, rates and keys."""
    poly = f.conj() if conjugated else f
    idx, vals = poly.as_arrays()
    rates = symbol.phase_rates(poly)
    keys = symbol.phase_rate_keys(poly)
    if conjugated:
        rates = -rates
        if keys is not None:
            keys = -keys
    return idx, vals, rates, keys


def _factor_datas(polys, symbol):
    """``evolved_factor_data`` per factor; a factor that is the same poly as the
    one before it shares that tuple, which marks it repeated for the fold."""
    datas = []
    for i, f in enumerate(polys):
        datas.append(datas[-1] if i and f is polys[i - 1] else evolved_factor_data(f, symbol))
    return datas


def _fold_tuple_data(datas, scales=None):
    """Combine per-factor mode data into tuple data sorted by index sum: index
    sums, coefficient products, rate sums, and summed exact phase keys (on an
    exact lattice; ValueError if a sum could leave int64) or else the summed
    per-factor float term ``scales`` (None without them).

    A factor whose data is the same object as its predecessor's (a repeated
    poly) takes only row numbers >= the predecessor's row, so every multiset
    of rows is enumerated once and its product carries the multinomial weight
    of its orderings (1 or 2 at k = 2; 1, 3 or 6 at k = 3).  The tuples are one
    ragged outer product of per-factor row-number columns (np.repeat plus
    offsets); every output column is a gather, and rates of a repeated factor
    are summed in sorted-row order, so orderings agree bitwise.  On exact
    lattices one stable lexicographic sort of the rows (index sum, phase key)
    (``sort_rows``) groups them, and equal rows merge: the first keeps its
    rate, the values add.  Float rows are sorted by index sum only, by the
    same kernel.  The work estimate stays the ordered count, the product of
    the factor sizes.
    """
    exact = datas[0][3] is not None
    if exact:
        bound = sum(int(np.abs(d[3]).max(initial=0)) for d in datas)
        if bound > np.iinfo(np.int64).max:
            raise ValueError("tuple phase key sums exceed the int64 range")
    rows = [np.arange(len(datas[0][1]))]
    weight = streak = np.ones(len(rows[0]))
    run, work = 1, len(rows[0])
    for prev, data in zip(datas, datas[1:]):
        size = len(data[1])
        work *= size
        _budget.check(work, what="tuple enumeration")
        last = rows[-1]
        repeated = data is prev
        counts = size - last if repeated else np.full(len(last), size)
        n = int(counts.sum())
        _budget.check_memory(n, what="tuple table")
        parent = np.repeat(np.arange(len(last)), counts)
        row = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
        if repeated:  # weight of a multiset: (run length)! / prod(multiplicity!)
            base = last[parent]
            row += base
            run += 1
            streak = np.where(row == base, streak[parent] + 1, 1)
            weight = weight[parent] * run / streak  # exact: small integers
        else:
            run, streak = 1, np.ones(n)
            weight = weight[parent]
        rows = [r[parent] for r in rows] + [row]

    def gather(per_factor, op=np.add):
        return reduce(op, (x[r] for x, r in zip(per_factor, rows)))

    val, rate = gather([d[1] for d in datas], np.multiply), gather([d[2] for d in datas])
    if (weight > 1).any():
        val *= weight
    # integer columns one at a time: row gathers of 2-d arrays are slower
    ints = [np.hstack([d[0], d[3]]) if exact else d[0] for d in datas]
    table = np.empty((len(val), ints[0].shape[1]), dtype=np.int64)
    for j in range(table.shape[1]):
        table[:, j] = gather([x[:, j] for x in ints])
    order, cuts = sort_rows(table)
    if not exact:
        scale = None if scales is None else gather(scales)[order]
        return np.take(table, order, axis=0), val[order], rate[order], scale
    first = order[cuts]
    table, rank = np.take(table, first, axis=0), datas[0][0].shape[1]
    return table[:, :rank], np.add.reduceat(val[order], cuts), rate[first], table[:, rank:]


def _pair_block_sum(v, r, e, T):
    """Sum of v_i conj(v_j) T phi1(T(r_i - r_j)) over the full s x s square of
    each of k groups, given (k, s) values, rates and phases e_i = e^{iT(r_i - c)}
    (any c per group).  The kernel is (e_i conj(e_j) - 1) / (i(r_i - r_j)); the
    diagonal (theta = 0, all of an s = 1 block) is exactly T = T phi1(0), and
    only off-diagonal pairs with |T(r_i - r_j)| < 1, where that numerator
    cancels, call phi1 on their real phases T(r_i - r_j)."""
    dr = r[:, :, None] - r[:, None, :]
    small = np.abs(T * dr) < 1.0
    kern = (e[:, :, None] * e[:, None, :].conj() - 1.0) / (1j * np.where(small, 1.0, dr))
    d = np.arange(r.shape[1])
    small[:, d, d] = False
    kern[:, d, d] = T
    kern[small] = T * phi1(T * dr[small])
    return (v[:, :, None] * v[:, None, :].conj() * kern).sum()


def windowed_product_norm_sq(polys, symbol, T) -> float:
    """Integral over [0, T] of the squared mean L^2 norm of the product of the
    free evolutions of ``polys``; exact up to roundoff.

    The tuple fold enumerates each multiset of a repeated factor once (with
    its multinomial weight) and returns its rows sorted by index sum, merged
    by exact phase on exact lattices; the groups are cut from those rows
    without another sort.  Each group of s tuples contributes its s x s pair
    sum of v_i conj(v_j) T phi1(T(r_i - r_j)), with phi1 of the real phase
    (``kernels.phi1``, no cancellation).  Groups of equal size are
    batched into (k, s, s) pair blocks of about PAIR_BLOCK pairs.  Phases are
    factored: e_i = e^{iT(r_i - r_g)}, with r_g the rate of the group's first
    tuple, is computed once per tuple, so a pair's kernel is
    (e_i conj(e_j) - 1) / (i(r_i - r_j)) without a transcendental; the
    diagonal is exactly T, and off-diagonal pairs with |T(r_i - r_j)| < 1,
    where the numerator loses relative accuracy, keep phi1.
    """
    polys = list(polys)
    if any(not f for f in polys):
        return 0.0
    idx, val, rate, _ = _fold_tuple_data(_factor_datas(polys, symbol))
    cuts = group_boundaries(idx)
    sizes = np.diff(np.r_[cuts, len(idx)])
    _budget.check(int((sizes.astype(np.int64) ** 2).sum()), what="windowed tuple pairing")
    T = float(T)
    phase = np.exp(1j * T * (rate - np.repeat(rate[cuts], sizes)))
    total = 0.0 + 0.0j
    for s in np.unique(sizes):
        starts = cuts[sizes == s]
        step = max(1, PAIR_BLOCK // int(s * s))
        for lo in range(0, len(starts), step):
            rows = starts[lo : lo + step, None] + np.arange(s)
            total += _pair_block_sum(val[rows], rate[rows], phase[rows], T)
    re, im = float(total.real), float(total.imag)
    if abs(im) > IMAG_RESIDUE_TOL * max(abs(re), 1e-300):
        raise NumericConsistencyError(
            f"windowed tuple sum has imaginary residue {im:.3e} against {re:.3e}"
        )
    return re


def _group_rate_order(group, rate):
    """The stable order of rows by (group, rate), as np.lexsort((rate, group)):
    ``sort_rows`` of the columns (group, dense rate rank), where equal rates
    share a rank."""
    dense = np.unique(rate, return_inverse=True)[1]
    return sort_rows(np.stack([group, dense], axis=1))[0]


def global_product_norm_sq(polys, symbol) -> float:
    """Global time-mean of the squared mean L^2 norm of the evolved product:
    only exactly phase-matched tuples survive the averaging.

    Exact lattices decide resonance on int64 phase keys: the tuple fold has
    already merged the tuples of equal index sum and phase, so the result is
    the sum of its squared values.  Float mode sorts the fold's rows (each
    multiset of a repeated factor once) by rate within each index sum and
    groups rate sums that agree within FLOAT_SUM_TOL of their summed
    term sizes; that is validated on boosted small-box data up to heights of
    about 1e5.  Near 1e6 distinct rate sums can lie closer than the tolerance
    and are then merged without any error, so the result can be wrong there.
    """
    polys = list(polys)
    if any(not f for f in polys):
        return 0.0
    datas = _factor_datas(polys, symbol)
    if datas[0][3] is not None:
        _, val, _, _ = _fold_tuple_data(datas)
        return float((val.real**2 + val.imag**2).sum())
    # float mode: a rate is exact to a few roundoff units of the law with
    # absolute coefficients at sum_i |n_i| omega_i (generators are > 0)
    law = DispersionSymbol(symbol.kind, tuple(abs(c) for c in symbol.coeffs))
    scales = [np.abs(law.rates_for_indices(f.spec, np.abs(d[0]))) for f, d in zip(polys, datas)]
    idx, val, rate, scale = _fold_tuple_data(datas, scales)
    new_idx = np.zeros(len(idx), dtype=bool)
    new_idx[group_boundaries(idx)] = True
    order = _group_rate_order(np.cumsum(new_idx) - 1, rate)
    rate, scale = rate[order], scale[order]
    split = np.diff(rate) > FLOAT_SUM_TOL * np.maximum(scale[1:], scale[:-1])
    sums = np.add.reduceat(val[order], np.flatnonzero(new_idx | np.r_[True, split]))
    return float((sums.real**2 + sums.imag**2).sum())


def mixed_norm_free(
    f: TrigPoly,
    symbol: DispersionSymbol,
    mspec: MixedNormSpec,
) -> float:
    """Space-time norm of the free evolution of f.

    Windowed mode: the L^p([0,T], mean-L^p) norm, evaluated exactly through
    per-tuple time integrals.  Global mode: the mean over all of time-space,
    the resonant-diagonal sum.  Any spatial dimension d for the Schroedinger
    law; the Airy and polynomial laws raise ``ValueError`` on d > 1.
    """
    symbol.check_dimension(f.spec.d)
    p = mspec.p
    if p == 2:
        if mspec.time_mode == "window":
            return math.sqrt(mspec.T) * f.l2_norm()
        return f.l2_norm()
    k = p // 2
    if mspec.time_mode == "window":
        total = windowed_product_norm_sq([f] * k, symbol, mspec.T)
    else:
        total = global_product_norm_sq([f] * k, symbol)
    return max(total, 0.0) ** (1.0 / p)


# -- exponent fitting and the predicted loss -----------------------------------------------


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float


def fit_exponent(points) -> FitResult:
    """Least squares on (log parameter, log value); residual is the RMS misfit."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit an exponent")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("log-log fit needs positive data")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    sol, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ sol
    return FitResult(float(sol[0]), float(sol[1]), float(np.sqrt(np.mean(resid**2))))


@dataclass(frozen=True)
class ExponentPrediction:
    s_star: Fraction
    alpha: Fraction
    p_critical: Fraction

    def as_floats(self) -> tuple[float, float, float]:
        return float(self.s_star), float(self.alpha), float(self.p_critical)


def predicted_exponent(p, d: int, b) -> ExponentPrediction:
    """Closed-form regularity threshold s*(p, d, b) and the decoupling loss
    alpha(p) with its critical exponent p_d = 2(d+2)/d.

    s* = b (1/2 - 1/p) + max(d/2 - (d+2)/p, 0); alpha vanishes below p_d and
    equals d/2 - (d+2)/p above.  p = inf is accepted as the limit.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    b = Fraction(b)
    p_d = Fraction(2 * (d + 2), d)
    if p == math.inf:
        inv_p = Fraction(0)
    else:
        p = Fraction(p)
        if p <= 2:
            raise ValueError("p must exceed 2")
        inv_p = 1 / p
    curvature_term = Fraction(d, 2) - (d + 2) * inv_p
    s_star = b * (Fraction(1, 2) - inv_p) + max(curvature_term, Fraction(0))
    if p != math.inf and p < p_d:
        alpha = Fraction(0)
    else:
        alpha = curvature_term
    return ExponentPrediction(s_star, alpha, p_d)
