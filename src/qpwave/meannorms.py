"""Mean-value L^p norms and exact space-time norms of free evolutions.

For a finite mode sum the long-interval average of |f|^p (even p) is a tuple
sum over index combinations with matching sums; grouping the p/2-fold
coefficient products by their index sum turns it into a sum of squared group
totals, which is exact, manifestly nonnegative, and O(M^(p/2)).

The windowed space-time norm of a free evolution carries one time integral
per pair of tuples with equal index sum, T phi1(iT(r_i - r_j)) with
phi1(z) = (e^z - 1)/z.  Groups of equal size are paired in (k, s, s) blocks,
and the phases are factored: with e_i = e^{iT r_i} (taken relative to the
group's first rate) the kernel is (e_i conj(e_j) - 1) / (i(r_i - r_j)), so
only pairs with |T(r_i - r_j)| < 1, where that numerator cancels, evaluate
phi1.  The globally averaged norm keeps only tuples whose dispersive phases
cancel exactly.  On an exact lattice (any d) that is decided on int64 phase
keys, the rates scaled by the generators' common denominator; in float mode
rate sums coincide within RESONANCE_FLOAT_TOL of the summed sizes of their
terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from . import budget as _budget
from .errors import NumericConsistencyError
from .evolution import DispersionSymbol
from .kernels import group_boundaries, pack_rows, phi1
from .trigpoly import TrigPoly, multiply

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

# Float-mode coincidence of rate (or frequency) sums, relative to the summed
# sizes of their terms: equal sums differ by about one roundoff unit of it,
# distinct sums of boosted small-box data at heights up to 1e5 by >= 8e-13.
RESONANCE_FLOAT_TOL = 1e-14
IMAG_RESIDUE_TOL = 1e-12
# Pairs per (k, s, s) block of the windowed pairing: one numpy pass per block
# while its complex temporaries stay a few MB.
PAIR_BLOCK = 1 << 18


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


def mean_value_numeric(f: TrigPoly, L: float, points: int = 200_001) -> complex:
    """Trapezoid average over [-L, L]; cross-validates the exact mean.  The
    samples come from ``TrigPoly.evaluate`` on a ``linspace`` grid (block and
    offset phases, d = 1 only)."""
    xs = np.linspace(-L, L, points)
    return complex(np.trapezoid(f.evaluate(xs), xs) / (2 * L))


# -- exact mean L^p norms (even p) ---------------------------------------------------


def lp_norm_exact(f: TrigPoly, p: int, budget: int | None = None) -> float:
    """Mean L^p norm via matched index tuples; p in {2, 4, 6}."""
    if p == 2:
        return f.l2_norm()
    if p not in (4, 6):
        raise ValueError("exact mean norms are available for p in {2, 4, 6}")
    if not f:
        return 0.0
    g = multiply(f, f, budget=budget)
    if p == 4:
        _, gv = g.as_arrays()
        total = float((gv.real**2 + gv.imag**2).sum())
        return total ** (1.0 / 4.0)
    _budget.check_memory(len(g) * len(f), what="triple-sum table")
    h = multiply(g, f, budget=budget)
    _, hv = h.as_arrays()
    total = float((hv.real**2 + hv.imag**2).sum())
    return total ** (1.0 / 6.0)


def _tuple_sum_gap(lam: np.ndarray, scales: np.ndarray, k: int, budget: int | None) -> float:
    """Smallest positive spacing among k-fold frequency sums (0 if none);
    spacings within RESONANCE_FLOAT_TOL of the summed term scales are roundoff."""
    _budget.check(len(lam) ** k, budget, what="tuple-sum spacing scan")
    sums, mags = lam, scales
    for _ in range(k - 1):
        sums, mags = _outer(sums, lam), _outer(mags, scales)
    order = np.argsort(sums)
    sums, mags = sums[order], mags[order]
    d = np.diff(sums)
    d = d[d > RESONANCE_FLOAT_TOL * np.maximum(mags[1:], mags[:-1])]
    return float(d.min()) if len(d) else 0.0


def lp_norm_numeric(
    f: TrigPoly,
    p: int,
    L: float | None = None,
    min_points_per_period: int = 8,
    budget: int | None = None,
) -> float:
    """Quadrature estimate of the mean L^p norm over [-L, L]; the independent
    check for ``lp_norm_exact``.

    Without an explicit L the window is sized from the smallest spacing of
    p/2-fold frequency sums, which controls the slowest surviving oscillation
    of |f|^p.  |f| is sampled by ``TrigPoly.evaluate`` on a uniform
    ``linspace`` grid with at least ``min_points_per_period`` points per
    period of the fastest mode (block and offset phase tables, one matrix
    product; d = 1 only).
    """
    if f.spec.d != 1:
        raise ValueError("numeric mean norms require d = 1")
    if not f:
        return 0.0
    lam = f.freqs_float()
    max_lam = max(1.0, float(np.abs(lam).max()))
    if L is None:
        scales = f.spec.freq_float(np.abs(f.as_arrays()[0]))
        gap = _tuple_sum_gap(lam, scales, max(1, p // 2), budget)
        L = 1e4 / gap if gap > 0 else 1e3
    step = 2 * math.pi / (min_points_per_period * max_lam)
    n = int(2 * L / step) + 2
    _budget.check(n, budget, what="quadrature grid")
    xs = np.linspace(-L, L, n)
    vals = np.abs(f.evaluate(xs)) ** p
    mean = float(np.trapezoid(vals, xs) / (2 * L))
    return mean ** (1.0 / p)


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


def _outer(a, b, op=np.add):
    """op over all row pairs (a major), keeping the trailing axes of a."""
    return op(a[:, None], b[None, :]).reshape((-1,) + a.shape[1:])


def _phase_groups(idx, key, rate=None):
    """Sort order and run starts of tuples with equal index sum and phase:
    equal int64 keys or, given float ``rate``, sorted rates chained while
    closer than RESONANCE_FLOAT_TOL times the larger summed scale in ``key``."""
    packed = pack_rows(idx)
    if rate is None:
        order = np.lexsort((key[:, 1], key[:, 0], packed))
        key = key[order]
        split = (key[1:] != key[:-1]).any(axis=1)
    else:
        order = np.lexsort((rate, packed))
        rate, key = rate[order], key[order]
        split = np.diff(rate) > RESONANCE_FLOAT_TOL * np.maximum(key[1:], key[:-1])
    packed = packed[order]
    return order, np.flatnonzero(np.r_[True, (packed[1:] != packed[:-1]) | split])


def _fold_tuple_data(datas, budget):
    """Combine per-factor mode data into tuple data: index sums, products,
    rate sums, and summed exact keys (merged when equal along with the index
    sum; ValueError if a sum could leave int64), None in float mode."""
    exact = datas[0][3] is not None
    if exact:
        bound = sum(int(np.abs(d[3]).max(initial=0)) for d in datas)
        if bound > np.iinfo(np.int64).max:
            raise ValueError("tuple phase key sums exceed the int64 range")
    acc_idx, acc_val, acc_rate, acc_key = datas[0]
    work = len(acc_val)
    for idx, vals, rates, key in datas[1:]:
        work *= len(vals)
        _budget.check(work, budget, what="tuple enumeration")
        _budget.check_memory(len(acc_val) * len(vals), what="tuple table")
        acc_idx, acc_rate = _outer(acc_idx, idx), _outer(acc_rate, rates)
        acc_val = _outer(acc_val, vals, np.multiply)
        if exact:  # merge exact duplicates to keep structured inputs compact
            acc_key = _outer(acc_key, key)
            order, cuts = _phase_groups(acc_idx, acc_key)
            first = order[cuts]
            acc_idx, acc_rate, acc_key = acc_idx[first], acc_rate[first], acc_key[first]
            acc_val = np.add.reduceat(acc_val[order], cuts)
    return acc_idx, acc_val, acc_rate, acc_key


def _pair_block_sum(v, r, e, T):
    """Sum of v_i conj(v_j) T phi1(iT(r_i - r_j)) over the full s x s square of
    each of k groups, given (k, s) values, rates and phases e_i = e^{iT(r_i - c)}
    (any c per group).  The kernel is (e_i conj(e_j) - 1) / (i(r_i - r_j)); only
    pairs with |T(r_i - r_j)| < 1, where that numerator cancels, call phi1."""
    dr = r[:, :, None] - r[:, None, :]
    small = np.abs(T * dr) < 1.0
    kern = (e[:, :, None] * e[:, None, :].conj() - 1.0) / (1j * np.where(small, 1.0, dr))
    kern[small] = T * phi1(1j * T * dr[small])
    return (v[:, :, None] * v[:, None, :].conj() * kern).sum()


def windowed_product_norm_sq(polys, symbol, T, budget=None) -> float:
    """Integral over [0, T] of the squared mean L^2 norm of the product of the
    free evolutions of ``polys``; exact up to roundoff.

    Tuples are grouped by index sum; each group of s tuples contributes its
    s x s pair sum of v_i conj(v_j) T phi1(iT(r_i - r_j)).  Groups of equal
    size are batched into (k, s, s) pair blocks of about PAIR_BLOCK pairs.
    Phases are factored: e_i = e^{iT(r_i - r_g)}, with r_g the rate of the
    group's first tuple, is computed once per tuple, so a pair's kernel is
    (e_i conj(e_j) - 1) / (i(r_i - r_j)) without a transcendental; pairs with
    |T(r_i - r_j)| < 1, where the numerator loses relative accuracy, keep phi1.
    """
    polys = list(polys)
    if any(not f for f in polys):
        return 0.0
    datas = [evolved_factor_data(f, symbol) for f in polys]
    idx, val, rate, _ = _fold_tuple_data(datas, budget)
    packed = pack_rows(idx)
    order = np.argsort(packed, kind="stable")
    packed, val, rate = packed[order], val[order], rate[order]
    cuts = group_boundaries(packed)
    sizes = np.diff(np.r_[cuts, len(packed)])
    _budget.check(int((sizes.astype(np.int64) ** 2).sum()), budget, what="windowed tuple pairing")
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


def global_product_norm_sq(polys, symbol, budget=None) -> float:
    """Global time-mean of the squared mean L^2 norm of the evolved product:
    only exactly phase-matched tuples survive the averaging.

    Exact lattices decide resonance on int64 phase keys.  Float mode groups
    rate sums that agree within RESONANCE_FLOAT_TOL of their summed term
    sizes; that is validated on boosted small-box data up to heights of about
    1e5.  Near 1e6 distinct rate sums can lie closer than the tolerance and
    are then merged without any error, so the result can be wrong there.
    """
    polys = list(polys)
    if any(not f for f in polys):
        return 0.0
    datas = [evolved_factor_data(f, symbol) for f in polys]
    idx, val, rate, key = _fold_tuple_data(datas, budget)
    if key is None:
        # float mode: a rate is exact to a few roundoff units of the law with
        # absolute coefficients at sum_i |n_i| omega_i (generators are > 0); the
        # fold merged nothing, so these scales sum over the same outer products
        law = DispersionSymbol(symbol.kind, tuple(abs(c) for c in symbol.coeffs))
        scales = [np.abs(law.rates_for_indices(f.spec, np.abs(f.as_arrays()[0]))) for f in polys]
        order, cuts = _phase_groups(idx, reduce(_outer, scales), rate)
    else:
        order, cuts = _phase_groups(idx, key)
    sums = np.add.reduceat(val[order], cuts)
    return float((sums.real**2 + sums.imag**2).sum())


def mixed_norm_free(
    f: TrigPoly,
    symbol: DispersionSymbol,
    mspec: MixedNormSpec,
    budget: int | None = None,
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
        total = windowed_product_norm_sq([f] * k, symbol, mspec.T, budget)
    else:
        total = global_product_norm_sq([f] * k, symbol, budget)
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
