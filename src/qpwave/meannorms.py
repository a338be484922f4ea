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
M^2.  The fold neither sorts nor merges; each caller groups the rows it
needs with one stable lexicographic sort (``kernels.sort_rows``).  Under the
Schroedinger law both norms run on data shifted by one integer anchor that
moves with the data, a common Galilean boost, so no result depends on where
the spectrum sits.

The windowed norm carries one time integral per pair of tuples with equal
index sum, T phi1(T(r_i - r_j)), phi1(theta) = (e^{i theta} - 1)/(i theta)
of the real phase, in (k, s, s) blocks of equal-size groups written into one
workspace: far pairs are a real Cauchy form in 1/(r_i - r_j) (one batched
matmul), near pairs call phi1 (``windowed_product_norm_sq``).  The globally
averaged norm keeps only tuples whose dispersive phases cancel exactly: on an
exact lattice (any d) that is the one decision made on int64 phase keys, the
rates scaled by the generators' common denominator; in float mode the same
sort merges on the rate sums' tolerance clusters (``_float_clusters``), which
also refuse distinct index sums sharing a float frequency, on any d.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from . import budget as _budget
from .errors import NumericConsistencyError, ResonantLatticeError
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
# Pairs per (k, s, s) block of the windowed pairing: one numpy pass per block;
# workspace plus temporaries peak at 5.6 MB (tracemalloc, s = 50; 4.4 MB workspace).
PAIR_BLOCK = 1 << 18
# Samples per chunk of the quadrature sums: 512 KB of complex samples, so a
# chunk and its |f|^p temporary stay in cache.
SUM_CHUNK = 1 << 15
# Certified relative error of the auto-windowed quadrature mean of |f|^p (criterion 7: 5%).
WINDOW_TOL = 0.01


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


def _float_clusters(values: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Tolerance-cluster ids of float ``values``, nondecreasing with them: a
    sorted neighbour opens a new cluster where its gap exceeds FLOAT_SUM_TOL
    times the larger of the two ``scales`` (ties and +-0.0 share an id)."""
    order = np.argsort(values)
    v, s = values[order], scales[order]
    ids = np.zeros(len(v), dtype=np.int64)
    ids[1:] = np.diff(v) > FLOAT_SUM_TOL * np.maximum(s[1:], s[:-1])
    ids[order] = ids.cumsum()
    return ids


def _refuse_shared_frequencies(spec, sums: np.ndarray, shift=0) -> None:
    """On a float lattice (any d), distinct index rows of ``sums`` whose
    frequencies share a tolerance cluster (``_float_clusters``, scale
    lam_i(|n|)) in every component raise ``ResonantLatticeError``, relation
    their difference; it names the first two rows (input order) of the first
    such group, minus ``shift`` (recentered sums in the caller's coordinates)."""
    if spec.exact:
        return
    lam, scale = (spec.freq_float(x).reshape(-1, spec.d) for x in (sums, np.abs(sums)))
    ids = np.stack([_float_clusters(*c) for c in zip(lam.T, scale.T)], axis=1)
    order, cuts = sort_rows(ids)
    shared = cuts[np.diff(np.r_[cuts, len(sums)]) > 1]
    if len(shared):
        mu, nu = sums[order[shared[0] : shared[0] + 2]] - shift
        raise ResonantLatticeError(
            f"distinct index sums {tuple(mu.tolist())} and {tuple(nu.tolist())} share a frequency",
            relation=tuple((nu - mu).tolist()),
        )


def _tuple_power(f: TrigPoly, k: int) -> TrigPoly:
    """f^k by k - 1 products with f: its indices are the distinct k-fold index
    sums of f, grouped exactly by ``multiply``, and its coefficients the summed
    products of their tuples.  Each product's outer-sum table is capped like
    a tuple-fold step.  Distinct sums (k = 1: the indices of f) that share a
    float frequency raise ``ResonantLatticeError``."""
    g = f
    for _ in range(k - 1):
        _budget.check_memory(len(g) * len(f), what="tuple-power table")
        g = multiply(g, f)
    _refuse_shared_frequencies(g.spec, g.as_arrays()[0])
    return g


def lp_norm_exact(f: TrigPoly, p: int) -> float:
    """Mean L^p norm via matched index tuples; p in {2, 4, 6}.  For p = 2k the
    mean of |f|^p is the squared l^2 norm of the coefficients of f^k, whose
    index rows are the k-fold index sums of f (``_tuple_power``)."""
    if p not in (2, 4, 6):
        raise ValueError("exact mean norms are available for p in {2, 4, 6}")
    if not f:
        return 0.0
    F = _tuple_power(f, p // 2)
    if p == 2:
        return F.l2_norm()
    _, v = F.as_arrays()
    return float((v.real**2 + v.imag**2).sum()) ** (1.0 / p)


def _auto_window(F: TrigPoly) -> float:
    """L = E / (WINDOW_TOL sum |F_mu|^2), E = sum over distinct index sums mu != nu
    of |F_mu| |F_nu| / |lam_mu - lam_nu|, in row blocks of at most SUM_CHUNK pairs.
    F comes from ``_tuple_power``, which refuses float-lattice sums sharing a
    frequency; on an exact lattice distinct sums have distinct frequencies."""
    _, vals = F.as_arrays()
    _budget.check(len(vals) * (len(vals) - 1) // 2, what="quadrature window")
    lam = F.freqs_float()
    order = np.argsort(lam, kind="stable")
    lam, mag = lam[order], np.abs(vals)[order]
    rows, parts = max(1, SUM_CHUNK // len(vals)), []
    for lo in range(0, len(vals) - 1, rows):
        gap = lam[lo + 1 :] - lam[lo : lo + rows, None]  # > 0 exactly above the diagonal
        inv = np.divide(mag[lo + 1 :], gap, out=np.zeros_like(gap), where=gap > 0)
        parts.append(mag[lo : lo + rows] @ inv.sum(axis=1))
    return 2 * math.fsum(parts) / (WINDOW_TOL * float(mag @ mag))


def lp_norm_numeric(
    f: TrigPoly,
    p: int,
    L: float | None = None,
    min_points_per_period: int = 8,
) -> float:
    """Quadrature estimate of the mean L^p norm over [-L, L]; the independent
    check for ``lp_norm_exact``.

    |f|^p = |F|^2 with F = f^(p/2) (``_tuple_power``), and a cross term
    e^{i omega x} of |F|^2 has trapezoid mean sinc(omega L) theta / tan(theta),
    theta = omega h / 2, on a grid of step h: at most 1 / |omega L| while
    |omega| h <= pi.  So the mean is within E / L of S = sum |F_mu|^2, and the
    auto window L = E / (WINDOW_TOL S) (``_auto_window``; the smallest grid if
    E = 0) bounds the error by WINDOW_TOL S; distinct sums sharing a float
    frequency raise ``ResonantLatticeError``.  An explicit L must be positive
    and finite (else ``ValueError``).  h gives ``min_points_per_period``
    samples per period of p max(1, max|lam_f|), which bounds every omega.
    The trapezoid mean on ``Linspace(-L, L, n)`` is ``_trapezoid_mean``'s (n
    budget-checked before sampling, d = 1 only, |f|^p summed in ``SUM_CHUNK``
    chunks).  ``ValueError`` unless p is a positive even integer and
    ``min_points_per_period`` an integer >= 2 (so |omega| h <= pi).
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
        L = _auto_window(_tuple_power(f, p // 2))
    step = 2 * math.pi / (min_points_per_period * p * max_lam)
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
    rates).  A conjugated factor is ``f.conj()`` (negated indices, conjugated
    coefficients) with its rates negated."""
    poly = f.conj() if conjugated else f
    idx, vals = poly.as_arrays()
    rates = symbol.phase_rates(poly)
    return idx, vals, -rates if conjugated else rates


def _factor_datas(polys, symbol, keys=None):
    """``evolved_factor_data`` per factor; a factor that is the same poly as
    the one before it shares that tuple (computed once), which marks it
    repeated for the fold.  Under the Schroedinger law every factor is first
    shifted by minus the middle stored index of the first factor, a common
    Galilean boost: the space-time norms are unchanged, f.shift(a) gives
    bitwise the data of f, and rates stay as small as the data's spread.
    ``keys(factor)``, if given and not None, is appended to the indices.
    Returns the data and the anchor (0 under the other laws)."""
    idx = polys[0].as_arrays()[0]
    anchor = -idx[len(idx) // 2] if symbol.kind == "schrodinger" else None
    datas = []
    for i, f in enumerate(polys):
        if i and f is polys[i - 1]:
            datas.append(datas[-1])
            continue
        f = f if anchor is None else f.shift(anchor)
        idx, vals, rates = evolved_factor_data(f, symbol)
        extra = None if keys is None else keys(f)
        datas.append((idx if extra is None else np.hstack([idx, extra]), vals, rates))
    return datas, 0 if anchor is None else anchor


def _fold_tuple_data(datas, scales=None):
    """One row per tuple, in enumeration order: (table, coefficient products,
    rate sums).  The int64 table sums the factors' integer columns (index
    sums, and phase keys if they carry them); given per-factor float term
    ``scales``, a last column holds the rate sums' tolerance-cluster ids
    against their summed scales (``_float_clusters``).  Nothing is sorted or
    merged.  A factor whose data is its predecessor's object (a repeated
    poly) takes only row numbers >= the predecessor's row, so every multiset
    of rows is enumerated once, its product weighted by the multinomial
    count of its orderings.  The tuples are one ragged outer product of
    row-number columns; every output column is a gather, and rates of a
    repeated factor are summed in sorted-row order, so orderings agree
    bitwise.  The work estimate stays the ordered count of the tuples.
    """
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
    width = datas[0][0].shape[1]
    table = np.empty((len(val), width + (scales is not None)), dtype=np.int64)
    for j in range(width):  # one column at a time: row gathers of 2-d arrays are slower
        table[:, j] = gather([d[0][:, j] for d in datas])
    if scales is not None:
        table[:, width] = _float_clusters(rate, gather(scales))
    return table, val, rate


def _pair_block_sum(v, r, e, T, work):
    """Sum of v_i conj(v_j) T phi1(T(r_i - r_j)) over the s x s squares of k groups
    of (k, s) values, rates and phases e_i = e^{iT(r_i - c)} (any c per group),
    in ``work``: flat differences, reciprocals and near mask of >= k s^2 entries.
    Far pairs (|T(r_i - r_j)| >= 1) sum to -i sum C_ij (a_i conj(a_j) - v_i conj(v_j)),
    a = v e, C_ij = 1/(r_i - r_j) but 1/inf = 0 on the diagonal and near pairs: one
    batched real matmul.  Ordered off-diagonal near pairs call phi1 on their real
    phases; the diagonal (theta = 0) is T sum |v|^2."""
    k, s = r.shape
    dr, recip, near = (w[: k * s * s].reshape(k, s, s) for w in work)
    np.subtract(r[:, :, None], r[:, None, :], out=dr)
    np.less(np.abs(np.multiply(dr, T, out=recip), out=recip), 1.0, out=near)
    d = np.arange(s)
    near[:, d, d] = False
    pairs = np.flatnonzero(near)
    i, j = np.divmod(pairs, s)  # flat rows of v_i and v_j
    j += i - i % s
    vf = v.reshape(-1)
    near_sum = np.dot(vf[i] * vf[j].conj(), phi1(T * dr.reshape(-1)[pairs]))
    dr.reshape(-1)[pairs] = dr[:, d, d] = np.inf
    av = np.stack([v * e, v], axis=-1)
    Cav = np.matmul(np.divide(1.0, dr, out=recip), av.view(float)).view(complex)
    far = np.vdot(Cav[..., 0], av[..., 0]) - np.vdot(Cav[..., 1], av[..., 1])
    return T * (np.vdot(v, v).real + near_sum) - 1j * far


def windowed_product_norm_sq(polys, symbol, T) -> float:
    """Integral over [0, T] of the squared mean L^2 norm of the product of the
    free evolutions of ``polys``; exact up to roundoff.

    The tuple fold runs on the factors' recentered data (``_factor_datas``)
    and forms no phase keys; one ``sort_rows`` of its index sums cuts the
    groups.  Each group of s tuples contributes its s x s pair sum of
    v_i conj(v_j) T phi1(T(r_i - r_j)), with phi1 of the real phase
    (``kernels.phi1``, no cancellation).  Groups of equal size are batched
    into (k, s, s) pair blocks of about PAIR_BLOCK pairs.  Phases are
    factored: e_i = e^{iT(r_i - r_g)}, with r_g the rate of the group's first
    tuple, so a far pair's kernel (e_i conj(e_j) - 1) / (i(r_i - r_j)) needs no
    transcendental and a block's far pairs are one real Cauchy form
    (``_pair_block_sum``, one workspace per call, sized to its largest block);
    the diagonal is exactly T, and ordered off-diagonal pairs with
    |T(r_i - r_j)| < 1, where that numerator cancels, keep phi1.  On float
    lattices, index sums sharing a frequency raise ``ResonantLatticeError``.
    """
    polys = list(polys)
    if any(not f for f in polys):
        return 0.0
    datas, anchor = _factor_datas(polys, symbol)
    idx, val, rate = _fold_tuple_data(datas)
    order, cuts = sort_rows(idx)
    _refuse_shared_frequencies(polys[0].spec, idx[order[cuts]], len(polys) * anchor)
    val, rate = val[order], rate[order]
    sizes = np.diff(np.r_[cuts, len(order)])
    _budget.check(int((sizes.astype(np.int64) ** 2).sum()), what="windowed tuple pairing")
    T = float(T)
    phase = np.exp(1j * T * (rate - np.repeat(rate[cuts], sizes)))
    uniq, counts = np.unique(sizes, return_counts=True)
    steps = np.maximum(1, PAIR_BLOCK // uniq**2)
    n = int((np.minimum(counts, steps) * uniq**2).max())  # the largest block
    work = (np.empty(n), np.empty(n), np.empty(n, dtype=bool))
    total = 0.0 + 0.0j
    for s, step in zip(uniq.tolist(), steps.tolist()):
        starts = cuts[sizes == s]
        for lo in range(0, len(starts), step):
            rows = starts[lo : lo + step, None] + np.arange(s)
            total += _pair_block_sum(val[rows], rate[rows], phase[rows], T, work)
    re, im = float(total.real), float(total.imag)
    if abs(im) > IMAG_RESIDUE_TOL * max(abs(re), 1e-300):
        raise NumericConsistencyError(
            f"windowed tuple sum has imaginary residue {im:.3e} against {re:.3e}"
        )
    return re


def global_product_norm_sq(polys, symbol) -> float:
    """Global time-mean of the squared mean L^2 norm of the evolved product:
    only exactly phase-matched tuples survive the averaging.

    The fold runs on the factors' recentered data (``_factor_datas``) and
    puts phase columns beside the index sums: summed int64 phase keys
    (``phase_rate_keys``; sums that could leave int64 raise ``ValueError``)
    on an exact lattice, the rate sums' tolerance clusters in float mode.
    One ``sort_rows`` and one ``reduceat`` merge equal rows: that is the
    resonance decision.  In float mode index sums sharing a frequency raise
    ``ResonantLatticeError``; clusters form over the whole table, so two
    rates of one index sum could chain through a third of another sum, a
    roundoff-level near-coincidence no tolerance resolves.  Recentered
    Schroedinger rates scale with the data's spread, not its height; under
    the Airy and polynomial laws, or for data near index 1e6, distinct rate
    sums can lie within the tolerance and merge without any error.
    """
    polys = list(polys)
    if any(not f for f in polys):
        return 0.0
    datas, anchor = _factor_datas(polys, symbol, symbol.phase_rate_keys)
    rank, scales = polys[0].spec.rank, None
    if datas[0][0].shape[1] > rank:  # exact phase keys beside the indices
        if sum(int(np.abs(d[0][:, rank:]).max()) for d in datas) > np.iinfo(np.int64).max:
            raise ValueError("tuple phase key sums exceed the int64 range")
    else:
        # a rate is exact to a few roundoff units of the law with absolute
        # coefficients at sum_i |n_i| omega_i (generators are > 0)
        law = DispersionSymbol(symbol.kind, tuple(abs(c) for c in symbol.coeffs))
        scales = [np.abs(law.rates_for_indices(f.spec, np.abs(d[0]))) for f, d in zip(polys, datas)]
    table, val, _ = _fold_tuple_data(datas, scales)
    order, cuts = sort_rows(table)
    if scales is not None:
        idx = table[order[cuts], :rank]
        _refuse_shared_frequencies(polys[0].spec, idx[group_boundaries(idx)], len(polys) * anchor)
    sums = np.add.reduceat(val[order], cuts)
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
    law; the Airy and polynomial laws raise ``ValueError`` on d > 1.  On
    float lattices, indices or index sums sharing a frequency raise
    ``ResonantLatticeError``.
    """
    symbol.check_dimension(f.spec.d)
    p = mspec.p
    if p == 2:
        _refuse_shared_frequencies(f.spec, f.as_arrays()[0])
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
