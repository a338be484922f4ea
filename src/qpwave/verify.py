"""Scan harnesses probing the dispersive estimates at desk scale.

Each scan drives the exact norm machinery over a dyadic parameter range and
fits a log-log slope; the paper's band for each slope is declared here, once,
and carried on the report.  Trial data mix i.i.d. complex Gaussian
coefficients on the height shell (typicality), the deterministic
concentration family (sharpness), and single modes (floor).  Every scan is
deterministic given its seed: per-trial generators are spawned from
(seed, C, trial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import budget as _budget
from .evolution import DispersionSymbol
from .lattice import LatticeSpec, shell_indices
from .meannorms import (
    MixedNormSpec,
    fit_exponent,
    mixed_norm_free,
    windowed_product_norm_sq,
)
from .nls import first_picard_iterate
from .report import ScanReport
from .trigpoly import TrigPoly, extremizer

__all__ = [
    "strichartz_scan",
    "bilinear_scan",
    "picard_blowup_scan",
    "averaged_norm_check",
    "biorthogonality_check",
    "BiorthogonalityReport",
    "random_shell_poly",
]

DEFAULT_MAX_SUPPORT = 512


def random_shell_poly(
    spec: LatticeSpec,
    C: int,
    rng: np.random.Generator,
    max_support: int = DEFAULT_MAX_SUPPORT,
) -> TrigPoly:
    """Unit-norm Gaussian data supported on (a sample of) the height-C shell.

    Shells larger than ``max_support`` are subsampled so that the exact tuple
    sums downstream stay inside the work budget.
    """
    idx = shell_indices(spec, C)
    if len(idx) == 0:
        raise ValueError(f"shell {C} is empty")
    if len(idx) > max_support:
        sel = rng.choice(len(idx), size=max_support, replace=False)
        idx = idx[np.sort(sel)]
    coeffs = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
    coeffs /= np.linalg.norm(coeffs)
    return TrigPoly.from_arrays(spec, idx, coeffs)


def _scan_family(spec, C) -> TrigPoly:
    """Concentration family at height C; rank-1 fallback: unit-frequency modes."""
    if spec.rank >= 2:
        return extremizer(spec, int(C))
    idx = np.array([[-1], [0], [1]], dtype=np.int64)
    keep = np.abs(spec.freq_float(idx)) <= 1.0
    return TrigPoly.from_arrays(spec, idx[keep], np.ones(int(keep.sum())))


def _single_shell_mode(spec, C) -> TrigPoly:
    idx = shell_indices(spec, C)
    return TrigPoly.single(spec, tuple(int(x) for x in idx[0]))


def _shell_ratios(ratio, spec, C, trials, seed, max_support) -> list[float]:
    """``ratio`` of the concentration family, one shell mode, then the seeded trials."""
    rs = [ratio(_scan_family(spec, C)), ratio(_single_shell_mode(spec, C))]
    for trial in range(trials):
        rng = np.random.default_rng([seed, int(C), trial])
        rs.append(ratio(random_shell_poly(spec, C, rng, max_support)))
    return rs


def _config(scan: str, spec: LatticeSpec, **params) -> dict:
    """Resolved scan configuration, recording the work budget the scan ran under."""
    budget = _budget.get_default_budget()
    return {"scan": scan, "lattice": spec.to_dict(), "budget": budget, **params}


# -- fixed-window scan -----------------------------------------------------------------


def strichartz_scan(
    spec: LatticeSpec,
    C_list,
    T: float = 0.1,
    trials: int = 4,
    seed: int = 0,
    max_support: int = DEFAULT_MAX_SUPPORT,
) -> ScanReport:
    """Windowed space-time norm against T^(1/8) times the mean-L^2 norm of the
    free Schroedinger evolution.

    Rows carry the per-shell maximum ratio over all trial data (including the
    concentration family); ``extra`` carries the family's own ratios and
    fitted slope, which probes the sharp end of the height loss.  The
    decoupling loss is b/4: the max-ratio slope must stay below it and the
    family's slope must attain it, each up to 0.15.
    """
    if spec.d != 1:
        raise ValueError("strichartz_scan requires d = 1")
    symbol = DispersionSymbol.schrodinger()
    mspec = MixedNormSpec(p=4, time_mode="window", T=T)
    denom_pow = T**0.125

    def ratio(f: TrigPoly) -> float:
        return mixed_norm_free(f, symbol, mspec) / (denom_pow * f.l2_norm())

    per_C = [_shell_ratios(ratio, spec, C, trials, seed, max_support) for C in C_list]
    rows = [(float(C), max(rs), min(rs), max(rs)) for C, rs in zip(C_list, per_C)]
    fam_rows = [(float(C), rs[0]) for C, rs in zip(C_list, per_C)]
    config = _config(
        "strichartz", spec, C_list=[int(c) for c in C_list], T=T,
        trials=trials, symbol=symbol.kind, max_support=max_support,
    )
    loss = spec.b / 4.0
    return ScanReport.from_rows(
        "strichartz",
        rows,
        config,
        seed=seed,
        extra={
            "extremizer_slope": fit_exponent(fam_rows).slope,
            "extremizer_rows": [[c, v] for c, v in fam_rows],
        },
        bands=[
            ("max-ratio slope", "slope", -0.5, loss + 0.15),
            ("extremizer slope", "extremizer_slope", loss - 0.15, loss + 0.15),
        ],
    )


# -- bilinear scan ---------------------------------------------------------------------


def bilinear_scan(
    spec: LatticeSpec,
    C1_list,
    C2: int,
    T: float = 0.1,
    trials: int = 4,
    seed: int = 0,
    max_support: int = 256,
) -> ScanReport:
    """Product of two evolved shells in L^2_t L^2_x against T^(1/4) times the
    product of the mean-L^2 norms; the slope in the smaller height stays below
    half the density parameter, b/2 (plus 0.15 slack).

    Cross-shell index sums collide heavily, so the default trial support is
    smaller here than in the other scans to stay inside the pairing budget.
    """
    if spec.d != 1:
        raise ValueError("bilinear_scan requires d = 1")
    if any(c1 > C2 for c1 in C1_list):
        raise ValueError("C1 must not exceed C2")
    symbol = DispersionSymbol.schrodinger()
    denom_pow = T**0.25

    def pair_ratio(f1, f2):
        energy = windowed_product_norm_sq([f1, f2], symbol, T)
        return math.sqrt(max(energy, 0.0)) / (denom_pow * f1.l2_norm() * f2.l2_norm())

    fam2 = _scan_family(spec, C2)

    def run_C1(C1):
        rs = [pair_ratio(_scan_family(spec, C1), fam2)]
        for trial in range(trials):
            rng = np.random.default_rng([seed, int(C1), trial])
            f1 = random_shell_poly(spec, C1, rng, max_support)
            f2 = random_shell_poly(spec, C2, rng, max_support)
            rs.append(pair_ratio(f1, f2))
        return (float(C1), max(rs), min(rs), max(rs))

    rows = [run_C1(C1) for C1 in C1_list]
    config = _config(
        "bilinear", spec, C1_list=[int(c) for c in C1_list], C2=int(C2), T=T,
        trials=trials, max_support=max_support,
    )
    bands = [("bilinear slope", "slope", -0.5, spec.b / 2.0 + 0.15)]
    return ScanReport.from_rows("bilinear", rows, config, seed=seed, bands=bands)


# -- first Picard iterate ---------------------------------------------------------------


def picard_blowup_scan(
    spec: LatticeSpec,
    C_list,
    t: float = 0.01,
    power: int = 2,
) -> ScanReport:
    """Growth of the first Picard iterate on the concentration family.

    Fits the slope of log ||iterate||_{H^0} against log C; for rank-1
    lattices the family degenerates to the handful of unit-frequency modes
    and the slope is flat.  The cubic iterate (``power=2``) grows like 5b/2,
    within 0.3; higher powers declare no band.
    """
    rows = []
    for C in C_list:
        fam = _scan_family(spec, C)
        val = first_picard_iterate(fam, t, power=power).l2_norm()
        rows.append((float(C), val, val, val))
    config = _config("picard-blowup", spec, C_list=[int(c) for c in C_list], t=t, power=power)
    growth = 5.0 * spec.b / 2.0
    bands = [("picard slope", "slope", growth - 0.3, growth + 0.3)] if power == 2 else []
    return ScanReport.from_rows("picard-blowup", rows, config, bands=bands)


# -- global-mean check ---------------------------------------------------------------------


def averaged_norm_check(
    spec: LatticeSpec,
    C_list,
    trials: int = 2,
    seed: int = 0,
    symbol: DispersionSymbol | None = None,
    max_support: int = DEFAULT_MAX_SUPPORT,
) -> ScanReport:
    """Globally time-averaged space-time norm against the mean-L^2 norm.

    Only exactly resonant tuples survive the global average, so the ratio is
    bounded uniformly in the height: the fitted slope of the concentration
    family sits at zero (within 0.1), unlike the windowed scan.
    """
    if spec.d != 1:
        raise ValueError("averaged_norm_check requires d = 1")
    symbol = symbol or DispersionSymbol.schrodinger()
    mspec = MixedNormSpec(p=4, time_mode="global")

    def ratio(f: TrigPoly) -> float:
        return mixed_norm_free(f, symbol, mspec) / f.l2_norm()

    per_C = [_shell_ratios(ratio, spec, C, trials, seed, max_support) for C in C_list]
    rows = [(float(C), rs[0], min(rs), max(rs)) for C, rs in zip(C_list, per_C)]
    config = _config(
        "averaged", spec, C_list=[int(c) for c in C_list], trials=trials,
        symbol=symbol.kind, max_support=max_support,
    )
    return ScanReport.from_rows(
        "averaged", rows, config, seed=seed, extra={"max_ratio": max(r[3] for r in rows)},
        bands=[("averaged slope", "slope", -0.1, 0.1)],
    )


# -- biorthogonality of the cubic curve ---------------------------------------------------


@dataclass(frozen=True)
class BiorthogonalityReport:
    delta: float
    grid_step: float
    n_quadruples: int
    max_normalized_distance: float
    worst_quadruple: tuple[float, float, float, float] | None
    bound: float = 10.0

    @property
    def ok(self) -> bool:
        return self.max_normalized_distance <= self.bound


def biorthogonality_check(
    delta: float, grid_step: float = 1e-3, bound: float = 10.0
) -> BiorthogonalityReport:
    """Grid search for the pairing property of near-solutions of the cubic
    system: equal sums, cubes matching to within delta, sum at least
    delta^(1/3) -- every such quadruple must pair up to K delta^(1/3).

    Quadruples with sum s = k h are parametrized by half-differences u >= 0;
    equal sums make the cube condition exactly 3s |u^2 - v^2| <= delta and the
    pairing distance |u - v|, so each sum class reduces to a window search on
    the sorted squares.  All threshold comparisons are exact (integer grid
    units with rational cutoffs).
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    hF = Fraction(str(grid_step))
    dF = Fraction(str(delta))
    if hF <= 0:
        raise ValueError("grid_step must be positive")
    G = int(Fraction(1) / hF)  # floor: largest grid index with x <= 1
    T = dF / hF**3  # cube condition in grid units: |sum of +-i^3| <= T
    h = float(hF)
    cuberoot = float(dF) ** (1.0 / 3.0)

    k = 1
    while Fraction(k) ** 3 < T:  # smallest k with (k h)^3 >= delta
        k += 1
    kmin = k

    n_quad = 0
    best = -1.0
    worst = None
    for k in range(kmin, 2 * G + 1):
        u_top = min(k, 2 * G - k)
        if u_top < 0:
            continue
        start = k & 1
        if u_top < start:
            continue
        U = np.arange(start, u_top + 1, 2, dtype=np.int64)
        if len(U) == 0:
            continue
        # window on squares: 3 k |U^2 - V^2| <= 4 T
        W = int((4 * T.numerator) // (3 * k * T.denominator))
        U2 = U * U
        lo = np.searchsorted(U2, U2 - W, side="left")
        hi = np.searchsorted(U2, U2 + W, side="right") - 1
        n_quad += int((hi - lo + 1).sum())
        dist = np.maximum(U - U[lo], U[hi] - U)
        j = int(np.argmax(dist))
        d_real = float(dist[j]) * h / 2.0
        if d_real > best:
            best = d_real
            partner = U[lo[j]] if U[j] - U[lo[j]] >= U[hi[j]] - U[j] else U[hi[j]]
            worst = (
                (k + int(U[j])) * h / 2,
                (k - int(U[j])) * h / 2,
                (k + int(partner)) * h / 2,
                (k - int(partner)) * h / 2,
            )
    return BiorthogonalityReport(
        delta=float(delta),
        grid_step=float(grid_step),
        n_quadruples=n_quad,
        max_normalized_distance=(best / cuberoot if best >= 0 else 0.0),
        worst_quadruple=worst,
        bound=bound,
    )
