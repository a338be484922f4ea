"""Acceptance suite: every criterion at its stated tolerance and time limit.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import cmath
import time
import warnings
from fractions import Fraction

import numpy as np

from qpwave import (
    Band,
    DispersionSymbol,
    QScalar,
    SolverConfig,
    averaged_norm_check,
    biorthogonality_check,
    boost_mixed_norm_check,
    extremizer,
    first_picard_iterate,
    fit_exponent,
    kdv_solve,
    lp_norm_exact,
    lp_norm_numeric,
    max_unit_interval_count,
    picard_blowup_scan,
    predicted_exponent,
    propagate,
    resonance,
    solve,
    strichartz_scan,
)
from conftest import oracle_first_picard_iterate, random_poly

CS = (8, 16, 32, 64)


def _report(num, label, ok, started, limit, detail):
    elapsed = time.monotonic() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{label}]: {status} {detail} ({elapsed:.1f}s/{limit}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_01_extremizer_l4_sharpness(sqrt2_spec):
    t0 = time.monotonic()
    rows = [(C, lp_norm_exact(extremizer(sqrt2_spec, C), 4) ** 4) for C in CS]
    slope = fit_exponent(rows).slope
    _report(1, "extremizer L4 slope", 2.7 <= slope <= 3.3, t0, 60, f"slope={slope:.3f}")


def test_criterion_02_extremizer_l6_sharpness(sqrt2_spec):
    t0 = time.monotonic()
    rows = [(C, lp_norm_exact(extremizer(sqrt2_spec, C), 6) ** 6) for C in CS]
    slope = fit_exponent(rows).slope
    _report(2, "extremizer L6 slope", 4.5 <= slope <= 5.5, t0, 300, f"slope={slope:.3f}")


def test_criterion_03_fixed_time_strichartz_scan(sqrt2_spec):
    t0 = time.monotonic()
    rep = strichartz_scan(
        sqrt2_spec, CS, T=0.1, trials=3, seed=0, max_support=256
    )
    max_slope = rep.slope
    ext_slope = rep.extra["extremizer_slope"]
    assert rep.bands == (
        Band("max-ratio slope", max_slope, -0.5, 0.25 + 0.15),
        Band("extremizer slope", ext_slope, 0.25 - 0.15, 0.25 + 0.15),
    )
    ok = -0.5 <= max_slope <= 0.25 + 0.15 and 0.25 - 0.15 <= ext_slope <= 0.25 + 0.15
    _report(
        3, "windowed scan slopes", ok, t0, 300,
        f"max={max_slope:.3f} extremizer={ext_slope:.3f}",
    )


def test_criterion_04_counting_exponent(sqrt2_spec, sqrt23_spec):
    t0 = time.monotonic()
    details = []
    ok = True
    for spec, nu in ((sqrt2_spec, 2), (sqrt23_spec, 3)):
        rows = [(C, max_unit_interval_count(spec, C)[0]) for C in CS]
        slope = fit_exponent(rows).slope
        details.append(f"nu={nu}: {slope:.3f}")
        ok = ok and (nu - 1 - 0.2 <= slope <= nu - 1 + 0.2)
    _report(4, "unit-interval counting", ok, t0, 60, "; ".join(details))


def test_criterion_05_averaged_estimate_loss_free(sqrt2_spec):
    t0 = time.monotonic()
    rep = averaged_norm_check(sqrt2_spec, CS, trials=1, seed=0, max_support=256)
    assert rep.bands == (Band("averaged slope", rep.slope, -0.1, 0.1),)
    _report(5, "global-mean flatness", abs(rep.slope) <= 0.1, t0, 60,
            f"slope={rep.slope:.4f}")


def test_criterion_06_picard_blowup_slope(sqrt2_spec):
    t0 = time.monotonic()
    rep = picard_blowup_scan(sqrt2_spec, CS, t=0.01)
    assert rep.bands == (Band("picard slope", rep.slope, 2.2, 2.8),)
    _report(6, "first-iterate growth", 2.2 <= rep.slope <= 2.8, t0, 120,
            f"slope={rep.slope:.3f}")


def test_criterion_07_oracle_equivalence(sqrt2_spec):
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        f = random_poly(sqrt2_spec, 10, rng, box=3)
        exact = lp_norm_exact(f, 4)
        numeric = lp_norm_numeric(f, 4)
        worst = max(worst, abs(numeric - exact) / exact)
    ok = worst < 0.05

    f = random_poly(sqrt2_spec, 6, rng, box=3)
    t = 0.05
    it = first_picard_iterate(f, t)
    oracle = oracle_first_picard_iterate(f, t, 2)
    worst_it = max(abs(it.coeff(n) - v) for n, (v, _) in oracle.items())
    ok = ok and worst_it < 1e-8
    _report(7, "oracle equivalence", ok, t0, 120,
            f"norm rel err={worst:.2e}, iterate err={worst_it:.2e}")


def test_criterion_08_conservation_and_covariance(sqrt2_spec):
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    details = []

    u0 = random_poly(sqrt2_spec, 50, rng, box=5, unit=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = solve(u0, SolverConfig(trunc_height=8, dt=1e-3, T=0.1))
    nls_drift = abs(res.final.l2_norm() - 1.0)
    details.append(f"nls drift={nls_drift:.1e}")

    v0 = random_poly(sqrt2_spec, 20, rng, box=4, real=True)  # 40 modes
    v0 = (0.8 / v0.l2_norm()) * v0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        resk = kdv_solve(v0, SolverConfig(trunc_height=6, dt=1e-3, T=0.05))
    kdv_drift = abs(resk.final.l2_norm() - v0.l2_norm()) / v0.l2_norm()
    details.append(f"kdv drift={kdv_drift:.1e}")

    f = random_poly(sqrt2_spec, 8, rng, box=4)
    na, nb = boost_mixed_norm_check(f, (3, -2), T=0.1)
    boost_err = abs(na - nb) / max(na, 1.0)
    details.append(f"boost={boost_err:.1e}")

    w0 = random_poly(sqrt2_spec, 10, rng, box=3, unit=True)
    cfg = SolverConfig(trunc_height=9, dt=1e-3, T=0.02)
    ga = solve(w0, cfg).final
    gb = solve(cmath.exp(0.6j) * w0, cfg).final
    gauge_err = (gb - cmath.exp(0.6j) * ga).l2_norm()
    details.append(f"gauge={gauge_err:.1e}")

    g = random_poly(sqrt2_spec, 30, rng, box=5)
    unit_err = max(
        abs(propagate(g, sym, tt).l2_norm() - g.l2_norm())
        for sym in (DispersionSymbol.schrodinger(), DispersionSymbol.airy())
        for tt in (0.3, 2.7)
    )
    details.append(f"unitarity={unit_err:.1e}")

    ok = (
        nls_drift < 1e-8
        and kdv_drift < 1e-8
        and boost_err < 1e-10
        and gauge_err < 1e-10
        and unit_err <= 1e-12 * g.l2_norm()
    )
    _report(8, "conservation/covariance", ok, t0, 120, "; ".join(details))


def test_criterion_09_biorthogonality():
    t0 = time.monotonic()
    details = []
    ok = True
    for delta in (1e-3, 1e-4):
        rep = biorthogonality_check(delta, 1e-3, bound=10.0)
        details.append(f"delta={delta:g}: K={rep.max_normalized_distance:.3f}")
        ok = ok and rep.ok and rep.n_quadruples > 0
    _report(9, "pairing distance bound", ok, t0, 120, "; ".join(details))


def test_criterion_10_resonance_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(10_000):
        x1 = QScalar(
            Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 8))),
            Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 8))),
            2,
        )
        x2 = QScalar(
            Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 8))),
            Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 8))),
            2,
        )
        r = resonance(x1, x2)
        if not (r.expanded - r.factored).is_zero:
            ok = False
            break
    floats = rng.standard_normal((10_000, 2)) * 4
    vals = 3 * (floats[:, 0] + floats[:, 1]) * floats[:, 0] * floats[:, 1]
    mags = 3 * np.abs(floats[:, 0] + floats[:, 1]) * np.abs(floats[:, 0]) * np.abs(
        floats[:, 1]
    )
    float_err = float(np.max(np.abs(np.abs(vals) - mags) / np.maximum(mags, 1e-300)))
    ok = ok and float_err <= 1e-12
    _report(10, "resonance identity", ok, t0, 120, f"float rel err={float_err:.1e}")


def test_criterion_11_exponent_predictor():
    t0 = time.monotonic()
    ok = predicted_exponent(4, 1, 1).s_star == Fraction(1, 4)
    ok = ok and predicted_exponent(6, 1, 1).s_star == Fraction(1, 3)
    for d in (1, 2, 3):
        p_d = Fraction(2 * (d + 2), d)
        ok = ok and predicted_exponent(p_d, d, 1).alpha == 0
    _report(11, "exponent predictor", ok, t0, 60, "exact Fractions")
