import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qpwave import (
    BudgetError,
    DispersionSymbol,
    LatticeSpec,
    Linspace,
    MixedNormSpec,
    QScalar,
    TrigPoly,
    fit_exponent,
    integer_lattice,
    lp_norm_exact,
    lp_norm_numeric,
    mean_value,
    mean_value_numeric,
    mixed_norm_free,
    predicted_exponent,
    sqrt2_lattice,
)
from qpwave import meannorms
from qpwave.evolution import propagate
from conftest import (
    float_twin,
    oracle_global_mean,
    oracle_mean_p4,
    oracle_mean_p6,
    random_poly,
)

SCHROD = DispersionSymbol.schrodinger()


def test_mean_value_examples(int_spec):
    f = TrigPoly(int_spec, {(0,): 3.0, (1,): 1.0})
    assert mean_value(f) == 3.0
    assert mean_value(TrigPoly.single(int_spec, (2,), 1.5)) == 0.0


def test_mean_value_numeric_cross_check(sqrt2_spec):
    f = TrigPoly(sqrt2_spec, {(0, 0): 2.0 - 1.0j, (1, -1): 0.5})
    got = mean_value_numeric(f, L=2000.0)
    # slowest surviving oscillation has |frequency| = sqrt2 - 1
    assert abs(got - (2.0 - 1.0j)) < 1.0 / (2000.0 * (math.sqrt(2) - 1))


def test_lp4_example_one_plus_mode(int_spec):
    f = TrigPoly(int_spec, {(0,): 1.0, (1,): 1.0})
    assert lp_norm_exact(f, 4) ** 4 == pytest.approx(6.0, rel=1e-13)
    # independent quadrature check
    assert lp_norm_numeric(f, 4, L=400 * math.pi) ** 4 == pytest.approx(6.0, rel=1e-3)


def test_single_mode_all_p(sqrt2_spec):
    f = TrigPoly.single(sqrt2_spec, (2, -1), 1.0)
    for p in (2, 4, 6):
        assert lp_norm_exact(f, p) == pytest.approx(1.0, rel=1e-13)


def test_lp_exact_matches_brute_force_oracle(sqrt2_spec):
    rng = np.random.default_rng(20)
    for _ in range(5):
        f = random_poly(sqrt2_spec, 6, rng, box=3)
        assert lp_norm_exact(f, 4) ** 4 == pytest.approx(oracle_mean_p4(f), rel=1e-11)
        assert lp_norm_exact(f, 6) ** 6 == pytest.approx(oracle_mean_p6(f), rel=1e-11)


def test_lp_exact_vs_numeric_random(sqrt2_spec):
    rng = np.random.default_rng(21)
    for _ in range(3):
        f = random_poly(sqrt2_spec, 10, rng, box=3)
        exact = lp_norm_exact(f, 4)
        numeric = lp_norm_numeric(f, 4)
        assert abs(numeric - exact) / exact < 0.05


# criterion 7 across lattice families, on data shaped like the benchmark's
# (4-8 modes in the box 3)
C7_SPECS = {
    "sqrt2": sqrt2_lattice(),
    "sqrt3": LatticeSpec([[QScalar(1), QScalar.sqrt(3)]]),
    "integer": integer_lattice(),
    "float_rank2": LatticeSpec([[1.0, math.sqrt(2.0)]]),
    "float_rank3": LatticeSpec([[1.0, math.sqrt(2.0), math.sqrt(3.0)]]),
}
C7_MODES = {
    "integer": (4, 6),  # the box holds 7 indices
    # 6 and 8 modes size grids of 1.5e7 and 7.1e7 samples, over the default budget
    "float_rank3": (4,),
}


@pytest.mark.parametrize("name", sorted(C7_SPECS))
def test_criterion7_auto_window_across_families(name):
    spec = C7_SPECS[name]
    for m in C7_MODES.get(name, (4, 6, 8)):
        f = random_poly(spec, m, np.random.default_rng(100 + m), box=3)
        for p in (4, 6):
            exact = lp_norm_exact(f, p)
            assert abs(lp_norm_numeric(f, p) - exact) <= 0.05 * exact


def _distinct_sum_gap(f, k):
    """Smallest spacing of the float frequencies of the distinct k-fold index
    sums of f, enumerated by itertools (0 for a single sum)."""
    rows = itertools.combinations_with_replacement(f.as_arrays()[0].tolist(), k)
    sums = sorted({tuple(map(sum, zip(*row))) for row in rows})
    lam = np.sort(f.spec.freq_float(np.array(sums)))
    return float(np.diff(lam).min()) if len(lam) > 1 else 0.0


@pytest.mark.parametrize("name", sorted(C7_SPECS))
def test_auto_window_is_sized_by_the_distinct_sum_gap(name, monkeypatch):
    windows = []

    def record(f, L, n, term=None):
        windows.append(L)
        return 1.0

    monkeypatch.setattr(meannorms, "_trapezoid_mean", record)
    spec, rng = C7_SPECS[name], np.random.default_rng(30)
    # one mode: a single sum, so the 1e3 fallback
    for m in (1,) + C7_MODES.get(name, (4, 6, 8)):
        f = random_poly(spec, m, rng, box=3)
        for p in (2, 4, 6):
            lp_norm_numeric(f, p)
            gap = _distinct_sum_gap(f, p // 2)
            assert windows.pop() == (1e4 / gap if gap > 0 else 1e3)


def test_lp_numeric_constant(int_spec):
    f = TrigPoly(int_spec, {(0,): -2.5 + 0.0j})
    for L in (10.0, 100.0):
        assert lp_norm_numeric(f, 4, L=L) == pytest.approx(2.5, rel=1e-12)


def test_lp_numeric_periodic_full_periods(int_spec):
    # integer frequencies: averaging over whole periods reproduces the torus norm
    rng = np.random.default_rng(22)
    f = random_poly(int_spec, 5, rng, box=3)
    exact = lp_norm_exact(f, 4)
    got = lp_norm_numeric(f, 4, L=40 * math.pi, min_points_per_period=64)
    assert got == pytest.approx(exact, rel=1e-6)


def _grid_step(f, per_period):
    return 2 * math.pi / (per_period * max(1.0, float(np.abs(f.freqs_float()).max())))


def _grid_size(f, L, per_period):
    return int(2 * L / _grid_step(f, per_period)) + 2


def _window_of_size(f, n, per_period=8):
    """A half-width L whose quadrature grid has n samples."""
    L = (n - 1.5) * _grid_step(f, per_period) / 2
    assert _grid_size(f, L, per_period) == n
    return L


def _linspace_power(f, p, L, per_period):
    """|f|^p on the Linspace grid of lp_norm_numeric's size."""
    v = f.evaluate(Linspace(-L, L, _grid_size(f, L, per_period)))
    return (v.real**2 + v.imag**2) ** (p / 2)


def _quadrature_reference(f, p, L, per_period=8):
    """lp_norm_numeric's documented recipe on its Linspace grid:
    |f|^p summed in chunks of SUM_CHUNK samples, the chunk sums and minus
    half of the two endpoint values added by math.fsum, over n - 1."""
    vals = _linspace_power(f, p, L, per_period)
    n, chunk = len(vals), meannorms.SUM_CHUNK
    parts = [vals[i : i + chunk].sum() for i in range(0, n, chunk)]
    total = math.fsum(parts + [-0.5 * vals[0], -0.5 * vals[-1]])
    return (total / (n - 1)) ** (1.0 / p)


def _np_trapezoid_reference(f, p, L, per_period=8):
    """The same trapezoid mean by np.trapezoid with step 2L / (n - 1)."""
    vals = _linspace_power(f, p, L, per_period)
    dx = 2 * L / (len(vals) - 1)
    return float(np.trapezoid(vals, dx=dx) / (2 * L)) ** (1.0 / p)


@pytest.mark.parametrize("spec_name", ["sqrt2_spec", "int_spec", "sqrt23_spec"])
def test_lp_numeric_pinned_to_linspace_reference(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    rng = np.random.default_rng(24)
    # the last window spans several chunks of SUM_CHUNK samples
    cases = ((4, 300.0, 8), (6, 123.25, 8), (4, 40 * math.pi, 64), (6, 4000.0, 16))
    for p, L, per_period in cases:
        f = random_poly(spec, 7, rng, box=3)
        got = lp_norm_numeric(f, p, L=L, min_points_per_period=per_period)
        assert got == _quadrature_reference(f, p, L, per_period)


@pytest.mark.parametrize("spec_name", ["sqrt2_spec", "int_spec", "sqrt23_spec"])
@pytest.mark.parametrize("n", [2, 3, 6, 7, 8, 14, 15, 50])
def test_lp_numeric_chunked_sum(spec_name, n, request, monkeypatch):
    # a chunk of 7 samples: one short chunk, chunk - 1, chunk, chunk + 1,
    # whole chunks and a short last chunk
    monkeypatch.setattr(meannorms, "SUM_CHUNK", 7)
    spec = request.getfixturevalue(spec_name)
    rng = np.random.default_rng(1000 + n)
    f = random_poly(spec, 6, rng, box=3)
    L = _window_of_size(f, n)
    eps = np.finfo(float).eps
    for p in (2, 4, 6):
        got = lp_norm_numeric(f, p, L=L)
        assert got == _quadrature_reference(f, p, L)
        want = _np_trapezoid_reference(f, p, L)
        assert abs(got - want) <= 64 * eps * want


def test_lp_numeric_peak_memory_is_the_grid(sqrt2_spec):
    # the grid of the benchmark's 8-mode window, n = 865,055 complex samples:
    # besides it only one chunk's |f|^p is live
    f = random_poly(sqrt2_spec, 8, np.random.default_rng(26), box=3)
    n = 865_055
    L = _window_of_size(f, n)
    tracemalloc.start()
    try:
        lp_norm_numeric(f, 4, L=L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 16 * n


def test_mean_value_numeric_matches_linspace_trapezoid(sqrt2_spec):
    # the dx form of the trapezoid rule against the abscissa form, to roundoff
    rng = np.random.default_rng(25)
    for L, points in ((2000.0, 200_001), (37.5, 1001), (1.0, 2)):
        f = random_poly(sqrt2_spec, 8, rng, box=3) + TrigPoly.single(sqrt2_spec, (0, 0), 1.5)
        xs = np.linspace(-L, L, points)
        want = np.trapezoid(f.evaluate(Linspace(-L, L, points)), xs) / (2 * L)
        mass = float(np.abs(f.as_arrays()[1]).sum())
        assert abs(mean_value_numeric(f, L=L, points=points) - want) <= 1e-14 * mass


def test_mean_value_numeric_budget_refuses_before_sampling(sqrt2_spec, monkeypatch, work_budget):
    f = TrigPoly(sqrt2_spec, {(1, 0): 1.0, (0, 1): 0.5j})

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled past the budget")

    monkeypatch.setattr(TrigPoly, "evaluate", no_sampling)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="quadrature grid"):
            mean_value_numeric(f, L=1.0, points=10**15)  # refused, not allocated
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    work_budget(100)
    with pytest.raises(BudgetError, match="quadrature grid"):
        mean_value_numeric(f, L=1.0, points=101)


def test_lp_numeric_budget_refuses_before_sampling(sqrt2_spec, monkeypatch, work_budget):
    f = TrigPoly(sqrt2_spec, {(1, 0): 1.0, (0, 1): 0.5j})
    with pytest.raises(BudgetError, match="quadrature grid"):
        lp_norm_numeric(f, 4, L=1e15)  # ~4e15 samples: refused, not allocated

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled past the budget")

    monkeypatch.setattr(TrigPoly, "evaluate", no_sampling)
    work_budget(100)
    with pytest.raises(BudgetError, match="quadrature grid"):
        lp_norm_numeric(f, 4, L=100.0)


@pytest.mark.parametrize(
    "p, per_period, match",
    [
        (0, 8, "positive even integer"),
        (-2, 8, "positive even integer"),
        (3, 8, "positive even integer"),
        (4.0, 8, "positive even integer"),
        (4, 0, "integer >= 2"),
        (4, 1, "integer >= 2"),
        (4, -3, "integer >= 2"),
        (4, 8.0, "integer >= 2"),
    ],
)
def test_lp_numeric_refuses_bad_order_or_resolution(
    sqrt2_spec, monkeypatch, p, per_period, match
):
    # refused before the window sizing or any sampling, with or without a window
    f = TrigPoly(sqrt2_spec, {(1, 0): 1.0, (0, 1): 0.5j})

    def no_work(*args, **kwargs):
        raise AssertionError("worked before validating its arguments")

    monkeypatch.setattr(meannorms, "_tuple_power", no_work)
    monkeypatch.setattr(TrigPoly, "evaluate", no_work)
    for g, L in ((f, None), (f, 100.0), (TrigPoly.zero(sqrt2_spec), None)):
        with pytest.raises(ValueError, match=match):
            lp_norm_numeric(g, p, L=L, min_points_per_period=per_period)


def test_lp_numeric_accepts_numpy_integers(sqrt2_spec):
    f = TrigPoly(sqrt2_spec, {(1, 0): 1.0, (0, 1): 0.5j})
    want = lp_norm_numeric(f, 4, L=50.0, min_points_per_period=2)
    assert lp_norm_numeric(f, np.int64(4), L=50.0, min_points_per_period=np.int32(2)) == want


@pytest.mark.parametrize("L", [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])
def test_numeric_routes_refuse_degenerate_windows(sqrt2_spec, L):
    f = TrigPoly(sqrt2_spec, {(1, 0): 1.0, (0, 1): 0.5j})
    for g in (f, TrigPoly.zero(sqrt2_spec)):
        with pytest.raises(ValueError, match="positive and finite"):
            lp_norm_numeric(g, 4, L=L)
        with pytest.raises(ValueError, match="positive and finite"):
            mean_value_numeric(g, L=L)


@pytest.mark.parametrize("points", [-1, 0, 1])
def test_mean_value_numeric_refuses_fewer_than_two_points(sqrt2_spec, points):
    f = TrigPoly(sqrt2_spec, {(0, 0): 2.0, (1, 0): 1.0})
    with pytest.raises(ValueError, match="at least 2 points"):
        mean_value_numeric(f, L=10.0, points=points)


def test_norm_homogeneity_and_triangle(sqrt2_spec):
    rng = np.random.default_rng(23)
    f = random_poly(sqrt2_spec, 8, rng, box=3)
    g = random_poly(sqrt2_spec, 8, rng, box=3)
    for p in (2, 4, 6):
        assert lp_norm_exact(3.5j * f, p) == pytest.approx(
            3.5 * lp_norm_exact(f, p), rel=1e-10
        )
        assert lp_norm_exact(f + g, p) <= (
            lp_norm_exact(f, p) + lp_norm_exact(g, p)
        ) * (1 + 1e-10)


def test_conjugation_invariance(sqrt2_spec):
    rng = np.random.default_rng(24)
    f = random_poly(sqrt2_spec, 9, rng, box=3)
    for p in (2, 4, 6):
        assert lp_norm_exact(f.conj(), p) == pytest.approx(
            lp_norm_exact(f, p), rel=1e-12
        )


# -- space-time norms -----------------------------------------------------------


def test_mixed_norm_single_mode(sqrt2_spec):
    f = TrigPoly.single(sqrt2_spec, (3, 1), 1.0)
    w = MixedNormSpec(p=4, time_mode="window", T=0.7)
    assert mixed_norm_free(f, SCHROD, w) ** 4 == pytest.approx(0.7, rel=1e-12)
    g = MixedNormSpec(p=4, time_mode="global")
    assert mixed_norm_free(f, SCHROD, g) == pytest.approx(1.0, rel=1e-12)


def test_mixed_norm_zero_symbol_is_static(sqrt2_spec):
    rng = np.random.default_rng(25)
    f = random_poly(sqrt2_spec, 8, rng, box=3)
    flat = DispersionSymbol.polynomial([0.0])
    w = MixedNormSpec(p=4, time_mode="window", T=0.3)
    assert mixed_norm_free(f, flat, w) == pytest.approx(
        0.3**0.25 * lp_norm_exact(f, 4), rel=1e-12
    )


def test_mixed_norm_small_T_limit(sqrt2_spec):
    rng = np.random.default_rng(26)
    f = random_poly(sqrt2_spec, 8, rng, box=3)
    T = 1e-7
    w = MixedNormSpec(p=4, time_mode="window", T=T)
    val4 = mixed_norm_free(f, SCHROD, w) ** 4 / T
    assert val4 == pytest.approx(lp_norm_exact(f, 4) ** 4, rel=1e-5)


def test_mixed_norm_vs_time_quadrature_oracle(sqrt2_spec):
    # independent route: Gauss quadrature in t of the exact spatial norm of the
    # propagated data
    rng = np.random.default_rng(27)
    f = random_poly(sqrt2_spec, 6, rng, box=2)
    T = 0.2
    w = MixedNormSpec(p=4, time_mode="window", T=T)
    got = mixed_norm_free(f, SCHROD, w) ** 4
    xs, ws = np.polynomial.legendre.leggauss(48)
    ts = (xs + 1) * T / 2
    vals = [lp_norm_exact(propagate(f, SCHROD, t), 4) ** 4 for t in ts]
    oracle = float(np.dot(ws, vals) * T / 2)
    assert got == pytest.approx(oracle, rel=1e-9)


def test_mixed_norm_p2_and_p6(sqrt2_spec):
    rng = np.random.default_rng(28)
    f = random_poly(sqrt2_spec, 5, rng, box=2)
    w = MixedNormSpec(p=2, time_mode="window", T=0.5)
    assert mixed_norm_free(f, SCHROD, w) == pytest.approx(
        math.sqrt(0.5) * f.l2_norm(), rel=1e-12
    )
    w6 = MixedNormSpec(p=6, time_mode="window", T=0.2)
    got = mixed_norm_free(f, SCHROD, w6) ** 6
    xs, ws = np.polynomial.legendre.leggauss(48)
    ts = (xs + 1) * 0.2 / 2
    vals = [lp_norm_exact(propagate(f, SCHROD, t), 6) ** 6 for t in ts]
    oracle = float(np.dot(ws, vals) * 0.2 / 2)
    assert got == pytest.approx(oracle, rel=1e-8)


def test_global_mean_torus_oracle(int_spec):
    # periodic case: the global mean over time-space equals the torus average,
    # computed here on an exact FFT-sized grid
    rng = np.random.default_rng(29)
    f = random_poly(int_spec, 5, rng, box=3)
    g = MixedNormSpec(p=4, time_mode="global")
    got = mixed_norm_free(f, SCHROD, g) ** 4

    idx, vals = f.as_arrays()
    lam = idx[:, 0].astype(float)
    nx, nt = 64, 256  # above the bandwidths of |u|^4 in x and t
    xs = 2 * math.pi * np.arange(nx) / nx
    ts = 2 * math.pi * np.arange(nt) / nt
    u = np.zeros((nt, nx), dtype=complex)
    for k in range(len(vals)):
        u += vals[k] * np.exp(
            1j * (lam[k] * xs[None, :] - lam[k] ** 2 * ts[:, None])
        )
    oracle = float((np.abs(u) ** 4).mean())
    assert got == pytest.approx(oracle, rel=1e-10)


def test_global_mean_exact_vs_float_clustering(sqrt2_spec):
    # the float fallback must agree with exact resonance keys, and both with
    # the brute-force oracle: at heights where float rate sums carry roundoff,
    # where distinct rate sums lie 1e-12 apart relative to their size, on
    # data whose small frequencies come from large indices (3363 - 2378 sqrt2
    # is 1.5e-4), and on a d = 2 lattice
    from qpwave import LatticeSpec, QScalar
    from qpwave.meannorms import global_product_norm_sq

    d2_spec = LatticeSpec([[QScalar(Fraction(11, 10))], [QScalar(Fraction(13, 10))]])
    for spec, seed, p, shift in (
        (sqrt2_spec, 30, 4, (0, 0)),
        (sqrt2_spec, 30, 6, (10**3, 0)),
        (sqrt2_spec, 30, 6, (10**5, 0)),
        (sqrt2_spec, 1, 6, (49821, 92332)),
        (sqrt2_spec, 9, 6, (3363, -2378)),
        (d2_spec, 31, 6, (10**3, 10**3)),
    ):
        f = random_poly(spec, 8, np.random.default_rng(seed), box=3).shift(shift)
        k = p // 2
        exact = global_product_norm_sq([f] * k, SCHROD)
        assert exact == pytest.approx(oracle_global_mean(f, k), rel=1e-12)
        fallback = global_product_norm_sq([float_twin(f)] * k, SCHROD)
        assert fallback == pytest.approx(exact, rel=1e-9)


def test_mixed_norm_free_d2():
    # both time modes on a d = 2 lattice: the global mean against the
    # brute-force resonance oracle, the window against a 60-node Gauss-Legendre
    # time quadrature of the exact mean L^p norm of the evolved data
    from qpwave import LatticeSpec, QScalar

    spec = LatticeSpec([[QScalar(Fraction(11, 10))], [QScalar(Fraction(13, 10))]])
    f = random_poly(spec, 8, np.random.default_rng(5), box=3)
    T = 0.5
    nodes, weights = np.polynomial.legendre.leggauss(60)
    for p in (4, 6):
        glob = mixed_norm_free(f, SCHROD, MixedNormSpec(p=p, time_mode="global")) ** p
        assert glob == pytest.approx(oracle_global_mean(f, p // 2), rel=1e-12)
        window = mixed_norm_free(f, SCHROD, MixedNormSpec(p=p, time_mode="window", T=T)) ** p
        quad = T / 2 * sum(
            w * lp_norm_exact(propagate(f, SCHROD, T * (x + 1) / 2), p) ** p
            for x, w in zip(nodes, weights)
        )
        assert window == pytest.approx(quad, rel=1e-10)
        assert window != pytest.approx(T * glob, rel=1e-3)  # non-resonant tuples matter
    for p in (2, 4):  # the Airy law is defined on d = 1 only, whatever p
        with pytest.raises(ValueError, match="requires d = 1"):
            mixed_norm_free(f, DispersionSymbol.airy(), MixedNormSpec(p=p, time_mode="global"))


def test_lp_numeric_window_at_large_height(sqrt2_spec):
    # one 3-fold index sum reached in different orders has float frequency sums
    # near 1e4 that differ by roundoff (~1e-12); taken for the smallest gap,
    # they would size the window for a 1e20-point grid, so the window is sized
    # from the distinct index sums
    f = random_poly(sqrt2_spec, 5, np.random.default_rng(4), box=10**4)
    exact = lp_norm_exact(f, 6)
    assert lp_norm_numeric(f, 6) == pytest.approx(exact, rel=0.05)


# -- fitting and prediction ---------------------------------------------------------


def test_fit_exponent_exact_power_laws():
    fit = fit_exponent([(C, C**3) for C in (2, 4, 8, 16)])
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)
    fit2 = fit_exponent([(C, 5 * C**0.5) for C in (2, 4, 8, 16)])
    assert fit2.slope == pytest.approx(0.5, abs=1e-12)
    assert fit2.intercept == pytest.approx(math.log(5), abs=1e-12)


def test_fit_exponent_validation():
    with pytest.raises(ValueError):
        fit_exponent([(1, 1), (2, 2)])
    with pytest.raises(ValueError):
        fit_exponent([(1, 1), (2, -2), (3, 3)])


def test_predicted_exponent_values():
    assert predicted_exponent(4, 1, 1).s_star == Fraction(1, 4)
    assert predicted_exponent(6, 1, 1).s_star == Fraction(1, 3)
    assert predicted_exponent(math.inf, 1, 0).s_star == Fraction(1, 2)
    for d in (1, 2, 3):
        pred = predicted_exponent(Fraction(2 * (d + 2), d), d, 1)
        assert pred.alpha == 0
        assert pred.p_critical == Fraction(2 * (d + 2), d)
    # below the critical exponent the loss vanishes; above it grows
    assert predicted_exponent(4, 1, 0).alpha == 0
    assert predicted_exponent(8, 1, 0).alpha == Fraction(1, 2) - Fraction(3, 8)
    with pytest.raises(ValueError):
        predicted_exponent(2, 1, 1)


def test_mixed_norm_spec_validation():
    with pytest.raises(ValueError):
        MixedNormSpec(p=3, time_mode="window", T=1.0)
    with pytest.raises(ValueError):
        MixedNormSpec(p=4, time_mode="window", T=None)
    with pytest.raises(ValueError):
        MixedNormSpec(p=4, time_mode="sometimes")


def test_mixed_norm_homogeneity(sqrt2_spec):
    # degree-0 ratios make scan slopes invariant under rescaling trial data
    rng = np.random.default_rng(31)
    f = random_poly(sqrt2_spec, 7, rng, box=3)
    for mspec in (
        MixedNormSpec(p=4, time_mode="window", T=0.3),
        MixedNormSpec(p=4, time_mode="global"),
    ):
        base = mixed_norm_free(f, SCHROD, mspec)
        scaled = mixed_norm_free((2.5 - 1.0j) * f, SCHROD, mspec)
        assert scaled == pytest.approx(abs(2.5 - 1.0j) * base, rel=1e-12)
