import math
from fractions import Fraction

import numpy as np
import pytest

from qpwave import (
    DispersionSymbol,
    NumericConsistencyError,
    QScalar,
    SolverConfig,
    TrigPoly,
    homogeneous_sobolev_norm,
    kdv_rhs,
    kdv_solve,
    mean_value,
    mean_zero_part,
    require_real_field,
    resonance,
    resonance_bound_check,
)
from qpwave.evolution import propagate
from conftest import random_poly


def rand_exact(rng):
    return QScalar(
        Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 9))),
        Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 9))),
        2,
    )


def test_resonance_trivia():
    r = resonance(1.0, 1.0)
    assert r.value == pytest.approx(6.0)
    x = QScalar(2, 3, 2)
    r2 = resonance(x, -x)
    assert r2.value.is_zero and r2.expanded.is_zero


def test_resonance_forms_agree_exactly_on_field_points():
    rng = np.random.default_rng(70)
    for _ in range(500):
        r = resonance(rand_exact(rng), rand_exact(rng))
        assert (r.expanded - r.factored).is_zero


def test_resonance_magnitude_identity_float():
    rng = np.random.default_rng(71)
    x1 = rng.standard_normal(10_000) * 5
    x2 = rng.standard_normal(10_000) * 5
    for a, b in zip(x1[:200], x2[:200]):
        r = resonance(float(a), float(b))
        assert abs(abs(r.value) - 3 * abs(a + b) * abs(a) * abs(b)) <= 1e-12 * max(
            abs(r.value), 1.0
        )


def test_resonance_inconsistent_floats_raise():
    class Bad(float):
        def __mul__(self, other):
            return float(self) * other * (1 + 1e-6)

        __rmul__ = __mul__

    with pytest.raises(NumericConsistencyError):
        resonance(Bad(1.0), 1.0)


def test_resonance_bound_example():
    # admissible sample at unit shells: both inputs 3/4
    r = resonance(0.75, 0.75)
    assert r.value == pytest.approx(3 * 1.5 * 0.75 * 0.75, rel=1e-14)
    assert r.value == pytest.approx(81 / 32, rel=1e-14)


def test_resonance_bound_check_ranges():
    for N, N1, N2 in [(1, 1, 1), (8, 8, 2), (2, 16, 16), (16, 16, 16), (32, 32, 1)]:
        rep = resonance_bound_check(N, N1, N2, samples=400, seed=3)
        assert rep.feasible
        assert rep.in_range, (N, N1, N2, rep.min_ratio, rep.max_ratio)


def test_resonance_bound_concentrates_for_lopsided_shells():
    rep = resonance_bound_check(64, 64, 1, samples=500, seed=4)
    # ratio = 3 |x1+x2| |x1| |x2| / (64^2 * 1) with |x1+x2|,|x1| ~ 64, |x2| ~ 1
    assert rep.feasible
    assert 3 / 16 <= rep.min_ratio and rep.max_ratio <= 3.0


def test_resonance_bound_infeasible_configuration():
    rep = resonance_bound_check(64, 2, 2, samples=100, seed=5)
    assert not rep.feasible
    assert rep.n_samples == 0
    assert not rep.in_range


def test_kdv_rhs_cosine(sqrt2_spec):
    # u = cos(lam x) gives u u_x = -(lam/2) sin(2 lam x)
    n = (1, 1)
    lam = float(sqrt2_spec.freq1(n))
    u = TrigPoly(sqrt2_spec, {n: 0.5, tuple(-x for x in n): 0.5})
    g = kdv_rhs(u)
    two_n = tuple(2 * x for x in n)
    assert g.coeff(two_n) == pytest.approx(1j * lam / 4, rel=1e-13)
    assert g.coeff(tuple(-x for x in two_n)) == pytest.approx(-1j * lam / 4, rel=1e-13)
    assert g.coeff((0, 0)) == 0.0
    assert g.is_real_valued()


def test_kdv_rhs_preserves_structure(sqrt2_spec):
    rng = np.random.default_rng(72)
    u = random_poly(sqrt2_spec, 12, rng, box=3, real=True)
    g = kdv_rhs(u)
    assert mean_value(g) == 0.0
    assert g.is_real_valued(1e-12)


def test_require_real_field(sqrt2_spec):
    bad = TrigPoly.single(sqrt2_spec, (1, 0), 1.0 + 1.0j)
    with pytest.raises(ValueError):
        require_real_field(bad)
    has_mean = TrigPoly(sqrt2_spec, {(0, 0): 1.0, (1, 0): 0.5, (-1, 0): 0.5})
    with pytest.raises(ValueError):
        require_real_field(has_mean)
    fixed = mean_zero_part(has_mean)
    assert require_real_field(fixed) is fixed


def test_kdv_solve_zero(sqrt2_spec):
    res = kdv_solve(TrigPoly.zero(sqrt2_spec), SolverConfig(trunc_height=4, dt=1e-2, T=0.05))
    assert res.final.l2_norm() == 0.0


@pytest.mark.parametrize("extra", [{"sign": -1}, {"power": 3}], ids=["sign", "power"])
def test_kdv_solve_refuses_sign_and_power(sqrt2_spec, extra):
    # the KdV nonlinearity has neither a sign nor a power to choose
    u0 = TrigPoly(sqrt2_spec, {(1, 0): 0.25, (-1, 0): 0.25})
    with pytest.raises(ValueError, match="fixed nonlinearity"):
        kdv_solve(u0, SolverConfig(trunc_height=4, dt=1e-3, T=0.01, **extra))


def test_kdv_linear_regime_amplitude_scaling(sqrt2_spec):
    # error against the free flow shrinks quadratically with the amplitude
    rng = np.random.default_rng(60)
    base = random_poly(sqrt2_spec, 8, rng, box=2, real=True, unit=True)
    airy = DispersionSymbol.airy()
    cfg = SolverConfig(trunc_height=9, dt=1e-3, T=0.05)
    errs = []
    for eps in (0.1, 0.05):
        res = kdv_solve(eps * base, cfg)
        errs.append((res.final - propagate(eps * base, airy, 0.05)).l2_norm())
    assert errs[1] / errs[0] == pytest.approx(0.25, abs=0.1)


@pytest.mark.filterwarnings("ignore:Galerkin truncation")
def test_kdv_mass_conservation(sqrt2_spec):
    rng = np.random.default_rng(61)
    u0 = random_poly(sqrt2_spec, 20, rng, box=4, real=True)  # 40 modes
    u0 = (0.8 / u0.l2_norm()) * u0
    res = kdv_solve(u0, SolverConfig(trunc_height=6, dt=1e-3, T=0.05))
    drift = abs(res.final.l2_norm() - u0.l2_norm()) / u0.l2_norm()
    assert drift < 1e-8
    assert abs(mean_value(res.final)) == 0.0
    assert res.final.is_real_valued(1e-10)


def test_homogeneous_diagnostic_norm(sqrt2_spec):
    f = TrigPoly(sqrt2_spec, {(1, 0): 1.0, (-1, 0): 1.0})
    val = homogeneous_sobolev_norm(f, s1=-0.5)
    assert val == pytest.approx(math.sqrt(2.0), rel=1e-12)  # |lam| = 1 weights
    g = TrigPoly(sqrt2_spec, {(0, 0): 1.0})
    with pytest.raises(ValueError):
        homogeneous_sobolev_norm(g, s1=-1.0)
    assert homogeneous_sobolev_norm(f, s1=0.0, s2=1.0) == pytest.approx(
        math.sqrt(2 * (1 + 1.0) ** 2), rel=1e-12
    )


def test_real_field_json_roundtrip(sqrt2_spec):
    from qpwave import real_field_from_dict, real_field_to_dict

    rng = np.random.default_rng(73)
    u = random_poly(sqrt2_spec, 10, rng, box=3, real=True)
    payload = real_field_to_dict(u)
    assert payload["hermitian"] is True
    # only one representative per conjugate pair is stored
    assert len(payload["coeffs"]) == len(u) // 2
    for row in payload["coeffs"]:
        lead = next(x for x in row["n"] if x != 0)
        assert lead > 0
    again = real_field_from_dict(payload)
    assert (again - u).l2_norm() < 1e-15
