import math

import numpy as np
import pytest

from qpwave import (
    DispersionSymbol,
    MixedNormSpec,
    TrigPoly,
    boost_mixed_norm_check,
    galilean_boost,
    mixed_norm_free,
    propagate,
)
from conftest import random_poly

SCHROD = DispersionSymbol.schrodinger()
AIRY = DispersionSymbol.airy()


def test_symbol_validation():
    with pytest.raises(ValueError):
        DispersionSymbol("wavey")
    with pytest.raises(ValueError):
        DispersionSymbol.polynomial([1, 2, 3, 4, 5, 6])  # degree 5


def test_propagate_identity_at_zero(sqrt2_spec):
    rng = np.random.default_rng(40)
    f = random_poly(sqrt2_spec, 10, rng)
    assert (propagate(f, SCHROD, 0.0) - f).l2_norm() == 0.0


def test_propagate_group_law(sqrt2_spec):
    rng = np.random.default_rng(41)
    f = random_poly(sqrt2_spec, 10, rng)
    for sym in (SCHROD, AIRY, DispersionSymbol.polynomial([0.5, 0, 1.0, 2.0])):
        back = propagate(propagate(f, sym, 0.37), sym, -0.37)
        assert (back - f).l2_norm() < 1e-12
        both = propagate(propagate(f, sym, 0.2), sym, 0.3)
        once = propagate(f, sym, 0.5)
        assert (both - once).l2_norm() < 1e-12


def test_propagate_unitary(sqrt2_spec):
    rng = np.random.default_rng(42)
    f = random_poly(sqrt2_spec, 20, rng)
    n0 = f.l2_norm()
    for sym in (SCHROD, AIRY):
        for t in (0.1, 1.0, 17.3):
            assert abs(propagate(f, sym, t).l2_norm() - n0) <= 1e-12 * n0


def test_airy_keeps_real_data_real(sqrt2_spec):
    rng = np.random.default_rng(43)
    f = random_poly(sqrt2_spec, 12, rng, real=True)
    assert propagate(f, AIRY, 0.83).is_real_valued(1e-12)
    # the schrodinger flow does not preserve realness
    assert not propagate(f, SCHROD, 0.83).is_real_valued(1e-6)


def test_boost_shifts_indices(sqrt2_spec):
    f = TrigPoly.single(sqrt2_spec, (1, 2), 2.0)
    g = galilean_boost(f, (3, -1))
    assert g.coeff((4, 1)) == 2.0
    assert (galilean_boost(f, (0, 0)) - f).l2_norm() == 0.0


def test_boost_mixed_norm_identity_boost(sqrt2_spec):
    rng = np.random.default_rng(44)
    f = random_poly(sqrt2_spec, 6, rng, box=3)
    a, b = boost_mixed_norm_check(f, (0, 0), T=0.3)
    assert a == b


def test_boost_single_mode_norms(sqrt2_spec):
    f = TrigPoly.single(sqrt2_spec, (2, 0), 1.0)
    a, b = boost_mixed_norm_check(f, (5, -3), T=0.4)
    assert a == pytest.approx(0.4**0.25, rel=1e-12)
    assert b == pytest.approx(0.4**0.25, rel=1e-12)


def test_boost_mixed_norm_invariance_random(sqrt2_spec):
    # quadruple phases are unchanged by a frequency shift on the convolution
    # constraint, so both windowed norms agree to roundoff
    rng = np.random.default_rng(45)
    f = random_poly(sqrt2_spec, 8, rng, box=4)
    a, b = boost_mixed_norm_check(f, (3, -2), T=0.1)
    assert abs(a - b) <= 1e-10 * max(a, 1.0)


def test_boost_invariance_global_mean_too(sqrt2_spec):
    rng = np.random.default_rng(46)
    f = random_poly(sqrt2_spec, 8, rng, box=4)
    g = MixedNormSpec(p=4, time_mode="global")
    na = mixed_norm_free(f, SCHROD, g)
    nb = mixed_norm_free(galilean_boost(f, (2, 2)), SCHROD, g)
    assert na == pytest.approx(nb, rel=1e-12)


def test_exact_phase_keys_integer_path(sqrt2_spec):
    f = TrigPoly(sqrt2_spec, {(1, 1): 1.0, (-1, -1): 1.0, (2, 0): 1.0})
    keys = SCHROD.phase_rate_keys(f)
    assert isinstance(keys, np.ndarray)
    idx, _ = f.as_arrays()
    for row, key in zip(idx, keys):
        lam = sqrt2_spec.freq1(tuple(int(x) for x in row))
        val = -(lam * lam)
        assert (int(key[0]), int(key[1])) == (val.a, val.b)


def test_exact_phase_keys_rational_path():
    from fractions import Fraction

    from qpwave import LatticeSpec, QScalar

    # common denominator 6: keys are the rates times 6^2 (Schroedinger) or
    # 6^3 (Airy), in the same int64 form as for integer generators
    spec = LatticeSpec([[QScalar(Fraction(1, 2)), QScalar(0, Fraction(1, 3), 2)]])
    f = TrigPoly(spec, {(1, 0): 1.0, (0, 1): 1.0, (3, -2): 1.0})
    idx, _ = f.as_arrays()
    for sym, scale, law in ((SCHROD, 36, lambda x: -(x * x)), (AIRY, 216, lambda x: x**3)):
        keys = sym.phase_rate_keys(f)
        assert keys.dtype == np.int64 and keys.shape == (3, 2)
        for row, key in zip(idx, keys):
            val = law(spec.freq1(tuple(int(x) for x in row))) * scale
            assert (int(key[0]), int(key[1])) == (val.a, val.b)


def test_phase_key_overflow_raises(sqrt2_spec):
    # the Airy key of (1e7, 3) is 1e21; three keys of (1.5e6, 0) fit one by
    # one but not summed over a 3-fold tuple
    g4 = MixedNormSpec(p=4, time_mode="global")
    g6 = MixedNormSpec(p=6, time_mode="global")
    with pytest.raises(ValueError, match="int64"):
        mixed_norm_free(TrigPoly.single(sqrt2_spec, (10**7, 3)), AIRY, g6)
    f = TrigPoly.single(sqrt2_spec, (1_500_000, 0))
    assert mixed_norm_free(f, AIRY, g4) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="int64"):
        mixed_norm_free(f, AIRY, g6)


def test_float_mode_has_no_keys():
    from qpwave import LatticeSpec

    spec = LatticeSpec([[1.0, math.sqrt(2.0)]])
    f = TrigPoly.single(spec, (1, 1))
    assert SCHROD.phase_rate_keys(f) is None
    assert DispersionSymbol.polynomial([1.0, 2.0]).phase_rate_keys(f) is None
