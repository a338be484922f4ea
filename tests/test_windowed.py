"""Property tests of the windowed pairing engine.

``windowed_product_norm_sq`` batches the index-sum groups of the tuple fold
by size and factors the pair phases; ``oracle_windowed`` (conftest) is the
per-group phi1 loop it replaced, on the same fold.  The cases cover group
sizes from 1 up, the products [f]*2, [f]*3 and [f1, f2], and windows T that
put one pair's phase theta = T(r_i - r_j) just below or above 1, where the
engine switches between phi1 and the factored kernel, or near 1e-4, where
phi1 switches to its Taylor polynomial.  The tolerance is 1e-13 of
T * sum over groups of (sum |v|)^2, which bounds every pair sum.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from qpwave import DispersionSymbol, LatticeSpec, QScalar, TrigPoly, meannorms
from qpwave.kernels import group_boundaries, pack_rows
from qpwave.meannorms import _fold_tuple_data, evolved_factor_data, windowed_product_norm_sq
from conftest import oracle_windowed

SCHROD = DispersionSymbol.schrodinger()
R = QScalar.rational
FAMILIES = {
    "sqrt2": [[R(1), QScalar.sqrt(2)]],
    "sqrt3": [[R(1), QScalar.sqrt(3)]],
    "sqrt5": [[R(1), QScalar.sqrt(5)]],
    "integer": [[R(1)]],
    "float_rank3": [[1.0, math.sqrt(2.0), math.sqrt(3.0)]],
    "d2_sqrt2": [[R(1), QScalar.sqrt(2)], [QScalar.sqrt(2)]],
}
SPECS = {name: LatticeSpec(omega) for name, omega in FAMILIES.items()}
# |theta| of one chosen pair: either side of the split at 1 and of phi1's
# Taylor switch at 1e-4
THETAS = [1 - 1e-12, 1 + 1e-12, 1 - 1e-6, 1 + 1e-6, 1e-4 * (1 - 1e-6), 1e-4 * (1 + 1e-6)]
TOL = 1e-13


def tuple_groups(polys):
    """Rates, |values| and group starts of the tuple fold, grouped by index
    sum as the engine groups them."""
    datas = [evolved_factor_data(f, SCHROD) for f in polys]
    idx, val, rate, _ = _fold_tuple_data(datas, None)
    packed = pack_rows(idx)
    order = np.argsort(packed, kind="stable")
    return rate[order], np.abs(val[order]), group_boundaries(packed[order])


def pair_gaps(polys):
    """Distinct positive |r_i - r_j| over pairs within one group."""
    rate, _, cuts = tuple_groups(polys)
    gaps = [np.abs(r[:, None] - r[None, :]).ravel() for r in np.split(rate, cuts[1:])]
    gaps = np.concatenate(gaps)
    return np.unique(gaps[gaps > 0])


def pair_scale(polys, T):
    _, mag, cuts = tuple_groups(polys)
    return T * float((np.add.reduceat(mag, cuts) ** 2).sum())


def assert_matches_oracle(polys, T):
    got = windowed_product_norm_sq(polys, SCHROD, T)
    expect = oracle_windowed(polys, SCHROD, T)
    assert abs(got - expect) <= TOL * pair_scale(polys, T)


@st.composite
def windowed_case(draw):
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    index = st.tuples(*[st.integers(-3, 3)] * spec.rank)
    coeff = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)

    def poly():
        support = draw(st.lists(index, min_size=1, max_size=12, unique=True))
        return TrigPoly(spec, {n: draw(coeff) for n in support})

    f = poly()
    shape = draw(st.sampled_from(["f*2", "f*3", "f1,f2"]))
    polys = [f] * 2 if shape == "f*2" else [f] * 3 if shape == "f*3" else [f, poly()]
    gaps = pair_gaps(polys)
    theta = draw(st.sampled_from([None] + THETAS))
    if theta is None or not len(gaps):
        T = draw(st.floats(1e-3, 3.0))
    else:
        T = theta / float(draw(st.sampled_from(gaps.tolist())))
    return polys, T


@given(windowed_case())
def test_windowed_matches_per_group_oracle(case):
    assert_matches_oracle(*case)


def box_poly(spec, H, seed):
    """Random coefficients on every index of the box |n|_inf <= H: its square
    has groups of every size from 1 to (2H+1)^rank."""
    axes = np.meshgrid(*[np.arange(-H, H + 1)] * spec.rank, indexing="ij")
    idx = np.stack([a.ravel() for a in axes], axis=1)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
    return TrigPoly.from_arrays(spec, idx, vals)


@pytest.mark.parametrize("block", [meannorms.PAIR_BLOCK, 40])
@pytest.mark.parametrize("T", [0.01, 0.1, 1.0, 7.3])
def test_windowed_every_group_size(monkeypatch, block, T):
    # a small PAIR_BLOCK splits the size buckets into many chunks, one group
    # per chunk once s^2 exceeds it
    monkeypatch.setattr(meannorms, "PAIR_BLOCK", block)
    f = box_poly(SPECS["sqrt2"], 4, seed=1)
    _, _, cuts = tuple_groups([f, f])
    sizes = set(np.diff(np.r_[cuts, len(f) ** 2]).tolist())
    assert 1 in sizes and len(sizes) >= 20
    assert_matches_oracle([f, f], T)
    g = box_poly(SPECS["sqrt2"], 2, seed=4)
    assert_matches_oracle([g, g, g], T)


def test_windowed_boosted_to_large_rates():
    # a Galilean boost to height ~1e4 puts every rate near 1e8 while the rate
    # spread inside a group is unchanged; phases taken relative to the group
    # keep the kernel as accurate as the per-group differences
    for name in ("sqrt2", "d2_sqrt2"):
        spec = SPECS[name]
        f = box_poly(spec, 2, seed=5).shift([7071, 5000, 3000][: spec.rank])
        for T in (0.05, 1.0):
            assert_matches_oracle([f, f], T)


def test_windowed_calls_phi1_only_below_unit_phase(monkeypatch):
    f = box_poly(SPECS["sqrt3"], 3, seed=2)
    T = 0.3
    rate, _, cuts = tuple_groups([f, f])
    thetas = [T * (r[:, None] - r[None, :]) for r in np.split(rate, cuts[1:])]
    small = sum(int((np.abs(t) < 1).sum()) for t in thetas)
    pairs = sum(t.size for t in thetas)
    seen = []
    orig = meannorms.phi1
    monkeypatch.setattr(meannorms, "phi1", lambda z: seen.append(np.size(z)) or orig(z))
    windowed_product_norm_sq([f, f], SCHROD, T)
    assert sum(seen) == small < pairs / 2


def test_windowed_empty_factor():
    f = box_poly(SPECS["integer"], 2, seed=3)
    assert windowed_product_norm_sq([f, TrigPoly(f.spec, {})], SCHROD, 1.0) == 0.0
