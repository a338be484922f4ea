"""Property tests of the multiset tuple fold and the windowed pairing engine.

``windowed_product_norm_sq`` pairs the index-sum groups of the tuple fold,
which enumerates each multiset of a repeated factor once, batched by size and
with factored pair phases: far pairs are one real Cauchy form in
1/(r_i - r_j) per block, ordered near pairs call phi1, and every block writes
into one workspace per call.  ``oracle_windowed`` (conftest) is a per-group
loop of its own complex ``oracle_phi1`` over an ordered ``itertools.product``
enumeration, independent of the fold and of the engine's phi1 kernel.  The
cases cover group sizes from 1 up, the products [f]*2, [f]*3, [f, f, g] and
[f1, f2], and windows T that put one pair's phase theta = T(r_i - r_j) just
below or above 1, where the engine switches between phi1 and the Cauchy
form, or near 1e-4, where ``oracle_phi1`` switches to its Taylor polynomial
(the engine's real-argument phi1 has no branch).  Exactly equal rates off the
diagonal (integer lattice, [f1, f2]) raise no warning, and an error in phi1
shows as an imaginary residue.  The tolerance is 1e-13 of
T * sum over groups of (sum |v|)^2, which bounds every pair sum.  The global mean is checked against the exact
product oracle to 1e-12 of the sum over groups of (sum |term|)^2.
"""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from qpwave import (
    BudgetError,
    DispersionSymbol,
    LatticeSpec,
    NumericConsistencyError,
    QScalar,
    TrigPoly,
    meannorms,
)
from qpwave.meannorms import global_product_norm_sq, windowed_product_norm_sq
from conftest import oracle_global_groups, oracle_tuple_groups, oracle_windowed

SCHROD = DispersionSymbol.schrodinger()
R = QScalar.rational
FAMILIES = {
    "sqrt2": [[R(1), QScalar.sqrt(2)]],
    "sqrt3": [[R(1), QScalar.sqrt(3)]],
    "sqrt5": [[R(1), QScalar.sqrt(5)]],
    "integer": [[R(1)]],
    "float_rank2": [[1.0, math.sqrt(2.0)]],
    "float_rank3": [[1.0, math.sqrt(2.0), math.sqrt(3.0)]],
    "d2_sqrt2": [[R(1), QScalar.sqrt(2)], [QScalar.sqrt(2)]],
}
SPECS = {name: LatticeSpec(omega) for name, omega in FAMILIES.items()}
# |theta| of one chosen pair: either side of the engine's split at 1 and of
# the oracle phi1's Taylor switch at 1e-4
THETAS = [1 - 1e-12, 1 + 1e-12, 1 - 1e-6, 1 + 1e-6, 1e-4 * (1 - 1e-6), 1e-4 * (1 + 1e-6)]
TOL = 1e-13


def tuple_groups(polys):
    """(rates, values) per index-sum group of the ordered oracle enumeration."""
    return oracle_tuple_groups(polys, SCHROD)


def pair_gaps(polys):
    """Distinct positive |r_i - r_j| over pairs within one group."""
    gaps = np.concatenate([np.abs(r[:, None] - r[None, :]).ravel() for r, _ in tuple_groups(polys)])
    return np.unique(gaps[gaps > 0])


def pair_scale(polys, T):
    return T * sum(float(np.abs(v).sum()) ** 2 for _, v in tuple_groups(polys))


def assert_matches_oracle(polys, T):
    got = windowed_product_norm_sq(polys, SCHROD, T)
    expect = oracle_windowed(polys, SCHROD, T)
    assert abs(got - expect) <= TOL * pair_scale(polys, T)


@st.composite
def product_case(draw, shapes=("f*2", "f*3", "f,f,g", "f1,f2")):
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    index = st.tuples(*[st.integers(-3, 3)] * spec.rank)
    coeff = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)

    def poly():
        support = draw(st.lists(index, min_size=1, max_size=12, unique=True))
        return TrigPoly(spec, {n: draw(coeff) for n in support})

    f = poly()
    shape = draw(st.sampled_from(shapes))
    return {
        "f*2": lambda: [f] * 2,
        "f*3": lambda: [f] * 3,
        "f,f,g": lambda: [f, f, poly()],
        "f1,f2": lambda: [f, poly()],
    }[shape]()


@st.composite
def windowed_case(draw):
    polys = draw(product_case())
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
    sizes = {len(r) for r, _ in tuple_groups([f, f])}
    assert 1 in sizes and len(sizes) >= 20
    assert_matches_oracle([f, f], T)
    g = box_poly(SPECS["sqrt2"], 2, seed=4)
    assert_matches_oracle([g, g, g], T)


def test_windowed_boosted_to_large_rates():
    # a Galilean boost to height ~1e4 puts every rate near 1e8 while the rate
    # spread inside a group is unchanged; the engine recenters the data, so
    # the boosted datum matches the oracle on the unboosted one, whose rates
    # carry no roundoff of the height
    for name in ("sqrt2", "d2_sqrt2"):
        spec = SPECS[name]
        f = box_poly(spec, 2, seed=5)
        g = f.shift([7071, 5000, 3000][: spec.rank])
        for T in (0.05, 1.0):
            got = windowed_product_norm_sq([g, g], SCHROD, T)
            assert abs(got - oracle_windowed([f, f], SCHROD, T)) <= TOL * pair_scale([f, f], T)


def test_windowed_calls_phi1_only_below_unit_phase(monkeypatch):
    f = box_poly(SPECS["sqrt3"], 3, seed=2)
    T = 0.3
    thetas = [T * (r[:, None] - r[None, :]) for r, _ in tuple_groups([f, f])]
    # the diagonal (theta = 0) is exactly T without phi1
    small = sum(int((np.abs(t) < 1).sum()) - len(t) for t in thetas)
    pairs = sum(t.size for t in thetas)
    seen = []
    orig = meannorms.phi1
    monkeypatch.setattr(meannorms, "phi1", lambda z: seen.append(np.size(z)) or orig(z))
    windowed_product_norm_sq([f, f], SCHROD, T)
    assert sum(seen) == small < pairs / 2


def test_windowed_equal_off_diagonal_rates_raise_no_warning():
    # two distinct factors on shared integer indices: the tuples (a, b) and
    # (b, a) have the same index sum and exactly equal rates, so the Cauchy
    # matrix would divide by zero off the diagonal unless those entries are
    # excluded first
    spec = SPECS["integer"]
    f1, f2 = box_poly(spec, 3, seed=7), box_poly(spec, 3, seed=8)
    idx, _, rate = meannorms._fold_tuple_data(meannorms._factor_datas([f1, f2], SCHROD)[0])
    assert len({(tuple(n), x) for n, x in zip(idx.tolist(), rate.tolist())}) < len(rate)
    for T in (0.1, 2.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_oracle([f1, f2], T)


def test_windowed_imaginary_residue_sees_near_pairs(monkeypatch):
    # every ordered near pair goes through phi1, so an error there leaves an
    # imaginary residue that the consistency check reports
    f = box_poly(SPECS["sqrt3"], 3, seed=2)
    T = 0.3
    thetas = [T * (r[:, None] - r[None, :]) for r, _ in tuple_groups([f, f])]
    assert sum(int((np.abs(t) < 1).sum()) - len(t) for t in thetas) > 0
    orig = meannorms.phi1
    monkeypatch.setattr(meannorms, "phi1", lambda z: orig(z) + 1e-3j)
    with pytest.raises(NumericConsistencyError, match="imaginary residue"):
        windowed_product_norm_sq([f, f], SCHROD, T)


def test_windowed_empty_factor():
    f = box_poly(SPECS["integer"], 2, seed=3)
    assert windowed_product_norm_sq([f, TrigPoly(f.spec, {})], SCHROD, 1.0) == 0.0


def unit_datas(polys):
    """Per-factor fold data with every coefficient 1; a repeated factor shares
    its predecessor's tuple, as in the engine."""
    datas, _ = meannorms._factor_datas(polys, SCHROD)
    unit = {id(d): (d[0], np.ones(len(d[1]), dtype=complex), d[2]) for d in datas}
    return [unit[id(d)] for d in datas]


@given(product_case(shapes=("f*2", "f*3", "f,f,g")))
def test_multiset_weights_sum_to_ordered_count(polys):
    # the fold merges nothing on any lattice: one row per multiset
    idx, val, _ = meannorms._fold_tuple_data(unit_datas(polys))
    assert val.sum() == math.prod(len(f) for f in polys)
    k = sum(f is polys[0] for f in polys)  # [f] * k, then at most one other
    other = len(polys[-1]) if k < len(polys) else 1
    assert len(idx) == math.comb(len(polys[0]) + k - 1, k) * other


@given(product_case(shapes=("f*2", "f*3", "f,f,g")))
def test_global_mean_matches_product_oracle(polys):
    groups = oracle_global_groups(polys)
    expect = sum(abs(v) ** 2 for v, _ in groups)
    got = global_product_norm_sq(polys, SCHROD)
    assert abs(got - expect) <= 1e-12 * sum(m * m for _, m in groups)


@pytest.mark.parametrize("name", ["sqrt2", "float_rank2"])
def test_tuple_enumeration_budget_counts_ordered_tuples(name, work_budget):
    # the multiset table is smaller than the budget, the ordered count is not
    f = box_poly(SPECS[name], 2, seed=6)
    m = len(f)
    for k in (2, 3):
        assert math.comb(m + k - 1, k) < m**k - 1
        work_budget(m**k - 1)
        with pytest.raises(BudgetError, match="tuple enumeration"):
            global_product_norm_sq([f] * k, SCHROD)
        with pytest.raises(BudgetError, match="tuple enumeration"):
            windowed_product_norm_sq([f] * k, SCHROD, 1.0)
