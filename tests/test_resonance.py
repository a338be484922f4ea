"""Property tests of the resonance decision across lattice families.

Exact phase keys must reproduce the brute-force QScalar oracle, and the float
twin of each lattice must reproduce the exact result, for up to 6 modes from
a small index box boosted to heights up to 1e5: the box keeps nontrivial
resonances, and the boost moves them to large rates without changing them.
The float mode's tolerance-cluster column must group the rows of each index
sum as clustering that sum's rates alone does, and its reports must stay
bitwise those of a ``np.lexsort`` grouping.  Boosted to heights up to 1e8,
the Schroedinger space-time norms of fixed data must stay bitwise unchanged,
and summed phase keys beyond int64 must be refused.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from qpwave import (
    DispersionSymbol,
    LatticeSpec,
    QScalar,
    TrigPoly,
    averaged_norm_check,
    float_lattice,
    meannorms,
)
from qpwave.meannorms import global_product_norm_sq, windowed_product_norm_sq
from qpwave.trigpoly import FLOAT_SUM_TOL
from conftest import float_twin, oracle_global_mean

SCHROD = DispersionSymbol.schrodinger()
R = QScalar.rational
FAMILIES = {
    "sqrt2": [[R(1), QScalar.sqrt(2)]],
    "sqrt3": [[R(1), QScalar.sqrt(3)]],
    "sqrt5": [[R(1), QScalar.sqrt(5)]],
    "rational": [[R(Fraction(1, 2)), QScalar(0, Fraction(1, 3), 2)]],
    "integer": [[R(1)]],
    "d2_rational": [[R(Fraction(11, 10))], [R(Fraction(13, 10))]],
    "d2_sqrt2": [[R(1), QScalar.sqrt(2)], [QScalar.sqrt(2)]],
}
SPECS = {name: LatticeSpec(omega) for name, omega in FAMILIES.items()}


@st.composite
def boosted_data(draw):
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    index = st.tuples(*[st.integers(-3, 3)] * spec.rank)
    support = draw(st.lists(index, min_size=2, max_size=6, unique=True))
    coeff = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)
    height = draw(st.sampled_from([10**5, 10**4, 10**3, 0]))
    size = st.integers(height // 2, height)
    shift = [draw(st.sampled_from([-1, 1])) * draw(size) for _ in range(spec.rank)]
    return TrigPoly(spec, {n: draw(coeff) for n in support}).shift(shift)


@given(boosted_data(), st.sampled_from([4, 6]))
def test_global_mean_exact_oracle_and_float_twin(f, p):
    k = p // 2
    exact = global_product_norm_sq([f] * k, SCHROD)
    assert exact == pytest.approx(oracle_global_mean(f, k), rel=1e-12)
    twin = global_product_norm_sq([float_twin(f)] * k, SCHROD)
    assert twin == pytest.approx(exact, rel=1e-9)


def test_float_clusters_share_within_tolerance_and_split_beyond():
    # scale 1e3: neighbours within 1e-11 share an id, both zeros included;
    # a gap is measured against the larger of the two scales
    tol = FLOAT_SUM_TOL * 1e3
    values = np.array([5 + 3 * tol, 0.0, 7.0, 5.0, -0.0, 9 + tol / 2, 5 + tol / 2, 9.0, 11.0])
    values = np.r_[values, 11 + tol / 2]
    scales = np.r_[np.full(7, 1e3), 1.0, 1.0, 1.0]
    ids = meannorms._float_clusters(values, scales)
    assert ids.tolist() == [2, 0, 3, 1, 0, 4, 1, 4, 5, 6]


@pytest.mark.parametrize("n, groups, distinct", [(1, 1, 1), (7, 2, 3), (5000, 300, 40)])
def test_rate_cluster_column_groups_like_per_sum_clustering(n, groups, distinct):
    # one factor whose index sums are the groups: given scales, the fold
    # appends the tolerance-cluster id of the rates, and sorting its table
    # groups the rows as clustering each index sum's rates alone does; a few
    # distinct rates (and both zeros), each jittered within the tolerance of
    # its scale, are drawn n times
    rng = np.random.default_rng(n)
    group = rng.integers(0, groups, n)
    center = rng.integers(0, distinct + 2, n)
    rate = np.r_[1e3 * rng.standard_normal(distinct), 0.0, -0.0][center]
    scale = np.full(n, 1e4)
    rate[center < distinct] += rng.integers(0, 4, n)[center < distinct] * 3e-11
    data = (group[:, None], np.arange(n, dtype=float), rate)
    table, val, got_rate = meannorms._fold_tuple_data([data], [scale])
    assert got_rate.tobytes() == rate.tobytes() and (table[:, 0] == group).all()
    order, cuts = meannorms.sort_rows(table)
    ends = np.r_[cuts[1:], n]
    got = {frozenset(val[order[a:b]].astype(int).tolist()) for a, b in zip(cuts, ends)}
    want = set()
    for g in np.unique(group):
        rows = sorted(np.flatnonzero(group == g).tolist(), key=lambda i: rate[i])
        cluster = [rows[0]]
        for i, j in zip(rows, rows[1:]):
            if rate[j] - rate[i] > FLOAT_SUM_TOL * max(scale[i], scale[j]):
                want.add(frozenset(cluster))
                cluster = []
            cluster.append(j)
        want.add(frozenset(cluster))
    assert got == want


@pytest.mark.parametrize("seed", range(1, 11))
def test_float_twin_averaged_reports_match_lexsort_order(monkeypatch, seed):
    spec = float_lattice([1.0, math.sqrt(2.0)])

    def report():
        rep = averaged_norm_check(spec, [8, 16, 32, 64], trials=1, max_support=256, seed=seed)
        return json.dumps(rep.to_json_dict(), sort_keys=True)

    def lexsort_rows(rows):
        order = np.lexsort(rows.T[::-1])
        ordered = rows[order]
        return order, np.flatnonzero(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)])

    got = report()
    monkeypatch.setattr(meannorms, "sort_rows", lexsort_rows)
    assert report() == got


def ball_poly(spec, seed):
    """Random coefficients on the radius-2 Euclidean index ball (13 modes at
    rank 2, 33 at rank 3)."""
    axes = np.meshgrid(*[np.arange(-2, 3)] * spec.rank, indexing="ij")
    idx = np.stack([a.ravel() for a in axes], axis=1)
    idx = idx[(idx * idx).sum(axis=1) <= 4]
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
    return TrigPoly.from_arrays(spec, idx, vals)


@pytest.mark.parametrize("name", ["sqrt2", "d2_sqrt2"])
def test_space_time_norms_boost_invariant(name):
    # the Schroedinger norms recenter on the data, so a common Galilean boost
    # to heights up to 1e8 gives bitwise the unboosted windowed and global
    # norms, on the exact lattice and on its float twin, and the twin's
    # average matches the exact one there
    f = ball_poly(SPECS[name], seed=7)
    twin = float_twin(f)
    for k in (2, 3):
        exact = global_product_norm_sq([f] * k, SCHROD)
        for g in (f, twin):
            want = [global_product_norm_sq([g] * k, SCHROD)]
            want += [windowed_product_norm_sq([g] * k, SCHROD, T) for T in (0.1, 1.0)]
            for h in (10**4, 10**6, 10**7, 10**8):
                boosted = [g.shift([h, -h // 2, h // 4][: g.spec.rank])] * k
                got = [global_product_norm_sq(boosted, SCHROD)]
                got += [windowed_product_norm_sq(boosted, SCHROD, T) for T in (0.1, 1.0)]
                assert got == want
                if g is twin and h >= 10**7:
                    assert abs(got[0] - exact) <= 1e-9 * exact


def test_global_mean_refuses_phase_key_sums_beyond_int64():
    # each factor's keys fit int64 (N^2 < 2^63), their sum over two factors
    # does not; the windowed norm forms no keys and is unaffected
    N = 2_500_000_000
    f = TrigPoly(SPECS["sqrt2"], {(0, 0): 1.0, (N, 0): 0.5})
    assert SCHROD.phase_rate_keys(f) is not None
    with pytest.raises(ValueError, match="int64"):
        global_product_norm_sq([f, f], SCHROD)
    assert windowed_product_norm_sq([f, f], SCHROD, 0.1) > 0
