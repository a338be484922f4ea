"""Property tests of the resonance decision across lattice families.

Exact phase keys must reproduce the brute-force QScalar oracle, and the float
twin of each lattice must reproduce the exact result, for up to 6 modes from
a small index box boosted to heights up to 1e5: the box keeps nontrivial
resonances, and the boost moves them to large rates without changing them.
The float mode's (index sum, rate) order, which the global average's one
sort gives it through the fold's dense rate-rank column, must equal
``np.lexsort``, ties included, so that its reports stay bitwise those of a
lexsort.  Boosted to heights up to 1e8, the Schroedinger space-time norms of
fixed data must stay bitwise unchanged, and summed phase keys beyond int64
must be refused.
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


@pytest.mark.parametrize("n, groups, distinct", [(1, 1, 1), (7, 2, 3), (5000, 300, 40)])
def test_group_rate_order_matches_lexsort(n, groups, distinct):
    # one factor whose index sums are the groups: given scales, the fold
    # appends the rate rank to its table, and the sort of that table in the
    # global float average puts its rows (values = row numbers) in
    # np.lexsort((rate, group)) order; a few distinct rates (and both zeros)
    # drawn n times give exact ties within and across groups
    rng = np.random.default_rng(n)
    group = rng.integers(0, groups, n)
    rate = rng.choice(np.r_[1e3 * rng.standard_normal(distinct), 0.0, -0.0], n)
    data = (group[:, None], np.arange(n, dtype=float), rate)
    table, val, got_rate, scale = meannorms._fold_tuple_data([data], [np.arange(n, dtype=float)])
    order, _ = meannorms.sort_rows(table)
    want = np.lexsort((rate, group))
    assert (val[order] == want).all() and (scale[order] == want).all()
    assert (table[order, 0] == group[want]).all()
    assert got_rate[order].tobytes() == rate[want].tobytes()


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
