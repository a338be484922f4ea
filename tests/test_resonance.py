"""Property tests of the resonance decision across lattice families.

Exact phase keys must reproduce the brute-force QScalar oracle, and the float
twin of each lattice must reproduce the exact result, for up to 6 modes from
a small index box boosted to heights up to 1e5: the box keeps nontrivial
resonances, and the boost moves them to large rates without changing them.
The float mode's (index sum, rate) order, which the tuple fold's one sort
gives it through a dense rate-rank column, must equal ``np.lexsort``, ties
included, so that its reports stay bitwise those of a lexsort.
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
from qpwave.meannorms import global_product_norm_sq
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
    # returns its rows (values = row numbers) in np.lexsort((rate, group))
    # order; a few distinct rates (and both zeros) drawn n times give exact
    # ties within and across groups
    rng = np.random.default_rng(n)
    group = rng.integers(0, groups, n)
    rate = rng.choice(np.r_[1e3 * rng.standard_normal(distinct), 0.0, -0.0], n)
    data = (group[:, None], np.arange(n, dtype=float), rate, None)
    idx, val, got_rate, scale = meannorms._fold_tuple_data([data], [np.arange(n, dtype=float)])
    want = np.lexsort((rate, group))
    assert (val == want).all() and (scale == want).all()
    assert (idx[:, 0] == group[want]).all()
    assert got_rate.tobytes() == rate[want].tobytes()


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
