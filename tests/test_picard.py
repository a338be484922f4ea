"""Property test of the first Picard iterate against an ordered-tuple oracle.

``first_picard_iterate`` folds the ``power`` plain factors as multisets and
pairs the folded rows with the last conjugated factor in chunks; the oracle
(``oracle_first_picard_iterate``, conftest) enumerates every ordered tuple by
``itertools.product`` and integrates each tuple's oscillation by 64-node
Gauss-Legendre quadrature.  Each coefficient must agree to 1e-12 of t times
the sum of |coefficient products| of its tuples, and the supports must agree
apart from coefficients that the oracle itself puts within that bound of 0.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from qpwave import LatticeSpec, QScalar, TrigPoly
from qpwave.nls import first_picard_iterate
from conftest import oracle_first_picard_iterate

R = QScalar.rational
FAMILIES = {
    "sqrt2": [[R(1), QScalar.sqrt(2)]],
    "integer": [[R(1)]],
    "float_rank3": [[1.0, math.sqrt(2.0), math.sqrt(3.0)]],
    "d2_sqrt2": [[R(1), QScalar.sqrt(2)], [QScalar.sqrt(2)]],
}
SPECS = {name: LatticeSpec(omega) for name, omega in FAMILIES.items()}
# the oracle enumerates M^(2 power - 1) ordered tuples
MAX_MODES = {2: 7, 3: 4}
TOL = 1e-12


@st.composite
def picard_case(draw):
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    power = draw(st.sampled_from([2, 3]))
    index = st.tuples(*[st.integers(-3, 3)] * spec.rank)
    support = draw(st.lists(index, min_size=1, max_size=MAX_MODES[power], unique=True))
    coeff = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)
    f = TrigPoly(spec, {n: draw(coeff) for n in support})
    return f, draw(st.floats(1e-3, 0.05)), power


@given(picard_case())
def test_first_iterate_matches_ordered_tuple_oracle(case):
    f, t, power = case
    it = first_picard_iterate(f, t, power=power)
    oracle = oracle_first_picard_iterate(f, t, power)
    kept = {n for n, (v, scale) in oracle.items() if abs(v) > TOL * scale}
    assert kept <= set(it.support) <= set(oracle)
    for n, (v, scale) in oracle.items():
        assert abs(it.coeff(n) - v) <= TOL * scale
