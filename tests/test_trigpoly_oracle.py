"""Property test of the array-native TrigPoly against the dict-of-tuples
reference ``conftest.DictPoly``: every operation must give the same rows in
the same order with the same coefficients, bit for bit (signed zeros too).

An index appears at most twice in one construction, so the sum of its
entries is exact in any order; three or more entries are summed in the order
of ``numpy.add.reduceat``, which may differ from left to right in the last bit.
Likewise a non-real scalar factor goes through numpy's complex product, which
may be fused and then differs from Python's in the last bit; it is checked
row for row to a few rounding units.
"""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from qpwave import (
    LatticeSpec,
    QScalar,
    TrigPoly,
    integer_lattice,
    project_cube,
    project_freq,
    project_height,
    sqrt2_lattice,
)
from qpwave.trigpoly import project_ball
from conftest import DictPoly

SPECS = {
    "sqrt2": sqrt2_lattice(),
    "integer": integer_lattice(),
    "float_rank3": LatticeSpec([[1.0, math.sqrt(2.0), math.sqrt(3.0)]]),
    "d2": LatticeSpec([[QScalar(1), QScalar.sqrt(2)], [QScalar.sqrt(2)]]),
}
PART = st.one_of(st.floats(-4, 4), st.sampled_from([0.0, -0.0, 3e-17, -2e-16]))
COEFF = st.builds(complex, PART, PART)


def dumps(f) -> str:
    return json.dumps(f.to_dict())  # floats by repr: tells -0.0 from 0.0


@st.composite
def cases(draw):
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    index = st.tuples(*[st.integers(-4, 4)] * spec.rank)

    def entries():
        support = draw(st.lists(index, max_size=12, unique=True))
        twice = [n for n in support if draw(st.booleans())]
        return [(n, draw(COEFF)) for n in support + twice]

    return {
        "spec": spec,
        "f": entries(),
        "g": entries(),
        "prune": draw(st.booleans()),
        "real": draw(st.floats(-3, 3)),
        "complex": draw(COEFF),
        "m": draw(index),
        "C": draw(st.sampled_from([1, 2, 4, 8])),
        "radius": draw(st.floats(0, 7)),
        "cube": draw(st.floats(0, 5)),
        "eps": draw(st.sampled_from([0.0, 1e-13, 1e-11])),
    }


@given(cases())
def test_trigpoly_matches_dict_oracle(case):
    spec, s, m, C = case["spec"], case["real"], case["m"], case["C"]
    f = TrigPoly(spec, case["f"], prune=case["prune"])
    ref = DictPoly(spec, case["f"], prune=case["prune"])
    g, gref = TrigPoly(spec, case["g"]), DictPoly(spec, case["g"])
    h = f + f.conj() + TrigPoly.single(spec, m, case["eps"])
    href = ref + ref.conj() + DictPoly(spec, [(m, case["eps"])])
    checks = [
        (TrigPoly(spec, dict(case["f"])), DictPoly(spec, dict(case["f"]).items())),
        (f, ref),
        (f + g, ref + gref),
        (f - g, ref - gref),
        (-f, -ref),
        (f * s, ref.scale(s)),
        (s * f, ref.scale(s)),
        (f.conj(), ref.conj()),
        (f.shift(m), ref.shift(m)),
        (h, href),
        (project_height(f, C), ref.project_height(C)),
        (project_freq(f, C), ref.project_freq(C)),
        (project_ball(f, case["radius"]), ref.project_ball(case["radius"])),
        (project_cube(f, m, case["cube"]), ref.project_cube(m, case["cube"])),
    ]
    for got, want in checks:
        assert dumps(got) == dumps(want)
    assert list(f.support) == sorted(ref.coeffs)
    for n in [*ref.coeffs, m]:
        assert repr(f.coeff(n)) == repr(ref.coeff(n))
    for tol in (1e-12, 1e-3):
        assert f.is_real_valued(tol) == ref.is_real_valued(tol)
        assert h.is_real_valued(tol) == href.is_real_valued(tol)
    z = case["complex"]
    got, want = list((z * f).items()), sorted(ref.scale(z).coeffs.items())
    assert [n for n, _ in got] == [n for n, _ in want]
    for (n, a), (_, b) in zip(got, want):
        assert abs(a - b) <= 1e-15 * abs(z) * abs(ref.coeff(n))
