"""Grid evaluation against the per-sample oracle.

``TrigPoly.evaluate`` builds its samples on a ``Linspace`` from block and
offset phase tables; ``conftest.oracle_evaluate`` takes one complex
exponential per mode and sample of the materialised ``np.linspace`` grid.
They must agree to a few roundoff units of the largest phase,
eps * max|lambda| * max|x|, times the coefficient mass, on every lattice
family, grid size (including the edges of the K x K block layout), window
and direction.  ``evaluate`` takes no other grid type, and a ``Linspace``
refuses a negative size and non-finite endpoints or step.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from qpwave import LatticeSpec, Linspace, QScalar, TrigPoly, integer_lattice, sqrt2_lattice
from conftest import oracle_evaluate

EPS = np.finfo(float).eps
SPECS = {
    "sqrt2": sqrt2_lattice(),
    "sqrt3": LatticeSpec([[QScalar(1), QScalar.sqrt(3)]]),
    "sqrt5": LatticeSpec([[QScalar(1), QScalar.sqrt(5)]]),
    "integer": integer_lattice(),
    "float_rank2": LatticeSpec([[1.0, math.sqrt(2.0)]]),
    "float_rank3": LatticeSpec([[1.0, math.sqrt(2.0), math.sqrt(3.0)]]),
}


def assert_matches_oracle(f, a, b, n):
    xs = np.linspace(a, b, n)
    got, want = f.evaluate(Linspace(a, b, n)), oracle_evaluate(f, xs)
    assert got.dtype == want.dtype == complex
    assert got.shape == want.shape == xs.shape
    lam_max = float(np.abs(f.freqs_float()).max(initial=0.0))
    x_max = float(np.abs(xs).max(initial=0.0))
    mass = float(np.abs(f.as_arrays()[1]).sum())
    tol = 8 * EPS * max(1.0, lam_max) * max(1.0, x_max) * mass
    assert np.abs(got - want).max(initial=0.0) <= tol


@st.composite
def polys(draw):
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    index = st.tuples(*[st.integers(-(10**4), 10**4)] * spec.rank)
    support = draw(st.lists(index, max_size=12, unique=True))
    coeff = st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0)
    return TrigPoly(spec, {n: draw(coeff) for n in support})


@st.composite
def sizes(draw):
    # the edges of the block layout (K = isqrt(n - 1) + 1 offsets per block)
    # and random sizes
    K = draw(st.integers(2, 40))
    edge = st.sampled_from([1, 2, 3, K * K - 1, K * K, K * K + 1])
    return draw(st.one_of(edge, st.integers(0, 3000)))


WIDTH = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@given(polys(), sizes(), st.floats(1e-3, 1e5), st.floats(-1.0, 1.0), WIDTH)
def test_evaluate_matches_oracle(f, n, L, centre, width):
    # a window of half-width width * L inside [-L, L], centred at centre * L
    a = max(-L, centre * L - width * L)
    b = min(L, centre * L + width * L)
    assert_matches_oracle(f, a, b, n)
    assert_matches_oracle(f, b, a, n)  # the same grid descending


def test_evaluate_chunks_modes():
    # more modes than one 4M-element (modes x (blocks + K)) table holds
    n = 100
    K = math.isqrt(n - 1) + 1
    per_chunk = 4_000_000 // (-(-n // K) + K)
    rng = np.random.default_rng(11)
    m = per_chunk + per_chunk // 4
    idx = np.stack([np.arange(m) - m // 2, rng.integers(-50, 51, m)], axis=1)
    vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    f = TrigPoly.from_arrays(SPECS["sqrt2"], idx, vals)
    assert len(f) > per_chunk
    assert_matches_oracle(f, -30.0, 70.0, n)


def test_evaluate_refuses_arrays():
    f = TrigPoly(SPECS["sqrt2"], {(1, 0): 1.0, (0, 1): 0.5j})
    for xs in (np.linspace(-1e3, 1e3, 1001), [0.0, 1.0], (-1.0, 1.0, 3)):
        with pytest.raises(TypeError, match="Linspace"):
            f.evaluate(xs)


def test_evaluate_refuses_d2():
    spec = LatticeSpec([[1.0], [math.sqrt(2.0)]])
    with pytest.raises(ValueError, match="d = 1"):
        TrigPoly.single(spec, (1, 1)).evaluate(Linspace(0.0, 1.0, 5))


def test_linspace_refuses_bad_grids():
    with pytest.raises(ValueError, match="non-negative"):
        Linspace(0.0, 1.0, -1)
    for a, b, n in ((-math.inf, 0.0, 5), (0.0, math.nan, 3), (0.0, math.inf, 1),
                    (-1e308, 1e308, 4), (-1e308, 1e308, 1)):
        with pytest.raises(ValueError, match="finite"):
            Linspace(a, b, n)
    assert np.size(Linspace(0.0, 1.0, 7)) == 7  # counts samples like the array
