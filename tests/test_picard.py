"""Property test of the first Picard iterate against an ordered-tuple oracle.

``first_picard_iterate`` folds the ``power`` plain factors as multisets and
pairs the folded rows with the last conjugated factor in chunks; the oracle
(``oracle_first_picard_iterate``, conftest) enumerates every ordered tuple by
``itertools.product`` and integrates each tuple's oscillation by 64-node
Gauss-Legendre quadrature.  Each coefficient must agree to 1e-12 of t times
the sum of |coefficient products| of its tuples, and the supports must agree
apart from coefficients that the oracle itself puts within that bound of 0.
A second, vectorized ordered-tuple reference covers data large enough for
the chunk loop to run more than once, and the chunk size set to 1 and 7
elements; the working set of the C = 128 extremizer is pinned by tracemalloc.
"""

import math
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from qpwave import DispersionSymbol, LatticeSpec, QScalar, TrigPoly, extremizer, sqrt2_lattice
from qpwave import nls
from qpwave.meannorms import _fold_tuple_data, evolved_factor_data
from qpwave.nls import first_picard_iterate
from conftest import oracle_first_picard_iterate, oracle_phi1

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


def ordered_triple_reference(f: TrigPoly, t: float):
    """Cubic first iterate by every ordered (plain, plain, conjugated) triple,
    one first factor at a time, d = 1: the time integral t (e^z - 1)/z at
    z = i t mismatch by ``oracle_phi1``, accumulated by ``np.add.at`` into a
    dense box of output indices (no sort, no grouping).  Returns (box origin,
    coefficients, t * sum of |coefficient products|) over the box."""
    spec = f.spec
    idx, vals = f.as_arrays()
    rho = -spec.freq_float(idx) ** 2
    lo, hi = idx.min(axis=0), idx.max(axis=0)
    origin, shape = 2 * lo - hi, tuple(3 * (hi - lo) + 1)
    acc = np.zeros(math.prod(shape), dtype=complex)
    scale = np.zeros(math.prod(shape))
    second = idx[:, None, :] - idx[None, :, :]  # plain b, conjugated c
    for a in range(len(idx)):
        out = (idx[a] + second).reshape(-1, spec.rank)
        lam = spec.freq_float(out)
        mism = (rho[a] + rho[:, None] - rho[None, :]).ravel() + lam * lam
        prod = (vals[a] * np.multiply.outer(vals, vals.conj())).ravel()
        cell = np.ravel_multi_index(tuple((out - origin).T), shape)
        np.add.at(acc, cell, prod * t * oracle_phi1(1j * t * mism))
        np.add.at(scale, cell, t * np.abs(prod))
    return origin, acc.reshape(shape), scale.reshape(shape)


def random_rank2(n_modes: int, seed: int, box: int = 8) -> TrigPoly:
    spec = SPECS["sqrt2"]
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(*[np.arange(-box, box + 1)] * spec.rank), -1)
    grid = grid.reshape(-1, spec.rank)
    idx = grid[rng.choice(len(grid), n_modes, replace=False)]
    vals = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    return TrigPoly.from_arrays(spec, idx, vals)


def assert_matches_triple_reference(f: TrigPoly, t: float):
    it = first_picard_iterate(f, t)
    origin, want, scale = ordered_triple_reference(f, t)
    got = np.zeros_like(want)
    got_idx, got_vals = it.as_arrays()
    assert ((got_idx >= origin) & (got_idx - origin < want.shape)).all()
    got[tuple((got_idx - origin).T)] = got_vals
    reached = scale > 0
    assert not (got != 0)[~reached].any()
    assert (got != 0)[np.abs(want) > TOL * scale].all()
    assert (np.abs(got - want) <= TOL * scale).all()


def test_first_iterate_over_several_chunks():
    # 170 rank-2 modes fold into more base rows than one chunk of PAIR_CHUNK
    # elements holds, so the sums of several chunks meet in one coefficient
    f = random_rank2(170, 170)
    plain = evolved_factor_data(f, DispersionSymbol.schrodinger())
    base_rows = len(_fold_tuple_data([plain, plain])[1])
    assert base_rows > nls.PAIR_CHUNK / len(f)
    assert_matches_triple_reference(f, 0.02)


@pytest.mark.parametrize("chunk", [1, 7, nls.PAIR_CHUNK])
@pytest.mark.parametrize("n_modes", [3, 40])
def test_first_iterate_at_any_chunk_size(monkeypatch, chunk, n_modes):
    # chunk 1: one base row a chunk and a fold of the running sums whenever
    # the new parts outgrow the folded table; chunk 7 on 3 modes: two base
    # rows a chunk
    monkeypatch.setattr(nls, "PAIR_CHUNK", chunk)
    assert_matches_triple_reference(random_rank2(n_modes, n_modes), 0.02)


def test_first_iterate_running_sums_stay_bounded(monkeypatch):
    # with one base row a chunk, 40 modes leave 820 parts; folded as they
    # come, no fold takes in more than the folded table, as many new pairs
    # and one more part: under 3 times the output size
    monkeypatch.setattr(nls, "PAIR_CHUNK", 1)
    folds = []

    def spy(codes, sums):
        out = fold(codes, sums)
        folds.append((len(codes), len(out[0])))
        return out

    fold = nls.group_sum
    monkeypatch.setattr(nls, "group_sum", spy)
    first_picard_iterate(random_rank2(40, 40), 0.02)
    outputs = folds[-1][1]
    assert len(folds) > 2
    assert all(taken < 3 * outputs for taken, _ in folds)


def test_first_iterate_working_set_is_bounded():
    # one chunk of the pairing, not the whole 1.6M-element table (about
    # 105 MB at 64 B an element), sets the peak
    f = extremizer(sqrt2_lattice(), 128)
    first_picard_iterate(f, 0.01)  # warm caches and imports outside the trace
    tracemalloc.start()
    try:
        first_picard_iterate(f, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_first_iterate_refuses_output_codes_beyond_int64():
    # three index columns spanning about 3 * 2^22 each need over 63 bits of code
    spec = SPECS["float_rank3"]
    f = TrigPoly(spec, {(2**21,) * 3: 1.0, (-(2**21),) * 3: 1.0})
    with pytest.raises(ValueError, match="int64 key range"):
        first_picard_iterate(f, 0.01)
