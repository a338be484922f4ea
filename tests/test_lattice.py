import math

import numpy as np
import pytest

from qpwave import (
    BudgetError,
    LatticeSpec,
    QScalar,
    ResonantLatticeError,
    count_in_interval,
    max_unit_interval_count,
    min_gap,
    nonresonance_check,
    shell_indices,
    fit_exponent,
    integer_lattice,
)
from conftest import SQRT2, oracle_box_min_freq, sqrt2_convergents


def test_freq_examples(sqrt2_spec):
    lam = sqrt2_spec.freq1((1, 1))
    assert lam == QScalar(1, 1, 2)
    assert abs(float(lam) - 2.414213562373095) < 1e-15
    assert sqrt2_spec.freq1((0, 0)).is_zero
    assert sqrt2_spec.freq1((2, -1)) == QScalar(2, -1, 2)
    assert abs(float(sqrt2_spec.freq1((2, -1))) - 0.5857864376269049) < 1e-15


def test_freq_shape_mismatch(sqrt2_spec):
    with pytest.raises(ValueError):
        sqrt2_spec.freq((1, 2, 3))


def test_density_parameter():
    spec = LatticeSpec([[1.0, SQRT2], [1.0, 1.5, 1.9]])
    assert spec.d == 2
    assert spec.nu == (2, 3)
    assert spec.b == 1 + 2
    assert spec.rank == 5


def test_generators_must_be_positive():
    with pytest.raises(ValueError):
        LatticeSpec([[1.0, -1.0]])
    with pytest.raises(ValueError):
        LatticeSpec([[QScalar(0), QScalar(0, 1, 2)]])


def test_generators_must_be_finite():
    for omega in ([[1.0, math.nan]], [[math.nan]], [[1.0, math.inf]], [[-math.inf]]):
        with pytest.raises(ValueError, match="finite"):
            LatticeSpec(omega)
    # JSON lattices: json.loads reads NaN and Infinity as floats
    for entry in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            LatticeSpec.from_dict({"d": 1, "nu": [2], "omega": [[1.0, entry]]})


def test_shells_partition(sqrt2_spec):
    ball = {tuple(r) for r in shell_indices(sqrt2_spec, 1)}
    for C in (2, 4, 8):
        ball |= {tuple(r) for r in shell_indices(sqrt2_spec, C)}
    expect = {
        (i, j)
        for i in range(-8, 9)
        for j in range(-8, 9)
        if i * i + j * j <= 64
    }
    assert ball == expect


def test_count_in_interval_matches_enumeration_oracle(sqrt2_spec):
    # independent oracle: enumerate the shell directly
    pts = [
        (i, j)
        for i in range(-8, 9)
        for j in range(-8, 9)
        if 16 < i * i + j * j <= 64
    ]
    oracle = sum(1 for (i, j) in pts if 0 <= i + j * SQRT2 < 1)
    got = count_in_interval(sqrt2_spec, 8, 0, 1)
    assert got == oracle == 4


def test_count_integer_lattice_unit_interval(int_spec):
    assert count_in_interval(int_spec, 8, 0, 1) <= 1


def test_count_zero_width_closed_interval(sqrt2_spec):
    # 5/2 is hit by no lattice frequency: irrational parts cannot cancel and
    # the rational part is a plain integer; exact arithmetic certifies zero
    assert count_in_interval(sqrt2_spec, 8, 2.5, 2.5, include_hi=True) == 0
    # ... whereas (5,0) gives exactly 5 (zero irrational component), and the
    # exact boundary test finds it rather than missing a knife-edge hit
    assert count_in_interval(sqrt2_spec, 8, 5, 5, include_hi=True) == 1
    assert count_in_interval(sqrt2_spec, 8, 5, 5, include_hi=False) == 0


def test_count_refuses_endpoint_from_another_field(sqrt2_spec, int_spec):
    # no sqrt2 frequency lies near sqrt 3, so a float decision would pass silently
    with pytest.raises(ValueError, match="outside Q\\(sqrt 2\\)"):
        count_in_interval(sqrt2_spec, 8, QScalar.sqrt(3), 6)
    with pytest.raises(ValueError, match="outside Q\\(sqrt 2\\)"):
        count_in_interval(sqrt2_spec, 8, 0, QScalar(1, 1, 5))
    # a rational lattice accepts an endpoint from any field
    shell = [n for n in range(-8, 9) if 16 < n * n <= 64]
    for lo, hi in ((QScalar.sqrt(3), 6), (-8, QScalar.sqrt(30))):
        oracle = sum(1 for n in shell if lo <= n < hi)
        assert count_in_interval(int_spec, 8, lo, hi) == oracle


def test_count_infinite_and_nan_endpoints(sqrt2_spec):
    # an infinite endpoint is never near a frequency: exact mode counts as the
    # float twin does
    twin = LatticeSpec([[1.0, SQRT2]])
    inf = math.inf
    for lo, hi in ((-inf, 0.0), (0.0, inf), (-inf, inf), (-inf, QScalar.sqrt(2)), (1, inf)):
        for incl in (True, False):
            expect = count_in_interval(twin, 8, float(lo), float(hi), incl, incl)
            assert count_in_interval(sqrt2_spec, 8, lo, hi, incl, incl) == expect
    assert count_in_interval(sqrt2_spec, 8, -inf, 0.0) == 74
    assert count_in_interval(sqrt2_spec, 8, -inf, inf) == len(shell_indices(sqrt2_spec, 8))
    for spec in (sqrt2_spec, twin):
        for lo, hi in ((math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)):
            with pytest.raises(ValueError, match="NaN"):
                count_in_interval(spec, 8, lo, hi)


def test_count_partition_additivity(sqrt2_spec):
    whole = count_in_interval(sqrt2_spec, 16, -2, 3)
    parts = sum(
        count_in_interval(sqrt2_spec, 16, a, b)
        for a, b in [(-2, -0.5), (-0.5, 0.75), (0.75, 3)]
    )
    assert whole == parts


def test_count_budget_error(sqrt2_spec, work_budget):
    work_budget(10)
    with pytest.raises(BudgetError):
        count_in_interval(sqrt2_spec, 8, 0, 1)


def test_max_unit_interval_count_growth(sqrt2_spec, sqrt23_spec):
    for spec, b in ((sqrt2_spec, 1), (sqrt23_spec, 2)):
        rows = []
        for C in (8, 16, 32, 64):
            count, _ = max_unit_interval_count(spec, C)
            rows.append((C, count))
        slope = fit_exponent(rows).slope
        assert b - 0.2 <= slope <= b + 0.2


def test_min_gap_matches_pair_oracle(sqrt2_spec):
    # oracle: all frequencies over the box |n|_inf <= 16, sorted; the smallest
    # pairwise distance is the smallest adjacent difference
    vals = np.sort(
        [i + j * SQRT2 for i in range(-16, 17) for j in range(-16, 17)]
    )
    oracle = float(np.diff(vals).min())
    res = min_gap(sqrt2_spec, 16)
    assert res.gap == pytest.approx(oracle, rel=1e-12)
    assert res.gap == pytest.approx(abs(17 - 12 * SQRT2), rel=1e-12)


def test_min_gap_continued_fraction_oracle(sqrt2_spec):
    # best approximations |p - q sqrt2| are continued-fraction convergents;
    # at height h the probe sees the best convergent inside the box 2h
    res = min_gap(sqrt2_spec, 64)
    for h, gap in res.heights:
        best = min(
            abs(p - q * SQRT2) for p, q in sqrt2_convergents() if max(p, q) <= 2 * h
        )
        assert gap == pytest.approx(best, rel=1e-12)
    assert res.beta == pytest.approx(1.0, abs=0.25)


def test_gaps_report_the_exact_minimum(sqrt2_spec):
    # the float dot products 17 - 12*fl(sqrt2) and -99 + 70*fl(sqrt2) cancel;
    # the reported gap is the exact minimum, correctly rounded
    assert min_gap(sqrt2_spec, 16).gap == abs(float(QScalar(17, -12, 2)))
    res = nonresonance_check(sqrt2_spec, 128)
    assert res.argmin == (-99, 70)
    assert res.min_abs == abs(float(QScalar(-99, 70, 2)))


def test_min_gap_integer_lattice(int_spec):
    res = min_gap(int_spec, 16)
    assert all(g == 1.0 for _, g in res.heights)
    assert abs(res.beta) < 1e-12


def test_min_gap_monotone(sqrt2_spec):
    gaps = [min_gap(sqrt2_spec, H).gap for H in (2, 4, 8, 16, 32)]
    assert all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_nonresonance_positive_witness(sqrt2_spec):
    res = nonresonance_check(sqrt2_spec, 64)
    oracle = oracle_box_min_freq([1.0, SQRT2], 64)
    assert res.min_abs > 0
    assert res.min_abs == pytest.approx(oracle, rel=1e-9)


def test_nonresonance_integer_lattice(int_spec):
    assert nonresonance_check(int_spec, 100).min_abs == 1.0


def test_float_mode_near_zero_flagged():
    spec = LatticeSpec([[1.0, 2.0 + 1e-15]])
    with pytest.raises(ResonantLatticeError):
        nonresonance_check(spec, 2)


def test_resonant_construction_rejected():
    with pytest.raises(ResonantLatticeError):
        LatticeSpec([[QScalar(1), QScalar(1)]])  # the relation (1, -1)


def test_dependent_lattice_refused_from_dict():
    # every construction path runs the rank test: (1, 2) has the relation (2, -1)
    with pytest.raises(ResonantLatticeError) as info:
        LatticeSpec.from_dict({"d": 1, "nu": [2], "omega": [[1, 2]]})
    assert tuple(sorted(np.abs(info.value.relation))) == (1, 2)


def test_json_roundtrip(sqrt2_spec, sqrt23_spec):
    for spec in (sqrt2_spec, sqrt23_spec):
        again = LatticeSpec.from_dict(spec.to_dict())
        assert again == spec
    # schema shape from the exact mode
    d = sqrt2_spec.to_dict()
    assert d == {
        "d": 1,
        "nu": [2],
        "omega": [[{"a": 1, "b": 0, "d": 2}, {"a": 0, "b": 1, "d": 2}]],
    }


FREQ_FAMILIES = {
    "sqrt2": LatticeSpec([[QScalar(1), QScalar.sqrt(2)]]),
    "sqrt3": LatticeSpec([[QScalar(1), QScalar.sqrt(3)]]),
    "sqrt5": LatticeSpec([[QScalar(1), QScalar.sqrt(5)]]),
    "float_rank2": LatticeSpec([[1.0, math.pi]]),
    "float_rank3": LatticeSpec([[1.0, SQRT2, math.sqrt(3.0)]]),
    "integer": integer_lattice(),
    "d2": LatticeSpec([[1.0, SQRT2], [math.sqrt(3.0)]]),
}


def test_freq_float_of_a_row_does_not_depend_on_its_batch():
    # each row's frequency is the same bits alone, in any batch, and equal to
    # its columns summed in generator order in Python floats
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def batches(draw):
        name = draw(st.sampled_from(sorted(FREQ_FAMILIES)))
        rank = FREQ_FAMILIES[name].rank
        entry = st.integers(-(10**6), 10**6)
        rows = draw(st.lists(st.lists(entry, min_size=rank, max_size=rank), min_size=1,
                             max_size=120))
        return name, rows

    @hypothesis.given(batches())
    def check(case):
        name, rows = case
        spec = FREQ_FAMILIES[name]
        idx = np.array(rows, dtype=np.int64)
        batched = spec.freq_float(idx).reshape(len(rows), spec.d)
        for row, got in zip(rows, batched):
            alone = spec.freq_float(np.array([row], dtype=np.int64)).reshape(spec.d)
            assert alone.tobytes() == got.tobytes()
            for i in range(spec.d):
                n, w = row[spec.block(i)], spec.float_omega(i).tolist()
                want = float(n[0]) * w[0]
                for c, x in zip(n[1:], w[1:]):
                    want += float(c) * x
                assert got[i] == want

    check()
