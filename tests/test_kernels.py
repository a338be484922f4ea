"""The phi1 kernel: (e^{i theta} - 1)/(i theta) for real theta, against a
50-digit reference, bitwise against the formula with separate temporaries,
its peak memory and its refusal of complex arguments; the grouping sort of
integer rows against numpy's lexsort, and the grouped sum against a dict of
row sums on drawn, partly sorted and sorted-unique rows."""

import numpy as np
import pytest

from qpwave.kernels import group_sum, phi1, sort_rows

EPS = np.finfo(float).eps


def phi1_arguments():
    """Zero, subnormals, the neighbourhood of 1e-4, multiples of 2 pi (where
    e^{i theta} - 1 vanishes nearby), magnitudes from 1e-300 to 1e300 and a
    uniform sample of [-10, 10]."""
    rng = np.random.default_rng(7)
    k = np.arange(1, 200)
    return np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2e-308, 1e300, -1e300],
        1e-4 + rng.uniform(-1e-10, 1e-10, 200),
        2 * np.pi * k,
        -2 * np.pi * k,
        rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-300, 300, 2000),
        rng.uniform(-10, 10, 1000),
    ])


def test_phi1_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    theta = phi1_arguments()
    got = phi1(theta)
    assert got.dtype == complex and got.shape == theta.shape
    with mpmath.workdps(50):
        for x, g in zip(theta.tolist(), got.tolist()):
            X = mpmath.mpf(x)
            ref = mpmath.mpf(1) if x == 0 else (mpmath.expj(X) - 1) / (1j * X)
            assert abs(mpmath.mpc(g) - ref) <= 4 * EPS * abs(ref), x
    assert phi1(0.0) == 1
    value = phi1(0.5)
    assert type(value) is complex
    assert value == phi1(np.array([0.5]))[0]


def _phi1_with_temporaries(theta):
    """The phi1 formula with every intermediate a separate array."""
    scalar = np.isscalar(theta)
    h = np.asarray(theta, dtype=float) / 2
    sin = np.sin(h)
    sinc = np.divide(sin, h, out=np.ones_like(h), where=h != 0)
    out = np.empty(h.shape, dtype=complex)
    out.real = np.cos(h) * sinc
    out.imag = sin * sinc
    return complex(out[()]) if scalar else out


@pytest.mark.parametrize(
    "theta",
    [
        phi1_arguments(),
        np.array([0.0, -0.0, 5e-324, 1e-300, 1e-20, 1e15, 1e300, -1.7e308]),
        0.0,
        5e-324,
        1e300,
        -3.25,
        7,
        np.array(0.5),
    ],
)
def test_phi1_writes_into_its_result_bitwise(theta):
    # sin and cos go straight into the result's parts; the arithmetic is the
    # same, so every bit is too
    got, want = phi1(theta), _phi1_with_temporaries(theta)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_phi1_peak_memory():
    # 205k phases: the Picard iterate's largest chunk at C = 64
    tracemalloc = pytest.importorskip("tracemalloc")
    theta = np.random.default_rng(3).uniform(-50, 50, 205_000)
    tracemalloc.start()
    try:
        out = phi1(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2 * theta.nbytes


@pytest.mark.parametrize("z", [0.5j, 1 + 0j, np.array([0.1j, 2.0 + 0j]), [0.5 + 0j]])
def test_phi1_refuses_complex_arguments(z):
    with pytest.raises(TypeError):
        phi1(z)


def wide_fold_table():
    """Shaped like the C = 128 tuple fold: 131,328 rows, index-sum columns of
    9 bits and phase-key columns of 16 bits, with repeated rows.  50 column
    bits and an 18-bit row tag do not fit one word, so the packed key is
    ranked before the tag goes in."""
    rng = np.random.default_rng(128)
    widths = (9, 9, 16, 16)
    pool = np.stack([rng.integers(0, 1 << w, 60_000) for w in widths], axis=1)
    pool[0], pool[1] = 0, [(1 << w) - 1 for w in widths]
    rows = pool[rng.integers(0, len(pool), 131_328)] - [200, 300, 1 << 15, 7]
    assert sum(widths) + (len(rows) - 1).bit_length() > 63
    return rows


def test_sort_rows_matches_lexsort():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # few distinct values give ties; values near +-2^62 leave no room for the
    # row tag and take the dense-rank path
    value = st.one_of(
        st.integers(-3, 3), st.integers(-(2**40), 2**40), st.integers(2**61, 2**62),
        st.integers(-(2**62), -(2**61)),
    )
    table = st.integers(1, 3).flatmap(
        lambda r: st.lists(st.lists(value, min_size=r, max_size=r), max_size=200).map(
            lambda rows: np.array(rows, dtype=np.int64).reshape(-1, r)
        )
    )

    @hypothesis.given(table)
    @hypothesis.example(np.zeros((0, 2), dtype=np.int64))
    @hypothesis.example(np.array([[5]]))
    @hypothesis.example(np.array([[2**62], [0]]))  # 63 column bits + 1 tag bit: the rank path
    @hypothesis.example(np.array([[2**62, -(2**62)], [0, 0], [2**62, -(2**62)], [0, 1]]))
    # 20 + 20 column bits fit in one word; the third column's 41 do not fit
    # beside them, so the first two are ranked mid-row, ties included
    @hypothesis.example(np.array(
        [[1, 5, 2**40], [0, 2**20 - 1, 0], [1, 5, 3], [0, 2**20 - 1, 0], [2**20 - 1, 0, 7]]
    ))
    @hypothesis.example(wide_fold_table())
    def check(rows):
        order, starts = sort_rows(rows)
        want = np.lexsort(rows.T[::-1])
        assert np.array_equal(order, want)
        ordered = rows[want]
        new = np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)] if len(rows) else []
        assert np.array_equal(starts, np.flatnonzero(new))
        if rows.shape[1] == 1:  # a 1-d array is one column
            assert all(np.array_equal(x, y) for x, y in zip(sort_rows(rows[:, 0]), (order, starts)))

    check()


def test_group_sum_matches_lexsort_sums():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    table = st.integers(1, 3).flatmap(
        lambda r: st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r), max_size=60)
        .map(lambda rows: np.array(rows, dtype=np.int64).reshape(-1, r))
    )

    # rows as drawn, sorted on column 0 only (ties left to the later
    # columns), or sorted and unique
    @hypothesis.given(table, st.sampled_from(["drawn", "column0", "rows"]))
    @hypothesis.example(np.array([[0, 1], [0, 0]]), "drawn")  # column 0 ties, column 1 drops
    @hypothesis.example(np.array([[0, 0], [0, 0]]), "drawn")  # equal rows do not increase
    @hypothesis.example(np.array([[0, 5], [1, 0]]), "drawn")
    @hypothesis.example(np.array([[0, 1, 0], [0, 0, 1]]), "drawn")  # column 2 rises too late
    def check(rows, presort):
        if presort == "column0" and len(rows):
            rows = rows[np.argsort(rows[:, 0], kind="stable")]
        elif presort == "rows" and len(rows):
            rows = np.unique(rows, axis=0)
        values = np.arange(len(rows), dtype=float) + 1j
        want = {}
        for row, v in zip(map(tuple, rows.tolist()), values.tolist()):
            want[row] = want.get(row, 0) + v
        got_rows, got_values = group_sum(rows, values)
        keys = sorted(want)
        assert got_rows.tolist() == [list(k) for k in keys]
        assert got_values.tolist() == [want[k] for k in keys]
        if rows.shape[1] == 1:  # a 1-d array is one column and comes back 1-d
            column, column_values = group_sum(rows[:, 0], values)
            assert column.ndim == 1 and column.tolist() == [k[0] for k in keys]
            assert column_values.tolist() == got_values.tolist()

    check()
