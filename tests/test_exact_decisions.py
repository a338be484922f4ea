"""Property tests of the exact decisions on integer frequency coordinates.

``kernels.surd_sign``, the band mask behind ``project_freq``, the interval
count, the box minimum (zero test and minimiser) and the rank decision of
exact ``LatticeSpec`` construction are compared with an independent
``QScalar`` oracle that works from ``LatticeSpec.freq`` or the generators,
never from the stored integer coordinates.  Rows and endpoints are put exactly on,
and within the float margin of, band edges and interval endpoints; rows near
height 1e5 on the denominator-6 lattice give sign operands whose squares
exceed the int64 range.
"""

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, strategies as st

from qpwave import LatticeSpec, QScalar, ResonantLatticeError, TrigPoly
from qpwave.kernels import surd_sign
from qpwave.lattice import _dim_box_min, count_in_interval, shell_indices
from qpwave.scalars import as_exact
from qpwave.trigpoly import _freq_band, project_freq

R = QScalar.rational
FAMILIES = {
    "sqrt2": [[R(1), QScalar.sqrt(2)]],
    "sqrt3": [[R(1), QScalar.sqrt(3)]],
    "sqrt5": [[R(1), QScalar.sqrt(5)]],
    "rational": [[R(Fraction(1, 2)), QScalar(0, Fraction(1, 3), 2)]],
    "integer": [[R(1)]],
    "d2_sqrt2": [[R(1), QScalar.sqrt(2)], [QScalar.sqrt(2)]],
}
SPECS = {name: LatticeSpec(omega) for name, omega in FAMILIES.items()}
D1 = sorted(name for name, spec in SPECS.items() if spec.d == 1)
# a box-minimum case beyond the families: a lattice whose frequencies all lie
# below the float coincidence scale, so every row of the box is decided exactly
BOX_SPECS = {
    **SPECS,
    "tiny": LatticeSpec([[R(Fraction(1, 10**13)), QScalar(0, Fraction(1, 10**13), 2)]]),
}


def oracle_sign(a, b, D) -> int:
    return QScalar(a + b).sign() if D == 1 else QScalar(a, b, D).sign()


def best_approximation(x: QScalar, qmax: int) -> tuple[int, int]:
    """p/q nearest x with q <= qmax, from 60 significant digits of x."""
    with localcontext() as ctx:
        ctx.prec = 60
        dec = Decimal(x.a.numerator) / x.a.denominator
        dec += Decimal(x.b.numerator) / x.b.denominator * Decimal(x.d).sqrt()
    approx = Fraction(dec).limit_denominator(qmax)
    return approx.numerator, approx.denominator


def row_near(spec, target: int, qmax: int, side: int) -> tuple[int, ...]:
    """Index whose first frequency component is within about 1/qmax of target.

    For block generators (w1, w2): w2 / w1 is about p / q, so (target/w1 - p, q)
    has component target + (q w2 - p w1), and the sign flip puts it on the
    other side.  Rank-1 blocks hit target exactly when target/w1 is an integer.
    """
    w = spec.omega[0]
    n1 = Fraction(target) / Fraction(w[0].a)
    assert n1.denominator == 1
    row = [int(n1)] + [0] * (spec.rank - 1)
    if len(w) > 1:
        p, q = best_approximation(w[1] / w[0], qmax)
        row[0], row[1] = row[0] - side * p, side * q
    return tuple(row)


@st.composite
def surd_operands(draw):
    D = draw(st.sampled_from([1, 2, 3, 5, 6, 7]))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["int", "near", "fraction", "zero"]))
        b = draw(st.integers(-(2**80), 2**80))
        if kind == "int":
            a = draw(st.integers(-(2**80), 2**80))
        elif kind == "near":  # a^2 - D b^2 within a few units of zero
            a = math.isqrt(D * b * b) + draw(st.integers(-1, 2))
            a *= draw(st.sampled_from([-1, 1]))
        elif kind == "fraction":  # float-converted values: denominators up to 2^55
            a = Fraction(draw(st.floats(-1e6, 1e6, allow_nan=False)))
            b = Fraction(draw(st.floats(-1e6, 1e6, allow_nan=False)))
        else:
            a = draw(st.sampled_from([0, b, -b]))
        rows.append((a, b))
    return D, rows


@given(surd_operands())
def test_surd_sign_matches_qscalar(case):
    D, rows = case
    a = np.array([r[0] for r in rows], dtype=object)
    b = np.array([r[1] for r in rows], dtype=object)
    got = surd_sign(a, b, D)
    assert got.dtype == np.int64
    assert got.tolist() == [oracle_sign(x, y, D) for x, y in rows]


@st.composite
def band_rows(draw):
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    N = 2 ** draw(st.integers(0, 17))
    rows = set()
    for _ in range(draw(st.integers(1, 6))):
        target = draw(st.sampled_from([N, N // 2 or 1, -N, -(N // 2 or 1)]))
        qmax = draw(st.sampled_from([10, 1000, 10**5]))
        rows.add(row_near(spec, target, qmax, draw(st.sampled_from([-1, 1]))))
    index = st.tuples(*[st.integers(-(10**5), 10**5)] * spec.rank)
    rows.update(draw(st.lists(index, max_size=4)))
    if spec.d == 2 and N == 2:  # |lam|^2 = 2 + 2 = N^2 with both components irrational
        rows.update([(0, 1, 1), (0, -1, 1)])
    return spec, np.array(sorted(rows), dtype=np.int64), N


def oracle_band(spec, idx, lo, hi) -> list[bool]:
    out = []
    for row in idx.tolist():
        sq = sum((x * x for x in spec.freq(row)), QScalar(0))
        out.append(sq <= hi * hi and (lo is None or sq > lo * lo))
    return out


@given(band_rows())
def test_band_decision_matches_oracle(case):
    spec, idx, N = case
    lam = spec.freq_float(idx)
    mag = np.abs(lam) if spec.d == 1 else np.sqrt((lam * lam).sum(axis=1))
    lo = None if N == 1 else Fraction(N, 2)
    expect = oracle_band(spec, idx, lo, N)
    # the float margin of project_freq, and every row decided exactly
    for margin in (1e-9 * (1.0 + N), np.inf):
        assert _freq_band(spec, idx, mag, lo, N, margin).tolist() == expect
        assert _freq_band(spec, idx, mag, None, N, margin).tolist() == oracle_band(
            spec, idx, None, N
        )
    f = TrigPoly.from_arrays(spec, idx, np.ones(len(idx)))
    kept = project_freq(f, N).as_arrays()[0].tolist()
    assert kept == [row for row, k in zip(idx.tolist(), expect) if k]


def test_band_operands_leave_int64():
    # height ~1e5 on the denominator-6 lattice: den^2 |lam|^2 - (N den)^2 is
    # about 1e11, so its square in the sign test is far beyond int64
    spec = SPECS["rational"]
    N = 2**16
    rows = np.array([row_near(spec, N, 10**5, s) for s in (-1, 1)], dtype=np.int64)
    P, Q = (X.astype(object) for X in spec.exact_coords(rows))
    a = P * P + spec.radicand * Q * Q - (N * spec.den) ** 2
    assert max(abs(x) for x in a) ** 2 > np.iinfo(np.int64).max
    mag = np.abs(spec.freq_float(rows))
    assert (np.abs(mag - N) <= 1e-9 * (1 + N)).all()
    got = _freq_band(spec, rows, mag, Fraction(N, 2), N, 1e-9 * (1 + N))
    assert got.tolist() == oracle_band(spec, rows, Fraction(N, 2), N)
    assert sorted(got.tolist()) == [False, True]


def test_project_freq_decides_large_height_rows():
    # convergents p/q of sqrt2: (p + 1, -q) has lam = 1 + (p - q sqrt2) > 1,
    # but its float frequency is off by about q * 1e-16, beyond 1e-9 (1 + N)
    spec = SPECS["sqrt2"]
    for p, q in ((1023286908188737, 723573111879672), (175568277047523, 124145519261542)):
        assert spec.freq1((p + 1, -q)) > 1
        f = TrigPoly(spec, {(p + 1, -q): 1.0})
        assert len(project_freq(f, 1)) == 0 and len(project_freq(f, 2)) == 1


@pytest.mark.parametrize("name", [n for n in D1 if SPECS[n].rank == 2])
@pytest.mark.parametrize("qmax", [10**8, 10**12, 10**15])
def test_band_decision_at_large_heights(name, qmax):
    spec = SPECS[name]
    rows = [row_near(spec, N, qmax, s) for N in (1, 2, 4) for s in (-1, 1)]
    f = TrigPoly(spec, {row: 1.0 for row in rows})
    idx = f.as_arrays()[0]
    for N in (1, 2, 4):
        expect = oracle_band(spec, idx, None if N == 1 else Fraction(N, 2), N)
        kept = project_freq(f, N).as_arrays()[0].tolist()
        assert kept == [row for row, k in zip(idx.tolist(), expect) if k]


def oracle_count(spec, C, lo, hi, include_lo, include_hi) -> int:
    exact = [x if isinstance(x, QScalar) else Fraction(x) for x in (lo, hi)]
    count = 0
    for row in shell_indices(spec, C).tolist():
        lam = spec.freq1(row)
        lo_ok = lam >= exact[0] if include_lo else lam > exact[0]
        hi_ok = lam <= exact[1] if include_hi else lam < exact[1]
        count += lo_ok and hi_ok
    return count


@st.composite
def intervals(draw):
    spec = SPECS[draw(st.sampled_from(D1))]
    C = draw(st.sampled_from([2, 4, 8, 16]))
    rows = shell_indices(spec, C).tolist()
    ends = []
    for _ in range(2):
        lam = spec.freq1(draw(st.sampled_from(rows)))
        kind = draw(st.sampled_from(["on", "float", "near", "rational"]))
        if kind == "on":
            ends.append(lam)
        elif kind == "float":  # binary value of the rounded frequency
            ends.append(float(lam))
        elif kind == "near":
            ends.append(lam + Fraction(draw(st.sampled_from([-1, 1])), 10**10))
        else:
            ends.append(Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 12))))
    ends.sort(key=float)
    return spec, C, ends[0], ends[1], draw(st.booleans()), draw(st.booleans())


@given(intervals())
def test_interval_decision_matches_oracle(case):
    spec, C, lo, hi, include_lo, include_hi = case
    got = count_in_interval(spec, C, lo, hi, include_lo, include_hi)
    assert got == oracle_count(spec, C, lo, hi, include_lo, include_hi)


def oracle_box_min(spec, i, H):
    """The exact minimum |frequency| over the punctured box."""
    axes = [np.arange(-H, H + 1)] * spec.nu[i]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    rows = (row for row in grid.tolist() if any(row))
    return min(abs(sum((c * w for c, w in zip(row, spec.omega[i])), QScalar(0))) for row in rows)


@given(st.sampled_from(sorted(BOX_SPECS)), st.integers(1, 12), st.integers(0, 1))
def test_box_minimum_matches_oracle(name, H, block):
    spec = BOX_SPECS[name]
    i = min(block, spec.d - 1)
    best = oracle_box_min(spec, i, H)
    value, arg = _dim_box_min(spec, i, H)
    assert value == float(best)
    assert abs(sum((c * w for c, w in zip(arg, spec.omega[i])), QScalar(0))) == best


@given(st.sampled_from(sorted(SPECS)), st.tuples(*[st.integers(-(10**6), 10**6)] * 3))
def test_exact_coords_match_frequencies(name, entries):
    spec = SPECS[name]
    row = entries[: spec.rank]
    for i, lam in enumerate(spec.freq(row)):
        P, Q = spec.exact_coords(np.array([row])[:, spec.block(i)], i)
        assert P.dtype == Q.dtype == np.int64
        den = spec.den
        assert QScalar(Fraction(int(P[0]), den), Fraction(int(Q[0]), den), spec.radicand) == lam


def test_exact_coords_refuse_int64_overflow():
    spec = SPECS["rational"]
    with pytest.raises(ValueError, match="int64"):
        spec.exact_coords(np.array([[2**62, 0]]))
    assert spec.exact_coords(np.array([[2**60, 0]]))[0][0] == 3 * 2**60
    with pytest.raises(ValueError, match="exact lattice"):
        LatticeSpec([[1.0, math.sqrt(2.0)]]).exact_coords(np.zeros((1, 2), dtype=np.int64))


def assert_relation(omega, n):
    """n is a primitive integer relation among the generators omega."""
    assert len(n) == len(omega) and any(n)
    assert math.gcd(*n) == 1
    assert sum((c * w for c, w in zip(n, omega)), QScalar(0)).is_zero


@pytest.mark.parametrize(
    "omega",
    [
        [QScalar(1), QScalar(2)],  # outside the H = 1 box of the old probe
        [QScalar(1), QScalar(2, 3, 2), QScalar(0, 5, 2)],  # three in Q(sqrt 2)
        [1, Fraction(3, 2)],
        [QScalar(1), QScalar.sqrt(2), QScalar.sqrt(2)],
    ],
)
def test_dependent_exact_lattices_refused_at_construction(omega):
    with pytest.raises(ResonantLatticeError) as info:
        LatticeSpec([omega])
    assert_relation([as_exact(w) for w in omega], info.value.relation)


def test_dependent_block_named_in_d2():
    with pytest.raises(ResonantLatticeError, match="dimension 1") as info:
        LatticeSpec([[QScalar(1), QScalar.sqrt(3)], [QScalar(2), QScalar(3)]])
    assert info.value.relation in ((3, -2), (-3, 2))


RATIONAL = st.fractions(min_value=Fraction(-9), max_value=9, max_denominator=6)


def positive(x):
    """|x|, for a nonzero x."""
    assume(not x.is_zero)
    return -x if x.sign() < 0 else x


@st.composite
def field_elements(draw, D):
    """Positive +-(a + b sqrt D) with small rational a and b (b may be 0)."""
    return positive(QScalar(draw(RATIONAL), draw(RATIONAL), D))


@st.composite
def generator_sets(draw):
    """(generators, dependent): a pair drawn from Q(sqrt D), dependent when the
    ratio of its generators is rational, or a pair plus an integer combination
    of it, always dependent."""
    D = draw(st.sampled_from([2, 3, 5]))
    w1, w2 = draw(field_elements(D)), draw(field_elements(D))
    if draw(st.booleans()):
        return [w1, w2], (w2 / w1).b == 0
    m1, m2 = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    w3 = positive(m1 * w1 + m2 * w2)
    return draw(st.permutations([w1, w2, w3])), True


@given(generator_sets())
@example(([QScalar(1), QScalar.sqrt(2)], False))
@example(([QScalar(3, 0, 2), QScalar(0, 5, 2)], False))
@example(([QScalar(1, 1, 3), QScalar(2, 2, 3)], True))
def test_rank_decision_matches_construction(case):
    omega, dependent = case
    try:
        LatticeSpec([omega])
    except ResonantLatticeError as e:
        assert dependent
        assert_relation(omega, e.relation)
    else:
        assert not dependent
        # no integer relation in a box, by direct QScalar arithmetic
        for n in itertools.product(range(-4, 5), repeat=len(omega)):
            if any(n):
                assert not sum((c * w for c, w in zip(n, omega)), QScalar(0)).is_zero
