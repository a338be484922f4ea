import math

import numpy as np
import pytest

from qpwave import (
    BudgetError,
    DegenerateExtremizerError,
    SobolevSpec,
    TrigPoly,
    extremizer,
    multiply,
    project_cube,
    project_freq,
    project_height,
    sobolev_norm,
)
from qpwave.trigpoly import project_ball
from conftest import SQRT2, random_poly


def test_canonical_form_drops_zeros(sqrt2_spec):
    f = TrigPoly(sqrt2_spec, {(1, 0): 0.0, (0, 1): 2.0})
    assert (1, 0) not in f.support
    assert len(f) == 1


def test_stored_arrays_are_read_only(sqrt2_spec):
    f = TrigPoly(sqrt2_spec, {(1, 0): 1.0, (0, 1): 2.0})
    idx, vals = f.as_arrays()
    with pytest.raises(ValueError):
        vals[0] = 5.0
    with pytest.raises(ValueError):
        idx[0, 0] = 7
    assert f.coeff((0, 1)) == 2.0
    assert f.l2_norm() == pytest.approx(math.sqrt(5.0), rel=1e-15)


def test_project_height_shell_membership(sqrt2_spec):
    # |(3,3)| = sqrt(18) > 4 lies outside the (2,4] shell, so R_4 keeps nothing
    f = TrigPoly(sqrt2_spec, {(1, 0): 1.0, (3, 3): 1.0})
    assert len(project_height(f, 4)) == 0
    assert project_height(f, 1).coeff((1, 0)) == 1.0
    assert project_height(f, 8).coeff((3, 3)) == 1.0


def test_project_height_partition_and_idempotence(sqrt2_spec):
    rng = np.random.default_rng(4)
    f = random_poly(sqrt2_spec, 30, rng, box=5)
    total = TrigPoly.zero(sqrt2_spec)
    sq = 0.0
    for C in (1, 2, 4, 8):
        piece = project_height(f, C)
        assert project_height(piece, C).to_dict() == piece.to_dict()
        total = total + piece
        sq += piece.l2_norm() ** 2
    assert (total - f).l2_norm() < 1e-14
    assert sq == pytest.approx(f.l2_norm() ** 2, rel=1e-12)


def test_project_freq_single_mode(sqrt2_spec):
    f = TrigPoly.single(sqrt2_spec, (1, 1))  # frequency 1 + sqrt2 ~ 2.414
    assert len(project_freq(f, 4)) == 1
    assert len(project_freq(f, 2)) == 0


def test_project_freq_partition_and_symmetry(sqrt2_spec):
    rng = np.random.default_rng(5)
    f = random_poly(sqrt2_spec, 24, rng, box=5, real=True)
    total = TrigPoly.zero(sqrt2_spec)
    for N in (1, 2, 4, 8, 16, 32):
        piece = project_freq(f, N)
        # real data: every band is symmetric under index negation
        sup = set(piece.support)
        assert {tuple(-x for x in n) for n in sup} == sup
        total = total + piece
    assert (total - f).l2_norm() < 1e-14


def test_project_freq_exact_boundary():
    # modes with frequency exactly 1 land in the N=1 band, not the (1,2] band
    from qpwave import integer_lattice

    f = TrigPoly(integer_lattice(), {(1,): 1.0, (2,): 1.0})
    assert project_freq(f, 1).coeff((1,)) == 1.0
    assert project_freq(f, 2).coeff((2,)) == 1.0
    assert project_freq(f, 2).coeff((1,)) == 0.0


def test_project_cube(sqrt2_spec):
    rng = np.random.default_rng(6)
    f = random_poly(sqrt2_spec, 20, rng, box=4)
    ball = project_cube(f, (0, 0), 3)
    assert all(sum(x * x for x in n) <= 9 for n in ball.support)
    n0 = next(iter(f.support))
    assert project_cube(f, n0, 0).to_dict()["coeffs"][0]["n"] == list(n0)
    # translation covariance
    shifted = project_cube(f.shift((2, -1)), (2, -1), 2)
    direct = project_cube(f, (0, 0), 2).shift((2, -1))
    assert (shifted - direct).l2_norm() == 0.0


def test_multiply_binomial(int_spec):
    f = TrigPoly(int_spec, {(0,): 1.0, (1,): 1.0})
    sq = multiply(f, f)
    assert sq.coeff((0,)) == 1.0
    assert sq.coeff((1,)) == 2.0
    assert sq.coeff((2,)) == 1.0
    assert len(sq) == 3


def test_multiply_autocorrelation_at_zero(sqrt2_spec):
    rng = np.random.default_rng(7)
    f = random_poly(sqrt2_spec, 15, rng)
    g = multiply(f, f.conj())
    expect = sum(abs(c) ** 2 for _, c in f.items())
    assert g.coeff((0, 0)) == pytest.approx(expect, rel=1e-14)


def test_multiply_by_delta_shifts(sqrt2_spec):
    rng = np.random.default_rng(8)
    f = random_poly(sqrt2_spec, 10, rng)
    delta = TrigPoly.single(sqrt2_spec, (3, -2))
    assert (multiply(f, delta) - f.shift((3, -2))).l2_norm() == 0.0


def test_multiply_commutative_associative(sqrt2_spec):
    rng = np.random.default_rng(9)
    # integer coefficients: float products stay exact
    def ipoly(k):
        return TrigPoly(
            sqrt2_spec,
            {
                tuple(int(x) for x in rng.integers(-3, 4, size=2)): complex(
                    int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
                )
                for _ in range(k)
            },
        )

    for _ in range(10):
        f, g, h = ipoly(5), ipoly(4), ipoly(3)
        assert multiply(f, g).to_dict() == multiply(g, f).to_dict()
        assert (
            multiply(multiply(f, g), h).to_dict()
            == multiply(f, multiply(g, h)).to_dict()
        )


def test_multiply_budget(sqrt2_spec, work_budget):
    rng = np.random.default_rng(10)
    f = random_poly(sqrt2_spec, 40, rng)
    work_budget(100)
    with pytest.raises(BudgetError):
        multiply(f, f)


def test_parseval(sqrt2_spec):
    rng = np.random.default_rng(11)
    f = random_poly(sqrt2_spec, 25, rng)
    assert f.l2_norm() ** 2 == pytest.approx(
        sum(abs(c) ** 2 for _, c in f.items()), rel=1e-12
    )


def test_conjugation_involution(sqrt2_spec):
    rng = np.random.default_rng(12)
    f = random_poly(sqrt2_spec, 18, rng)
    assert (f.conj().conj() - f).l2_norm() == 0.0
    g = random_poly(sqrt2_spec, 10, rng, real=True)
    assert (g.conj() - g).l2_norm() < 1e-15
    assert g.is_real_valued()


def test_sobolev_single_mode(sqrt2_spec):
    f = TrigPoly.single(sqrt2_spec, (1, 1))
    for s in (0.0, 0.5, 1.0, 2.5):
        assert sobolev_norm(f, s) == pytest.approx((1 + SQRT2) ** s, rel=1e-13)
    rng = np.random.default_rng(13)
    g = random_poly(sqrt2_spec, 12, rng)
    assert sobolev_norm(g, 0.0) == pytest.approx(g.l2_norm(), rel=1e-13)


def test_sobolev_exponential_weight(sqrt2_spec):
    f = TrigPoly.single(sqrt2_spec, (1, 1))
    w = sobolev_norm(f, SobolevSpec(s=0.0, kappa=0.3))
    assert w == pytest.approx(math.exp(0.3 * SQRT2), rel=1e-12)
    with pytest.raises(ValueError):
        SobolevSpec(s=1.0, kappa=-0.1)


def test_extremizer_matches_enumeration_oracle(sqrt2_spec):
    for C, expected in ((8, 8), (16, 20), (32, 36), (64, 74)):
        f = extremizer(sqrt2_spec, C)
        # independent oracle: scan the whole box and test both conditions
        oracle = {
            (i, j)
            for i in range(-C, C + 1)
            for j in range(-C, C + 1)
            if C * C // 4 < i * i + j * j <= C * C and abs(i + j * SQRT2) <= 1 + 1e-12
        }
        assert set(f.support) == oracle
        assert len(f) == expected
        assert all(c == 1.0 for _, c in f.items())
        assert f.l2_norm() == pytest.approx(math.sqrt(expected), rel=1e-14)


def test_extremizer_requires_rank_two(int_spec):
    with pytest.raises(ValueError):
        extremizer(int_spec, 8)


def test_extremizer_degenerate_flagged():
    # huge last generator: no last coordinate can pull the frequency into [-1,1]
    from qpwave import LatticeSpec

    spec = LatticeSpec([[1.0, 97.13]])
    with pytest.raises(DegenerateExtremizerError):
        extremizer(spec, 8)


def test_project_ball(sqrt2_spec):
    rng = np.random.default_rng(14)
    f = random_poly(sqrt2_spec, 30, rng, box=6)
    g = project_ball(f, 4)
    assert all(sum(x * x for x in n) <= 16 for n in g.support)


def test_json_roundtrip(sqrt2_spec):
    rng = np.random.default_rng(15)
    f = random_poly(sqrt2_spec, 12, rng)
    again = TrigPoly.from_dict(f.to_dict())
    assert again.spec == f.spec
    assert (again - f).l2_norm() == 0.0


def test_mismatched_lattices_rejected(sqrt2_spec, int_spec):
    f = TrigPoly.single(sqrt2_spec, (1, 0))
    g = TrigPoly.single(int_spec, (1,))
    with pytest.raises(ValueError):
        f + g


def test_extremizer_mass_growth(sqrt2_spec):
    from qpwave import fit_exponent

    rows = [(C, extremizer(sqrt2_spec, C).l2_norm() ** 2) for C in (8, 16, 32, 64)]
    assert 0.8 <= fit_exponent(rows).slope <= 1.2
