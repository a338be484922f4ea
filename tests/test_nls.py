import cmath
import math
import warnings

import numpy as np
import pytest

from qpwave import (
    BudgetError,
    DispersionSymbol,
    LatticeSpec,
    NonContractionError,
    SolverConfig,
    TrigPoly,
    cubic_nonlinearity,
    extremizer,
    first_picard_iterate,
    fit_exponent,
    galilean_boost,
    kdv_rhs,
    kdv_solve,
    picard_blowup_scan,
    power_nonlinearity,
    sobolev_norm,
    solve,
)
from qpwave.nls import (
    _END_WEIGHTS,
    _NODE_INTEGRALS,
    _NODES,
    _smooth_side,
    _TorusPlan,
    _step_vectors,
)
from qpwave.trigpoly import project_ball
from qpwave.verify import _scan_family
from conftest import oracle_first_picard_iterate, random_poly


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(trunc_height=8, dt=-1e-3, T=0.1)
    with pytest.raises(ValueError):
        SolverConfig(trunc_height=8, dt=1e-3, T=0.1, sign=2)
    with pytest.raises(ValueError):
        SolverConfig(trunc_height=8, dt=1e-3, T=0.1, power=1)


def test_cubic_single_mode(sqrt2_spec):
    a = 0.8 - 0.3j
    u = TrigPoly.single(sqrt2_spec, (2, 1), a)
    g = cubic_nonlinearity(u)
    assert len(g) == 1
    assert g.coeff((2, 1)) == pytest.approx(abs(a) ** 2 * a, rel=1e-14)
    gm = cubic_nonlinearity(u, sign=-1)
    assert gm.coeff((2, 1)) == pytest.approx(-abs(a) ** 2 * a, rel=1e-14)


def test_cubic_real_constant(int_spec):
    u = TrigPoly.single(int_spec, (0,), 1.7)
    assert cubic_nonlinearity(u).coeff((0,)) == pytest.approx(1.7**3, rel=1e-14)
    assert cubic_nonlinearity(u, sign=-1).coeff((0,)) == pytest.approx(
        -(1.7**3), rel=1e-14
    )


def test_cubic_extremizer_coefficient_growth(sqrt2_spec):
    # representation counts at shell height grow like the square of the count
    # per unit interval
    rows = []
    for C in (8, 16, 32, 64):
        g = cubic_nonlinearity(extremizer(sqrt2_spec, C))
        mx = max(
            abs(c)
            for n, c in g.items()
            if C * C // 4 < sum(x * x for x in n) <= C * C
        )
        rows.append((C, mx))
    assert 1.6 <= fit_exponent(rows).slope <= 2.4


def test_cubic_gauge_equivariance(sqrt2_spec):
    rng = np.random.default_rng(50)
    u = random_poly(sqrt2_spec, 8, rng, box=3)
    phase = cmath.exp(0.9j)
    a = cubic_nonlinearity(phase * u)
    b = phase * cubic_nonlinearity(u)
    assert (a - b).l2_norm() < 1e-12 * b.l2_norm()


def test_power_nonlinearity_single_mode(sqrt2_spec):
    a = 0.5 + 0.25j
    u = TrigPoly.single(sqrt2_spec, (1, 1), a)
    g = power_nonlinearity(u, power=3)
    assert len(g) == 1
    assert g.coeff((1, 1)) == pytest.approx(abs(a) ** 4 * a, rel=1e-13)


# -- the solver -------------------------------------------------------------------


def test_solve_zero_data(sqrt2_spec):
    u0 = TrigPoly.zero(sqrt2_spec)
    res = solve(u0, SolverConfig(trunc_height=4, dt=1e-2, T=0.05))
    assert res.final.l2_norm() == 0.0


def test_solve_single_mode_closed_form(sqrt2_spec):
    a = 0.7 + 0.2j
    lam = float(sqrt2_spec.freq1((2, 1)))
    for sign in (1, -1):
        res = solve(
            TrigPoly.single(sqrt2_spec, (2, 1), a),
            SolverConfig(trunc_height=4, dt=1e-3, T=0.1, sign=sign),
        )
        exact = a * cmath.exp(-1j * 0.1 * lam * lam - 1j * sign * abs(a) ** 2 * 0.1)
        assert abs(res.final.coeff((2, 1)) - exact) < 1e-8


def test_solve_power_three_single_mode(sqrt2_spec):
    # quintic flow of one mode: phase rotation at rate |a|^4
    a = 0.9 - 0.1j
    lam = float(sqrt2_spec.freq1((1, 1)))
    res = solve(
        TrigPoly.single(sqrt2_spec, (1, 1), a),
        SolverConfig(trunc_height=4, dt=1e-3, T=0.05, power=3),
    )
    exact = a * cmath.exp(-1j * 0.05 * lam * lam - 1j * abs(a) ** 4 * 0.05)
    assert abs(res.final.coeff((1, 1)) - exact) < 1e-8


def test_solve_mass_conservation_random(sqrt2_spec):
    rng = np.random.default_rng(51)
    u0 = random_poly(sqrt2_spec, 50, rng, box=6, unit=True)
    for dt in (2e-3, 1e-3, 5e-4):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = solve(u0, SolverConfig(trunc_height=8, dt=dt, T=0.02))
        drift = abs(res.final.l2_norm() - 1.0)
        assert drift < 1e-8


@pytest.mark.filterwarnings("ignore:Galerkin truncation")
def test_solve_gauge_covariance(sqrt2_spec):
    rng = np.random.default_rng(52)
    u0 = random_poly(sqrt2_spec, 10, rng, box=3, unit=True)
    cfg = SolverConfig(trunc_height=9, dt=1e-3, T=0.02)
    ra = solve(u0, cfg)
    rb = solve(cmath.exp(1.1j) * u0, cfg)
    diff = (rb.final - cmath.exp(1.1j) * ra.final).l2_norm()
    assert diff < 1e-10


def _galilean_transform(u, a, t):
    """Boost by a with the accompanying quadratic phase at time t."""
    c = float(u.spec.freq1(a))
    out = {}
    for n, v in u.items():
        lam = float(u.spec.freq1(n))
        out[tuple(x + y for x, y in zip(n, a))] = v * cmath.exp(
            -1j * t * (c * c + 2 * c * lam)
        )
    return TrigPoly(u.spec, out)


def test_solve_galilean_covariance(sqrt2_spec):
    # the truncation ball is not shift-invariant, so the two routes only agree
    # where nothing near the ball boundary matters: data deep inside, boost
    # small, horizon short -- then the mismatch sits many nonlinear
    # generations out, far below the tolerance
    rng = np.random.default_rng(53)
    u0 = random_poly(sqrt2_spec, 6, rng, box=1, unit=True)
    a = (1, 0)
    T = 0.02
    cfg = SolverConfig(trunc_height=14, dt=2e-3, T=T)
    direct = solve(galilean_boost(u0, a), cfg).final
    routed = _galilean_transform(solve(u0, cfg).final, a, T)
    assert (direct - routed).l2_norm() < 1e-8


def _hermitian(basis, values):
    """Rows of ``values`` over ``basis`` made real fields: the coefficient at
    -n is the conjugate of the one at n, and the mean is zero."""
    where = {n: i for i, n in enumerate(map(tuple, basis.tolist()))}
    mirror = np.array([where[tuple(-x for x in n)] for n in basis.tolist()])
    out = 0.5 * (values + np.conj(values[..., mirror]))
    out[..., ~basis.any(axis=1)] = 0
    return out


def test_torus_plan_matches_multiply_oracle(sqrt2_spec, sqrt23_spec):
    # the FFT right-hand side and truncation loss against the multiply-based
    # nonlinearities, on data spread over the truncation ball; the derivative
    # plan is defined on real fields, so its data are Hermitian and mean-zero
    d2_spec = LatticeSpec([[1.0, math.sqrt(2.0)], [math.sqrt(3.0)]])
    cases = [
        # (lattice, kind, power, sign, trunc_height)
        (sqrt2_spec, "cubic", 2, 1, 6),
        (sqrt2_spec, "cubic", 3, -1, 3),
        (sqrt2_spec, "derivative", 2, 1, 6),  # odd side 26 -> 27
        # the solve benchmark's grids: sides 86 -> 90, 52 -> 54, and 50 (even:
        # the derivative plan's half spectrum has a Nyquist column)
        (sqrt2_spec, "cubic", 2, 1, 14),
        (sqrt2_spec, "cubic", 3, 1, 5),
        (sqrt2_spec, "derivative", 2, 1, 12),
        (sqrt23_spec, "cubic", 2, -1, 3),
        (sqrt23_spec, "cubic", 3, 1, 2),
        (sqrt23_spec, "derivative", 2, 1, 3),  # odd side 14 -> 15
        (d2_spec, "cubic", 2, 1, 3),
        (d2_spec, "cubic", 3, -1, 2),
    ]
    rng = np.random.default_rng(54)
    for spec, kind, power, sign, H in cases:
        deriv = kind == "derivative"
        symbol = DispersionSymbol.airy() if deriv else DispersionSymbol.schrodinger()
        plan = _TorusPlan(spec, H, kind, symbol, power, sign)
        sel = rng.choice(len(plan.basis), size=12, replace=False)
        vals = np.zeros(len(plan.basis), dtype=complex)
        vals[sel] = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        if deriv:
            vals = _hermitian(plan.basis, vals)
        nz = np.flatnonzero(vals)
        u = TrigPoly.from_arrays(spec, plan.basis[nz], vals[nz])
        full = kdv_rhs(u) if deriv else -1j * power_nonlinearity(u, power, sign)
        kept = project_ball(full, H)
        want = np.array([kept.coeff(n) for n in plan.basis.tolist()])
        (got,), loss = plan.rhs(plan.load(u)[None])
        assert np.abs(got - want).max() <= 1e-12 * np.linalg.norm(want)
        want_loss = full.l2_norm() ** 2 - kept.l2_norm() ** 2
        assert want_loss > 0
        assert abs(loss - want_loss) <= 1e-12 * full.l2_norm() ** 2


def test_truncation_loss_is_exact_when_small(sqrt2_spec):
    # 22 modes of height <= 3 and 3 faint modes near the edge of the H = 32
    # ball: the cubic term loses about 5e-8 of its squared norm outside the
    # ball, which a difference of the two totals would resolve only to ~1e-9
    H = 32
    plan = _TorusPlan(sqrt2_spec, H, "cubic", DispersionSymbol.schrodinger())
    h = np.sqrt((plan.basis * plan.basis).sum(axis=1))
    rng = np.random.default_rng(32)
    inner = rng.choice(np.flatnonzero(h <= 3), 22, replace=False)
    edge = rng.choice(np.flatnonzero(h > 30), 3, replace=False)
    amp = np.r_[np.ones(22), np.full(3, 1e-3)]
    vals = amp * (rng.standard_normal(25) + 1j * rng.standard_normal(25))
    u = TrigPoly.from_arrays(sqrt2_spec, plan.basis[np.r_[inner, edge]], vals)
    _, loss = plan.rhs(plan.load(u)[None])
    idx, c = power_nonlinearity(u, 2).as_arrays()
    outside = (idx * idx).sum(axis=1) > H * H
    want = float((np.abs(c[outside]) ** 2).sum())
    assert 0 < want < 1e-6 * power_nonlinearity(u, 2).l2_norm() ** 2
    assert abs(loss - want) <= 1e-10 * want


def test_smooth_side_is_the_next_5_smooth_integer():
    hypothesis = pytest.importorskip("hypothesis")

    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    @hypothesis.given(hypothesis.strategies.integers(1, 10_000))
    def check(n):
        side = _smooth_side(n)
        assert side >= n and smooth(side)
        assert not any(smooth(m) for m in range(n, side))

    check()


def test_batched_rhs_matches_single_rows(sqrt2_spec):
    # each row of a batched right-hand side is bit-for-bit the one-row call
    d2_spec = LatticeSpec([[1.0, math.sqrt(2.0)], [math.sqrt(3.0)]])
    cases = [
        (sqrt2_spec, "cubic", 2, 1, 6),
        (sqrt2_spec, "cubic", 3, -1, 3),
        (sqrt2_spec, "derivative", 2, 1, 6),
        (d2_spec, "cubic", 2, 1, 3),
    ]
    rng = np.random.default_rng(64)
    for spec, kind, power, sign, H in cases:
        deriv = kind == "derivative"
        symbol = DispersionSymbol.airy() if deriv else DispersionSymbol.schrodinger()
        plan = _TorusPlan(spec, H, kind, symbol, power, sign)
        shape = (4, len(plan.basis))
        S = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if deriv:
            S = _hermitian(plan.basis, S)
        got, loss = plan.rhs(S)
        losses = []
        for q in range(4):
            (row,), row_loss = plan.rhs(S[q : q + 1])
            assert got[q].tobytes() == row.tobytes()
            losses.append(row_loss)
        assert loss == max(losses)


def _reference_step(u_vec, dt, rates, rhs, tol, max_sweeps):
    """The collocation step on per-node lists, every node sum written out."""
    A, b = _NODE_INTEGRALS, _END_WEIGHTS
    phase = [np.exp(1j * tau * rates) for tau in _NODES * dt]
    w = [u_vec] * 4
    for sweep in range(1, max_sweeps + 1):
        f = [rhs((w[q] * phase[q])[None])[0][0] * np.conj(phase[q]) for q in range(4)]
        new = [
            u_vec + dt * (A[q, 0] * f[0] + A[q, 1] * f[1] + A[q, 2] * f[2] + A[q, 3] * f[3])
            for q in range(4)
        ]
        diff = max(np.linalg.norm(x - y) for x, y in zip(new, w))
        w = new
        if diff < tol and sweep > 1:
            break
    end = u_vec + dt * (b[0] * f[0] + b[1] * f[1] + b[2] * f[2] + b[3] * f[3])
    return end * np.exp(1j * dt * rates), sweep


@pytest.mark.parametrize("kind", ["cubic", "derivative"])
def test_step_matches_per_node_reference(sqrt2_spec, kind):
    # the stage-array step adds its node sums in node order, so it must agree
    # with the per-node lists to the last bit
    deriv = kind == "derivative"
    symbol = DispersionSymbol.airy() if deriv else DispersionSymbol.schrodinger()
    plan = _TorusPlan(sqrt2_spec, 6, kind, symbol)
    rng = np.random.default_rng(63)
    n = len(plan.basis)
    u = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if deriv:
        u = _hermitian(plan.basis, u)
    args = (u, 2e-3, plan.rates, plan.rhs, 1e-12, 25)
    got, sweeps, _, _, _ = _step_vectors(*args)
    want, want_sweeps = _reference_step(*args)
    assert sweeps == want_sweeps
    assert got.tobytes() == want.tobytes()


def _cubic_h8_data(spec, seed):
    """50 unit-norm modes in the box [-5, 5]^2, as in the solve benchmark."""
    return random_poly(spec, 50, np.random.default_rng(seed), box=5, unit=True)


@pytest.mark.filterwarnings("ignore:Galerkin truncation")
def test_repeated_steps_start_from_the_previous_polynomial(sqrt2_spec):
    # the first step starts from the constant guess; every later step starts
    # from the previous step's collocation polynomial and needs fewer sweeps
    for seed in (70, 71):
        res = solve(_cubic_h8_data(sqrt2_spec, seed), SolverConfig(8, dt=1e-3, T=10e-3))
        first, *rest = [r.picard_iters for r in res.trace]
        assert rest and all(n < first for n in rest)


@pytest.mark.filterwarnings("ignore:Galerkin truncation")
@pytest.mark.parametrize("kind", ["cubic", "derivative"])
def test_guessed_steps_match_constant_guess_steps(sqrt2_spec, kind):
    # the starting guess changes where the sweeps start, not where they stop:
    # the final state agrees with steps that all start from the constant guess
    # to Picard-tolerance level, and so does every step's truncation loss (the
    # loss of the last sweep, whose right-hand sides build the step's end)
    deriv = kind == "derivative"
    cfg = SolverConfig(trunc_height=8, dt=1e-3, T=10e-3)
    rng = np.random.default_rng(72)
    if deriv:
        u0 = random_poly(sqrt2_spec, 10, rng, box=5, real=True, unit=True)
        res = kdv_solve(u0, cfg)
        symbol = DispersionSymbol.airy()
    else:
        u0 = _cubic_h8_data(sqrt2_spec, 72)
        res = solve(u0, cfg)
        symbol = DispersionSymbol.schrodinger()
    plan = _TorusPlan(sqrt2_spec, cfg.trunc_height, kind, symbol)
    state = plan.load(u0)
    losses = []
    for _ in range(10):
        state, _, _, loss, _ = _step_vectors(
            state, cfg.dt, plan.rates, plan.rhs, cfg.picard_tol, 25
        )
        losses.append(cfg.dt * cfg.dt * loss)
    want = plan.unload(state)
    assert (res.final - want).l2_norm() <= 1e-12 * want.l2_norm()
    got = [r.trunc_loss for r in res.trace]
    assert min(losses) > 0
    assert max(abs(g - w) / w for g, w in zip(got, losses)) <= 1e-8


@pytest.mark.filterwarnings("ignore:Galerkin truncation")
@pytest.mark.parametrize("T", [0.0105, 0.0097])
def test_steps_of_a_new_size_start_from_the_constant_guess(sqrt2_spec, monkeypatch, T):
    # T = 10.5 dt appends a remainder step, T = 9.7 dt shortens the last step:
    # either starts from u_vec, and so does the first step
    import qpwave.nls as nls

    calls = []
    step = nls._step_vectors

    def recording(u_vec, dt, *args):
        calls.append((dt, args[-1] is None))
        return step(u_vec, dt, *args)

    monkeypatch.setattr(nls, "_step_vectors", recording)
    solve(_cubic_h8_data(sqrt2_spec, 73), SolverConfig(trunc_height=8, dt=1e-3, T=T))
    assert len(calls) in (10, 11)
    assert [fresh for _, fresh in calls] == [True] + [False] * (len(calls) - 2) + [True]
    assert calls[-1][0] != calls[-2][0] == 1e-3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_guessed_step_that_fails_to_contract_raises(sqrt2_spec):
    plan = _TorusPlan(sqrt2_spec, 6, "cubic", DispersionSymbol.schrodinger())
    u0 = 40.0 * random_poly(sqrt2_spec, 8, np.random.default_rng(55), box=2, unit=True)
    u = plan.load(u0)
    guess = 1.01 * np.tile(u, (4, 1))
    with pytest.raises(NonContractionError) as info:
        _step_vectors(u, 0.3, plan.rates, plan.rhs, 1e-10, 12, guess)
    assert info.value.ratio > 1
    with pytest.raises(NonContractionError):
        solve(u0, SolverConfig(trunc_height=6, dt=0.1, T=0.3, max_picard=12))


def test_solve_rank_two_height_24_at_default_budget(sqrt2_spec):
    rng = np.random.default_rng(60)
    u0 = random_poly(sqrt2_spec, 20, rng, box=4, unit=True)
    res = solve(u0, SolverConfig(trunc_height=24, dt=2e-3, T=0.01))
    assert len(res.trace) == 5
    assert abs(res.final.l2_norm() - 1.0) < 1e-8


def test_solve_over_budget_grid_raises(sqrt2_spec, work_budget):
    u0 = TrigPoly.single(sqrt2_spec, (1, 1), 0.5)
    # the cubic grid at H=6 needs side >= 6*6+2 = 38; the next 5-smooth side is 40
    work_budget(1_000)
    with pytest.raises(BudgetError, match=r"torus grid \(40\^2 points\)"):
        solve(u0, SolverConfig(trunc_height=6, dt=1e-3, T=0.01))


def test_solve_rejects_escaping_data(sqrt2_spec):
    u0 = TrigPoly.single(sqrt2_spec, (5, 5), 1.0)
    with pytest.raises(ValueError):
        solve(u0, SolverConfig(trunc_height=4, dt=1e-3, T=0.01))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_non_contraction(sqrt2_spec):
    rng = np.random.default_rng(55)
    u0 = 40.0 * random_poly(sqrt2_spec, 8, rng, box=2, unit=True)
    with pytest.raises(NonContractionError) as info:
        solve(u0, SolverConfig(trunc_height=6, dt=0.3, T=0.3, max_picard=12))
    assert info.value.ratio > 1  # diverging sweeps reported, inf allowed


def test_truncation_warning(sqrt2_spec):
    # data filling its own truncation ball pushes O(1) of each nonlinear
    # application outside; the cumulative discard crosses the 1e-6 threshold
    rng = np.random.default_rng(56)
    u0 = 2.0 * random_poly(sqrt2_spec, 10, rng, box=2, unit=True)
    with pytest.warns(UserWarning, match="truncation"):
        solve(u0, SolverConfig(trunc_height=4, dt=1e-3, T=5e-3))


def test_steps_converged_on_a_first_sweep_record_a_ratio(sqrt2_spec):
    # one mode: after the first step the guess already lies within picard_tol,
    # so the step runs a second sweep to measure its contraction ratio
    u0 = TrigPoly.single(sqrt2_spec, (2, 1), 0.7 + 0.2j)
    res = solve(u0, SolverConfig(4, dt=1e-3, T=0.01))
    for r in res.trace:
        assert r.picard_iters >= 2
        assert all(math.isfinite(x) for x in (r.t, r.mass, r.hs_norm, r.trunc_loss, r.contraction))
    zero = solve(TrigPoly.zero(sqrt2_spec), SolverConfig(4, dt=1e-3, T=2e-3))
    assert [r.contraction for r in zero.trace] == [0.0, 0.0]
    with pytest.raises(ValueError, match="max_picard"):
        SolverConfig(4, dt=1e-3, T=0.01, max_picard=1)


@pytest.mark.filterwarnings("ignore:Galerkin truncation")
def test_trace_contents(sqrt2_spec, tmp_path):
    rng = np.random.default_rng(57)
    u0 = random_poly(sqrt2_spec, 5, rng, box=2, unit=True)
    res = solve(u0, SolverConfig(trunc_height=6, dt=5e-3, T=0.05))
    assert len(res.trace) == 10
    times = [r.t for r in res.trace]
    assert times[-1] == pytest.approx(0.05, rel=1e-12)
    assert all(r.mass > 0 for r in res.trace)
    assert all(r.picard_iters >= 1 for r in res.trace)
    path = tmp_path / "trace.csv"
    res.trace.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,mass,hs_norm,trunc_loss,picard_iters,contraction"


@pytest.mark.filterwarnings("ignore:Galerkin truncation")
@pytest.mark.parametrize("trace_s", [1.0, -0.5])
def test_trace_hs_norm_matches_final_state(sqrt2_spec, trace_s):
    # the trace reads its norm off the state vector; the last record must
    # agree with sobolev_norm of the returned TrigPoly
    rng = np.random.default_rng(62)
    u0 = random_poly(sqrt2_spec, 8, rng, box=3, unit=True)
    v0 = random_poly(sqrt2_spec, 4, rng, box=3, real=True, unit=True)
    cfg = SolverConfig(trunc_height=6, dt=2e-3, T=0.01, trace_s=trace_s)
    for res in (solve(u0, cfg), kdv_solve(v0, cfg)):
        want = sobolev_norm(res.final, trace_s)
        assert abs(res.trace.records[-1].hs_norm - want) <= 1e-14 * want


# -- the first iterate -------------------------------------------------------------


def test_first_iterate_zero_time(sqrt2_spec):
    rng = np.random.default_rng(58)
    f = random_poly(sqrt2_spec, 6, rng, box=2)
    assert first_picard_iterate(f, 0.0).l2_norm() == 0.0


def test_first_iterate_single_mode(sqrt2_spec):
    a = 1.3 - 0.4j
    f = TrigPoly.single(sqrt2_spec, (2, -1), a)
    it = first_picard_iterate(f, 0.05)
    assert len(it) == 1
    assert it.coeff((2, -1)) == pytest.approx(abs(a) ** 2 * a * 0.05, rel=1e-13)


def test_first_iterate_matches_quadrature_oracle(sqrt2_spec):
    rng = np.random.default_rng(59)
    f = random_poly(sqrt2_spec, 6, rng, box=3)
    t = 0.05
    it = first_picard_iterate(f, t)
    oracle = oracle_first_picard_iterate(f, t, 2)
    for n, (v, _) in oracle.items():
        assert abs(it.coeff(n) - v) < 1e-8
    assert len(it.support - set(oracle)) == 0 or all(
        abs(it.coeff(n)) < 1e-12 for n in set(it.support) - set(oracle)
    )


def test_first_iterate_linear_in_small_time(sqrt2_spec):
    f = extremizer(sqrt2_spec, 16)
    n1 = first_picard_iterate(f, 0.005).l2_norm()
    n2 = first_picard_iterate(f, 0.01).l2_norm()
    assert n2 == pytest.approx(2 * n1, rel=0.05)


def test_first_iterate_power_three_single_mode(sqrt2_spec):
    a = 0.6 + 0.8j
    f = TrigPoly.single(sqrt2_spec, (1, 0), a)
    it = first_picard_iterate(f, 0.02, power=3)
    assert it.coeff((1, 0)) == pytest.approx(abs(a) ** 4 * a * 0.02, rel=1e-12)


@pytest.mark.parametrize("power", [2, 3])
def test_first_iterate_budget_counts_ordered_tuples(sqrt2_spec, power, work_budget):
    # the fold builds multiset rows, about half the ordered ones at power 2;
    # the budget still sees the ordered count M^(2 power - 1)
    f = random_poly(sqrt2_spec, 6, np.random.default_rng(60), box=3)
    work = len(f) ** (2 * power - 1)
    work_budget(work - 1)
    with pytest.raises(BudgetError, match="Duhamel tuple sum"):
        first_picard_iterate(f, 0.01, power=power)
    work_budget(work)
    assert first_picard_iterate(f, 0.01, power=power).l2_norm() > 0


def test_picard_scan_flat_for_rank_one(int_spec):
    rep = picard_blowup_scan(int_spec, [8, 16, 32, 64], t=0.01)
    assert abs(rep.slope) < 0.05


def test_scan_family_rank_one(int_spec):
    fam = _scan_family(int_spec, 32)
    assert set(fam.support) == {(-1,), (0,), (1,)}


def test_solve_handles_partial_final_step(sqrt2_spec):
    u1 = TrigPoly.single(sqrt2_spec, (1, 1), 0.5)
    res = solve(u1, SolverConfig(trunc_height=4, dt=1e-3, T=0.0105))
    assert len(res.trace) == 11
    assert res.trace.records[-1].t == pytest.approx(0.0105, rel=1e-12)
    lam = float(sqrt2_spec.freq1((1, 1)))
    exact = 0.5 * cmath.exp(-1j * 0.0105 * (lam * lam + 0.25))
    assert abs(res.final.coeff((1, 1)) - exact) < 1e-10
