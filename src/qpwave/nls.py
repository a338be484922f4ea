"""Galerkin-truncated nonlinear Schroedinger flow on a frequency lattice.

Time stepping: on each step the solution is written in the interaction
picture relative to the step start and the Duhamel integral is solved by
Picard sweeps on a 4-point Gauss-Legendre collocation grid (node integrals
use the exact integrals of the degree-3 interpolant, the endpoint uses the
Gauss weights).  Fully converged, this is the 4-point Gauss implicit
Runge-Kutta step: order 8 at the step ends and exactly conservative on
quadratic invariants, so the measured mass drift reflects the Picard
tolerance rather than the step size.  The contraction ratio of the sweeps is
monitored; failure to contract signals a step size or data size too large
for the fixed point to exist.  A step of the same size as the one before
starts its sweeps from that step's converged collocation polynomial,
continued to the new nodes 1 + c_q (the standard starting guess of implicit
Runge-Kutta iterations); the first step, and a remainder step of another
size, start from the constant guess u at the step start.

The state is one coefficient vector over the truncation ball from the
initial data to the final TrigPoly; the four node states of a step are the
rows of one (4, n) stage array, and the trace norms are read off the vector.
A lattice mode sum restricts a trigonometric polynomial on the torus
T^rank, so the nonlinearity is a pointwise product on a torus grid.  With
the smallest 5-smooth side >= 2 k H + 2 points per axis for k factors of
height <= H the product's support [-k H, k H] is not aliased (padding
de-aliasing): the grid coefficients are the exact convolution sums, and
Parseval's identity gives the part the truncation discards.  The four node
states of a sweep are transformed together, as the rows of one batched
grid.  The KdV term is defined on real fields only: its grid holds the half
spectrum and runs real transforms (irfftn, rfftn).  A grid larger than the
work budget raises BudgetError.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import budget as _budget
from .errors import NonContractionError
from .evolution import DispersionSymbol
from .kernels import group_sum, phi1, sort_rows
from .lattice import ball_indices
from .meannorms import _fold_tuple_data, evolved_factor_data
from .trigpoly import TrigPoly, multiply, project_ball

__all__ = [
    "SolverConfig",
    "StepRecord",
    "SolveTrace",
    "SolveResult",
    "cubic_nonlinearity",
    "power_nonlinearity",
    "solve",
    "first_picard_iterate",
]

TRUNCATION_WARN_FRACTION = 1e-6
# Elements (folded row x last factor pairs) per chunk of the Picard pairing:
# a chunk peaks at about 64 B per element (codes, sort keys and order, theta,
# complex values and contributions, the phi1 temporaries), about 2 MB, so it
# stays within a typical 2 MiB per-core L2 cache.
PAIR_CHUNK = 1 << 15

# 4-point Gauss-Legendre collocation on [0, 1]
_X, _W = np.polynomial.legendre.leggauss(4)
_NODES = (_X + 1.0) / 2.0
_END_WEIGHTS = _W / 2.0
_LAGRANGE = np.linalg.inv(np.vander(_NODES, 4, increasing=True))


def _basis_integrals(ends):
    """[q, j] = integral over [0, ends[q]] of the j-th Lagrange basis."""
    return np.array(
        [
            [sum(_LAGRANGE[k, j] * e ** (k + 1) / (k + 1) for k in range(4)) for j in range(4)]
            for e in ends
        ]
    )


_NODE_INTEGRALS = _basis_integrals(_NODES)
# the step's collocation polynomial continued to the next step's nodes 1 + node_q
_NEXT_INTEGRALS = _basis_integrals(1.0 + _NODES)


@dataclass(frozen=True)
class SolverConfig:
    trunc_height: float
    dt: float
    T: float
    picard_tol: float = 1e-10
    max_picard: int = 25
    sign: int = 1  # +1: defocusing, -1: focusing
    power: int = 2  # nonlinearity |u|^(2(power-1)) u; 2 is cubic
    trace_s: float = 1.0  # regularity monitored in the trace

    def __post_init__(self):
        if self.dt <= 0 or self.T <= 0 or self.picard_tol <= 0:
            raise ValueError("dt, T, picard_tol must be positive")
        if self.max_picard < 2:
            raise ValueError("max_picard must be >= 2: a contraction ratio needs two sweeps")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if self.power < 2:
            raise ValueError("power must be >= 2")
        if self.trunc_height < 1:
            raise ValueError("trunc_height must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class StepRecord:
    t: float
    mass: float  # squared mean-L^2 norm
    hs_norm: float
    trunc_loss: float  # squared norm of the step increment lost to truncation
    picard_iters: int
    contraction: float


@dataclass
class SolveTrace:
    records: list[StepRecord] = field(default_factory=list)

    def append(self, rec: StepRecord) -> None:
        self.records.append(rec)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def write_csv(self, path, config: dict | None = None) -> None:
        lines = []
        if config is not None:
            lines.append(
                "# config=" + json.dumps(config, sort_keys=True, separators=(",", ":"))
            )
        lines.append("t,mass,hs_norm,trunc_loss,picard_iters,contraction")
        for r in self.records:
            lines.append(
                f"{r.t!r},{r.mass!r},{r.hs_norm!r},{r.trunc_loss!r},"
                f"{r.picard_iters},{r.contraction!r}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class SolveResult:
    final: TrigPoly
    trace: SolveTrace


# -- nonlinearities --------------------------------------------------------------


def cubic_nonlinearity(
    u: TrigPoly,
    sign: int = 1,
    trunc_height: float | None = None,
) -> TrigPoly:
    """sign * |u|^2 u by two lattice convolutions, Galerkin-truncated."""
    return power_nonlinearity(u, 2, sign, trunc_height)


def power_nonlinearity(
    u: TrigPoly,
    power: int,
    sign: int = 1,
    trunc_height: float | None = None,
) -> TrigPoly:
    """sign * |u|^(2(power-1)) u; power = 2 recovers the cubic case."""
    uc = u.conj()
    v = u
    for _ in range(power - 1):
        v = multiply(v, uc)
        v = multiply(v, u)
    if sign == -1:
        v = -v
    return v if trunc_height is None else project_ball(v, trunc_height)


# -- torus-grid Galerkin engine --------------------------------------------------------


def _smooth_side(n: int) -> int:
    """The smallest integer >= n with no prime factor above 5."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


class _TorusPlan:
    """State layout and right-hand side of the truncated flow on a torus grid.

    Ball coefficients sit at ``basis % side``.  Kind "cubic" gives
    -i sign |u|^(2(power-1)) u on the full complex grid.  Kind "derivative"
    gives the KdV term (u^2/2)_x and is defined on real fields only: its
    stage rows must be Hermitian (kdv_solve requires a real field through
    require_real_field, and the odd Airy rate keeps the stages Hermitian).
    It runs on the half spectrum, last axis 0..side//2: irfftn, a real
    square, rfftn, and the multiplier i freq/2 at the half grid's wrapped
    indices.  A ball index with a negative last component is read as the
    conjugate of its mirror -n.
    """

    def __init__(self, spec, trunc_height, kind, symbol, power=2, sign=1):
        factors = 2 if kind == "derivative" else 2 * power - 1
        # a product of `factors` modes of height <= H lies in [-factors*H, factors*H]
        side = _smooth_side(2 * factors * int(trunc_height) + 2)
        _budget.check(side**spec.rank, what=f"torus grid ({side}^{spec.rank} points)")
        self.spec = spec
        self.basis = ball_indices(spec, trunc_height)
        self.rates = symbol.rates_for_indices(spec, self.basis)
        self.shape = (side,) * spec.rank
        self.pos = np.ravel_multi_index(tuple((self.basis % side).T), self.shape)
        self.kind = kind
        self.power = power
        if kind == "derivative":
            self.half_shape = self.shape[:-1] + (side // 2 + 1,)
            self.neg = self.basis[:, -1] < 0
            mirror = np.where(self.neg[:, None], -self.basis, self.basis)
            self.half_pos = np.ravel_multi_index(tuple((mirror % side).T), self.half_shape)
            grid = np.indices(self.half_shape).reshape(spec.rank, -1).T
            wrapped = (grid + side // 2) % side - side // 2
            self.multiplier = 0.5j * spec.freq_float(wrapped).reshape(self.half_shape)
        else:
            self.multiplier = -1j * sign

    def load(self, u: TrigPoly) -> np.ndarray:
        idx, vals = u.as_arrays()
        grid = np.zeros(self.shape, dtype=complex)
        grid[tuple((idx % self.shape[0]).T)] = vals
        return grid.flat[self.pos]

    def unload(self, vec: np.ndarray) -> TrigPoly:
        nz = np.flatnonzero(np.abs(vec) > 0)
        return TrigPoly.from_arrays(self.spec, self.basis[nz], vec[nz], prune=True)

    def rhs(self, stages: np.ndarray) -> tuple[np.ndarray, float]:
        """(right-hand sides on the ball of the (rows, n) stage array, largest
        squared norm a row loses outside the ball).

        The rows share one grid buffer and one transform each way.  The loss
        is summed over the grid points outside the ball (the ball's points
        are zeroed once gathered), not taken as a difference of two nearly
        equal totals.
        """
        if self.kind == "derivative":
            return self._half_rhs(stages)
        # in place: the pointwise work runs row by row, so no temporary is
        # larger than one row's grid
        rows = len(stages)
        flat = np.zeros((rows, math.prod(self.shape)), dtype=complex)
        flat[:, self.pos] = stages
        grid = flat.reshape((rows,) + self.shape)
        axes = tuple(range(1, grid.ndim))
        np.fft.ifftn(grid, axes=axes, norm="forward", out=grid)
        for r in grid:
            r *= (r.real**2 + r.imag**2) ** (self.power - 1)
        np.fft.fftn(grid, axes=axes, norm="forward", out=grid)
        # the multiplier -i sign has modulus 1: only the kept values need it
        out = flat[:, self.pos] * self.multiplier
        flat[:, self.pos] = 0  # what is left lies outside the ball
        loss = max(float(np.vdot(g, g).real) for g in flat)
        return out, loss

    def _half_rhs(self, stages):
        """rhs of the "derivative" kind on the half spectrum of real rows."""
        rows = len(stages)
        flat = np.zeros((rows, math.prod(self.half_shape)), dtype=complex)
        keep = ~self.neg
        flat[:, self.half_pos[keep]] = stages[:, keep]
        grid = flat.reshape((rows,) + self.half_shape)
        axes = tuple(range(1, grid.ndim))
        real = np.fft.irfftn(grid, s=self.shape, axes=axes, norm="forward")
        real *= real
        np.fft.rfftn(real, axes=axes, norm="forward", out=grid)
        grid *= self.multiplier
        out = flat[:, self.half_pos]
        out.imag[:, self.neg] *= -1  # conjugates of the mirrors
        flat[:, self.half_pos] = 0  # what is left lies outside the ball
        # a column and its mirror column hold conjugate values: weight 2 on the
        # interior columns, 1 on column 0 and on the Nyquist column of an even side
        self_mirrored = [0] if self.shape[-1] % 2 else [0, -1]
        loss = 0.0
        for g in grid:
            edge = g[..., self_mirrored]
            loss = max(loss, 2 * float(np.vdot(g, g).real) - float(np.vdot(edge, edge).real))
        return out, loss


# -- the collocation engine ------------------------------------------------------------


def _node_sum(weights, rows):
    """sum_j weights[..., j] * rows[j], added in node order j = 0..3."""
    acc = weights[..., 0, None] * rows[0]
    for j in range(1, 4):
        acc = acc + weights[..., j, None] * rows[j]
    return acc


def _step_vectors(u_vec, dt, rates, rhs, tol, max_sweeps, guess=None):
    """One Gauss-collocation Picard step on coefficient vectors.

    Node states, node phases and right-hand sides are the rows of (4, n)
    arrays.  rhs(stage array) -> (duhamel right-hand sides, one row per
    stage; largest squared norm a row lost to truncation), called once per
    sweep.  The sweeps start from ``guess`` (node states in this step's
    interaction picture), or from the constant u_vec when it is None.  At
    least two sweeps run, so the contraction ratio (0.0 after an exactly zero
    update) is always measured.
    Returns (vector at step end, sweeps, last contraction ratio, rhs loss of
    the last sweep, starting guess for a next step of the same size).  The
    last sweep's right-hand sides build the step's end vector, so its loss
    does not depend on where the sweeps started.  The guess is the converged
    collocation polynomial continued to the nodes 1 + node_q and moved into
    the next step's interaction picture.
    """
    phase = np.exp(1j * np.outer(_NODES * dt, rates))
    unphase = np.conj(phase)
    w = np.tile(u_vec, (4, 1)) if guess is None else guess
    prev_diff = None
    ratio = math.nan
    for sweep in range(1, max_sweeps + 1):
        f, loss = rhs(w * phase)
        f *= unphase
        w_new = u_vec + dt * _node_sum(_NODE_INTEGRALS, f)
        diff = float(np.linalg.norm(w_new - w, axis=1).max())
        if not math.isfinite(diff):
            diff = math.inf
        w = w_new
        if prev_diff is not None:
            if prev_diff == 0:
                ratio = 0.0
            else:
                ratio = diff / prev_diff if math.isfinite(prev_diff) else math.inf
            if diff < tol:  # a step converged on its first sweep runs one more for its ratio
                break
        prev_diff = diff
    else:
        raise NonContractionError(
            f"Picard sweeps did not reach tol={tol} in {max_sweeps} iterations "
            f"(last contraction ratio {ratio:.3g}); reduce dt or the data size",
            ratio=ratio,
        )
    step_phase = np.exp(1j * dt * rates)
    w_end = u_vec + dt * _node_sum(_END_WEIGHTS, f)
    w_next = u_vec + dt * _node_sum(_NEXT_INTEGRALS, f)
    return w_end * step_phase, sweep, ratio, loss, w_next * step_phase


def _split_steps(T, dt):
    nsteps = int(round(T / dt))
    steps = [dt] * nsteps
    rem = T - nsteps * dt
    if abs(rem) > 1e-12 * max(T, 1.0):
        if rem > 0:
            steps.append(rem)
        else:
            steps[-1] += rem
    return steps


def _run_solver(u0, cfg, symbol, rhs_kind):
    if len(project_ball(u0, cfg.trunc_height)) != len(u0):
        raise ValueError("initial data must be supported inside the truncation ball")
    plan = _TorusPlan(u0.spec, cfg.trunc_height, rhs_kind, symbol, cfg.power, cfg.sign)
    state = plan.load(u0)
    # (1+|n|)^(2 trace_s) on the plan's basis, as in sobolev_norm
    height = np.sqrt((plan.basis * plan.basis).sum(axis=1))
    hs_weight = (1.0 + height) ** (2.0 * cfg.trace_s)
    trace = SolveTrace()
    t = 0.0
    warned = False
    cumulative_loss = 0.0
    prev_h = guess = None
    for h in _split_steps(cfg.T, cfg.dt):
        # a step of a new size (the first, a remainder) starts from the constant guess
        state, sweeps, ratio, loss, guess = _step_vectors(
            state,
            h,
            plan.rates,
            plan.rhs,
            cfg.picard_tol,
            cfg.max_picard,
            guess if h == prev_h else None,
        )
        prev_h = h
        mass = float(np.linalg.norm(state)) ** 2
        t += h
        step_loss = h * h * loss
        cumulative_loss += step_loss
        if not warned and mass > 0 and cumulative_loss > TRUNCATION_WARN_FRACTION * mass:
            warnings.warn(
                f"Galerkin truncation has discarded {cumulative_loss:.3e} of mass "
                f"{mass:.3e} by t={t:.4g}; increase trunc_height",
                stacklevel=3,
            )
            warned = True
        hs_norm = float(np.sqrt((hs_weight * (state.real**2 + state.imag**2)).sum()))
        trace.append(StepRecord(t, mass, hs_norm, step_loss, sweeps, ratio))
    return SolveResult(plan.unload(state), trace)


def solve(
    u0: TrigPoly,
    cfg: SolverConfig,
    symbol: DispersionSymbol | None = None,
) -> SolveResult:
    """Integrate i u_t + u_xx = sign |u|^(2(power-1)) u from data u0 up to T."""
    if symbol is None:
        symbol = DispersionSymbol.schrodinger()
    return _run_solver(u0, cfg, symbol, "cubic")


# -- the first Picard iterate, exactly ------------------------------------------------


def first_picard_iterate(f: TrigPoly, t: float, power: int = 2) -> TrigPoly:
    """Closed-form Duhamel integral of the free-evolution nonlinearity.

    Coefficient at n: the sum over signed index tuples summing to n of the
    coefficient products times the integral over [0, t] of the oscillation
    with the tuple's phase mismatch, t phi1(t * mismatch).  The ``power``
    plain factors stand side by side, so the tuple fold enumerates their
    multisets once each with its multinomial weight (about half the rows at
    power 2); the last conjugated factor is paired with the folded rows in
    chunks of PAIR_CHUNK elements (about 2 MB at the peak of a chunk).
    An output index is keyed by its mixed-radix code over the range of the
    output sums, computed by numpy's codec (``np.ravel_multi_index``, and
    ``np.unravel_index`` to decode).  The code is linear in the summands
    (folded row code plus last-factor code), so each chunk's codes are
    grouped by one stable sort (``kernels.sort_rows``) and the output rates
    are evaluated once per distinct output of the chunk.  The running sums
    are held as (output code, value) pairs; whenever the parts since the
    last fold outgrow both a chunk and the folded table, one
    ``kernels.group_sum`` folds them, so they stay within about twice the
    output size plus a chunk.  The output index rows are decoded once, at
    the end.  A code range beyond int64 raises ValueError.  The budget sees the
    pairs made, folded rows times len(f), after the fold's own guards.  The
    outer free factor and the -i Duhamel prefactor are omitted (no norm moves).
    """
    if t == 0 or not f:
        return TrigPoly.zero(f.spec)
    symbol = DispersionSymbol.schrodinger()
    plain = evolved_factor_data(f, symbol)
    conj = evolved_factor_data(f, symbol, conjugated=True)
    datas = [plain] * power + [conj] * (power - 2)
    base_idx, base_val, base_rate = _fold_tuple_data(datas)
    last_idx, last_val, last_rate = conj
    _budget.check(len(base_val) * len(last_val), what="Duhamel tuple sum")

    # mixed-radix code of an output index over the range of the output sums
    spec = f.spec
    base_lo, last_lo = base_idx.min(axis=0), last_idx.min(axis=0)
    lo = base_lo + last_lo
    radix = tuple((base_idx.max(axis=0) + last_idx.max(axis=0) - lo + 1).tolist())
    if math.prod(radix) > np.iinfo(np.int64).max:
        raise ValueError("Picard output indices exceed the int64 key range")
    base_key = np.ravel_multi_index(tuple(base_idx.T - base_lo[:, None]), radix)
    last_key = np.ravel_multi_index(tuple(last_idx.T - last_lo[:, None]), radix)

    def decode(codes):
        return np.stack(np.unravel_index(codes, radix), axis=1) + lo

    step = max(1, PAIR_CHUNK // len(last_val))
    held_codes, held_sums = [], []  # the folded table first, then newer parts
    held = folded = 0
    for k in range(0, len(base_val), step):
        sl = slice(k, k + step)
        codes = np.add.outer(base_key[sl], last_key).ravel()
        order, cuts = sort_rows(codes)
        out_code = codes[order[cuts]]
        sizes = np.diff(np.r_[cuts, len(codes)])
        del codes  # the codes are spent: free them before phi1 runs
        # rows gathered into key order, then worked on in place; the operands
        # keep the order of t * phi1(t * mismatch) and values * that
        theta = np.add.outer(base_rate[sl], last_rate).ravel()[order]
        theta -= np.repeat(symbol.rates_for_indices(spec, decode(out_code)), sizes)
        theta *= t
        contrib = phi1(theta)
        np.multiply(t, contrib, out=contrib)
        vals = np.multiply.outer(base_val[sl], last_val).ravel()[order]
        np.multiply(vals, contrib, out=contrib)
        held_codes.append(out_code)
        held_sums.append(np.add.reduceat(contrib, cuts))
        held += len(out_code)
        if held - folded > max(PAIR_CHUNK, folded):
            codes, sums = group_sum(np.concatenate(held_codes), np.concatenate(held_sums))
            held_codes, held_sums = [codes], [sums]
            held = folded = len(codes)
    codes, sums = group_sum(np.concatenate(held_codes), np.concatenate(held_sums))
    return TrigPoly.from_arrays(spec, decode(codes), sums, prune=True)
