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
for the fixed point to exist.

The state is one coefficient vector over the truncation ball from the
initial data to the final TrigPoly; the four node states of a step are the
rows of one (4, n) stage array, and the trace norms are read off the vector.
A lattice mode sum restricts a trigonometric polynomial on the torus
T^rank, so the nonlinearity is a pointwise product on a torus grid.  With
2 k H + 2 points per axis for k factors of height <= H the product's support
[-k H, k H] is not aliased (padding de-aliasing): the grid coefficients are
the exact convolution sums, and Parseval's identity gives the part the
truncation discards.  A grid larger than the work budget raises BudgetError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import budget as _budget
from .errors import NonContractionError
from .evolution import DispersionSymbol
from .kernels import group_sum, phi1
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

# 4-point Gauss-Legendre collocation on [0, 1]
_X, _W = np.polynomial.legendre.leggauss(4)
_NODES = (_X + 1.0) / 2.0
_END_WEIGHTS = _W / 2.0
_LAGRANGE = np.linalg.inv(np.vander(_NODES, 4, increasing=True))
# _NODE_INTEGRALS[q, j] = integral over [0, node_q] of the j-th Lagrange basis
_NODE_INTEGRALS = np.array(
    [
        [
            sum(_LAGRANGE[k, j] * _NODES[q] ** (k + 1) / (k + 1) for k in range(4))
            for j in range(4)
        ]
        for q in range(4)
    ]
)


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
            import json

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
    budget: int | None = None,
) -> TrigPoly:
    """sign * |u|^2 u by two lattice convolutions, Galerkin-truncated."""
    return power_nonlinearity(u, 2, sign, trunc_height, budget)


def power_nonlinearity(
    u: TrigPoly,
    power: int,
    sign: int = 1,
    trunc_height: float | None = None,
    budget: int | None = None,
) -> TrigPoly:
    """sign * |u|^(2(power-1)) u; power = 2 recovers the cubic case."""
    uc = u.conj()
    v = u
    for _ in range(power - 1):
        v = multiply(v, uc, budget=budget)
        v = multiply(v, u, budget=budget)
    if sign == -1:
        v = -v
    return v if trunc_height is None else project_ball(v, trunc_height)


# -- torus-grid Galerkin engine --------------------------------------------------------


class _TorusPlan:
    """State layout and right-hand side of the truncated flow on a torus grid.

    Ball coefficients sit at ``basis % side``.  Kind "cubic" gives
    -i sign |u|^(2(power-1)) u; "derivative" gives the KdV term (u^2/2)_x,
    with the multiplier i freq/2 taken at the grid's wrapped indices.
    """

    def __init__(self, spec, trunc_height, kind, symbol, power=2, sign=1, budget=None):
        factors = 2 if kind == "derivative" else 2 * power - 1
        # a product of `factors` modes of height <= H lies in [-factors*H, factors*H]
        side = 2 * factors * int(trunc_height) + 2
        _budget.check(
            side**spec.rank, budget, what=f"torus grid ({side}^{spec.rank} points)"
        )
        self.spec = spec
        self.basis = ball_indices(spec, trunc_height, budget)
        self.rates = symbol.rates_for_indices(spec, self.basis)
        self.shape = (side,) * spec.rank
        self.pos = np.ravel_multi_index(tuple((self.basis % side).T), self.shape)
        self.kind = kind
        self.power = power
        if kind == "derivative":
            grid = np.indices(self.shape).reshape(spec.rank, -1).T
            wrapped = (grid + side // 2) % side - side // 2
            self.multiplier = 0.5j * spec.freq_float(wrapped).reshape(self.shape)
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

    def rhs(self, vec: np.ndarray) -> tuple[np.ndarray, float]:
        """(right-hand side on the ball, squared norm of the part outside it)."""
        grid = np.zeros(self.shape, dtype=complex)
        grid.flat[self.pos] = vec
        u = np.fft.ifftn(grid, norm="forward")
        if self.kind == "derivative":
            w = u * u
        else:
            w = (u.real**2 + u.imag**2) ** (self.power - 1) * u
        g = self.multiplier * np.fft.fftn(w, norm="forward")
        out = g.flat[self.pos]
        total = float((g.real**2 + g.imag**2).sum())
        inside = float((out.real**2 + out.imag**2).sum())
        return out, max(total - inside, 0.0)


# -- the collocation engine ------------------------------------------------------------


def _node_sum(weights, rows):
    """sum_j weights[..., j] * rows[j], added in node order j = 0..3."""
    acc = weights[..., 0, None] * rows[0]
    for j in range(1, 4):
        acc = acc + weights[..., j, None] * rows[j]
    return acc


def _step_vectors(u_vec, dt, rates, rhs, tol, max_sweeps):
    """One Gauss-collocation Picard step on coefficient vectors.

    Node states, node phases and right-hand sides are the rows of (4, n)
    arrays.  rhs(vector) -> (duhamel right-hand side, squared norm lost to
    truncation).  Returns (vector at step end, sweeps, last contraction
    ratio, max rhs loss).
    """
    phase = np.exp(1j * np.outer(_NODES * dt, rates))
    w = np.tile(u_vec, (4, 1))
    prev_diff = None
    ratio = math.nan
    max_loss = 0.0
    for sweep in range(1, max_sweeps + 1):
        f = np.empty_like(w)
        for q, v in enumerate(w * phase):
            f[q], loss = rhs(v)
            max_loss = max(max_loss, loss)
        f *= np.conj(phase)
        w_new = u_vec + dt * _node_sum(_NODE_INTEGRALS, f)
        diff = float(np.linalg.norm(w_new - w, axis=1).max())
        if not math.isfinite(diff):
            diff = math.inf
        w = w_new
        if prev_diff is not None and prev_diff > 0:
            ratio = diff / prev_diff if math.isfinite(prev_diff) else math.inf
        prev_diff = diff
        if diff < tol:
            break
    else:
        raise NonContractionError(
            f"Picard sweeps did not reach tol={tol} in {max_sweeps} iterations "
            f"(last contraction ratio {ratio:.3g}); reduce dt or the data size",
            ratio=ratio,
        )
    w_end = u_vec + dt * _node_sum(_END_WEIGHTS, f)
    return w_end * np.exp(1j * dt * rates), sweep, ratio, max_loss


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


def _run_solver(u0, cfg, symbol, rhs_kind, budget=None):
    if len(project_ball(u0, cfg.trunc_height)) != len(u0):
        raise ValueError("initial data must be supported inside the truncation ball")
    plan = _TorusPlan(
        u0.spec, cfg.trunc_height, rhs_kind, symbol, cfg.power, cfg.sign, budget
    )
    state = plan.load(u0)
    # (1+|n|)^(2 trace_s) on the plan's basis, as in sobolev_norm
    height = np.sqrt((plan.basis * plan.basis).sum(axis=1))
    hs_weight = (1.0 + height) ** (2.0 * cfg.trace_s)
    trace = SolveTrace()
    t = 0.0
    warned = False
    cumulative_loss = 0.0
    for h in _split_steps(cfg.T, cfg.dt):
        state, sweeps, ratio, loss = _step_vectors(
            state, h, plan.rates, plan.rhs, cfg.picard_tol, cfg.max_picard
        )
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
    budget: int | None = None,
) -> SolveResult:
    """Integrate i u_t + u_xx = sign |u|^(2(power-1)) u from data u0 up to T."""
    if symbol is None:
        symbol = DispersionSymbol.schrodinger()
    return _run_solver(u0, cfg, symbol, "cubic", budget)


# -- the first Picard iterate, exactly ------------------------------------------------


def first_picard_iterate(
    f: TrigPoly, t: float, power: int = 2, budget: int | None = None
) -> TrigPoly:
    """Closed-form Duhamel integral of the free-evolution nonlinearity.

    Coefficient at n: the sum over signed index tuples summing to n of the
    coefficient products times the integral over [0, t] of the oscillation
    with the tuple's phase mismatch, t phi1(t * mismatch).  The ``power``
    plain factors stand side by side, so the tuple fold enumerates their
    multisets once each with its multinomial weight (about half the rows at
    power 2); the last conjugated factor is paired with the folded rows in
    chunks of about 2M elements.  The work budget is checked on the ordered
    count len(f)^(2 power - 1).  The outer free factor (unit modulus) and the
    -i Duhamel prefactor are omitted; every norm of the result is unaffected.
    """
    if t == 0 or not f:
        return TrigPoly.zero(f.spec)
    _budget.check(len(f) ** (2 * power - 1), budget, what="Duhamel tuple sum")
    symbol = DispersionSymbol.schrodinger()
    plain = evolved_factor_data(f, symbol)
    conj = evolved_factor_data(f, symbol, conjugated=True)
    datas = [plain] * power + [conj] * (power - 2)
    base_idx, base_val, base_rate, _ = _fold_tuple_data(datas, budget)
    last_idx, last_val, last_rate, _ = conj

    spec = f.spec
    chunk = max(1, int(2_000_000 / max(len(last_val), 1)))
    parts_idx, parts_val = [], []
    for k in range(0, len(base_val), chunk):
        bi = base_idx[k : k + chunk]
        bv = base_val[k : k + chunk]
        br = base_rate[k : k + chunk]
        out_idx = (bi[:, None, :] + last_idx[None, :, :]).reshape(-1, spec.rank)
        rate_sum = (br[:, None] + last_rate[None, :]).ravel()
        vals = (bv[:, None] * last_val[None, :]).ravel()
        mism = rate_sum - symbol.rates_for_indices(spec, out_idx)
        contrib = vals * (t * phi1(t * mism))
        gi, gv = group_sum(out_idx, contrib)
        parts_idx.append(gi)
        parts_val.append(gv)
    all_idx = np.concatenate(parts_idx, axis=0)
    all_val = np.concatenate(parts_val)
    gi, gv = group_sum(all_idx, all_val)
    return TrigPoly.from_arrays(spec, gi, gv, prune=True)
