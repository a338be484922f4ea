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

The state is a coefficient vector over the truncation ball.  A lattice mode
sum restricts a trigonometric polynomial on the torus T^rank, so the
nonlinearity is a pointwise product on a torus grid.  With 2 k H + 2 points
per axis for k factors of height <= H the product's support [-k H, k H] is
not aliased (padding de-aliasing): the grid coefficients are the exact
convolution sums, and Parseval's identity gives the part the truncation
discards.  A grid larger than the work budget raises BudgetError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import budget as _budget
from .errors import NonContractionError
from .evolution import DispersionSymbol
from .kernels import group_sum, phi1
from .lattice import ball_indices
from .meannorms import _fold_tuple_data, evolved_factor_data
from .report import ScanReport
from .trigpoly import TrigPoly, extremizer, multiply, project_ball, sobolev_norm

__all__ = [
    "SolverConfig",
    "StepRecord",
    "SolveTrace",
    "SolveResult",
    "cubic_nonlinearity",
    "power_nonlinearity",
    "solve",
    "first_picard_iterate",
    "picard_blowup_scan",
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
        return {
            "trunc_height": self.trunc_height,
            "dt": self.dt,
            "T": self.T,
            "picard_tol": self.picard_tol,
            "max_picard": self.max_picard,
            "sign": self.sign,
            "power": self.power,
            "trace_s": self.trace_s,
        }


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


def _step_vectors(u_vec, dt, rates, rhs, tol, max_sweeps):
    """One Gauss-collocation Picard step on coefficient vectors.

    rhs(vector) -> (duhamel right-hand side, squared norm lost to truncation).
    Returns (vector at step end, sweeps, last contraction ratio, max rhs loss).
    """
    taus = _NODES * dt
    node_phase = [np.exp(1j * tau * rates) for tau in taus]
    w_nodes = [u_vec] * 4
    f_nodes = None
    prev_diff = None
    ratio = math.nan
    max_loss = 0.0
    for sweep in range(1, max_sweeps + 1):
        f_nodes = []
        for q in range(4):
            g, loss = rhs(w_nodes[q] * node_phase[q])
            max_loss = max(max_loss, loss)
            f_nodes.append(g * np.conj(node_phase[q]))
        diff = 0.0
        new_nodes = []
        for q in range(4):
            acc = u_vec + dt * (
                _NODE_INTEGRALS[q, 0] * f_nodes[0]
                + _NODE_INTEGRALS[q, 1] * f_nodes[1]
                + _NODE_INTEGRALS[q, 2] * f_nodes[2]
                + _NODE_INTEGRALS[q, 3] * f_nodes[3]
            )
            d = float(np.linalg.norm(acc - w_nodes[q]))
            diff = max(diff, d if math.isfinite(d) else math.inf)
            new_nodes.append(acc)
        w_nodes = new_nodes
        if prev_diff is not None and prev_diff > 0:
            if math.isfinite(diff) and math.isfinite(prev_diff):
                ratio = diff / prev_diff
            else:
                ratio = math.inf
        prev_diff = diff
        if diff < tol:
            break
    else:
        raise NonContractionError(
            f"Picard sweeps did not reach tol={tol} in {max_sweeps} iterations "
            f"(last contraction ratio {ratio:.3g}); reduce dt or the data size",
            ratio=ratio,
        )
    w_end = u_vec + dt * (
        _END_WEIGHTS[0] * f_nodes[0]
        + _END_WEIGHTS[1] * f_nodes[1]
        + _END_WEIGHTS[2] * f_nodes[2]
        + _END_WEIGHTS[3] * f_nodes[3]
    )
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
        u_here = plan.unload(state)
        trace.append(
            StepRecord(t, mass, sobolev_norm(u_here, cfg.trace_s), step_loss, sweeps, ratio)
        )
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
    with the tuple's phase mismatch, evaluated through phi1.  The outer free
    factor (unit modulus) and the -i Duhamel prefactor are omitted; every
    norm of the result is unaffected.
    """
    if t == 0 or not f:
        return TrigPoly.zero(f.spec)
    symbol = DispersionSymbol.schrodinger()
    nfac = 2 * power - 1
    datas = [evolved_factor_data(f, symbol, conjugated=bool(j % 2)) for j in range(nfac - 1)]
    base_idx, base_val, base_rate, _ = _fold_tuple_data(datas, budget)
    last_idx, last_val, last_rate, _ = evolved_factor_data(f, symbol)
    _budget.check(len(base_val) * len(last_val), budget, what="Duhamel tuple sum")

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
        lam_out = spec.freq_float(out_idx)
        rho_out = -(lam_out * lam_out) if spec.d == 1 else -(lam_out * lam_out).sum(axis=1)
        mism = rate_sum - rho_out
        contrib = vals * (t * phi1(1j * t * mism))
        gi, gv = group_sum(out_idx, contrib)
        parts_idx.append(gi)
        parts_val.append(gv)
    all_idx = np.concatenate(parts_idx, axis=0)
    all_val = np.concatenate(parts_val)
    gi, gv = group_sum(all_idx, all_val)
    return TrigPoly.from_arrays(spec, gi, gv, prune=True)


def picard_blowup_scan(
    spec,
    C_list,
    t: float = 0.01,
    power: int = 2,
    budget: int | None = None,
    config_extra: dict | None = None,
) -> ScanReport:
    """Growth of the first Picard iterate on the concentration family.

    Fits the slope of log ||iterate||_{H^0} against log C; for rank-1
    lattices the family degenerates to the handful of unit-frequency modes
    and the slope is flat.
    """

    rows = []
    for C in C_list:
        fam = _scan_family(spec, C, budget)
        val = first_picard_iterate(fam, t, power=power, budget=budget).l2_norm()
        rows.append((float(C), val, val, val))
    config = {
        "scan": "picard-blowup",
        "lattice": spec.to_dict(),
        "C_list": [int(c) for c in C_list],
        "t": t,
        "power": power,
    }
    config.update(config_extra or {})
    return ScanReport.from_rows("picard-blowup", rows, config)


def _scan_family(spec, C, budget=None) -> TrigPoly:
    """Concentration family at height C; rank-1 fallback: unit-frequency modes."""
    if spec.rank >= 2:
        return extremizer(spec, int(C), budget=budget)
    idx = np.array([[-1], [0], [1]], dtype=np.int64)
    keep = np.abs(spec.freq_float(idx)) <= 1.0
    return TrigPoly.from_arrays(spec, idx[keep], np.ones(int(keep.sum())))
