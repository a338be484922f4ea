"""Airy flow with the quadratic derivative nonlinearity on a lattice.

Real data are represented by Hermitian coefficient sets (coefficient at -n
is the conjugate of the one at n) with zero mean; subtracting the mean costs
nothing because the derivative nonlinearity never feeds the zero mode.  The
interaction quantifier for two input frequencies is cubic and factors as
3 (x1 + x2) x1 x2, so its size is pinned by the two largest of the three
dyadic magnitudes involved; both forms are computed and compared whenever it
is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericConsistencyError
from .evolution import DispersionSymbol
from .nls import SolveResult, SolverConfig, _run_solver
from .scalars import QScalar
from .trigpoly import TrigPoly, multiply, project_ball

__all__ = [
    "require_real_field",
    "mean_zero_part",
    "real_field_to_dict",
    "real_field_from_dict",
    "resonance",
    "Resonance",
    "resonance_bound_check",
    "ResonanceBoundReport",
    "kdv_rhs",
    "kdv_solve",
    "homogeneous_sobolev_norm",
]

RESONANCE_REL_TOL = 1e-12


# -- real mean-zero fields ------------------------------------------------------


def require_real_field(u: TrigPoly, tol: float = 1e-12) -> TrigPoly:
    """Validate Hermitian symmetry and zero mean; returns u unchanged."""
    if not u.is_real_valued(tol):
        raise ValueError("field is not real-valued (Hermitian symmetry fails)")
    zero = (0,) * u.spec.rank
    if abs(u.coeff(zero)) > tol:
        raise ValueError("field has nonzero mean; subtract it first")
    return u


def mean_zero_part(u: TrigPoly) -> TrigPoly:
    idx, vals = u.as_arrays()
    nonzero = idx.any(axis=1)
    return u if nonzero.all() else TrigPoly.from_arrays(u.spec, idx[nonzero], vals[nonzero])


def real_field_to_dict(u: TrigPoly, tol: float = 1e-12) -> dict:
    """Half-spectrum JSON for real fields: only indices whose first nonzero
    component is positive are stored, with a flag for conjugate rebuild."""
    require_real_field(u, tol)
    idx, vals = u.as_arrays()
    lead = idx[np.arange(len(idx)), np.argmax(idx != 0, axis=1)]
    half = TrigPoly.from_arrays(u.spec, idx[lead > 0], vals[lead > 0])
    return {"spec": u.spec.to_dict(), "hermitian": True, "coeffs": half.to_dict()["coeffs"]}


def real_field_from_dict(obj: dict) -> TrigPoly:
    from .lattice import LatticeSpec

    spec = LatticeSpec.from_dict(obj["spec"])
    coeffs: dict = {}
    for row in obj["coeffs"]:
        n = tuple(int(x) for x in row["n"])
        c = complex(row.get("re", 0.0), row.get("im", 0.0))
        coeffs[n] = c
        coeffs[tuple(-x for x in n)] = c.conjugate()
    return TrigPoly(spec, coeffs)


# -- the resonance function ------------------------------------------------------


@dataclass(frozen=True)
class Resonance:
    expanded: object  # (x1+x2)^3 - x1^3 - x2^3
    factored: object  # 3 (x1+x2) x1 x2

    @property
    def value(self):
        return self.factored


def resonance(xi1, xi2) -> Resonance:
    """Phase mismatch of a quadratic interaction under the cubic flow.

    Both the expanded and the factored form are computed; exact inputs must
    agree exactly, floats to 1e-12 relative.
    """
    s = xi1 + xi2
    expanded = s * s * s - xi1 * xi1 * xi1 - xi2 * xi2 * xi2
    factored = 3 * s * xi1 * xi2
    if isinstance(expanded, QScalar) or isinstance(factored, QScalar):
        if not (expanded - factored).is_zero:
            raise NumericConsistencyError(
                f"resonance forms disagree exactly: {expanded} vs {factored}"
            )
    else:
        scale = max(abs(expanded), abs(factored), 1e-300)
        if abs(expanded - factored) > RESONANCE_REL_TOL * scale:
            raise NumericConsistencyError(
                f"resonance forms disagree: {expanded!r} vs {factored!r}"
            )
    return Resonance(expanded, factored)


@dataclass(frozen=True)
class ResonanceBoundReport:
    N: int
    N1: int
    N2: int
    feasible: bool
    n_samples: int
    min_ratio: float
    max_ratio: float
    lo: float = 3.0 / 16.0
    hi: float = 48.0

    @property
    def in_range(self) -> bool:
        return self.feasible and self.lo <= self.min_ratio and self.max_ratio <= self.hi


def resonance_bound_check(
    N: int, N1: int, N2: int, samples: int = 1000, seed: int = 0
) -> ResonanceBoundReport:
    """Empirical check that |resonance| / (Nmax^2 Nmin) stays within dyadic
    slack of the constant 3 on admissible shell samples.

    Inputs are drawn with |xi_i| in (N_i/2, N_i]; the output magnitude is
    required comparable to N, i.e. |xi1+xi2| in (N/2, 2N] -- the factor-2
    slack is forced by dyadic binning (two magnitudes in (1/2, 1] can only sum
    into (1, 2]).  An empty draw marks the configuration infeasible.
    """
    for X in (N, N1, N2):
        if X < 1 or (X & (X - 1)) != 0:
            raise ValueError("shell magnitudes must be dyadic integers >= 1")
    rng = np.random.default_rng(seed)
    n_max = max(N, N1, N2)
    n_min = min(N, N1, N2)
    denom = float(n_max) ** 2 * float(n_min)
    got = []
    attempts = 0
    max_attempts = 400 * samples
    while len(got) < samples and attempts < max_attempts:
        batch = max(256, samples)
        attempts += batch
        x1 = rng.uniform(N1 / 2, N1, batch) * rng.choice([-1.0, 1.0], batch)
        x2 = rng.uniform(N2 / 2, N2, batch) * rng.choice([-1.0, 1.0], batch)
        s = np.abs(x1 + x2)
        ok = (s > N / 2) & (s <= 2 * N)
        got.extend(np.abs(3.0 * (x1 + x2) * x1 * x2)[ok].tolist())
    if not got:
        return ResonanceBoundReport(N, N1, N2, False, 0, float("nan"), float("nan"))
    ratios = np.array(got[:samples]) / denom
    return ResonanceBoundReport(
        N, N1, N2, True, len(ratios), float(ratios.min()), float(ratios.max())
    )


# -- the truncated flow ---------------------------------------------------------------


def kdv_rhs(u: TrigPoly, trunc_height: float | None = None) -> TrigPoly:
    """Coefficients of u u_x = (u^2/2)_x; the zero mode vanishes identically."""
    if u.spec.d != 1:
        raise ValueError("kdv_rhs requires d = 1")
    w = multiply(u, u)
    idx, vals = w.as_arrays()
    lam = w.freqs_float()
    out = TrigPoly.from_arrays(u.spec, idx, vals * (0.5j * lam), prune=True)
    return out if trunc_height is None else project_ball(out, trunc_height)


def kdv_solve(u0: TrigPoly, cfg: SolverConfig) -> SolveResult:
    """Integrate u_t + u_xxx = u u_x for real mean-zero data up to T.

    Same collocation Picard stepping as the Schroedinger solver, with the
    cubic dispersion law; the mean stays exactly zero and the squared mean-L^2
    norm (momentum) is conserved by the truncated flow.  The nonlinearity is
    fixed, so a config with a non-default ``sign`` or ``power`` is refused.
    """
    if cfg.sign != 1 or cfg.power != 2:
        raise ValueError(
            f"kdv_solve has a fixed nonlinearity: sign and power must be 1 and 2, "
            f"got {cfg.sign} and {cfg.power}"
        )
    require_real_field(u0)
    return _run_solver(u0, cfg, DispersionSymbol.airy(), "derivative")


def homogeneous_sobolev_norm(u: TrigPoly, s1: float, s2: float = 0.0) -> float:
    """Diagnostic norm with homogeneous weight |frequency|^(2 s1) times
    (1+|n|)^(2 s2); requires zero mean when s1 < 0."""
    if u.spec.d != 1:
        raise ValueError("homogeneous norms require d = 1")
    if not u:
        return 0.0
    idx, vals = u.as_arrays()
    lam = np.abs(u.freqs_float())
    if s1 < 0 and np.any(lam == 0):
        raise ValueError("negative homogeneous weight needs zero mean")
    h = np.sqrt((idx * idx).sum(axis=1).astype(float))
    w = np.ones_like(lam)
    nz = lam > 0
    w[nz] = lam[nz] ** (2 * s1)
    w *= (1.0 + h) ** (2 * s2)
    return float(np.sqrt((w * (vals.real**2 + vals.imag**2)).sum()))
