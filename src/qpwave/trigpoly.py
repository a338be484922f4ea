"""Sparse trigonometric polynomials on a frequency lattice.

Coefficients live on finitely many integer indices; the function they
represent is the finite sum of e^{i <frequency(n), x>} times the coefficient.
Stored form is canonical: one lexicographically sorted (M, rank) int64 index
array without repeated rows and one (M,) complex coefficient array without
zeros, both read-only; after float arithmetic coefficients below 1e-15 of the
largest magnitude are dropped as rounding dust.  All operations return new
objects; nothing mutates in place.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import budget as _budget
from .errors import DegenerateExtremizerError
from .kernels import group_sum, surd_sign
from .lattice import LatticeSpec, in_shell

__all__ = [
    "TrigPoly",
    "Linspace",
    "SobolevSpec",
    "multiply",
    "project_height",
    "project_freq",
    "project_cube",
    "sobolev_norm",
    "extremizer",
]

PRUNE_REL = 1e-15
# Roundoff of a float sum (a frequency sum_j n_j omega_j, or a sum of dispersive
# rates) relative to the summed sizes of its terms: equal sums differ by about one
# roundoff unit of that size, distinct sums of boosted small-box data at heights up
# to 1e5 by >= 8e-13.  Band decisions widen their margin by it, and float-mode
# resonance grouping merges sums closer than it.
FLOAT_SUM_TOL = 1e-14


@dataclass(frozen=True)
class SobolevSpec:
    """Regularity weight: (1+|n|)^(2s), optionally times e^(2 kappa |n|)."""

    s: float
    kappa: float = 0.0

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")


@dataclass(frozen=True)
class Linspace:
    """The grid ``np.linspace(start, stop, num)``, held as its endpoints and size.

    It is the one grid type ``TrigPoly.evaluate`` takes: the samples are built
    from these three numbers, so no abscissa array exists to be checked.
    ``size`` is ``num``, as ``ndarray.size`` of the grid it stands for.  A
    negative ``num`` and non-finite endpoints or step raise ``ValueError``.
    """

    start: float
    stop: float
    num: int

    def __post_init__(self):
        num = operator.index(self.num)
        if num < 0:
            raise ValueError(f"number of samples must be non-negative, got {num}")
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))
        object.__setattr__(self, "num", num)
        if not all(map(math.isfinite, (self.start, self.stop, self.step))):
            raise ValueError("a Linspace needs finite endpoints and step")

    @property
    def step(self) -> float:
        """``linspace``'s own step, not a difference of samples."""
        return (self.stop - self.start) / max(self.num - 1, 1)

    @property
    def size(self) -> int:
        return self.num


class TrigPoly:
    __slots__ = ("spec", "_idx", "_vals")

    def __init__(self, spec: LatticeSpec, coeffs, prune: bool = False):
        pairs = list(coeffs.items() if isinstance(coeffs, dict) else coeffs)
        idx = np.array([spec.check_index(n) for n, _ in pairs], dtype=np.int64)
        vals = np.array([c for _, c in pairs], dtype=complex)
        self._store(spec, idx.reshape(len(pairs), spec.rank), vals, prune)

    def _store(self, spec, idx, vals, prune):
        """The one canonicalising step: sum repeated rows (sorting them), drop
        zeros and, with ``prune``, the dust below PRUNE_REL of the largest."""
        idx, vals = group_sum(idx, vals)
        vals = vals + 0.0  # signed zeros (from negation, conjugation) become +0.0
        keep = vals != 0
        if prune and keep.any():
            mag = np.abs(vals)
            keep &= mag >= PRUNE_REL * mag.max()
        idx, vals = idx[keep], vals[keep]
        idx.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "_idx", idx)
        object.__setattr__(self, "_vals", vals)

    def __setattr__(self, name, value):
        raise AttributeError("TrigPoly is immutable")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, spec: LatticeSpec) -> "TrigPoly":
        return cls(spec, {})

    @classmethod
    def single(cls, spec: LatticeSpec, n, c=1.0) -> "TrigPoly":
        return cls(spec, {tuple(n): c})

    @classmethod
    def from_arrays(cls, spec, idx: np.ndarray, coeffs: np.ndarray, prune=False):
        """From an (M, rank) index array and M coefficients; repeated rows add up."""
        idx = np.asarray(idx, dtype=np.int64)
        vals = np.asarray(coeffs, dtype=complex)
        if idx.shape != (len(vals), spec.rank):
            raise ValueError(
                f"index array of shape {idx.shape} does not fit {len(vals)} "
                f"coefficients on a rank-{spec.rank} lattice"
            )
        f = cls.__new__(cls)
        f._store(spec, idx, vals, prune)
        return f

    # -- access -------------------------------------------------------------------

    def coeff(self, n) -> complex:
        hit = np.flatnonzero((self._idx == self.spec.check_index(n)).all(axis=1))
        return complex(self._vals[hit[0]]) if len(hit) else 0.0

    def _as_dict(self) -> dict:
        return dict(zip(map(tuple, self._idx.tolist()), self._vals.tolist()))

    @property
    def support(self):
        """Set-like view of the indices, in index order."""
        return self._as_dict().keys()

    def items(self):
        return self._as_dict().items()

    def __len__(self) -> int:
        return len(self._vals)

    def __bool__(self) -> bool:
        return len(self._vals) > 0

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored (indices, coefficients), in lexicographic index order; read-only."""
        return self._idx, self._vals

    def freqs_float(self) -> np.ndarray:
        return self.spec.freq_float(self._idx)

    def heights_sq(self) -> np.ndarray:
        return (self._idx * self._idx).sum(axis=1)

    # -- linear algebra -------------------------------------------------------------

    def _check_same_spec(self, other: "TrigPoly"):
        if self.spec != other.spec:
            raise ValueError("operands live on different lattices")

    def __add__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        self._check_same_spec(other)
        idx = np.concatenate([self._idx, other._idx])
        vals = np.concatenate([self._vals, other._vals])
        return TrigPoly.from_arrays(self.spec, idx, vals, prune=True)

    def __sub__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return TrigPoly.from_arrays(self.spec, self._idx, -self._vals)

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            return multiply(self, other)
        return TrigPoly.from_arrays(self.spec, self._idx, self._vals * other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def conj(self) -> "TrigPoly":
        """Complex conjugate: coefficient at n becomes conj(coefficient at -n)."""
        return TrigPoly.from_arrays(self.spec, -self._idx, self._vals.conj())

    def shift(self, m) -> "TrigPoly":
        m = np.array(self.spec.check_index(m), dtype=np.int64)
        return TrigPoly.from_arrays(self.spec, self._idx + m, self._vals)

    # -- norms ------------------------------------------------------------------------

    def l2_norm(self) -> float:
        vals = self._vals
        return float(np.sqrt((vals.real**2 + vals.imag**2).sum()))

    def is_real_valued(self, tol: float = 1e-12) -> bool:
        """Hermitian symmetry: |c(-n) - conj c(n)| <= tol * max(max |c|, 1) at every n."""
        if not self:
            return True
        idx, vals = self._idx, self._vals
        _, gap = group_sum(np.concatenate([idx, -idx]), np.concatenate([vals, -vals.conj()]))
        return bool(np.abs(gap).max() <= tol * max(float(np.abs(vals).max()), 1.0))

    def evaluate(self, xs: Linspace) -> np.ndarray:
        """Pointwise values on the uniform grid ``xs``, a ``Linspace`` (d = 1
        only); any other argument raises ``TypeError``.

        With x0 = xs.start, h = xs.step, n = xs.num and K = isqrt(n - 1) + 1,
        sample j = bK + k is x0 + h bK + h k, so f there is the product of a
        block phase table (modes x blocks, times the coefficients) and an
        offset phase table (modes x K): one matrix product and about
        2 sqrt(n) exponentials per mode.
        """
        if not isinstance(xs, Linspace):
            raise TypeError(f"evaluate takes a Linspace grid, got {type(xs).__name__}")
        if self.spec.d != 1:
            raise ValueError("evaluate requires d = 1")
        n, x0, h = xs.num, xs.start, xs.step
        if n == 0 or not self:
            return np.zeros(n, dtype=complex)
        K = math.isqrt(n - 1) + 1
        starts = x0 + h * (K * np.arange(-(-n // K)))
        offsets = h * np.arange(K)
        vals, lam = self._vals, self.freqs_float()
        # chunk modes to bound the (modes x (blocks + K)) phase tables
        step = max(1, 4_000_000 // (len(starts) + K))
        for i in range(0, len(vals), step):
            lk = lam[i : i + step, None]
            blocks = vals[i : i + step, None] * np.exp(1j * (lk * starts))
            part = blocks.T @ np.exp(1j * (lk * offsets))  # row b, column k: sample bK + k
            grid = part if i == 0 else grid + part
        return grid.ravel()[:n]

    # -- JSON ---------------------------------------------------------------------------

    def to_dict(self) -> dict:
        rows = [
            {"n": n, "re": c.real, "im": c.imag}
            for n, c in zip(self._idx.tolist(), self._vals.tolist())
        ]
        return {"spec": self.spec.to_dict(), "coeffs": rows}

    @classmethod
    def from_dict(cls, obj: dict) -> "TrigPoly":
        spec = LatticeSpec.from_dict(obj["spec"])
        coeffs = {
            tuple(int(x) for x in row["n"]): complex(row.get("re", 0.0), row.get("im", 0.0))
            for row in obj["coeffs"]
        }
        return cls(spec, coeffs)

    def __repr__(self):
        return f"TrigPoly({len(self)} modes on rank-{self.spec.rank} lattice)"


# -- lattice convolution ------------------------------------------------------------------


def multiply(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Pointwise product of the represented functions: convolution of coefficients."""
    f._check_same_spec(g)
    if not f or not g:
        return TrigPoly.zero(f.spec)
    fi, fv = f.as_arrays()
    gi, gv = g.as_arrays()
    work = len(fv) * len(gv)
    _budget.check(work, what="coefficient convolution")
    sums = (fi[:, None, :] + gi[None, :, :]).reshape(-1, f.spec.rank)
    vals = (fv[:, None] * gv[None, :]).ravel()
    return TrigPoly.from_arrays(f.spec, sums, vals, prune=True)


# -- projections ------------------------------------------------------------------------------


def _subset(f: TrigPoly, keep: np.ndarray) -> TrigPoly:
    idx, vals = f.as_arrays()
    return TrigPoly.from_arrays(f.spec, idx[keep], vals[keep])


def project_height(f: TrigPoly, C: int) -> TrigPoly:
    """Keep the coefficients whose index height lies in the dyadic shell of C."""
    return _subset(f, in_shell(f.heights_sq(), C))


def project_ball(f: TrigPoly, radius: float) -> TrigPoly:
    """Keep indices with Euclidean height <= radius (Galerkin truncation)."""
    return _subset(f, f.heights_sq() <= float(radius) * float(radius))


def _freq_band(spec, idx, mag, lo, hi, margin) -> np.ndarray:
    """Mask of frequency moduli mag in (lo, hi] (lo None: mag <= hi); in exact
    mode rows within margin, widened by FLOAT_SUM_TOL of the row's summed term
    scale, of a bound are decided on the exact squared modulus
    den^2 |lam|^2 = a + b sqrt D, against (hi den)^2 and (lo den)^2."""
    scale = spec.freq_float(np.abs(idx)).reshape(len(idx), spec.d).sum(axis=1)
    margin = margin + FLOAT_SUM_TOL * scale
    flo = -np.inf if lo is None else float(lo)
    inside = (hi - mag > margin) & (mag - flo > margin)
    outside = (mag - hi > margin) | (flo - mag > margin)
    keep = inside | (~outside & (mag > flo) & (mag <= hi))
    near = np.flatnonzero(~inside & ~outside)
    if spec.exact and len(near):
        a = b = 0
        for i in range(spec.d):
            P, Q = (X.astype(object) for X in spec.exact_coords(idx[near][:, spec.block(i)], i))
            a, b = a + P * P + spec.radicand * Q * Q, b + 2 * P * Q
        keep[near] = surd_sign(a - (hi * spec.den) ** 2, b, spec.radicand) <= 0
        if lo is not None:
            keep[near] &= surd_sign(a - (lo * spec.den) ** 2, b, spec.radicand) > 0
    return keep


def project_freq(f: TrigPoly, N: int) -> TrigPoly:
    """Keep coefficients with |frequency| in the dyadic band (N/2, N] (N=1: <= 1)."""
    if N < 1 or (N & (N - 1)) != 0:
        raise ValueError(f"band parameter must be a dyadic integer >= 1, got {N}")
    lam = f.freqs_float()
    mag = np.abs(lam) if f.spec.d == 1 else np.sqrt((lam * lam).sum(axis=1))
    lo = None if N == 1 else Fraction(N, 2)
    return _subset(f, _freq_band(f.spec, f.as_arrays()[0], mag, lo, N, 1e-9 * (1.0 + N)))


def project_cube(f: TrigPoly, a, C: float) -> TrigPoly:
    """Keep indices within Euclidean distance C of the center index a."""
    off = f.as_arrays()[0] - np.array(f.spec.check_index(a), dtype=np.int64)
    return _subset(f, (off * off).sum(axis=1) <= float(C) * float(C))


# -- weighted norms ------------------------------------------------------------------------------


def sobolev_norm(f: TrigPoly, spec: SobolevSpec | float) -> float:
    """Weighted coefficient norm: sqrt of sum (1+|n|)^(2s) e^(2 kappa |n|) |c|^2."""
    if not isinstance(spec, SobolevSpec):
        spec = SobolevSpec(float(spec))
    if not f:
        return 0.0
    _, vals = f.as_arrays()
    h = np.sqrt(f.heights_sq().astype(float))
    w = (1.0 + h) ** (2.0 * spec.s)
    if spec.kappa:
        w = w * np.exp(2.0 * spec.kappa * h)
    return float(np.sqrt((w * (vals.real**2 + vals.imag**2)).sum()))


# -- the concentration family ---------------------------------------------------------------------


def extremizer(spec: LatticeSpec, C: int) -> TrigPoly:
    """Unit coefficients on shell-C indices whose frequency has modulus <= 1.

    For rank >= 2 the last coordinate can always be chosen to bring the
    frequency into [-1, 1], so the family has about C^(rank-1) modes; this is
    the data that saturates the height-loss in the dispersive estimates.
    """
    if spec.d != 1:
        raise ValueError("extremizer requires d = 1")
    if spec.rank < 2:
        raise ValueError("extremizer requires rank >= 2")
    r = spec.rank
    w = spec.float_omega(0)
    w_last = w[-1]
    per_row = int(2.0 / w_last) + 3
    _budget.check((2 * C + 1) ** (r - 1) * per_row, what="extremizer enumeration")

    axes = [np.arange(-C, C + 1, dtype=np.int64)] * (r - 1)
    mesh = np.meshgrid(*axes, indexing="ij") if r > 1 else []
    head = np.stack([m.ravel() for m in mesh], axis=1)
    partial = head @ w[:-1]
    kmin = np.ceil((-1.0 - partial) / w_last).astype(np.int64) - 1
    kmax = np.floor((1.0 - partial) / w_last).astype(np.int64) + 1
    counts = np.maximum(kmax - kmin + 1, 0)
    rows = np.repeat(np.arange(len(head)), counts)
    offsets = np.concatenate([np.arange(c) for c in counts]) if counts.sum() else np.zeros(0, int)
    ks = kmin[rows] + offsets
    idx = np.concatenate([head[rows], ks[:, None]], axis=1)

    idx = idx[in_shell((idx * idx).sum(axis=1), C)]
    keep = _freq_band(spec, idx, np.abs(spec.freq_float(idx)), None, 1, 1e-9)
    if not keep.any():
        raise DegenerateExtremizerError(
            f"no shell-{C} indices with frequency modulus <= 1"
        )
    return TrigPoly.from_arrays(spec, idx[keep], np.ones(int(keep.sum())))
