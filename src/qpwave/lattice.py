"""Frequency lattices generated by positive, rationally independent vectors.

A lattice assigns to each integer index n (one block per spatial dimension)
the frequency vector whose i-th component is the dot product of the i-th
block with the i-th generator vector.  The Euclidean norm of the full index
is its *height*; dyadic height shells (C/2, C] partition the nonzero indices.

Diophantine probes (smallest frequency in a box, minimal frequency gap) use
the max-norm box |n|_inf <= H: the difference set of a box of side 2H+1 is
exactly the box of side 4H+1, which keeps the gap enumeration exact, and a
box probe can only catch more integer relations than the inscribed ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from . import budget as _budget
from .errors import ResonantLatticeError
from .kernels import surd_sign
from .scalars import QScalar, as_exact

__all__ = [
    "LatticeSpec",
    "sqrt2_lattice",
    "integer_lattice",
    "float_lattice",
    "ball_indices",
    "shell_indices",
    "in_shell",
    "count_in_interval",
    "max_unit_interval_count",
    "min_gap",
    "MinGapResult",
    "nonresonance_check",
    "NonResonanceResult",
]


def _coerce_entry(x):
    if isinstance(x, float):
        return float(x)
    if isinstance(x, (int, Rational, QScalar)):
        return as_exact(x)
    raise TypeError(f"generator entries must be numbers or QScalar, got {type(x)!r}")


class LatticeSpec:
    """Generator data: spatial dimension d, ranks nu, per-dimension generators.

    Entries are either all exact (QScalar / rationals, one common quadratic
    field) or all finite floats (``ValueError`` for inf or nan); float mode
    uses a 1e-12 coincidence tolerance.  Exact lattices store integer
    generator coordinates over one denominator ``den`` in Q(sqrt
    ``radicand``); every exact decision runs on ``exact_coords``.

    Construction refuses generators with an integer relation
    (``ResonantLatticeError``, naming a primitive one): on an exact lattice by
    a complete rank test of each block's columns (A_j, B_j) over Q, so a block
    has at most two generators (one over Q); on a float lattice by
    ``nonresonance_check`` on the box |n|_inf <= 1.
    """

    __slots__ = ("d", "nu", "omega", "exact", "_float_omega", "_blocks", "den", "radicand",
                 "_coords")

    def __init__(self, omega, d: int | None = None):
        # omega: list of per-dimension generator vectors; a flat vector means d=1
        if omega and not isinstance(omega[0], (list, tuple)):
            omega = [list(omega)]
        omega = [list(block) for block in omega]
        if d is None:
            d = len(omega)
        if d != len(omega) or d < 1:
            raise ValueError("need one generator block per spatial dimension")
        blocks = [[_coerce_entry(x) for x in block] for block in omega]
        if any(len(b) == 0 for b in blocks):
            raise ValueError("generator blocks must be non-empty")

        has_float = any(isinstance(x, float) for b in blocks for x in b)
        if has_float:
            blocks = [[float(x) for x in b] for b in blocks]
            exact, den, radicand, coords = False, None, None, None
        else:
            fields = {x.d for b in blocks for x in b if x.d != 1}
            if len(fields) > 1:
                raise ValueError(f"generators mix quadratic fields {sorted(fields)}")
            exact, radicand = True, max(fields, default=1)
            den = math.lcm(*(c.denominator for b in blocks for x in b for c in (x.a, x.b)))
            coords = tuple([[int(c * den) for c in (x.a, x.b)] for x in b] for b in blocks)

        for b in blocks:
            for x in b:
                if (x.sign() <= 0) if exact else not 0.0 < x < math.inf:  # nan too
                    raise ValueError("generator entries must be positive and finite")

        object.__setattr__(self, "d", d)
        object.__setattr__(self, "nu", tuple(len(b) for b in blocks))
        object.__setattr__(self, "omega", tuple(tuple(b) for b in blocks))
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "radicand", radicand)
        object.__setattr__(self, "_coords", coords)
        object.__setattr__(
            self,
            "_float_omega",
            tuple(np.array([float(x) for x in b], dtype=float) for b in blocks),
        )
        starts = np.cumsum((0,) + self.nu)
        object.__setattr__(
            self, "_blocks", tuple(slice(starts[i], starts[i + 1]) for i in range(d))
        )
        if exact:
            _refuse_relations(coords)
        else:
            nonresonance_check(self, 1)

    def __setattr__(self, name, value):
        raise AttributeError("LatticeSpec is immutable")

    # -- basic shape ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return int(sum(self.nu))

    @property
    def b(self) -> int:
        """Density parameter: sum over dimensions of (rank - 1)."""
        return int(sum(n - 1 for n in self.nu))

    def block(self, i: int) -> slice:
        return self._blocks[i]

    def float_omega(self, i: int = 0) -> np.ndarray:
        return self._float_omega[i]

    def __eq__(self, other):
        return (
            isinstance(other, LatticeSpec)
            and self.d == other.d
            and self.nu == other.nu
            and self.omega == other.omega
        )

    def __hash__(self):
        return hash((self.d, self.nu, self.omega))

    def __repr__(self):
        return f"LatticeSpec(d={self.d}, nu={list(self.nu)}, omega={self.omega!r})"

    # -- frequencies -----------------------------------------------------------

    def check_index(self, n) -> tuple[int, ...]:
        n = tuple(int(x) for x in n)
        if len(n) != self.rank:
            raise ValueError(f"index has {len(n)} entries, lattice rank is {self.rank}")
        return n

    def freq(self, n) -> tuple:
        """Frequency vector of index n: one dot product per dimension."""
        n = self.check_index(n)
        zero = QScalar(0) if self.exact else 0.0
        blocks = (zip(n[self.block(i)], self.omega[i]) for i in range(self.d))
        return tuple(sum((c * w for c, w in blk), zero) for blk in blocks)

    def freq1(self, n):
        """Scalar frequency for one-dimensional lattices."""
        if self.d != 1:
            raise ValueError("freq1 requires d = 1")
        return self.freq(n)[0]

    def freq_float(self, idx: np.ndarray) -> np.ndarray:
        """Float frequencies for an (M, rank) index array; (M,) when d = 1.

        Each component is summed column by column in generator order,
        idx[:, 0] * w0 + idx[:, 1] * w1 + ..., so a row's value does not
        depend on the rows batched with it (a BLAS dot product may round a
        row differently by its place in the array).  Each product is written
        into one scratch buffer and added to the component in place.
        """
        idx = np.asarray(idx, dtype=np.int64)
        cols, term = [], np.empty(len(idx))
        for i in range(self.d):
            sub, w = idx[:, self.block(i)], self._float_omega[i]
            acc = sub[:, 0] * w[0]
            for j in range(1, len(w)):
                acc += np.multiply(sub[:, j], w[j], out=term)
            cols.append(acc)
        return cols[0] if self.d == 1 else np.stack(cols, axis=1)

    def exact_coords(self, sub: np.ndarray, i: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Integer coordinates of frequency component i for the (M, nu[i]) block-i
        index columns ``sub``: int64 (P, Q) with component (P + Q sqrt radicand) / den.
        Bounded first in Python integers: ValueError if they could leave int64."""
        if not self.exact:
            raise ValueError("exact coordinates require an exact lattice")
        sub = np.asarray(sub, dtype=np.int64)
        top = np.abs(sub).max(axis=0, initial=1).tolist()
        AB = self._coords[i]  # generator j of block i is (A_j + B_j sqrt radicand) / den
        if sum(m * (abs(a) + abs(b)) for m, (a, b) in zip(top, AB)) > np.iinfo(np.int64).max:
            raise ValueError("exact frequency coordinates exceed the int64 range")
        return tuple(np.array(AB, dtype=np.int64).T @ sub.T)

    # -- JSON -------------------------------------------------------------------

    def to_dict(self) -> dict:
        def enc(x):
            return x.to_dict() if isinstance(x, QScalar) else float(x)

        return {
            "d": self.d,
            "nu": list(self.nu),
            "omega": [[enc(x) for x in b] for b in self.omega],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "LatticeSpec":
        def dec(x):
            if isinstance(x, dict):
                return QScalar.from_dict(x)
            if isinstance(x, (int, float)):
                return x
            raise ValueError(f"bad generator entry {x!r}")

        omega = [[dec(x) for x in b] for b in obj["omega"]]
        spec = cls(omega, d=int(obj["d"]))
        if list(spec.nu) != [int(x) for x in obj["nu"]]:
            raise ValueError("nu does not match generator block lengths")
        return spec


def _refuse_relations(coords) -> None:
    """Raise ``ResonantLatticeError`` naming a primitive integer n != 0 with
    sum_j n_j (A_j, B_j) = 0 if the nonzero integer columns of a block of
    ``coords`` are dependent over Q.  Three 2-vectors satisfy the relation of
    their 2 x 2 minors; if those vanish, or there are two, the first two are
    parallel or independent, and parallel u, v satisfy (u.v) u - (u.u) v = 0."""
    for i, cols in enumerate(coords):
        def det(j, k):
            return cols[j][0] * cols[k][1] - cols[j][1] * cols[k][0]

        n = [0] * len(cols)
        if len(n) >= 3:
            n[:3] = det(1, 2), -det(0, 2), det(0, 1)
        if len(n) >= 2 and det(0, 1) == 0:
            (a, b), (c, e) = cols[:2]
            n[:2] = a * c + b * e, -(a * a + b * b)
        if any(n):
            relation = tuple(x // math.gcd(*n) for x in n)
            raise ResonantLatticeError(
                f"generators of dimension {i} satisfy the integer relation {relation}",
                relation=relation,
            )


def sqrt2_lattice() -> LatticeSpec:
    """The running example: d=1, generators (1, sqrt 2), exact."""
    return LatticeSpec([[QScalar(1), QScalar.sqrt(2)]])


def integer_lattice() -> LatticeSpec:
    """d=1 periodic lattice with generator (1)."""
    return LatticeSpec([[QScalar(1)]])


def float_lattice(entries) -> LatticeSpec:
    return LatticeSpec([[float(x) for x in entries]])


# -- index enumeration ----------------------------------------------------------


def _box_grid(rank: int, half: int) -> np.ndarray:
    count = (2 * half + 1) ** rank
    _budget.check(count, what=f"box enumeration ({2*half+1}^{rank} points)")
    axes = [np.arange(-half, half + 1, dtype=np.int64)] * rank
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def ball_indices(spec: LatticeSpec, radius: float) -> np.ndarray:
    """All indices with Euclidean height <= radius, lexicographically sorted."""
    half = int(np.floor(radius))
    idx = _box_grid(spec.rank, half)
    h2 = (idx * idx).sum(axis=1)
    return idx[h2 <= radius * radius]


def in_shell(h2, C: int):
    """Mask of squared heights h2 in the dyadic shell C/2 < |n| <= C (|n| <= 1 for C = 1)."""
    if C < 1 or (C & (C - 1)) != 0:
        raise ValueError(f"shell parameter must be a dyadic integer >= 1, got {C}")
    return (h2 <= 1) if C == 1 else ((4 * h2 > C * C) & (h2 <= C * C))


def shell_indices(spec: LatticeSpec, C: int) -> np.ndarray:
    """Indices in the dyadic height shell: C/2 < |n| <= C, with |n| <= 1 for C = 1."""
    idx = _box_grid(spec.rank, C)
    return idx[in_shell((idx * idx).sum(axis=1), C)]


# -- counting ---------------------------------------------------------------------


def count_in_interval(
    spec: LatticeSpec,
    C: int,
    lo,
    hi,
    include_lo: bool = True,
    include_hi: bool = False,
) -> int:
    """Number of shell-C indices whose frequency lies in the interval [lo, hi).

    Endpoint inclusion is configurable.  In exact mode, frequencies within the
    float margin of an endpoint are decided exactly (a float endpoint at its
    binary value); an endpoint from a quadratic field other than the
    lattice's raises ValueError, while rational lattices accept any field.
    An infinite endpoint is never near a frequency and is compared in float
    in both modes; a NaN endpoint raises ValueError.
    """
    if spec.d != 1:
        raise ValueError("count_in_interval requires d = 1")
    flo, fhi = float(lo), float(hi)
    if math.isnan(flo) or math.isnan(fhi):
        raise ValueError("interval endpoints must not be NaN")
    if flo > fhi:
        raise ValueError("empty interval bounds")
    if spec.exact:  # an infinite endpoint is never near a frequency: None, float sign
        ends = [as_exact(x if isinstance(x, (int, Rational, QScalar)) else Fraction(fx))
                if math.isfinite(fx) else None for x, fx in ((lo, flo), (hi, fhi))]
        fields = {e.d for e in ends if e is not None}
        if spec.radicand != 1 and not fields <= {1, spec.radicand}:
            raise ValueError(f"interval endpoints {lo}, {hi} lie outside Q(sqrt {spec.radicand})")
    idx = shell_indices(spec, C)
    lam = spec.freq_float(idx)
    margin = 1e-9 * (1.0 + sum(abs(x) for x in (flo, fhi) if math.isfinite(x)))
    near = np.flatnonzero((np.abs(lam - flo) <= margin) | (np.abs(lam - fhi) <= margin))
    signs = [np.sign(lam - flo), np.sign(lam - fhi)]  # of lam - endpoint
    if spec.exact and len(near):
        P, Q = (X.astype(object) for X in spec.exact_coords(idx[near]))
        for sign, e in zip(signs, ends):
            if e is not None:
                den_diff = P - e.a * spec.den, Q - e.b * spec.den  # den (lam - e)
                sign[near] = surd_sign(*den_diff, max(spec.radicand, e.d))
    lo_ok = signs[0] >= 0 if include_lo else signs[0] > 0
    hi_ok = signs[1] <= 0 if include_hi else signs[1] < 0
    return int((lo_ok & hi_ok).sum())


def max_unit_interval_count(spec: LatticeSpec, C: int) -> tuple[int, float]:
    """Largest number of shell-C frequencies in any closed interval of length 1.

    Returns (count, left endpoint of a maximizing interval).  The maximum over
    sliding windows is attained with the left endpoint on a frequency.
    """
    if spec.d != 1:
        raise ValueError("max_unit_interval_count requires d = 1")
    idx = shell_indices(spec, C)
    if len(idx) == 0:
        return 0, 0.0
    lam = np.sort(spec.freq_float(idx))
    hi = np.searchsorted(lam, lam + 1.0, side="right")
    counts = hi - np.arange(len(lam))
    k = int(np.argmax(counts))
    return int(counts[k]), float(lam[k])


# -- diophantine probes --------------------------------------------------------------


def _dim_box_min(spec, i, H):
    """Min |frequency| over the punctured box |m|_inf <= H in dimension block i.

    Returns (min value as float, argmin index tuple).  In exact mode the rows
    near the float minimum are decided on their integer coordinates (none is
    zero: construction refused dependent generators), the minimiser is chosen
    on cancellation-free floats, and its exact value is returned correctly
    rounded.
    """
    rank = spec.nu[i]
    idx = _box_grid(rank, H)
    idx = idx[np.any(idx != 0, axis=1)]
    vals = np.abs(idx @ spec.float_omega(i))
    scale = 1e-12 * (1.0 + float(np.abs(spec.float_omega(i)).sum()) * H)
    j = int(np.argmin(vals))
    if spec.exact:
        rows = idx[vals <= max(scale, vals[j] * (1 + 1e-9))]
        P, Q = (X.astype(object) for X in spec.exact_coords(rows, i))
        # |P + Q sqrt D| without cancellation: |P^2 - D Q^2| / (|P| + |Q| sqrt D) on mixed signs
        D = spec.radicand
        size = np.abs(P).astype(float) + np.abs(Q).astype(float) * math.sqrt(D)
        size = np.where(P * Q < 0, np.abs(P * P - D * Q * Q).astype(float) / size, size)
        k = int(np.argmin(size))
        exact = QScalar(Fraction(P[k], spec.den), Fraction(Q[k], spec.den), D)
        return abs(float(exact)), tuple(int(x) for x in rows[k])
    if vals[j] <= scale:
        raise ResonantLatticeError(
            f"float-mode frequency {vals[j]:.3e} at {tuple(int(x) for x in idx[j])} "
            f"is below the coincidence tolerance {scale:.3e}",
            relation=tuple(int(x) for x in idx[j]),
        )
    return float(vals[j]), tuple(int(x) for x in idx[j])


@dataclass(frozen=True)
class NonResonanceResult:
    min_abs: float
    argmin: tuple[int, ...]
    dimension: int
    height: int


def nonresonance_check(spec: LatticeSpec, H: int) -> NonResonanceResult:
    """Smallest |frequency| over nonzero indices in the box |n|_inf <= H.

    Exact mode returns a strictly positive witness (a dependent exact lattice
    is refused at construction); float mode raises ``ResonantLatticeError``
    when the minimum falls below the coincidence tolerance, and construction
    runs this check at H = 1.
    """
    if H < 1:
        raise ValueError("H must be >= 1")
    best = None
    for i in range(spec.d):
        v, arg = _dim_box_min(spec, i, H)
        if best is None or v < best[0]:
            best = (v, arg, i)
    return NonResonanceResult(best[0], best[1], best[2], H)


@dataclass(frozen=True)
class MinGapResult:
    gap: float
    alpha: float
    beta: float
    heights: tuple[tuple[int, float], ...]


def min_gap(spec: LatticeSpec, H: int) -> MinGapResult:
    """Minimal distance between distinct frequencies of height <= h, h = 2,4,...,H.

    With box heights the difference set is the box of side 4h+1, so the gap at
    height h is exactly the smallest nonzero |frequency| over |m|_inf <= 2h.
    The decay is summarized by a least-squares fit gap(h) ~ alpha * h^-beta.
    """
    if spec.d != 1:
        raise ValueError("min_gap requires d = 1")
    if H < 1:
        raise ValueError("H must be >= 1")
    heights = []
    h = 2
    while h <= H:
        heights.append(h)
        h *= 2
    if not heights or heights[-1] != H:
        heights.append(H)
    rows = []
    for h in heights:
        v, _ = _dim_box_min(spec, 0, 2 * h)
        rows.append((h, v))
    gaps = np.array([g for _, g in rows])
    hs = np.array([h for h, _ in rows], dtype=float)
    if len(rows) >= 2 and np.all(gaps > 0):
        A = np.stack([np.log(hs), np.ones_like(hs)], axis=1)
        sol, *_ = np.linalg.lstsq(A, np.log(gaps), rcond=None)
        beta = -float(sol[0])
        alpha = float(np.exp(sol[1]))
    else:
        beta, alpha = 0.0, float(gaps[-1])
    return MinGapResult(float(gaps[-1]), alpha, beta, tuple(rows))

