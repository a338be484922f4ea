"""Free evolutions for polynomial dispersion laws, and Galilean boosts.

Sign convention, fixed once: a mode with frequency lam evolves as
e^{i t rate(lam)} with rate = -lam^2 for the Schroedinger law (multi-d:
-|lam|^2), rate = +lam^3 for the Airy law, and rate = -p(lam) for a custom
polynomial p.  Every norm computed in this package is invariant under
flipping these signs, so only internal consistency matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trigpoly import TrigPoly

__all__ = ["DispersionSymbol", "propagate", "galilean_boost", "boost_mixed_norm_check"]


@dataclass(frozen=True)
class DispersionSymbol:
    kind: str
    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("schrodinger", "airy", "polynomial"):
            raise ValueError(f"unknown dispersion kind {self.kind!r}")
        if self.kind == "polynomial":
            if not self.coeffs or len(self.coeffs) > 5:
                raise ValueError("polynomial symbols have degree <= 4")
            if any(isinstance(c, complex) for c in self.coeffs):
                raise ValueError("polynomial symbols have real coefficients")

    @classmethod
    def schrodinger(cls) -> "DispersionSymbol":
        return cls("schrodinger")

    @classmethod
    def airy(cls) -> "DispersionSymbol":
        return cls("airy")

    @classmethod
    def polynomial(cls, coeffs) -> "DispersionSymbol":
        return cls("polynomial", tuple(float(c) for c in coeffs))

    def check_dimension(self, d: int) -> None:
        """Only the Schroedinger law is defined for d > 1."""
        if d != 1 and self.kind != "schrodinger":
            raise ValueError(f"{self.kind} dispersion requires d = 1")

    # -- float phase rates ------------------------------------------------------

    def phase_rates(self, f: TrigPoly) -> np.ndarray:
        """Per-mode rate r(n): the coefficient evolves as e^{i t r(n)}."""
        return self._rates_from_freqs(f.spec.d, f.freqs_float())

    def rates_for_indices(self, spec, idx: np.ndarray) -> np.ndarray:
        return self._rates_from_freqs(spec.d, spec.freq_float(idx))

    def _rates_from_freqs(self, d: int, lam: np.ndarray) -> np.ndarray:
        if self.kind == "schrodinger":
            if d == 1:
                return -lam * lam
            return -(lam * lam).sum(axis=1)
        self.check_dimension(d)
        if self.kind == "airy":
            return lam**3
        out = np.zeros_like(lam)
        for c in reversed(self.coeffs):
            out = out * lam + c
        return -out

    # -- exact phase identification ----------------------------------------------

    def phase_rate_keys(self, f: TrigPoly):
        """Exact per-mode phase identifiers: an (M, 2) int64 array, or None in
        float mode and for custom polynomials.

        A frequency component is (P + Q sqrt D) / den in the integer
        coordinates the lattice stores (``LatticeSpec.exact_coords``).  The rate
        times den^2 (Schroedinger, any d) or den^3 (Airy, d = 1) is a + b sqrt D,
        and the key is (a, b): equal keys iff equal rates.  A key that could
        leave the int64 range, bounded first in Python integers, raises ValueError.
        """
        spec = f.spec
        if not spec.exact or self.kind == "polynomial":
            return None
        self.check_dimension(spec.d)
        idx, _ = f.as_arrays()
        keys = np.zeros((len(idx), 2), dtype=np.int64)
        bound = 0
        for i in range(spec.d):
            P, Q = spec.exact_coords(idx[:, spec.block(i)], i)
            tops = (int(np.abs(X).max(initial=0)) for X in (P, Q))
            bound += max(abs(k) for k in self._key_parts(*tops, spec.radicand))
            if bound > np.iinfo(np.int64).max:
                raise ValueError("exact phase keys exceed the int64 range")
            keys += np.stack(self._key_parts(P, Q, spec.radicand), axis=1)
        return keys

    def _key_parts(self, P, Q, D):
        """(a, b) of the scaled rate of (P + Q sqrt D) / den, for arrays or ints."""
        if self.kind == "schrodinger":
            return -(P * P + D * Q * Q), -2 * P * Q
        return P**3 + 3 * D * P * Q * Q, 3 * P * P * Q + D * Q**3


def propagate(f: TrigPoly, symbol: DispersionSymbol, t: float) -> TrigPoly:
    """Multiply each coefficient by its unit-modulus evolution factor."""
    if not f:
        return f
    idx, vals = f.as_arrays()
    rates = symbol.phase_rates(f)
    return TrigPoly.from_arrays(f.spec, idx, vals * np.exp(1j * float(t) * rates))


def galilean_boost(f: TrigPoly, a) -> TrigPoly:
    """Shift every index by a; frequencies shift by the frequency of a."""
    return f.shift(a)


def boost_mixed_norm_check(
    f: TrigPoly,
    a,
    T: float,
    symbol: DispersionSymbol | None = None,
) -> tuple[float, float]:
    """Windowed space-time norm of the evolution of f and of its boost.

    The quadruple phases are unchanged by a frequency shift (the linear and
    constant terms cancel on the convolution constraint), so the two values
    agree up to roundoff.
    """
    from .meannorms import MixedNormSpec, mixed_norm_free

    if symbol is None:
        symbol = DispersionSymbol.schrodinger()
    mspec = MixedNormSpec(p=4, time_mode="window", T=T)
    return (
        mixed_norm_free(f, symbol, mspec),
        mixed_norm_free(galilean_boost(f, a), symbol, mspec),
    )
