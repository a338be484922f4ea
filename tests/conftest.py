import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qpwave import LatticeSpec, QScalar, TrigPoly, integer_lattice, sqrt2_lattice
from qpwave import budget as _budget
from qpwave.errors import NumericConsistencyError
from qpwave.meannorms import IMAG_RESIDUE_TOL, evolved_factor_data
from qpwave.trigpoly import PRUNE_REL

try:
    from hypothesis import settings
except ImportError:  # optional test dependency; the property tests skip
    pass
else:
    # the same bounded set of examples on every run
    settings.register_profile(
        "qpwave", derandomize=True, deadline=None, max_examples=100, database=None
    )
    settings.load_profile("qpwave")

SQRT2 = math.sqrt(2.0)


@pytest.fixture
def work_budget():
    """Setter of the process-wide work budget, ``work_budget(n)``; the budget in
    force before the test is restored at teardown, whatever set it."""
    saved = _budget.get_default_budget()
    yield _budget.set_default_budget
    _budget.set_default_budget(saved)


@pytest.fixture
def sqrt2_spec():
    return sqrt2_lattice()


@pytest.fixture
def int_spec():
    return integer_lattice()


@pytest.fixture
def sqrt23_spec():
    # float-mode rank-3 generators (1, sqrt2, sqrt3)
    return LatticeSpec([[1.0, math.sqrt(2.0), math.sqrt(3.0)]])


def random_poly(spec, n_modes, rng, box=6, real=False, unit=False):
    """Random sparse data with indices in a small box."""
    modes = {}
    while len(modes) < n_modes:
        n = tuple(int(x) for x in rng.integers(-box, box + 1, size=spec.rank))
        if n in modes:
            continue
        c = complex(rng.standard_normal(), rng.standard_normal())
        if real:
            if n == (0,) * spec.rank or tuple(-x for x in n) in modes:
                continue
            modes[n] = c
            modes[tuple(-x for x in n)] = c.conjugate()
        else:
            modes[n] = c
    f = TrigPoly(spec, modes)
    if unit:
        f = (1.0 / f.l2_norm()) * f
    return f


# -- independent brute-force oracles ------------------------------------------------


def oracle_mean_p4(f: TrigPoly) -> float:
    """Mean of |f|^4 by direct quadruple enumeration over the support."""
    items = list(f.items())
    total = 0.0 + 0.0j
    for n1, a1 in items:
        for n2, a2 in items:
            for n3, a3 in items:
                for n4, a4 in items:
                    if all(
                        x1 + x2 == x3 + x4 for x1, x2, x3, x4 in zip(n1, n2, n3, n4)
                    ):
                        total += a1 * a2 * a3.conjugate() * a4.conjugate()
    assert abs(total.imag) < 1e-10 * max(abs(total.real), 1.0)
    return total.real


def oracle_mean_p6(f: TrigPoly) -> float:
    """Mean of |f|^6 by direct sextuple enumeration (small supports only)."""
    items = list(f.items())
    total = 0.0 + 0.0j
    for n1, a1 in items:
        for n2, a2 in items:
            for n3, a3 in items:
                key = tuple(x1 + x2 + x3 for x1, x2, x3 in zip(n1, n2, n3))
                for n4, a4 in items:
                    for n5, a5 in items:
                        for n6, a6 in items:
                            if key == tuple(
                                y1 + y2 + y3 for y1, y2, y3 in zip(n4, n5, n6)
                            ):
                                total += (
                                    a1 * a2 * a3
                                    * a4.conjugate() * a5.conjugate() * a6.conjugate()
                                )
    assert abs(total.imag) < 1e-10 * max(abs(total.real), 1.0)
    return total.real


def exact_rate(spec, n):
    """Schroedinger rate -|lambda_n|^2 of index n as an exact hashable value: a
    QScalar on an exact lattice; on a float d = 1 lattice whose generators
    have integer squares and rationally independent pairwise products (such
    as 1, sqrt2, sqrt3), its integer coordinates on 1 and those products."""
    if spec.exact:
        return -sum((lam * lam for lam in spec.freq(n)), QScalar(0))
    (omega,) = spec.omega
    squares = [round(w * w) for w in omega]
    assert all(abs(w * w - q) <= 1e-12 * q for w, q in zip(omega, squares))
    diag = sum(q * x * x for q, x in zip(squares, n))
    cross = [2 * n[g] * n[h] for g, h in itertools.combinations(range(len(n)), 2)]
    return tuple(-c for c in [diag, *cross])


def oracle_global_groups(polys) -> list:
    """Global space-time mean of the Schroedinger-evolved product of ``polys``:
    ordered tuples (itertools.product) grouped by index sum and exact rate sum.
    Returns (group total, sum of |term|) per group."""
    items = [list(f.items()) for f in polys]
    rate = [{n: exact_rate(f.spec, n) for n, _ in its} for f, its in zip(polys, items)]
    groups = {}
    for tup in itertools.product(*items):
        index_sum = tuple(map(sum, zip(*(n for n, _ in tup))))
        rates = [r[n] for r, (n, _) in zip(rate, tup)]
        if isinstance(rates[0], tuple):  # integer coordinates add componentwise
            rate_sum = tuple(map(sum, zip(*rates)))
        else:
            rate_sum = sum(rates[1:], rates[0])
        term = math.prod(c for _, c in tup)
        total, mag = groups.get((index_sum, rate_sum), (0.0, 0.0))
        groups[index_sum, rate_sum] = (total + term, mag + abs(term))
    return list(groups.values())


def oracle_global_mean(f: TrigPoly, k: int) -> float:
    """Global space-time mean of |f_t^k|^2 under the Schroedinger flow."""
    return sum(abs(v) ** 2 for v, _ in oracle_global_groups([f] * k))


def oracle_tuple_groups(polys, symbol) -> list:
    """Ordered k-tuples of the factors' modes (itertools.product) grouped by
    index sum: a list of (rates, values) arrays per group.  On an exact lattice
    tuples of equal exact phase (summed per-mode phase keys) merge, the first
    keeping its rate; the keys are ``symbol.phase_rate_keys`` of the factors
    as given.  Rates of a repeated factor (the same poly as the one before it)
    are summed in sorted-row order, so the orderings of one multiset carry
    bitwise-equal rates."""
    datas = [evolved_factor_data(f, symbol) for f in polys]
    keys = [symbol.phase_rate_keys(f) for f in polys]
    starts = [j for j in range(len(polys)) if j == 0 or polys[j] is not polys[j - 1]]
    runs = list(zip(starts, starts[1:] + [len(polys)]))
    exact = keys[0] is not None
    groups = {}
    for rows in itertools.product(*(range(len(d[1])) for d in datas)):
        srt = [r for lo, hi in runs for r in sorted(rows[lo:hi])]
        index_sum = tuple(int(x) for x in sum(d[0][r] for d, r in zip(datas, rows)))
        rates = [float(d[2][r]) for d, r in zip(datas, srt)]
        rate = sum(rates[1:], rates[0])
        value = math.prod(complex(d[1][r]) for d, r in zip(datas, rows))
        phase = tuple(int(x) for x in sum(key[r] for key, r in zip(keys, rows))) if exact else rows
        group = groups.setdefault(index_sum, {})
        if phase in group:
            group[phase][1] += value
        else:
            group[phase] = [rate, value]
    return [
        (np.array([r for r, _ in g.values()]), np.array([v for _, v in g.values()]))
        for g in groups.values()
    ]


def oracle_phi1(z: np.ndarray | complex) -> np.ndarray | complex:
    """(e^z - 1)/z, continuous through z = 0.

    Near zero the direct quotient cancels catastrophically; a 4-term Taylor
    polynomial takes over below |z| = 1e-4 (error there ~ |z|^4/120 < 1e-18).
    """
    scalar = np.isscalar(z)
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    out = np.where(small, 1 + z / 2 + z * z / 6 + z * z * z / 24, np.expm1(zs) / zs)
    return complex(out[()]) if scalar else out


def oracle_windowed(polys, symbol, T) -> float:
    """Windowed tuple pairing by one ``oracle_phi1`` call per index-sum group of
    ``oracle_tuple_groups``: no tuple fold, multisets or pair blocks, and not
    the engine's phi1 kernel."""
    polys = list(polys)
    if any(not f for f in polys):
        return 0.0
    T = float(T)
    total = 0.0 + 0.0j
    for r, v in oracle_tuple_groups(polys, symbol):
        integ = T * oracle_phi1(1j * T * (r[:, None] - r[None, :]))
        total += (v[:, None] * v[None, :].conj() * integ).sum()
    re, im = float(total.real), float(total.imag)
    if abs(im) > IMAG_RESIDUE_TOL * max(abs(re), 1e-300):
        raise NumericConsistencyError(
            f"windowed tuple sum has imaginary residue {im:.3e} against {re:.3e}"
        )
    return re


def oracle_first_picard_iterate(f: TrigPoly, t: float, power: int) -> dict:
    """First Picard iterate of the Schroedinger flow by ordered tuples
    (itertools.product) of ``power`` plain and ``power - 1`` conjugated modes,
    each with its time integral over [0, t] of e^{i s mismatch} by 64-point
    Gauss-Legendre quadrature; the mismatch is the tuple's
    rate sum plus |lambda_out|^2.  Returns {index: (coefficient, t * sum of
    |coefficient products| of the tuples summing to it)}."""
    spec = f.spec
    idx, vals = f.as_arrays()
    lam = spec.freq_float(idx).reshape(len(idx), -1)
    rho = -(lam * lam).sum(axis=1)
    signs = [1] * power + [-1] * (power - 1)
    keys, prods, mism = [], [], []
    for rows in itertools.product(range(len(idx)), repeat=len(signs)):
        n = sum(s * idx[r] for s, r in zip(signs, rows))
        lam_out = spec.freq_float(n[None, :]).reshape(-1)
        keys.append(tuple(int(x) for x in n))
        factors = (complex(vals[r]) if s > 0 else complex(vals[r]).conjugate()
                   for s, r in zip(signs, rows))
        prods.append(math.prod(factors))
        mism.append(sum(s * rho[r] for s, r in zip(signs, rows)) + (lam_out * lam_out).sum())
    xs, ws = np.polynomial.legendre.leggauss(64)
    integrals = np.exp(1j * np.outer(mism, (xs + 1) * t / 2)) @ ws * (t / 2)
    out = {}
    for n, prod, integral in zip(keys, prods, integrals):
        v, scale = out.get(n, (0.0, 0.0))
        out[n] = (v + prod * integral, scale + t * abs(prod))
    return out


def oracle_evaluate(f: TrigPoly, xs) -> np.ndarray:
    """Pointwise values by one complex exponential per mode and sample (any
    points, not only a uniform grid); modes are chunked to bound the
    (modes x samples) temporary."""
    xs = np.asarray(xs, dtype=float)
    _, vals = f.as_arrays()
    lam = f.freqs_float()
    out = np.zeros(xs.shape, dtype=complex)
    step = max(1, int(4_000_000 / max(len(xs), 1)))
    for k in range(0, len(vals), step):
        out += vals[k : k + step] @ np.exp(1j * np.outer(lam[k : k + step], xs))
    return out


class DictPoly:
    """Dict-of-tuples reference for TrigPoly: repeated indices summed left to
    right onto 0.0, zero sums dropped, and with ``prune`` the coefficients
    below PRUNE_REL of the largest magnitude; frequency bands decided on the
    exact squared modulus (QScalar) or, in float mode, by a sharp comparison."""

    def __init__(self, spec, pairs, prune=False):
        out = {}
        for n, c in pairs:
            n, c = tuple(int(x) for x in n), complex(c)
            if c != 0:
                out[n] = out.get(n, 0.0) + c
        out = {n: c for n, c in out.items() if c != 0}
        if prune and out:
            cut = PRUNE_REL * max(abs(c) for c in out.values())
            out = {n: c for n, c in out.items() if abs(c) >= cut}
        self.spec, self.coeffs = spec, out

    def _map(self, fn, prune=False):
        return DictPoly(self.spec, [fn(n, c) for n, c in self.coeffs.items()], prune)

    def _keep(self, test):
        return DictPoly(self.spec, [(n, c) for n, c in self.coeffs.items() if test(n)])

    def __add__(self, other):
        return DictPoly(self.spec, [*self.coeffs.items(), *other.coeffs.items()], prune=True)

    def __neg__(self):
        return self._map(lambda n, c: (n, -c))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        return self._map(lambda n, c: (n, c * s))

    def conj(self):
        return self._map(lambda n, c: (tuple(-x for x in n), c.conjugate()))

    def shift(self, m):
        return self._map(lambda n, c: (tuple(a + b for a, b in zip(n, m)), c))

    def coeff(self, n):
        return self.coeffs.get(tuple(n), 0.0)

    def is_real_valued(self, tol=1e-12):
        scale = max((abs(c) for c in self.coeffs.values()), default=0.0)
        return all(
            abs(self.coeff(tuple(-x for x in n)) - c.conjugate()) <= tol * max(scale, 1.0)
            for n, c in self.coeffs.items()
        )

    def project_height(self, C):
        def in_shell(n):
            h2 = sum(x * x for x in n)
            return h2 <= 1 if C == 1 else C * C < 4 * h2 <= 4 * C * C

        return self._keep(in_shell)

    def project_ball(self, radius):
        return self._keep(lambda n: sum(x * x for x in n) <= radius * radius)

    def project_cube(self, a, C):
        return self._keep(lambda n: sum((x - y) ** 2 for x, y in zip(n, a)) <= C * C)

    def project_freq(self, N):
        def in_band(n):
            if self.spec.exact:
                sq = sum((x * x for x in self.spec.freq(n)), QScalar(0))
                return sq <= N * N and (N == 1 or sq > Fraction(N * N, 4))
            lam = self.spec.freq_float(np.array([n]))[0]
            mag = abs(lam) if self.spec.d == 1 else math.sqrt((lam * lam).sum())
            return mag <= N and (N == 1 or mag > N / 2)

        return self._keep(in_band)

    def to_dict(self):
        rows = [
            {"n": list(n), "re": c.real, "im": c.imag} for n, c in sorted(self.coeffs.items())
        ]
        return {"spec": self.spec.to_dict(), "coeffs": rows}


def float_twin(f: TrigPoly) -> TrigPoly:
    """The same data on the float-mode copy of an exact lattice."""
    spec = LatticeSpec([[float(x) for x in b] for b in f.spec.omega])
    return TrigPoly(spec, dict(f.items()))


def oracle_box_min_freq(omega_floats, H):
    """Smallest nonzero |frequency| over the box |n|_inf <= H, by enumeration."""
    r = len(omega_floats)
    best = None
    grids = np.meshgrid(*([np.arange(-H, H + 1)] * r), indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=1)
    idx = idx[np.any(idx != 0, axis=1)]
    vals = np.abs(idx @ np.asarray(omega_floats))
    return float(vals.min())


def sqrt2_convergents(count=12):
    """Continued-fraction convergents p/q of sqrt 2: best rational approximations."""
    out = []
    p0, q0 = 1, 0
    p1, q1 = 1, 1
    out.append((p1, q1))
    for _ in range(count - 1):
        p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
        out.append((p1, q1))
    return out
