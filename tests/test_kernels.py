"""The phi1 kernel: (e^{i theta} - 1)/(i theta) for real theta, against a
50-digit reference, and its refusal of complex arguments."""

import numpy as np
import pytest

from qpwave.kernels import phi1

EPS = np.finfo(float).eps


def phi1_arguments():
    """Zero, subnormals, the neighbourhood of 1e-4, multiples of 2 pi (where
    e^{i theta} - 1 vanishes nearby), magnitudes from 1e-300 to 1e300 and a
    uniform sample of [-10, 10]."""
    rng = np.random.default_rng(7)
    k = np.arange(1, 200)
    return np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2e-308, 1e300, -1e300],
        1e-4 + rng.uniform(-1e-10, 1e-10, 200),
        2 * np.pi * k,
        -2 * np.pi * k,
        rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-300, 300, 2000),
        rng.uniform(-10, 10, 1000),
    ])


def test_phi1_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    theta = phi1_arguments()
    got = phi1(theta)
    assert got.dtype == complex and got.shape == theta.shape
    with mpmath.workdps(50):
        for x, g in zip(theta.tolist(), got.tolist()):
            X = mpmath.mpf(x)
            ref = mpmath.mpf(1) if x == 0 else (mpmath.expj(X) - 1) / (1j * X)
            assert abs(mpmath.mpc(g) - ref) <= 4 * EPS * abs(ref), x
    assert phi1(0.0) == 1
    value = phi1(0.5)
    assert type(value) is complex
    assert value == phi1(np.array([0.5]))[0]


@pytest.mark.parametrize("z", [0.5j, 1 + 0j, np.array([0.1j, 2.0 + 0j]), [0.5 + 0j]])
def test_phi1_refuses_complex_arguments(z):
    with pytest.raises(TypeError):
        phi1(z)
