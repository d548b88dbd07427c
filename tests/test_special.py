"""The numpy special-function kernels against mpmath, ulp by ulp."""

from __future__ import annotations

import math

import numpy as np
import pytest

from chx import _special

mpmath = pytest.importorskip("mpmath")


def _ulps(got: np.ndarray, want: list) -> np.ndarray:
    """|got - want| in units of the last place of want (each rounded to double)."""
    want = np.array([float(w) for w in want])
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_digamma_at_a_over_q_within_8_ulp():
    rng = np.random.default_rng(20)
    x = [a / q for q in (1, 2, 3, 7, 64, 1999, 2000) for a in range(1, q + 1)]
    for _ in range(2000):
        q = int(rng.integers(2, 2001))
        x.append(int(rng.integers(1, q)) / q)
    x = np.array(x)
    with mpmath.workdps(30):
        want = [mpmath.digamma(mpmath.mpf(v)) for v in x.tolist()]
    assert _ulps(_special.digamma(x), want).max() <= 8


def test_exp1_within_4_ulp():
    edges = [1.0, math.nextafter(1.0, 2.0), 8.0, math.nextafter(8.0, 9.0), 64.0]
    x = np.concatenate([np.geomspace(1e-4, 200, 800), edges])
    with mpmath.workdps(30):
        want = [mpmath.e1(mpmath.mpf(v)) for v in x.tolist()]
    assert _ulps(_special.exp1(x), want).max() <= 4


def test_erfc_sqrt_within_8_ulp():
    edges = [0.0, 5e-324, 1e-300, 1e-12, 16.0, math.nextafter(16.0, 0.0), 200.0]
    t = np.concatenate([np.linspace(0, 200, 1001), np.geomspace(1e-10, 16, 200), edges])
    with mpmath.workdps(30):
        want = [mpmath.erfc(mpmath.sqrt(mpmath.mpf(v))) for v in t.tolist()]
    assert _ulps(_special.erfc_sqrt(t), want).max() <= 8


def test_kernels_are_elementwise():
    # a batch gives each entry the bits it has alone, in any shape
    x = np.geomspace(1e-3, 150, 40)
    for f, arg in ((_special.exp1, x), (_special.erfc_sqrt, x), (_special.digamma, x / 150)):
        whole = f(arg.reshape(5, 8))
        alone = np.array([f(np.array([v]))[0] for v in arg.tolist()])
        assert np.array_equal(whole.ravel(), alone)


def test_gauss_legendre_constants():
    nodes, weights = np.polynomial.legendre.leggauss(12)
    assert np.allclose(nodes[6:], _special._GL_NODES, rtol=0, atol=1e-15)
    assert np.allclose(weights[6:], _special._GL_WEIGHTS, rtol=0, atol=1e-15)
