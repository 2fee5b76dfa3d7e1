"""Separable function approximation: transforms, ranks, and validation."""

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from lriga.chebfit import (
    NonSeparableFunctionError,
    approximate_function,
    chebyshev_coefficients,
    chebyshev_lobatto,
    halton_sample,
)
from lriga.geometry import get_geometry

from util import eval_grid, metric_data


def test_chebyshev_coefficient_transform():
    # samples of T_3 on the Lobatto grid must give the unit coefficient
    N = 8
    x = np.cos(np.pi * np.arange(N + 1) / N)
    vals = 4 * x ** 3 - 3 * x
    c = chebyshev_coefficients(vals.reshape(-1, 1, 1), axis=0).ravel()
    expected = np.zeros(N + 1)
    expected[3] = 1.0
    assert np.allclose(c, expected, atol=1e-13)

    # a generic smooth function round-trips through the coefficients
    vals = np.exp(x)
    c = chebyshev_coefficients(vals.reshape(-1, 1, 1), axis=0).ravel()
    xx = np.linspace(-1, 1, 23)
    assert np.allclose(chebval(xx, c), np.exp(xx), atol=1e-9)


def test_lobatto_points_in_unit_interval():
    pts = chebyshev_lobatto(8)
    assert pts[0] == 1.0 and np.isclose(pts[-1], 0.0)
    assert np.all((pts >= 0) & (pts <= 1))


def test_trilinear_monomial():
    sf = approximate_function(lambda q: q[..., 0] * q[..., 1] * q[..., 2], 1e-10)
    assert all(d <= 2 for d in sf.degrees)
    assert sf.rank == (1, 1, 1)
    assert sf.error <= 1e-14


def test_separable_exponential():
    sf = approximate_function(
        lambda q: np.exp(q[..., 0] + q[..., 1] + q[..., 2]), 1e-8
    )
    assert sf.rank == (1, 1, 1)
    pts = np.random.default_rng(25).uniform(0, 1, (200, 3))
    exact = np.exp(pts.sum(axis=1))
    assert np.max(np.abs(sf.eval_points(pts) - exact)) <= 10 * 1e-8 * np.e ** 3


def test_cross_rank_two():
    # sin(a+b) = sin a cos b + cos a sin b: rank (2,2,1)
    sf = approximate_function(lambda q: np.sin(q[..., 0] + q[..., 1]), 1e-9)
    assert sf.rank == (2, 2, 1)


def test_annulus_metric_blocks_rank_one():
    geo = get_geometry("quarter_annulus")
    for k, l in [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]:
        sf = approximate_function(
            lambda q: metric_data(geo, q)[0][..., k, l], 1e-7, scale=1.0
        )
        assert sf.rank == (1, 1, 1), (k, l)


def test_eval_grid_matches_points():
    sf = approximate_function(
        lambda q: np.cos(q[..., 0]) * (1 + q[..., 1] ** 2) * np.exp(q[..., 2]), 1e-9
    )
    e1 = np.linspace(0, 1, 4)
    e2 = np.linspace(0, 1, 5)
    e3 = np.linspace(0, 1, 3)
    G = eval_grid(sf, e1, e2, e3)
    for i, a in enumerate(e1):
        for j, b in enumerate(e2):
            for kk, c in enumerate(e3):
                v = sf.eval_points(np.array([[a, b, c]]))[0]
                assert np.isclose(G[i, j, kk], v, atol=1e-12)


def test_evaluator_must_be_vectorized():
    # a pointwise formula indexes the first axis of the stack, not the last:
    # the wrong shape comes back, and the error names both shapes
    def g(p):
        return p[0] + 2.0 * p[1] + 3.0 * p[2]

    with pytest.raises(ValueError, match=r"\(9, 9, 3\).*\(9, 9, 9, 3\)"):
        approximate_function(g, 1e-9)


def test_raising_evaluator_is_called_once():
    calls = []

    def g(p):
        calls.append(np.shape(p))
        return float(p[0] + 2.0 * p[1] + 3.0 * p[2])

    with pytest.raises(TypeError):
        approximate_function(g, 1e-9)
    assert calls == [(9, 9, 9, 3)]


def test_degree_cap_raises():
    with pytest.raises(NonSeparableFunctionError):
        approximate_function(lambda q: np.cos(300.0 * q[..., 0]), 1e-8)


def test_rank_monotone_in_eps():
    geo = get_geometry("spherical_shell")

    def g(q):
        return metric_data(geo, q)[0][..., 0, 0]

    prev = (0, 0, 0)
    for eps in (1e-4, 1e-6, 1e-8):
        r = approximate_function(g, eps).rank
        assert all(a >= b for a, b in zip(r, prev))
        prev = r


def test_zero_detection_with_scale_hint():
    rng = np.random.default_rng(26)

    def noise(q):
        return 1e-16 * rng.standard_normal(np.asarray(q).shape[:-1])

    sf = approximate_function(noise, 1e-8, scale=1.0)
    assert sf.rank == (1, 1, 1)
    assert sf.degrees == (0, 0, 0)
    assert np.all(sf.eval_points(halton_sample(16)) == 0.0)


def test_halton_sample_deterministic():
    a = halton_sample()
    b = halton_sample()
    assert a.shape == (512, 3)
    assert np.array_equal(a, b)


def test_halton_sample_is_shared_and_read_only():
    pts = halton_sample(128)
    assert halton_sample(128) is pts
    assert np.array_equal(pts, halton_sample.__wrapped__(128))
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0


@pytest.mark.parametrize("n", [128, 512])
def test_halton_sample_matches_scipy(n):
    from scipy.stats import qmc

    want = qmc.Halton(d=3, scramble=False).random(n)
    assert np.array_equal(halton_sample(n), want)


def test_import_leaves_scipy_stats_out():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = "import sys, lriga; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
