"""The closed-form manufactured solution: derivatives against central
differences, boundary values, and values pinned from its symbolic
derivation."""

import numpy as np
import pytest

from lriga import manufactured
from lriga.geometry import get_geometry

H = 1e-5  # central-difference step; truncation error O(H^2) ~ 1e-8 here
EYE = np.eye(3)


def _points(n=300, seed=0):
    # a box around the quarter annulus (radii 1..2, height 1)
    rng = np.random.default_rng(seed)
    return rng.uniform([-2.0, -2.0, 0.0], [2.0, 2.0, 1.0], size=(n, 3))


def _central(fn, pts, axis):
    return (fn(pts + H * EYE[axis]) - fn(pts - H * EYE[axis])) / (2 * H)


def test_grad_matches_central_differences_of_u():
    pts = _points()
    g = manufactured.grad(pts)
    fd = np.stack([_central(manufactured.u, pts, a) for a in range(3)], -1)
    assert g.shape == pts.shape
    # |grad u| reaches about 160 on the box
    assert np.max(np.abs(g - fd)) <= 1e-7 * np.max(np.abs(g))


def test_load_is_minus_central_difference_divergence_of_grad():
    pts = _points(seed=1)
    f = manufactured.load(pts)
    div = sum(_central(manufactured.grad, pts, a)[:, a] for a in range(3))
    assert f.shape == pts.shape[:-1]
    # |f| reaches about 2e3 on the box
    assert np.max(np.abs(f + div)) <= 1e-7 * np.max(np.abs(f))


# u, grad u and -lap u at three points, as the symbolic derivation
# (sympy 1.14 lambdified to numpy) evaluated them
PINNED_POINTS = np.array([[1.2, 0.7, 0.3], [0.4, 1.5, 0.8], [1.9, 0.1, 0.55]])
PINNED_U = np.array([0.6110613897900097, 1.1485239918595196,
                     -0.9549714853691107])
PINNED_GRAD = np.array([
    [-6.151072734523963, -11.526878095953204, 1.3947480306915794],
    [6.857233319478912, 2.085564923517555, -4.96625372392635],
    [8.000489157985058, -2.689180446184621, 0.4751741331362397],
])
PINNED_LOAD = np.array([107.1778309188038, 154.7301116830712,
                        -220.80435739078987])


@pytest.mark.parametrize("fn, expected", [
    (manufactured.u, PINNED_U),
    (manufactured.grad, PINNED_GRAD),
    (manufactured.load, PINNED_LOAD),
], ids=["u", "grad", "load"])
def test_values_match_symbolic_derivation(fn, expected):
    np.testing.assert_allclose(fn(PINNED_POINTS), expected, rtol=1e-14,
                               atol=0)


def test_u_vanishes_on_every_annulus_face():
    geo = get_geometry("quarter_annulus")
    t = np.linspace(0.0, 1.0, 9)
    grid = np.stack(np.meshgrid(t, t, indexing="ij"), -1).reshape(-1, 2)
    for axis in range(3):
        for side in (0.0, 1.0):
            etas = np.insert(grid, axis, side, axis=1)
            assert np.max(np.abs(manufactured.u(geo.F(etas)))) <= 1e-14


def test_parametric_load_is_load_through_the_map():
    geo = get_geometry("quarter_annulus")
    etas = np.random.default_rng(2).uniform(size=(4, 5, 3))
    np.testing.assert_array_equal(manufactured.parametric_load(geo)(etas),
                                  manufactured.load(geo.F(etas)))
