"""Benchmark solution with a known closed form for convergence studies.

The field u = (x^2+y^2-1)(x^2+y^2-4) sin(pi z) sin(7xy) vanishes on every
face of the quarter annulus with radii 1..2 and height 1 (the radial
factor kills r=1 and r=2, sin(7xy) kills the two straight sides, and
sin(pi z) the top and bottom), so the associated Poisson problem has
homogeneous Dirichlet data everywhere.

With s = x^2+y^2, A = (s-1)(s-4), S = sin(7xy), C = cos(7xy) and
Z = sin(pi z): grad A = 2(2s-5)(x, y), lap A = 16s-20, grad S = 7C(y, x)
and lap S = -49 s S, so

    -lap u = Z [(49 s + pi^2) A S - (16s-20) S - 56 xy (2s-5) C].

The functions below spell u, grad u and -lap u term by term in the order
sympy's expansion gives them, which reproduces its values bit for bit; a
regrouped form such as the one above differs in the last bit, which would
move the convergence CSV digits.
All take points of shape (..., 3).
"""

import numpy as np
from numpy import cos, pi, sin


def _terms(pts):
    """x, y, z and the factors s-1, s-4, sin(7xy), sin(pi z)."""
    x, y, z = np.moveaxis(np.asarray(pts, dtype=float), -1, 0)
    return (x, y, z, x**2 + y**2 - 1, x**2 + y**2 - 4, sin(7*x*y),
            sin(pi*z))


def u(pts):
    """The exact solution, shape (...)."""
    _, _, _, a1, a4, S, Z = _terms(pts)
    return a4*a1*Z*S


def grad(pts):
    """The physical gradient of u, shape (..., 3)."""
    x, y, z, a1, a4, S, Z = _terms(pts)
    C = cos(7*x*y)
    return np.stack([
        2*x*a4*Z*S + 2*x*a1*Z*S + 7*y*a4*a1*Z*C,
        7*x*a4*a1*Z*C + 2*y*a4*Z*S + 2*y*a1*Z*S,
        pi*a4*a1*S*cos(pi*z),
    ], axis=-1)


def load(pts):
    """The Poisson load -lap u, shape (...)."""
    x, y, _, a1, a4, S, Z = _terms(pts)
    C = cos(7*x*y)
    return (49*x**2*a4*a1*S - 8*x**2*S - 56*x*y*a4*C - 56*x*y*a1*C
            + 49*y**2*a4*a1*S - 8*y**2*S - 4*a1*S - 4*a4*S
            + pi**2*a4*a1*S)*Z


def parametric_load(geo):
    """The load pulled back to the parametric cube through ``geo``."""
    return lambda etas: load(geo.F(etas))
