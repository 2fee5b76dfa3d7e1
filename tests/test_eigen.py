"""Eigendecompositions of univariate pencils and the banded LU underneath them."""

import numpy as np
import pytest

from lriga import eigen
from lriga.bsplines import BC_DIRICHLET, BC_NEUMANN, SplineSpace1D, assemble_pencil
from lriga.eigen import (
    Eigen1D,
    _BandedLU,
    _interpolation_points,
    _phase,
    approx_eigen,
    exact_eigen,
)

D, N = BC_DIRICHLET, BC_NEUMANN
ALL_BC = [(D, D), (N, N), (N, D), (D, N)]


def _eig(p, n_el, bc):
    space = SplineSpace1D(p, n_el, bc=bc)
    return space, approx_eigen(space, assemble_pencil(space))


def _split(space, E):
    """Sizes (n1, n2) of the smooth and boundary blocks of E's eigenvectors."""
    n1 = len(_interpolation_points(space, *_phase(space)))
    return n1, E.n - n1


class _DenseCollocationLU(_BandedLU):
    """_BandedLU that solves a square right-hand side (the collocation solve
    for the n1 x n1 sine matrix) densely with np.linalg.solve."""

    def __init__(self, A):
        super().__init__(A)
        self.A = A

    def solve(self, b):
        if np.ndim(b) == 2 and b.shape[1] == self.n:
            return np.linalg.solve(self.A, b)
        return super().solve(b)


def _dense_construction(space, monkeypatch):
    """approx_eigen's U with the collocation system solved densely."""
    with monkeypatch.context() as m:
        m.setattr(eigen, "_BandedLU", _DenseCollocationLU)
        return approx_eigen(space, assemble_pencil(space)).U


# ---------------------------------------------------------------- banded LU


def test_banded_solve_matches_dense():
    rng = np.random.default_rng(3)
    n = 30
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - 3), min(n, i + 3)):
            A[i, j] = rng.standard_normal()
    A += 8.0 * np.eye(n)
    lu = _BandedLU(A)
    assert lu._dense is None
    b = rng.standard_normal(n)
    B = rng.standard_normal((n, 4))
    assert np.allclose(lu.solve(b), np.linalg.solve(A, b), atol=1e-12)
    assert np.allclose(lu.solve(B), np.linalg.solve(A, B), atol=1e-12)


def test_banded_full_matrix_uses_dense_path():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((7, 7)) + 7.0 * np.eye(7)
    lu = _BandedLU(A)
    assert lu._dense is not None
    b = rng.standard_normal(7)
    assert np.allclose(lu.solve(b), np.linalg.solve(A, b), atol=1e-12)


def test_banded_zero_pivot_raises():
    # tridiagonal with its third column zero: gbtrf meets an exactly zero pivot
    A = np.diag(np.full(8, 4.0)) + np.diag(np.ones(7), 1) + np.diag(np.ones(7), -1)
    A[:, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        _BandedLU(A)


# ------------------------------------------------------------ split sizes


def test_split_dimensions_odd_even_degree():
    space3, E3 = _eig(3, 8, (D, D))
    assert _split(space3, E3) == (7, 2)
    space4, E4 = _eig(4, 8, (D, D))
    assert _split(space4, E4) == (8, 2)
    space4nn, E4nn = _eig(4, 8, (N, N))
    assert _split(space4nn, E4nn) == (8, 4)
    for p in (3, 4, 5):
        for bc in ALL_BC:
            space, E = _eig(p, 8, bc)
            n1, n2 = _split(space, E)
            assert n1 + n2 == space.n
            assert E.U.shape == (space.n, space.n)


# ------------------------------------------- smooth block reproduces sines


@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("bc", ALL_BC)
@pytest.mark.parametrize("n_el", [8, 16, 64])
def test_interpolation_identity(p, bc, n_el):
    space, E = _eig(p, n_el, bc)
    k0, k1 = _phase(space)
    x = _interpolation_points(space, k0, k1)
    n1, _ = _split(space, E)
    coeffs = E.U[:, :n1]  # columns of V1 U1
    vals = space.collocation_matrix(x, deriv=0) @ coeffs
    mu = np.arange(1, n1 + 1) - 0.5 * (k0 + k1)
    exact = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, mu) + 0.5 * np.pi * k0)
    assert np.max(np.abs(vals - exact)) < 1e-10


# ------------------------------------------------------ analytic eigenvalues


def test_smooth_eigenvalues_analytic():
    space, E = _eig(3, 8, (D, D))
    n1, _ = _split(space, E)
    j = np.arange(1, n1 + 1)
    assert np.allclose(E.lambdas[:n1], (j * np.pi) ** 2)
    space_nd, End = _eig(3, 8, (N, D))
    n1, _ = _split(space_nd, End)
    j = np.arange(1, n1 + 1)
    assert np.allclose(End.lambdas[:n1], ((j - 0.5) * np.pi) ** 2)
    assert np.all(np.diff(End.lambdas[:n1]) > 0)


# ----------------------------------------------------------- exact fallback


def test_exact_path_for_low_degree_and_coarse_spaces():
    for p, n_el in [(1, 8), (2, 8), (3, 3)]:
        space = SplineSpace1D(p, n_el, bc=(D, D))
        E = approx_eigen(space, assemble_pencil(space))
        assert isinstance(E, Eigen1D)
        X = exact_eigen(assemble_pencil(space))
        assert np.array_equal(E.lambdas, X.lambdas)
        assert np.array_equal(E.U, X.U)


def test_exact_path_m_orthonormal_and_diagonalizing():
    space = SplineSpace1D(2, 8, bc=(D, D))
    pencil = assemble_pencil(space)
    E = exact_eigen(pencil)
    M = pencil.M.toarray()
    K = pencil.K.toarray()
    assert np.max(np.abs(E.U.T @ M @ E.U - np.eye(E.n))) < 1e-10
    resid = K @ E.U - M @ E.U @ np.diag(E.lambdas)
    assert np.max(np.abs(resid)) < 1e-8 * np.max(np.abs(K))


# ------------------------------------------ banded build vs dense build


def test_apply_matches_dense_construction(monkeypatch):
    space, E = _eig(3, 8, (D, D))
    Ut = _dense_construction(space, monkeypatch)
    rng = np.random.default_rng(6)
    B = rng.standard_normal((space.n, 4))
    assert np.max(np.abs(E.U @ B - Ut @ B)) < 1e-12
    assert np.max(np.abs(E.U.T @ B - Ut.T @ B)) < 1e-12


@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("bc", ALL_BC)
@pytest.mark.parametrize("n_el", [8, 16, 64])
def test_transform_built_u_matches_dense_construction(p, bc, n_el, monkeypatch):
    # n_el = 64 puts the smooth block above 32 columns
    space, E = _eig(p, n_el, bc)
    Ut = _dense_construction(space, monkeypatch)
    assert np.max(np.abs(E.U - Ut)) < 1e-12


def test_approx_not_orthogonal_but_exact_is():
    space, E = _eig(3, 8, (D, D))
    Ut = E.U
    assert np.max(np.abs(Ut.T @ Ut - np.eye(space.n))) > 1e-6
    space2 = SplineSpace1D(2, 8, bc=(D, D))
    pencil2 = assemble_pencil(space2)
    E2 = exact_eigen(pencil2)
    U = E2.U
    assert np.max(np.abs(U.T @ pencil2.M.toarray() @ U - np.eye(E2.n))) < 1e-10


def test_apply_empty_block():
    _, E = _eig(3, 8, (D, D))
    out = E.U @ np.zeros((E.n, 0))
    assert out.shape == (E.n, 0)
    out_t = E.U.T @ np.zeros((E.n, 0))
    assert out_t.shape == (E.n, 0)
