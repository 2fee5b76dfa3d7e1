"""Eigendecomposition applicators and the banded LU underneath them."""

import numpy as np
import pytest
import scipy.linalg as sla

from lriga.banded import BandedLU
from lriga.bsplines import BC_DIRICHLET, BC_NEUMANN, SplineSpace1D, assemble_pencil
from lriga.eigen import (
    ApproxEigen1D,
    ExactEigen1D,
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


# ---------------------------------------------------------------- banded LU


def test_banded_solve_matches_dense():
    rng = np.random.default_rng(3)
    n = 30
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - 3), min(n, i + 3)):
            A[i, j] = rng.standard_normal()
    A += 8.0 * np.eye(n)
    lu = BandedLU(A)
    assert lu._band is not None
    b = rng.standard_normal(n)
    B = rng.standard_normal((n, 4))
    assert np.allclose(lu.solve(b), np.linalg.solve(A, b), atol=1e-12)
    assert np.allclose(lu.solve(B), np.linalg.solve(A, B), atol=1e-12)
    assert np.allclose(lu.solve(b, trans=True), np.linalg.solve(A.T, b), atol=1e-12)
    assert np.allclose(lu.solve(B, trans=True), np.linalg.solve(A.T, B), atol=1e-12)


def test_banded_full_matrix_uses_dense_path():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((7, 7)) + 7.0 * np.eye(7)
    lu = BandedLU(A)
    assert lu._dense is not None
    b = rng.standard_normal(7)
    assert np.allclose(lu.solve(b), np.linalg.solve(A, b), atol=1e-12)
    assert np.allclose(lu.solve(b, trans=True), np.linalg.solve(A.T, b), atol=1e-12)


# ------------------------------------------------------------ split sizes


def test_split_dimensions_odd_even_degree():
    _, E3 = _eig(3, 8, (D, D))
    assert (E3.n1, E3.n2) == (7, 2)
    _, E4 = _eig(4, 8, (D, D))
    assert (E4.n1, E4.n2) == (8, 2)
    _, E4nn = _eig(4, 8, (N, N))
    assert (E4nn.n1, E4nn.n2) == (8, 4)
    for p in (3, 4, 5):
        for bc in ALL_BC:
            space, E = _eig(p, 8, bc)
            assert E.n1 + E.n2 == space.n


# ------------------------------------------- smooth block reproduces sines


@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("bc", ALL_BC)
@pytest.mark.parametrize("n_el", [8, 16])
def test_interpolation_identity(p, bc, n_el):
    space, E = _eig(p, n_el, bc)
    k0, k1 = _phase(space)
    x = _interpolation_points(space, k0, k1)
    B = np.vstack([np.eye(E.n1), np.zeros((E.n2, E.n1))])
    coeffs = E.apply(B)  # columns of V1 U1
    vals = space.collocation_matrix(x, deriv=0, reduced=True) @ coeffs
    mu = np.arange(1, E.n1 + 1) - 0.5 * (k0 + k1)
    exact = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, mu) + 0.5 * np.pi * k0)
    assert np.max(np.abs(vals - exact)) < 1e-10


@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("bc", ALL_BC)
@pytest.mark.parametrize("n_el", [8, 16])
def test_fast_transform_matches_dense(p, bc, n_el):
    space, E = _eig(p, n_el, bc)
    st = E.sine
    rng = np.random.default_rng(11)
    B = rng.standard_normal((E.n1, 5))
    dense_m = st.dense() @ B
    dense_t = st.dense().T @ B
    st.fast = True
    try:
        fast_m = st.mult(B.copy())
        fast_t = st.tmult(B.copy())
    finally:
        st.fast = st.n1 >= 32
    assert np.max(np.abs(fast_m - dense_m)) < 1e-12
    assert np.max(np.abs(fast_t - dense_t)) < 1e-12


def test_fast_path_engaged_at_scale():
    space, E = _eig(3, 64, (D, D))
    assert E.sine.fast
    rng = np.random.default_rng(12)
    B = rng.standard_normal((E.n1, 3))
    assert np.max(np.abs(E.sine.mult(B) - E.sine.dense() @ B)) < 1e-12


# ------------------------------------------------------ analytic eigenvalues


def test_smooth_eigenvalues_analytic():
    _, E = _eig(3, 8, (D, D))
    j = np.arange(1, E.n1 + 1)
    assert np.allclose(E.lambdas[:E.n1], (j * np.pi) ** 2)
    _, End = _eig(3, 8, (N, D))
    j = np.arange(1, End.n1 + 1)
    assert np.allclose(End.lambdas[:End.n1], ((j - 0.5) * np.pi) ** 2)
    assert np.all(np.diff(End.lambdas[:End.n1]) > 0)


# ----------------------------------------------------------- exact fallback


def test_exact_path_for_low_degree_and_coarse_spaces():
    for p, n_el in [(1, 8), (2, 8), (3, 3)]:
        space = SplineSpace1D(p, n_el, bc=(D, D))
        E = approx_eigen(space, assemble_pencil(space))
        assert isinstance(E, ExactEigen1D)


def test_exact_path_m_orthonormal_and_diagonalizing():
    space = SplineSpace1D(2, 8, bc=(D, D))
    pencil = assemble_pencil(space)
    E = exact_eigen(pencil)
    M = pencil.M.toarray()
    K = pencil.K.toarray()
    assert np.max(np.abs(E.U.T @ M @ E.U - np.eye(E.n))) < 1e-10
    resid = K @ E.U - M @ E.U @ np.diag(E.lambdas)
    assert np.max(np.abs(resid)) < 1e-8 * np.max(np.abs(K))
    rng = np.random.default_rng(5)
    B = rng.standard_normal((E.n, 3))
    assert np.allclose(E.apply(B), E.U @ B)
    assert np.allclose(E.apply(B, transpose=True), E.U.T @ B)


# ------------------------------------------------- applicator vs dense build


def test_apply_matches_dense_construction():
    space, E = _eig(3, 8, (D, D))
    k0, k1 = _phase(space)
    x = _interpolation_points(space, k0, k1)
    V1 = E.V1.toarray()
    C = (space.collocation_matrix(x, deriv=0, reduced=True) @ E.V1).toarray()
    U1 = np.sqrt(2.0) * np.linalg.solve(C, E.sine.dense())
    Ut = np.hstack([V1 @ U1, E.V2 @ E.U2])
    rng = np.random.default_rng(6)
    B = rng.standard_normal((space.n, 4))
    assert np.max(np.abs(E.apply(B) - Ut @ B)) < 1e-12
    assert np.max(np.abs(E.apply(B, transpose=True) - Ut.T @ B)) < 1e-12


def test_approx_not_orthogonal_but_exact_is():
    space, E = _eig(3, 8, (D, D))
    Ut = E.apply(np.eye(space.n))
    assert np.max(np.abs(Ut.T @ Ut - np.eye(space.n))) > 1e-6
    space2 = SplineSpace1D(2, 8, bc=(D, D))
    pencil2 = assemble_pencil(space2)
    E2 = exact_eigen(pencil2)
    U = E2.apply(np.eye(E2.n))
    assert np.max(np.abs(U.T @ pencil2.M.toarray() @ U - np.eye(E2.n))) < 1e-10


def test_apply_empty_block():
    _, E = _eig(3, 8, (D, D))
    out = E.apply(np.zeros((E.n, 0)))
    assert out.shape == (E.n, 0)
    out_t = E.apply(np.zeros((E.n, 0)), transpose=True)
    assert out_t.shape == (E.n, 0)
