"""Eigendecompositions of univariate pencils."""

import numpy as np
import pytest

from lriga.bsplines import BC_DIRICHLET, BC_NEUMANN, SplineSpace1D, assemble_pencil
from lriga.eigen import Eigen1D, approx_eigen, exact_eigen

D, N = BC_DIRICHLET, BC_NEUMANN
ALL_BC = [(D, D), (N, N), (N, D), (D, N)]


def _eig(p, n_el, bc):
    space = SplineSpace1D(p, n_el, bc=bc)
    return approx_eigen(space, assemble_pencil(space))


# ------------------------------------------------------------- spectrum


def test_smooth_eigenvalues_analytic():
    # the low modes of the pencil approach the Laplacian's on [0, 1]:
    # (j pi)^2 between two Dirichlet ends, ((j - 1/2) pi)^2 with one Neumann end
    for bc, shift in (((D, D), 0.0), ((N, D), 0.5), ((D, N), 0.5)):
        E = _eig(3, 8, bc)
        j = np.arange(1, 4)
        assert np.allclose(E.lambdas[:3], ((j - shift) * np.pi) ** 2, rtol=1e-3)
        assert np.all(np.diff(E.lambdas) > 0)


def test_exact_path_for_low_degree_and_coarse_spaces():
    # approx_eigen is exact_eigen for every degree, space and end condition
    for bc in ALL_BC:
        for p, n_el in [(1, 8), (2, 8), (3, 3), (3, 8), (4, 8), (5, 8), (5, 16)]:
            space = SplineSpace1D(p, n_el, bc=bc)
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


# ------------------------------------- eigenbasis vs dense construction


def _dense_construction(pencil):
    """M^{-1} and (K + M)^{-1} by dense LU solves, without an eigensolve."""
    M, K = pencil.M.toarray(), pencil.K.toarray()
    eye = np.eye(M.shape[0])
    return np.linalg.solve(M, eye), np.linalg.solve(K + M, eye)


def _rel(A, B):
    return np.linalg.norm(A - B) / np.linalg.norm(B)


def test_apply_matches_dense_construction():
    # applying U^T then U to a block: U U^T = M^{-1} and
    # U (Lambda + 1)^{-1} U^T = (K + M)^{-1}
    space = SplineSpace1D(3, 8, bc=(D, D))
    pencil = assemble_pencil(space)
    E = approx_eigen(space, pencil)
    Minv, Sinv = _dense_construction(pencil)
    B = np.random.default_rng(6).standard_normal((space.n, 4))
    assert _rel(E.U @ (E.U.T @ B), Minv @ B) < 1e-9
    assert _rel(E.U @ ((E.U.T @ B) / (E.lambdas + 1.0)[:, None]), Sinv @ B) < 1e-9


@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("bc", ALL_BC)
@pytest.mark.parametrize("n_el", [8, 16, 64])
def test_transform_built_u_matches_dense_construction(p, bc, n_el):
    # the U and lambdas the preconditioner uses reproduce M^{-1} and
    # (K + M)^{-1} from dense solves; this holds for any sign or ordering
    # of the eigenvectors, and fails for a basis that is not M-orthonormal
    space = SplineSpace1D(p, n_el, bc=bc)
    pencil = assemble_pencil(space)
    E = approx_eigen(space, pencil)
    Minv, Sinv = _dense_construction(pencil)
    assert _rel(E.U @ E.U.T, Minv) < 1e-9
    assert _rel((E.U / (E.lambdas + 1.0)) @ E.U.T, Sinv) < 1e-9


def test_apply_empty_block():
    E = _eig(3, 8, (D, D))
    out = E.U @ np.zeros((E.n, 0))
    assert out.shape == (E.n, 0)
    out_t = E.U.T @ np.zeros((E.n, 0))
    assert out_t.shape == (E.n, 0)
