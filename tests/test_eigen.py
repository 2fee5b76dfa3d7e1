"""Eigendecompositions of univariate pencils."""

import numpy as np
import pytest
import scipy.linalg

from lriga import eigen
from lriga.bsplines import (
    BC_DIRICHLET,
    BC_NEUMANN,
    SplineSpace1D,
    UnivariatePencil,
    assemble_pencil,
)
from lriga.eigen import Eigen1D, approx_eigen, exact_eigen
from lriga.elasticity import block_preconditioner
from lriga.fastdiag import build_lowrank_fd

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


# ------------------------------------------------------------------ memo


@pytest.fixture
def eigh_calls(monkeypatch):
    """Empty decomposition memo; the list records every eigh call."""
    calls = []
    eigh = scipy.linalg.eigh
    monkeypatch.setattr(eigen, "_DECOMPOSITIONS", {})
    monkeypatch.setattr(scipy.linalg, "eigh",
                        lambda *args: calls.append(args) or eigh(*args))
    return calls


def test_one_eigh_for_a_dirichlet_cube(eigh_calls):
    spaces = [SplineSpace1D(3, 9) for _ in range(3)]
    eigs = [approx_eigen(s, assemble_pencil(s)) for s in spaces]
    build_lowrank_fd(eigs, 1e-1)
    assert len(eigh_calls) == 1
    assert eigs[1] is eigs[0] and eigs[2] is eigs[0]


def test_one_eigh_per_distinct_column_space(eigh_calls):
    NN, DD = (N, N), (D, D)
    spaces = [SplineSpace1D(2, 6, bc) for bc in (NN, NN, DD)]
    P = block_preconditioner(spaces, 0.5, 0.4, 1e-1)
    assert len(eigh_calls) == 2
    eigs = P.parts[0].eigs
    assert eigs[0] is eigs[1] and eigs[2] is not eigs[0]


def test_decomposition_is_read_only_and_equals_a_fresh_one(eigh_calls):
    space = SplineSpace1D(3, 7)
    pencil = assemble_pencil(space)
    E = exact_eigen(pencil)
    for a in (E.lambdas, E.U):
        with pytest.raises(ValueError):
            a[0] = 0.0
    lam, U = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray())
    assert np.array_equal(E.lambdas, lam) and np.array_equal(E.U, U)


def test_memo_keys_on_pencil_contents(eigh_calls):
    # spaces that differ only in bc, and a pencil with one entry changed,
    # get decompositions of their own; an equal pencil built anew does not
    spaces = [SplineSpace1D(3, 7, bc) for bc in ALL_BC]
    eigs = [exact_eigen(assemble_pencil(s)) for s in spaces]
    assert len(eigh_calls) == 4
    assert len({id(E) for E in eigs}) == 4
    assert exact_eigen(assemble_pencil(SplineSpace1D(3, 7, (N, N)))) is eigs[1]
    pencil = assemble_pencil(spaces[0])
    K = pencil.K.copy()
    K.data[0] *= 2.0
    other = exact_eigen(UnivariatePencil(pencil.M, K))
    assert len(eigh_calls) == 5
    assert not np.array_equal(other.lambdas, eigs[0].lambdas)
    dense = exact_eigen(UnivariatePencil(pencil.M.toarray(), K.toarray()))
    assert len(eigh_calls) == 6
    assert np.array_equal(dense.U, other.U)
