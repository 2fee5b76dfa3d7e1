"""Brute-force dense reference implementations.

Everything here materializes full matrices or tensors and is only meant for
validating the low-rank kernels on small problems (tests, debugging), except
``expsum_apply``: the paper's exponential-sum preconditioner in Tucker form,
kept as the reference its tests apply.  The solver itself never imports
this module.
"""

import numpy as np
import scipy.sparse as sp

from lriga.bsplines import _quadrature, gauss_rule
from lriga.tucker import MemoryGuardError, TuckerTensor3, _kron_image

#: Largest vec-space dimension the dense expansions will build.
ORACLE_GUARD = 4096


def from_dense(X):
    """Wrap a dense tensor as a full-rank Tucker tensor (identity factors)."""
    X = np.asarray(X, dtype=float)
    assert X.ndim == 3
    return TuckerTensor3(X.copy(), tuple(np.eye(n) for n in X.shape))


def _densify(C):
    if hasattr(C, "toarray"):
        return np.asarray(C.toarray())
    return np.asarray(C)


def kron3(A1, A2, A3):
    """``kron(A3, kron(A2, A1))`` — the matrix acting on colexicographic
    vectorizations with ``A_k`` applied along mode ``k``."""
    return np.kron(_densify(A3), np.kron(_densify(A2), _densify(A1)))


def dense_operator(op, guard=ORACLE_GUARD):
    """Expand a Tucker-format operator into a dense matrix on vec-space."""
    n_out = [_densify(Cs[0]).shape[0] for Cs in op.factors]
    n_in = [_densify(Cs[0]).shape[1] for Cs in op.factors]
    N_out = int(np.prod(n_out))
    N_in = int(np.prod(n_in))
    if max(N_out, N_in) > guard:
        raise MemoryGuardError("dense operator of size %d x %d refused" % (N_out, N_in))
    R = op.rank
    A = np.zeros((N_out, N_in))
    for i3 in range(R[2]):
        for i2 in range(R[1]):
            for i1 in range(R[0]):
                c = op.core[i1, i2, i3]
                if c != 0.0:
                    A += c * kron3(op.factors[0][i1], op.factors[1][i2], op.factors[2][i3])
    return A


def expsum_apply(P, s):
    """The paper's exponential-sum preconditioner ``P`` (a
    :class:`lriga.fastdiag.LowRankFD`) applied to a Tucker tensor ``s``.

    1/(lam1+lam2+lam3) is replaced by the sum's R terms, so the inverse is
    a sum of R Kronecker products (Sangalli & Tani, SISC 2016; Braess &
    Hackbusch, IMA J. Numer. Anal. 2005).  Each factor F becomes the R
    scaled blocks U diag(d_j) U^T F side by side (term index slow); the
    image of the diagonal core is summed term by term without forming its
    Kronecker product with the input core.  The result is exact, has
    orthonormal factors and rank
    (min(n1, R r1), min(n2, R r2), min(n3, R r3)).

    Raises:
        MemoryGuardError: if the image core would exceed
            ``tucker.DENSE_GUARD``.
    """
    P._check(s)
    es, factors = P.expsum, []
    for e, v, F in zip(P.eigs, P.lam, s.factors):
        d = np.exp(-np.outer(es.exponents, v) / P.lam_min)
        Z = e.U.T @ F
        factors.append(e.U @ np.hstack([dj[:, None] * Z for dj in d]))
    core, j = np.zeros((es.R,) * 3), np.arange(es.R)
    core[j, j, j] = es.weights / P.lam_min
    return _kron_image(core, factors, s.core)


def coo_weighted_matrix(space, deriv_row, deriv_col, w_cheb=None):
    """The full-basis weighted Galerkin matrix built the plain way: the
    element matrices of ``bsplines.assemble_weighted_matrix``, scattered
    to rows/columns ``e + i``, ``e + j`` of a COO matrix and converted to
    CSR by scipy, which sums the duplicates."""
    rule, wv, B = _quadrature(space, w_cheb)
    local = np.einsum("eqi,eqj,eq,eq->eij", B[deriv_row], B[deriv_col], wv,
                      rule.weights)
    e = np.arange(space.n_el)[:, None, None]
    i = np.arange(space.p + 1)
    rows = np.broadcast_to(e + i[None, :, None], local.shape)
    cols = np.broadcast_to(e + i[None, None, :], local.shape)
    full = space.full_dim
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(full, full)).tocsr()


def _quad_grid(spaces, qpts):
    rules = [gauss_rule(s.n_el, qpts) for s in spaces]
    pts = [r.points.ravel() for r in rules]
    wts = [r.weights.ravel() for r in rules]
    return pts, wts


def dense_galerkin(spaces, metric_grid, qpts, guard=ORACLE_GUARD):
    """Element-loop Galerkin assembly on the full tensor quadrature grid.

    Args:
        spaces: three SplineSpace1D (reduced numbering).
        metric_grid: callable (k, l, e1, e2, e3) -> Q_kl values of shape
            (len(e1), len(e2), len(e3)); use the *same* approximated metric
            as the low-rank assembly when checking exactness.
        qpts: Gauss points per span and direction.

    Returns:
        dense (N, N) matrix in colexicographic ordering.
    """
    ns = [s.n for s in spaces]
    N = int(np.prod(ns))
    if N > guard:
        raise MemoryGuardError("dense Galerkin of size %d refused" % N)
    pts, wts = _quad_grid(spaces, qpts)
    B = [
        [s.collocation_matrix(p, deriv=d).toarray() for d in (0, 1)]
        for s, p in zip(spaces, pts)
    ]
    wgrid = np.einsum("a,b,c->abc", *wts)
    A = np.zeros((N, N))
    for k in range(3):
        for l in range(3):
            W = metric_grid(k, l, *pts) * wgrid
            G = [
                np.einsum(
                    "pi,pj->pij",
                    B[t][1 if t == k else 0],
                    B[t][1 if t == l else 0],
                )
                for t in range(3)
            ]
            A += np.einsum(
                "abc,aij,bkl,cmn->mkinlj", W, G[0], G[1], G[2], optimize=True
            ).reshape(N, N)
    return A


def dense_load(spaces, weight_grid, qpts, guard=ORACLE_GUARD):
    """Element-loop load vector: f_i = int w(eta) b_i(eta) deta."""
    ns = [s.n for s in spaces]
    N = int(np.prod(ns))
    if N > guard:
        raise MemoryGuardError("dense load of size %d refused" % N)
    pts, wts = _quad_grid(spaces, qpts)
    B = [s.collocation_matrix(p).toarray() for s, p in zip(spaces, pts)]
    W = weight_grid(*pts) * np.einsum("a,b,c->abc", *wts)
    return np.einsum("abc,ai,bj,ck->kji", W, B[0], B[1], B[2], optimize=True).ravel()


def _basis_gradients(spaces, geo, pts):
    """Physical gradients of every basis function on the quadrature grid.

    Returns (Gx, det) with Gx of shape (Pa, Pb, Pc, 3, N): derivative in
    physical direction r of basis function n (colexicographic) at each grid
    point, and the Jacobian determinant on the grid.
    """
    V = [s.collocation_matrix(p, deriv=0).toarray() for s, p in zip(spaces, pts)]
    D = [s.collocation_matrix(p, deriv=1).toarray() for s, p in zip(spaces, pts)]
    shape = tuple(len(p) for p in pts)
    N = int(np.prod([s.n for s in spaces]))
    g_eta = np.empty(shape + (3, N))
    for d in range(3):
        mats = [D[t] if t == d else V[t] for t in range(3)]
        g_eta[..., d, :] = np.einsum(
            "ai,bj,ck->abckji", *mats, optimize=True
        ).reshape(shape + (N,))
    e1, e2, e3 = np.meshgrid(*pts, indexing="ij")
    J = geo.jac(np.stack([e1, e2, e3], axis=-1))
    det = np.linalg.det(J)
    Jinv = np.linalg.inv(J)
    # d/dx_r = sum_d (J^-1)_{d,r} d/d eta_d
    Gx = np.einsum("abcdr,abcdn->abcrn", Jinv, g_eta, optimize=True)
    return Gx, det


def dense_elasticity(spaces, geo, lam, mu, qpts, guard=ORACLE_GUARD):
    """Element-loop assembly of the 3N x 3N linear-elasticity matrix.

    Integrates 2 mu eps(u):eps(v) + lam (div u)(div v) with physical
    gradients and dx = det J d eta directly, without the pulled-back
    coefficient functions of the low-rank path.  Component-major ordering:
    rows/cols [component 1 dofs, component 2 dofs, component 3 dofs].
    """
    N = int(np.prod([s.n for s in spaces]))
    if 3 * N > guard:
        raise MemoryGuardError("dense elasticity of size %d refused" % (3 * N))
    pts, wts = _quad_grid(spaces, qpts)
    Gx, det = _basis_gradients(spaces, geo, pts)
    w = np.einsum("a,b,c->abc", *wts) * det

    A = np.zeros((3 * N, 3 * N))
    # 2 mu eps(u):eps(v) = mu grad(u):grad(v) + mu grad(u):grad(v)^T
    lap = mu * np.einsum("abc,abcsi,abcsj->ij", w, Gx, Gx, optimize=True)
    for a in range(3):
        for b in range(3):
            blk = np.einsum(
                "abc,abci,abcj->ij", w, Gx[..., b, :], Gx[..., a, :],
                optimize=True,
            ) * mu
            blk += np.einsum(
                "abc,abci,abcj->ij", w, Gx[..., a, :], Gx[..., b, :],
                optimize=True,
            ) * lam
            if a == b:
                blk += lap
            A[a * N:(a + 1) * N, b * N:(b + 1) * N] = blk
    return A
