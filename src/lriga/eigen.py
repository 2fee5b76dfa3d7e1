"""Generalized eigendecompositions of univariate spline pencils.

For the mass/stiffness pencil of a degree-p spline space the interior
eigenfunctions are close to sines, so the eigenvector matrix is split into
a large "smooth" block — spline interpolants of sin(mu_j pi x + k0 pi/2)
at either the interior breakpoints (odd p) or the knot-span midpoints
(even p) — and a small boundary block obtained from a dense generalized
eigensolve.  The smooth block is built once at setup from the sine matrix
S[i, j] = sin(mu_j pi x_i + k0 pi/2), evaluated in closed form, and one
banded collocation solve; its eigenvalues are taken as the analytic values
(mu_j pi)^2.  The paper applies these eigenvectors with the FFT; here both
decompositions are an :class:`Eigen1D` whose eigenvector matrix is applied
as a plain matrix, which measured faster at the sizes this package runs.

The phase parameters k0, k1 are 1 at a Neumann end and 0 at a Dirichlet
end, giving mu_j = j - k0/2 - k1/2.  For degrees p <= 2 (or fewer
elements than the degree) the exact dense eigendecomposition is used.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack

from .bsplines import BC_NEUMANN

_SQRT2 = np.sqrt(2.0)


class EigenSetupError(RuntimeError):
    """Raised when the split eigenvector basis cannot be constructed."""


def _phase(space):
    return (1 if space.bc[0] == BC_NEUMANN else 0,
            1 if space.bc[1] == BC_NEUMANN else 0)


def _interpolation_points(space, k0, k1):
    """Collocation abscissae for the smooth block."""
    N = space.n_el
    if space.p % 2 == 1:
        i0 = 0 if k0 else 1
        i1 = N if k1 else N - 1
        return np.arange(i0, i1 + 1) / N
    return (np.arange(N) + 0.5) / N


class _BandedLU:
    """LU of a square banded matrix, factored inside its band by LAPACK
    gbtrf/gbtrs; a band as wide as the matrix is factored densely."""

    def __init__(self, A):
        self.n = n = A.shape[0]
        rows, cols = np.nonzero(A)
        kl = max(int(np.max(rows - cols)), 0)
        ku = max(int(np.max(cols - rows)), 0)
        self._dense = None
        if kl + ku + 1 >= n:
            self._dense = sla.lu_factor(A)
            return
        ab = np.zeros((2 * kl + ku + 1, n))
        for j in range(n):
            i0 = max(0, j - ku)
            i1 = min(n, j + kl + 1)
            ab[kl + ku + np.arange(i0, i1) - j, j] = A[i0:i1, j]
        gbtrf, = lapack.get_lapack_funcs(("gbtrf",), (ab,))
        lu, ipiv, info = gbtrf(ab, kl, ku)
        if info != 0:
            raise np.linalg.LinAlgError("banded LU failed with info=%d" % info)
        self._band = (lu, ipiv, kl, ku)

    def solve(self, b):
        """Solve A x = b; b may be a vector or a matrix."""
        if self._dense is not None:
            return sla.lu_solve(self._dense, b)
        lu, ipiv, kl, ku = self._band
        gbtrs, = lapack.get_lapack_funcs(("gbtrs",), (lu,))
        x, info = gbtrs(lu, kl, ku, b.reshape(self.n, -1), ipiv)
        if info != 0:
            raise np.linalg.LinAlgError("banded solve failed with info=%d" % info)
        return x.reshape(b.shape)


@dataclass(frozen=True)
class Eigen1D:
    """Eigenvalues and eigenvector matrix U (n x n) of a univariate pencil.

    From :func:`exact_eigen`, K U = M U diag(lambdas) with U^T M U = I;
    from :func:`approx_eigen`, U is the split basis [V1 U1 | V2 U2].
    """

    lambdas: np.ndarray
    U: np.ndarray

    @property
    def n(self):
        return self.U.shape[0]


def _constraint_orders(p, neumann):
    """Derivative orders that vanish for the sine family at one endpoint."""
    if neumann:
        return [2 * k + 1 for k in range((p + 1) // 2) if 2 * k + 1 <= p - 1]
    return [2 * k for k in range(1, (p + 1) // 2) if 2 * k <= p - 1]


def _endpoint_derivatives(space, eta, orders, window):
    """Matrix of the given derivative orders of the kept functions in window."""
    G = np.zeros((len(orders), len(window)))
    pos = {g: c for c, g in enumerate(window)}
    for r, d in enumerate(orders):
        idx, vals = space.eval_basis(eta, deriv=d)
        for g, v in zip(idx, vals):
            if g in pos:
                G[r, pos[g]] = v
    return G


def exact_eigen(pencil):
    """Dense path: full generalized eigendecomposition of (K, M)."""
    K = pencil.K.toarray() if sp.issparse(pencil.K) else np.asarray(pencil.K)
    M = pencil.M.toarray() if sp.issparse(pencil.M) else np.asarray(pencil.M)
    lam, U = sla.eigh(K, M)
    return Eigen1D(lam, U)


def approx_eigen(space, pencil):
    """Split (approximate) eigendecomposition of the pencil on the given space.

    U = [V1 U1 | V2 U2] with U1 = C^-1 (sqrt(2) S): S is the sine matrix
    S[i, j] = sin(mu_j pi x_i + k0 pi/2) at the interpolation points and C
    the collocation matrix of the smooth block, so U costs one banded
    solve.  Degrees p <= 2, or spaces with n_el <= p, fall back to the
    exact dense decomposition.
    """
    p = space.p
    n = space.n
    if p <= 2 or space.n_el <= p:
        return exact_eigen(pencil)

    k0, k1 = _phase(space)
    x = _interpolation_points(space, k0, k1)
    n1 = len(x)
    ord0 = _constraint_orders(p, neumann=bool(k0))
    ord1 = _constraint_orders(p, neumann=bool(k1))
    c0, c1 = len(ord0), len(ord1)
    n2 = c0 + c1
    if n1 + n2 != n:
        raise EigenSetupError(
            "split sizes %d + %d do not add up to dim %d" % (n1, n2, n))

    # smooth block: boundary windows replaced by derivative-constrained combos
    B0, B1 = 2 * c0, 2 * c1
    V1 = np.zeros((n, n1))
    col = 0
    if c0:
        G0 = _endpoint_derivatives(space, 0.0, ord0, list(range(B0)))
        null0 = sla.null_space(G0)
        if null0.shape[1] != c0:
            raise EigenSetupError("endpoint constraints at 0 are rank deficient")
        V1[:B0, :c0] = null0
        col = c0
    for g in range(B0, n - B1):
        V1[g, col] = 1.0
        col += 1
    if c1:
        G1 = _endpoint_derivatives(space, 1.0, ord1, list(range(n - B1, n)))
        null1 = sla.null_space(G1)
        if null1.shape[1] != c1:
            raise EigenSetupError("endpoint constraints at 1 are rank deficient")
        V1[n - B1:, col:] = null1
    V1 = sp.csr_matrix(V1)

    # collocation of the smooth block at the interpolation points, factored once
    C = (space.collocation_matrix(x, deriv=0) @ V1).toarray()
    C_lu = _BandedLU(C)
    probe = np.cos(np.arange(n1, dtype=float))
    if np.max(np.abs(C @ C_lu.solve(probe) - probe)) > 1e-8 * max(np.max(np.abs(probe)), 1.0):
        raise EigenSetupError("collocation matrix is numerically singular")

    M = pencil.M.toarray() if sp.issparse(pencil.M) else np.asarray(pencil.M)
    K = pencil.K.toarray() if sp.issparse(pencil.K) else np.asarray(pencil.K)

    # boundary block: M-orthogonal complement seeded with the outermost
    # coefficient vectors, then a dense n2 x n2 generalized eigensolve
    seeds = np.zeros((n, n2))
    for c in range(c0):
        seeds[c, c] = 1.0
    for c in range(c1):
        seeds[n - c1 + c, c0 + c] = 1.0
    gram = _BandedLU((V1.T @ sp.csr_matrix(M) @ V1).toarray())
    W = seeds - V1 @ gram.solve(V1.T @ (M @ seeds))
    if np.linalg.matrix_rank(W, tol=1e-10) != n2:
        raise EigenSetupError("projected boundary seeds are linearly dependent")
    lam2, U2 = sla.eigh(W.T @ K @ W, W.T @ M @ W)

    mu = np.arange(1, n1 + 1) - 0.5 * (k0 + k1)
    lambdas = np.concatenate([(mu * np.pi) ** 2, lam2])
    S = np.sin(np.pi * np.outer(x, mu) + 0.5 * np.pi * k0)
    U1 = C_lu.solve(_SQRT2 * S)
    return Eigen1D(lambdas, np.hstack([V1 @ U1, W @ U2]))

