"""Generalized eigendecompositions of univariate spline pencils.

For the mass/stiffness pencil of a degree-p spline space the interior
eigenfunctions are close to sines, so the eigenvector matrix is split into
a large "smooth" block — spline interpolants of sin(mu_j pi x + k0 pi/2)
at either the interior breakpoints (odd p) or the knot-span midpoints
(even p) — and a small boundary block obtained from a dense generalized
eigensolve.  The smooth block is built once at setup from a fast
sine/cosine transform of the identity and a banded collocation solve; its
eigenvalues are taken as the analytic values (mu_j pi)^2.  Both
decompositions are an :class:`Eigen1D` whose eigenvector matrix is then
applied as a plain matrix.

The phase parameters k0, k1 are 1 at a Neumann end and 0 at a Dirichlet
end, giving mu_j = j - k0/2 - k1/2.  For degrees p <= 2 (or fewer
elements than the degree) the exact dense eigendecomposition is used.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy import fft as sfft

from .banded import BandedLU
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


#: (odd p, k0, k1, transpose) -> (transform, type, keep).  With keep None
#: the transform of B is halved; otherwise the transform is taken of B
#: halved except for its first (keep[0]) and/or last (keep[1]) row.
_SINE_TRANSFORMS = {
    (True, 0, 0, False): (sfft.dst, 1, None),
    (True, 1, 1, False): (sfft.dct, 1, (True, True)),
    (True, 1, 0, False): (sfft.dct, 2, None),
    (True, 0, 1, False): (sfft.dst, 2, None),
    (False, 0, 0, False): (sfft.dst, 3, (False, True)),
    (False, 1, 1, False): (sfft.dct, 3, (True, False)),
    (False, 1, 0, False): (sfft.dct, 4, None),
    (False, 0, 1, False): (sfft.dst, 4, None),
    (True, 0, 0, True): (sfft.dst, 1, None),
    (True, 1, 1, True): (sfft.dct, 1, (True, True)),
    (True, 1, 0, True): (sfft.dct, 3, (True, False)),
    (True, 0, 1, True): (sfft.dst, 3, (False, True)),
    (False, 0, 0, True): (sfft.dst, 2, None),
    (False, 1, 1, True): (sfft.dct, 2, None),
    (False, 1, 0, True): (sfft.dct, 4, None),
    (False, 0, 1, True): (sfft.dst, 4, None),
}


class SineTransform:
    """Multiplication by S[i, j] = sin(mu_j pi x_i + k0 pi/2) and its transpose.

    x_i are the interpolation points and mu_j = j - k0/2 - k1/2 for
    j = 1..n1.  Each (degree parity, k0, k1) combination matches one of the
    eight standard DST/DCT types up to index shifts and endpoint scaling;
    the dense matrix is the validation path.
    """

    def __init__(self, p, k0, k1, x):
        self.odd = p % 2 == 1
        self.k0 = k0
        self.k1 = k1
        self.x = x
        self.n1 = len(x)

    def dense(self):
        j = np.arange(1, self.n1 + 1)
        mu = j - 0.5 * (self.k0 + self.k1)
        return np.sin(np.pi * np.outer(self.x, mu) + 0.5 * np.pi * self.k0)

    def _apply(self, B, transpose):
        transform, kind, keep = _SINE_TRANSFORMS[
            (self.odd, self.k0, self.k1, transpose)]
        if keep is None:
            return transform(B, type=kind, axis=0) / 2.0
        w = B / 2.0
        if keep[0]:
            w[0] = B[0]
        if keep[1]:
            w[-1] = B[-1]
        return transform(w, type=kind, axis=0)

    def mult(self, B):
        return self._apply(B, transpose=False)

    def tmult(self, B):
        return self._apply(B, transpose=True)


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
    """Matrix of the given derivative orders of the reduced functions in window."""
    G = np.zeros((len(orders), len(window)))
    pos = {g: c for c, g in enumerate(window)}
    for r, d in enumerate(orders):
        idx, vals = space.eval_basis(eta, deriv=d, reduced=True)
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

    U = [V1 U1 | V2 U2] with U1 = sqrt(2) C^-1 S: S is the fast sine
    transform of the identity and C the collocation matrix of the smooth
    block, so U costs one transform and one banded solve.  Degrees
    p <= 2, or spaces with n_el <= p, fall back to the exact dense
    decomposition.
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
    C = (space.collocation_matrix(x, deriv=0, reduced=True) @ V1).toarray()
    C_lu = BandedLU(C)
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
    gram = BandedLU((V1.T @ sp.csr_matrix(M) @ V1).toarray())
    W = seeds - V1 @ gram.solve(V1.T @ (M @ seeds))
    if np.linalg.matrix_rank(W, tol=1e-10) != n2:
        raise EigenSetupError("projected boundary seeds are linearly dependent")
    lam2, U2 = sla.eigh(W.T @ K @ W, W.T @ M @ W)

    mu = np.arange(1, n1 + 1) - 0.5 * (k0 + k1)
    lambdas = np.concatenate([(mu * np.pi) ** 2, lam2])
    U1 = C_lu.solve(SineTransform(p, k0, k1, x).mult(_SQRT2 * np.eye(n1)))
    return Eigen1D(lambdas, np.hstack([V1 @ U1, W @ U2]))

