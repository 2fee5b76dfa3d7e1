"""Fast-diagonalization preconditioners for Kronecker-sum Laplacians.

Fast diagonalization inverts a Kronecker sum through the eigenvectors of
its three univariate pencils and the sums lam1+lam2+lam3 of their
eigenvalues.  The low-rank version here replaces 1/(lam1+lam2+lam3) by an
exponential sum, which turns the inverse into a short sum of Kronecker
products.  Each direction's eigenvector matrix U_k is built once at setup
(see :mod:`lriga.eigen`); applied to a Tucker tensor, the preconditioner
multiplies each factor by U_k^T, scales it by the R exponential terms and
multiplies the block row by U_k, then sums the diagonal core's terms into
an exact image with orthonormal factors, whose rank is min(n_k, R r_k) for
R exponential terms.
"""

import numpy as np

from .expsum import build_exp_sum
from .tucker import TuckerTensor3, _kron_image


class FastDiagError(RuntimeError):
    """Raised when a fast-diagonalization setup is inconsistent."""


class LowRankFD:
    """Exponential-sum fast-diagonalization preconditioner in Tucker form.

    Attributes:
        eigs: per-direction eigendecompositions (:class:`lriga.eigen.Eigen1D`).
        expsum: ExpSum approximating 1/lambda on [1, lam_max/lam_min].
        lam_min, lam_max: extreme eigenvalue sums (after direction weights).
        diag: diag[i][j] = exp(-(alpha_j/lam_min) * Lambda_i), shape (R, n_i).
        core: diagonal (R, R, R) core with entries omega_j / lam_min.
    """

    def __init__(self, eigs, expsum, lam_min, lam_max, diag, core):
        self.eigs = eigs
        self.expsum = expsum
        self.lam_min = lam_min
        self.lam_max = lam_max
        self.diag = diag
        self.core = core

    @property
    def R(self):
        return self.expsum.R

    @property
    def dims(self):
        return tuple(e.n for e in self.eigs)

    @property
    def spectral_ratio(self):
        """lam_max / lam_min, the right end of the exp-sum interval."""
        return self.expsum.M

    def apply(self, s):
        """Preconditioner applied to a Tucker tensor.

        Each factor F becomes the R scaled blocks U diag(d_j) U^T F side by
        side (term index slow); the image of the diagonal core is summed term
        by term without forming its Kronecker product with the input core.
        The result is exact, has orthonormal factors and rank
        (min(n1, R r1), min(n2, R r2), min(n3, R r3)).

        Raises:
            MemoryGuardError: if the image core would exceed
                ``tucker.DENSE_GUARD``.
        """
        if not isinstance(s, TuckerTensor3):
            raise TypeError("expected a TuckerTensor3")
        if s.dims != self.dims:
            raise ValueError("dims %s do not match preconditioner %s"
                             % (s.dims, self.dims))
        factors = []
        for i, e in enumerate(self.eigs):
            Z = e.U.T @ s.factors[i]
            blocks = [self.diag[i][j][:, None] * Z for j in range(self.R)]
            factors.append(e.U @ np.hstack(blocks))
        return _kron_image(self.core, factors, s.core)


def build_lowrank_fd(eigs, eps_rel, weights=None):
    """Low-rank fast-diagonalization preconditioner from three eigendecompositions.

    Args:
        eigs: three eigendecompositions with .lambdas and an n x n matrix .U.
        eps_rel: relative accuracy of the exponential-sum inverse.
        weights: optional positive per-direction scalings of the eigenvalues
            (the separable-coefficient case, e.g. elasticity diagonal blocks).
    """
    if weights is None:
        weights = (1.0, 1.0, 1.0)
    lam = [w * np.asarray(e.lambdas, dtype=float) for w, e in zip(weights, eigs)]
    for v in lam:
        if np.min(v) < -1e-12 * max(np.max(v), 1.0):
            raise FastDiagError("negative eigenvalue in a direction pencil")
    lam_min = sum(float(np.min(v)) for v in lam)
    lam_max = sum(float(np.max(v)) for v in lam)
    if lam_min <= 0.0:
        raise FastDiagError("eigenvalue sums must be positive")
    es = build_exp_sum(lam_min, lam_max, eps_rel)
    diag = [np.exp(-np.outer(es.exponents, v) / lam_min) for v in lam]
    R = es.R
    core = np.zeros((R, R, R))
    core[np.arange(R), np.arange(R), np.arange(R)] = es.weights / lam_min
    return LowRankFD(list(eigs), es, lam_min, lam_max, diag, core)
