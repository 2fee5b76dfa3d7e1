"""Generalized eigendecompositions of univariate spline pencils.

Fast diagonalization needs, per direction, the eigenvalues and an
eigenvector matrix U with K U = M U diag(lambdas) and U^T M U = I.  Each
pencil is small (n = n_el + p at most) and banded, so one dense
generalized symmetric eigensolve gives the exact decomposition.  The
paper instead interpolates sines by splines and adds a small boundary
block, so that the FFT can apply U; here U is applied as a plain matrix,
which measured faster at the sizes this package runs, and the exact
eigenvectors take fewer iterations than that approximation.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp


@dataclass(frozen=True)
class Eigen1D:
    """Eigenvalues and M-orthonormal eigenvector matrix U (n x n) of a
    univariate pencil: K U = M U diag(lambdas), U^T M U = I."""

    lambdas: np.ndarray
    U: np.ndarray

    @property
    def n(self):
        return self.U.shape[0]


def exact_eigen(pencil):
    """Full generalized eigendecomposition of (K, M), eigenvalues ascending."""
    K = pencil.K.toarray() if sp.issparse(pencil.K) else np.asarray(pencil.K)
    M = pencil.M.toarray() if sp.issparse(pencil.M) else np.asarray(pencil.M)
    lam, U = sla.eigh(K, M)
    return Eigen1D(lam, U)


def approx_eigen(space, pencil):
    """The pencil's eigendecomposition, :func:`exact_eigen`; ``space`` is
    unused.

    The name stays only because ``bench/workloads.py`` calls it and
    ``bench/spans.py`` traces it; ROADMAP item 3 removes it.
    """
    return exact_eigen(pencil)
