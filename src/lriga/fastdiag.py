"""Fast-diagonalization preconditioners for Kronecker-sum Laplacians.

Fast diagonalization inverts a Kronecker sum through the eigenvectors of
its three univariate pencils and the sums lam1+lam2+lam3 of their
eigenvalues.  Each direction's exact eigenvector matrix U_k is computed
once at setup (see :mod:`lriga.eigen`), so one pass in that basis is the
inverse itself: with ``V = U1 (x) U2 (x) U3`` the preconditioner is
``V D^-1 V^T``.  It multiplies the input by U_k^T, divides slab by slab by
the divisor D and multiplies by U_k, with identity factors at the cap.  D
is a Tucker tensor with diagonal factors, so no n1 x n2 x n3 array of it
is ever held; for the paper's preconditioner it is the eigenvalue sums.
That exact apply is the only one; an input whose dense image exceeds
``tucker.DENSE_GUARD`` is refused.

The paper replaces 1/(lam1+lam2+lam3) by an exponential sum, so that the
inverse becomes a short sum of Kronecker products.  No apply uses it: every
image it gave was at the cap ``R r_k >= n_k`` anyway.  The sum is still
fitted on demand, when ``expsum`` or ``R`` is first read, for the tables
that report its rank and error; a solve fits none.

The eigenvalue sums see only the parametric cube.
:meth:`LowRankFD.for_operator` brings the operator A back in twice, at no
apply cost.  It divides by ``D = diag(V^T A V)``, the Frobenius-best
diagonal in the fixed eigenbasis (the eigenvalue correction of George et
al., NeurIPS 2018); for a Tucker-format A its core is A's and its factor
columns are ``diag(U_k^T C U_k)``.  And it applies a Kronecker diagonal
scaling ``H V D^-1 V^T H`` (Sangalli & Tani, SISC 2016): ``H = diag(h1 (x)
h2 (x) h3)`` comes from a separable fit of ``diag(A) / diag(V^-T D V^-1)``
and multiplies the eigenvector rows, ``U_k -> diag(h_k) U_k``.
"""

from functools import cached_property

import numpy as np

from . import tucker
from .eigen import Eigen1D
from .expsum import build_exp_sum, rank_floor
from .tucker import TuckerTensor3, identity, mode_product


class FastDiagError(ValueError):
    """Raised when a fast-diagonalization setup is inconsistent, or its
    diagonal scaling meets a non-positive diagonal entry."""


class LowRankFD:
    """Exact fast-diagonalization preconditioner in Tucker form.

    Attributes:
        eigs: per-direction eigendecompositions (:class:`lriga.eigen.Eigen1D`).
        lam: per-direction eigenvalues times the direction weights.
        lam_min, lam_max: extreme eigenvalue sums (after direction weights).
        eps_rel: relative accuracy of the exponential sum.
        divisor: what the apply divides by in the eigenbasis, a Tucker
            tensor with one diagonal factor matrix per mode; the eigenvalue
            sums of ``lam`` unless given.
        expsum: ExpSum approximating 1/lambda on [1, lam_max/lam_min],
            fitted on first use (also by reading ``R``); the apply never
            reads it.
    """

    def __init__(self, eigs, lam, eps_rel, divisor=None):
        self.eigs = eigs
        self.lam = lam
        self.lam_min = sum(float(np.min(v)) for v in lam)
        self.lam_max = sum(float(np.max(v)) for v in lam)
        self.eps_rel = eps_rel
        self.divisor = eigenvalue_sums(lam) if divisor is None else divisor

    @cached_property
    def expsum(self):
        return build_exp_sum(self.lam_min, self.lam_max, self.eps_rel)

    @property
    def R(self):
        return self.expsum.R

    @property
    def dims(self):
        return tuple(e.n for e in self.eigs)

    @property
    def spectral_ratio(self):
        """lam_max / lam_min, the right end of the exp-sum interval."""
        return self.lam_max / self.lam_min

    def for_operator(self, op):
        """This preconditioner fitted to ``op``: ``H V D^-1 V^T H`` with
        ``D = diag(V^T op V)`` from :func:`eigenbasis_diagonal` and ``H =
        diag(h1 (x) h2 (x) h3)`` from :func:`diagonal_scaling`, applied
        through the eigenvectors ``diag(h_k) U_k``.  ``lam`` and so
        ``spectral_ratio`` stay as they are; nothing is fitted or applied
        here.
        """
        D = eigenbasis_diagonal(op, self.eigs)
        h = diagonal_scaling(op, self.eigs, D)
        eigs = [Eigen1D(e.lambdas, hk[:, None] * e.U)
                for e, hk in zip(self.eigs, h)]
        return LowRankFD(eigs, self.lam, self.eps_rel, D)

    def apply(self, s):
        """Preconditioner applied to a Tucker tensor: the exact inverse
        ``Y = s.core x_k (U_k^T F_k)``, divided slab by slab by the divisor
        and returned as ``Y x_k U_k`` with identity factors (rank (n1, n2,
        n3)).

        Raises:
            MemoryGuardError: if ``n1 n2 n3 > tucker.DENSE_GUARD``, before
                any mode product.
        """
        self._check(s)
        n1, n2, n3 = self.dims
        if n1 * n2 * n3 > tucker.DENSE_GUARD:
            raise tucker.MemoryGuardError(
                "preconditioner image %d x %d x %d exceeds guard %d"
                % (n1, n2, n3, tucker.DENSE_GUARD))
        Y = s.core
        for k, e in enumerate(self.eigs):
            Y = mode_product(Y, k, e.U.T @ s.factors[k])
        for i, d in enumerate(_slabs(self.divisor)):
            Y[i] /= d
        for k, e in enumerate(self.eigs):
            Y = mode_product(Y, k, e.U)
        return TuckerTensor3(Y, tuple(identity(n) for n in self.dims))

    def _check(self, s):
        if not isinstance(s, TuckerTensor3):
            raise TypeError("expected a TuckerTensor3")
        if s.dims != self.dims:
            raise ValueError("dims %s do not match preconditioner %s"
                             % (s.dims, self.dims))


def _slabs(T):
    """The mode-1 slabs ``T[i]`` (n2 x n3) of a Tucker tensor, one at a
    time, so that no n1 x n2 x n3 array of it is formed."""
    G = mode_product(T.core, 0, T.factors[0])
    F2, F3 = T.factors[1], T.factors[2].T
    for Gi in G:
        yield F2 @ Gi @ F3


def eigenvalue_sums(lam):
    """``lam1 (+) lam2 (+) lam3`` as a Tucker tensor: factors ``[lam_k,
    1]`` and ones in the core at (0, 1, 1), (1, 0, 1) and (1, 1, 0)."""
    core = np.zeros((2, 2, 2))
    core[0, 1, 1] = core[1, 0, 1] = core[1, 1, 0] = 1.0
    return TuckerTensor3(core, tuple(np.column_stack([v, np.ones_like(v)])
                                     for v in lam))


def eigenbasis_diagonal(op, eigs):
    """``diag(V^T op V)`` with ``V = U1 (x) U2 (x) U3``, as a Tucker tensor:
    the core of ``op`` and, per mode, the columns ``diag(U_k^T C U_k)``
    (column sums of ``U_k * (C U_k)``) of its factor matrices ``C``."""
    return TuckerTensor3(op.core, tuple(
        np.column_stack([np.sum(e.U * (C @ e.U), axis=0) for C in Cs])
        for e, Cs in zip(eigs, op.factors)))


def diagonal_scaling(op, eigs, divisor):
    """Row scalings ``h_k = d_k^-1/2`` of a separable fit
    ``d1 (x) d2 (x) d3`` of ``diag(op) / diag(A_FD)``.

    ``A_FD = V^-T D V^-1`` is the operator that the apply with eigenvectors
    ``eigs`` (``V = U1 (x) U2 (x) U3``) and divisor ``D`` inverts; a divisor
    given as three weighted eigenvalue vectors stands for their sums, for
    which ``A_FD`` is the weighted Kronecker sum.  With ``W_k = U_k^-1``,
    ``diag(A_FD)`` is the Tucker tensor of D's core and the factors
    ``(W_k^2)^T t_k`` of D's factors ``t_k``; ``diag(op)`` is the one of
    op's core and the factor diagonals.  The fit takes the mode means
    ``m_k`` of ``L = log diag(op) - log diag(A_FD)`` and sets ``log d_k =
    m_k - (2/3) mean(L)``, so that the sum of the three holds the mean
    once.  All three diagonals are formed one mode-1 slab at a time, so no
    ``n1 x n2 x n3`` array exists.

    Raises:
        FastDiagError: on a non-positive entry of ``diag(op)``, of
            ``diag(A_FD)`` or of D (checked in that order, slab by slab),
            naming its index (an operator with one is not SPD).
    """
    if not isinstance(divisor, TuckerTensor3):
        divisor = eigenvalue_sums(divisor)
    n1, n2, n3 = (e.n for e in eigs)
    diag_a = TuckerTensor3(op.core, tuple(
        np.column_stack([C.diagonal() for C in Cs]) for Cs in op.factors))
    diag_fd = TuckerTensor3(divisor.core, tuple(
        (np.linalg.inv(e.U) ** 2).T @ t
        for e, t in zip(eigs, divisor.factors)))
    means = [np.empty(n1), np.zeros(n2), np.zeros(n3)]
    slabs = zip(_slabs(diag_a), _slabs(diag_fd), _slabs(divisor))
    for i, (a, f, d) in enumerate(slabs):
        for name, slab in (("diag(A)", a), ("diag(A_FD)", f), ("D", d)):
            if not np.all(slab > 0.0):
                j, k = np.argwhere(~(slab > 0.0))[0]
                raise FastDiagError("%s entry (%d, %d, %d) is %.6g, not "
                                    "positive" % (name, i, j, k, slab[j, k]))
        L = np.log(a) - np.log(f)
        means[0][i] = L.mean()
        means[1] += L.sum(axis=1)
        means[2] += L.sum(axis=0)
    means[1] /= n1 * n3
    means[2] /= n1 * n2
    third = 2.0 * float(np.mean(means[0])) / 3.0
    return [np.exp(-0.5 * (m - third)) for m in means]


def build_lowrank_fd(eigs, eps_rel, weights=None):
    """Fast-diagonalization preconditioner from three eigendecompositions.

    Stores the weighted eigenvalues and their extreme sums.  The apply is
    the exact inverse and fits no exponential sum; one is fitted only when a
    reader of ``expsum`` or ``R`` (the tables that report it) first needs
    it.  Its a-priori rank floor is checked here, so a target no sum can
    meet fails now.

    Args:
        eigs: three eigendecompositions with .lambdas and an n x n matrix .U.
        eps_rel: relative accuracy of the exponential sum (not of the
            apply, which is exact).
        weights: optional positive per-direction scalings of the eigenvalues
            (the separable-coefficient case, e.g. elasticity diagonal blocks).

    Raises:
        FastDiagError: on a direction with no eigenvalue (a space that keeps
            no basis function), a negative eigenvalue or a non-positive sum.
        ValueError: if eps_rel <= 0.
        ExpSumError: if the rank floor exceeds ``expsum.R_CAP``.
    """
    if weights is None:
        weights = (1.0, 1.0, 1.0)
    lam = [w * np.asarray(e.lambdas, dtype=float) for w, e in zip(weights, eigs)]
    for k, v in enumerate(lam):
        if v.size == 0:
            raise FastDiagError("direction %d keeps no basis function" % k)
        if np.min(v) < -1e-12 * max(np.max(v), 1.0):
            raise FastDiagError("negative eigenvalue in a direction pencil")
    P = LowRankFD(list(eigs), lam, eps_rel)
    if P.lam_min <= 0.0:
        raise FastDiagError("eigenvalue sums must be positive")
    rank_floor(P.spectral_ratio, eps_rel)
    return P
