"""Rank truncation: sequentially truncated HOSVD and the relative/dynamic
truncation operators used inside the iterative solver.

All truncations guarantee a relative error bound: the output ``y`` of
:func:`truncate_rel` satisfies ``|y - x|_F <= eps * |x|_F``.  The error
budget is split evenly over the three modes (``eps |x|_F / sqrt(3)`` each)
and always measured against the norm of the *original* tensor.
"""

import numpy as np

from .tucker import (TuckerTensor3, identity, mode_product, multi_mode_product,
                     qr_or_identity, tucker_zero)

_EPS_MACH = np.finfo(float).eps


def _truncation_rank(s, budget):
    """Smallest kept rank so the discarded tail satisfies the budget.

    Args:
        s: singular values, descending.
        budget: absolute Frobenius-error budget for this mode.

    Returns:
        rank r >= 1 with ``sum(s[r:]**2) <= budget**2``.
    """
    tails = np.cumsum(s[::-1] ** 2)[::-1]  # tails[r] = sum of s[r:]**2
    # strict test: an exactly-on-budget vector is kept, and eps=0 keeps all
    return max(int(np.count_nonzero(tails >= budget * budget)), 1)


def _gram_rank(Wk, nrm, budget):
    """Certified basis of a wide ``m x N`` unfolding from its Gram matrix.

    ``delta = (N + 10 m) u nrm^2`` bounds the error of ``fl(Wk Wk^T)`` and
    of ``eigh``, so each computed eigenvalue is within ``delta`` of an exact
    squared singular value (Weyl).  With ``t_r`` the computed tail from
    ``r`` on, the smallest ``r`` with ``t_r + (m-r) delta < budget^2`` is
    kept if ``r = 1`` or ``t_{r-1} - (m-r+1) delta >= budget^2``: then the
    exact rank rule of :func:`_truncation_rank` gives ``r`` as well, and
    the discarded part is below the budget.  ``None`` (take the R-SVD) when
    ``budget^2 <= 4 m delta`` or the test fails.
    """
    m, N = Wk.shape
    delta = (N + 10 * m) * _EPS_MACH * nrm * nrm
    b2 = budget * budget
    if b2 <= 4 * m * delta:
        return None
    lam, V = np.linalg.eigh(Wk @ Wk.T)
    lam, V = lam[::-1], V[:, ::-1]
    tails = np.append(np.cumsum(lam[::-1])[::-1], 0.0)  # tails[r] = t_r
    slack = (m - np.arange(m + 1)) * delta
    r = max(int(np.argmax(tails + slack < b2)), 1)
    if r > 1 and tails[r - 1] - slack[r - 1] < b2:
        return None
    return V[:, :r]


def sthosvd(X, eps):
    """Sequentially truncated higher-order SVD of a dense tensor.

    Modes are processed in order 0, 1, 2; each mode discards at most
    ``eps |X|_F / sqrt(3)`` in Frobenius norm, so the reconstruction error
    is at most ``eps |X|_F``.  ``eps = 0`` yields an exact (full-rank)
    decomposition.  A zero tensor returns the canonical rank-(1,1,1) zero.

    Only the left singular vectors ``U`` and the singular values of each
    unfolding ``Wk`` (``n_k x prod(others)``) are needed; the next core is
    ``U_r^T Wk``.  A wide unfolding first tries the eigenvectors of its
    Gram matrix (:func:`_gram_rank`), kept only when a rounding-error
    bound certifies that they give the same rank as the SVD and stay
    within the budget.  Otherwise it is reduced to the ``n_k x n_k``
    triangle ``L`` of ``Wk^T = Q L^T`` (QR, ``Q`` never formed), whose SVD
    has the same ``U`` and singular values (Chan's R-SVD), so the
    ``n_k x prod(others)`` right factor of a thin SVD is never built.
    The guarantee above holds on both paths.

    Returns:
        TuckerTensor3 with orthonormal factor columns.

    Raises:
        ValueError: if X is not three-way or eps is negative or NaN.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 3:
        raise ValueError("need a 3-way tensor, got %d-way" % X.ndim)
    if not eps >= 0:
        raise ValueError("need eps >= 0, got %r" % (eps,))
    nrm = np.linalg.norm(X)
    if nrm == 0.0:
        return tucker_zero(X.shape)
    budget = eps * nrm / np.sqrt(3.0)

    W = X
    factors = []
    for k in range(3):
        Wk = np.moveaxis(W, k, 0).reshape(W.shape[k], -1)
        wide = Wk.shape[0] < Wk.shape[1]
        U = _gram_rank(Wk, nrm, budget) if wide else None
        if U is None:
            if wide:  # same U and s from L
                Wk = np.linalg.qr(Wk.T, mode="r").T
            U, s, _ = np.linalg.svd(Wk, full_matrices=False)
            U = U[:, : _truncation_rank(s, budget)]
        factors.append(U)
        W = mode_product(W, k, U.T)
    return TuckerTensor3(W, tuple(factors))


def truncate_rel(y, eps):
    """Recompress a Tucker tensor to relative accuracy ``eps``.

    Factors are first reduced by thin QR, so the core-side work is bounded
    by the mode sizes even when the nominal rank exceeds them; a wide
    factor ``F`` is taken as ``identity(n) @ F`` instead, and an
    ``identity(n)`` factor costs nothing.  The small core is then
    recompressed with :func:`sthosvd`.

    Guarantee: ``|out - y|_F <= eps * |y|_F``; output factors orthonormal.

    Raises:
        ValueError: if eps is negative or NaN (from :func:`sthosvd`).
    """
    QRs = [qr_or_identity(F) for F in y.factors]
    Z = multi_mode_product(y.core, [None if R is Q else R for Q, R in QRs])
    z = sthosvd(Z, eps)
    factors = tuple(U if Q is identity(len(Q)) else Q @ U
                    for (Q, _), U in zip(QRs, z.factors))
    return TuckerTensor3(z.core, factors)


def truncate_dynamic(y_prev, step, eps, alpha, eps_min, delta):
    """Truncate the iterate ``y_prev + step``, tightening the tolerance if
    the truncated update loses alignment with the exact step.

    Starting from ``eps``, the proposal ``y_prev + step`` is truncated and
    the projection coefficient

        v = <step, y_trunc - y_prev> / |step|^2

    is tested; ``|v - 1| < delta`` accepts.  Otherwise the tolerance is
    scaled by ``alpha`` while that keeps it above ``eps_min``, and the last
    truncation is accepted once no further reduction is permitted.  The
    step is not recovered as ``y_prop - y_prev``, whose norm can cancel.

    The iterates may be TuckerTensor3 or BlockTuckerVector: only their
    vector interface is used, so a block vector is tested through its
    global (component-summed) inner product and truncated per component
    at the one shared tolerance.

    Returns:
        (accepted tensor, tolerance actually used).  The tolerance is
        ``eps`` times a power of ``alpha`` in ``(eps_min, eps]``; when
        ``eps <= eps_min`` on entry no reduction is permitted and ``eps``
        itself comes back.
    """
    dd = step.inner(step)
    if dd == 0.0:
        return y_prev, eps

    y_prop = y_prev + step
    eps_new = eps
    while True:
        y_next = y_prop.map(lambda c: truncate_rel(c, eps_new))
        v = step.inner(y_next - y_prev) / dd
        if abs(v - 1.0) < delta:
            break
        if alpha * eps_new > eps_min:
            eps_new = alpha * eps_new
        else:
            break
    return y_next, eps_new
