"""Rank truncation: sequentially truncated HOSVD and the relative/dynamic
truncation operators used inside the iterative solver.

All truncations guarantee a relative error bound: the output ``y`` of
:func:`truncate_rel` satisfies ``|y - x|_F <= eps * |x|_F``.  The error
budget is split evenly over the three modes (``eps |x|_F / sqrt(3)`` each)
and always measured against the norm of the *original* tensor.
"""

import numpy as np

from .tucker import TuckerTensor3, mode_product, tucker_zero


def _truncation_rank(s, budget):
    """Smallest kept rank so the discarded tail satisfies the budget.

    Args:
        s: singular values, descending.
        budget: absolute Frobenius-error budget for this mode.

    Returns:
        rank r >= 1 with ``sum(s[r:]**2) <= budget**2``.
    """
    tails = np.cumsum(s[::-1] ** 2)[::-1]  # tails[r] = sum of s[r:]**2
    b2 = budget * budget
    r = len(s)
    # strict test: an exactly-on-budget vector is kept, and eps=0 keeps all
    while r > 1 and tails[r - 1] < b2:
        r -= 1
    return r


def sthosvd(X, eps):
    """Sequentially truncated higher-order SVD of a dense tensor.

    Modes are processed in order 0, 1, 2; each mode discards at most
    ``eps |X|_F / sqrt(3)`` in Frobenius norm, so the reconstruction error
    is at most ``eps |X|_F``.  ``eps = 0`` yields an exact (full-rank)
    decomposition.  A zero tensor returns the canonical rank-(1,1,1) zero.

    Only the left singular vectors ``U`` and the singular values of each
    unfolding ``Wk`` (``n_k x prod(others)``) are needed; the next core is
    ``U_r^T Wk``.  A wide unfolding is first reduced to the ``n_k x n_k``
    triangle ``L`` of ``Wk^T = Q L^T`` (QR, ``Q`` never formed), whose SVD
    has the same ``U`` and singular values (Chan's R-SVD), so the
    ``n_k x prod(others)`` right factor of a thin SVD is never built.
    The guarantee above is unchanged.

    Returns:
        TuckerTensor3 with orthonormal factor columns.
    """
    X = np.asarray(X, dtype=float)
    assert X.ndim == 3
    nrm = np.linalg.norm(X)
    if nrm == 0.0:
        return tucker_zero(X.shape)
    budget = eps * nrm / np.sqrt(3.0)

    W = X
    factors = []
    for k in range(3):
        Wk = np.moveaxis(W, k, 0).reshape(W.shape[k], -1)
        if Wk.shape[0] < Wk.shape[1]:  # wide: same U and s from L
            Wk = np.linalg.qr(Wk.T, mode="r").T
        U, s, _ = np.linalg.svd(Wk, full_matrices=False)
        r = _truncation_rank(s, budget)
        factors.append(U[:, :r])
        W = mode_product(W, k, U[:, :r].T)
    return TuckerTensor3(W, tuple(factors))


def truncate_rel(y, eps):
    """Recompress a Tucker tensor to relative accuracy ``eps``.

    Factors are first reduced by thin QR, so the core-side work is bounded
    by the mode sizes even when the nominal rank exceeds them; the small
    core is then recompressed with :func:`sthosvd`.

    Guarantee: ``|out - y|_F <= eps * |y|_F``; output factors orthonormal.
    """
    Qs, Rs = [], []
    for k in range(3):
        Q, R = np.linalg.qr(y.factors[k])  # reduced: Q is (n, min(n, r))
        Qs.append(Q)
        Rs.append(R)
    Z = y.core
    for k in range(3):
        Z = mode_product(Z, k, Rs[k])
    z = sthosvd(Z, eps)
    factors = tuple(Qs[k] @ z.factors[k] for k in range(3))
    return TuckerTensor3(z.core, factors)


def truncate_dynamic(y_prev, y_prop, eps, alpha, eps_min, delta):
    """Truncate a proposed iterate, tightening the tolerance if the
    truncated update loses alignment with the exact one.

    Starting from ``eps``, the proposal ``y_prop`` is truncated and the
    projection coefficient

        v = <y_prop - y_prev, y_trunc - y_prev> / |y_prop - y_prev|^2

    is tested; ``|v - 1| < delta`` accepts.  Otherwise the tolerance is
    scaled by ``alpha`` while that keeps it above ``eps_min``, and the last
    truncation is accepted once no further reduction is permitted.

    The iterates may be TuckerTensor3 or BlockTuckerVector: only their
    vector interface is used, so a block vector is tested through its
    global (component-summed) inner product and truncated per component
    at the one shared tolerance.

    Returns:
        (accepted tensor, tolerance actually used).  The returned tolerance
        always lies in ``(eps_min, eps]`` (or equals ``eps`` when the
        proposal coincides with the previous iterate).
    """
    dy_exact = y_prop - y_prev
    dd = dy_exact.inner(dy_exact)
    if dd == 0.0:
        return y_prev, eps

    eps_new = eps
    while True:
        y_next = y_prop.map(lambda c: truncate_rel(c, eps_new))
        v = dy_exact.inner(y_next - y_prev) / dd
        if abs(v - 1.0) < delta:
            break
        if alpha * eps_new > eps_min:
            eps_new = alpha * eps_new
        else:
            break
    return y_next, eps_new
