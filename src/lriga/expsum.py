"""Exponential-sum approximation of 1/lambda on [1, M].

The reciprocal is written as the Laplace integral 1/lambda =
int_0^inf exp(-lambda t) dt; substituting t = e^s and truncating the
trapezoid rule gives

    1/lambda ~ sum_j h * exp(s_j) * exp(-lambda * exp(s_j)),  s_j = a + j h,

which converges exponentially in the number of nodes.  The trapezoid
weights are then replaced by a non-negative least-squares fit against
1/lambda on a logarithmic sample, which keeps every weight >= 0 (so
operators built from the sum stay positive definite) while roughly
halving the number of terms needed for a given accuracy; terms whose
fitted weight is exactly zero are dropped.  For each candidate rank the
node interval is tuned by a small deterministic grid search; a rank passes
when the measured sup-error meets the target and a finer grid of
100,000 points confirms it.

The accepted rank is the smallest passing one, found by a walk that
starts at a predicted rank instead of trying every rank.  The rank an
exponential sum needs grows like log(1/tau) log(8M) (Braess & Hackbusch,
IMA J. Numer. Anal. 2005); a least-squares model built on that term and
fitted for eps_rel from 1e-1 down to 1e-6 lands on the answer or one
below it on most intervals, and within two of it on all it was fitted
on.  If the guess passes, the ranks below it are tried one by one until
one fails; if it fails, the ranks above it are tried one by one until
one passes.  A rank R is returned only when R - 1 was tried and failed
(or R is the a-priori floor), so whenever passing is monotone in R the
result is the one a rank-by-rank scan would give, bit for bit.  Either
way the returned sum passed both checks, so its accuracy guarantee is
unchanged.  Usually two grid searches decide the rank: the guess and its
neighbour.

The fit depends only on M and the tolerance, so it is memoized per process
on (M, eps_rel); preconditioners with the same spectral ratio share
one read-only :class:`ExpSum`.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np


class ExpSumError(RuntimeError):
    """Raised when no admissible exponential sum exists within the rank cap."""


#: Largest admissible number of exponential terms.
R_CAP = 128


@dataclass(frozen=True)
class ExpSum:
    """Sum of exponentials approximating 1/lambda on [1, M].

    Attributes:
        weights: positive coefficients omega_j.
        exponents: positive decay rates alpha_j.
        M: right end of the approximation interval.
        error: measured sup-error of |1/lambda - sum| on the check grid.
    """

    weights: np.ndarray
    exponents: np.ndarray
    M: float
    error: float

    @property
    def R(self):
        return len(self.weights)


#: Rows per block of the fine check, whose scratch is BLOCK_ROWS x R at most.
BLOCK_ROWS = 4096


def _check_grid(M, n):
    lam = np.logspace(0.0, np.log10(M), n)
    return lam, 1.0 / lam


def _sup_error(weights, exponents, M, n):
    """Sup-error against 1/lambda on the n-point check grid, BLOCK_ROWS rows
    at a time (at n = 100,000 one n x R matrix of a 34-term sum is 27 MB).
    The GEMV kernel sums groups of four rows in one order and leftover rows
    in another, so blocks start at multiples of four and a lone last row
    (numpy hands it to BLAS dot) joins the block before it: with one BLAS
    thread each value has the bits of the unblocked evaluation,
    ``expsum_values`` in ``tests/util.py``.  np.maximum keeps a NaN."""
    lam = np.logspace(0.0, np.log10(M), n)
    err, start = 0.0, 0
    while start < n:
        stop = start + BLOCK_ROWS + (n - start == BLOCK_ROWS + 1)
        E = np.outer(lam[start:stop], -exponents)
        values = np.exp(E, out=E) @ weights - 1.0 / lam[start:stop]
        err = np.maximum(err, np.max(np.abs(values, out=values)))
        start = stop
    return float(err)


def _best_for_rank(R, M, tau):
    """Tune R sinc nodes and refit their weights; returns (error, w, alpha)."""
    # imported here, not at the top: loading scipy.optimize costs about
    # 15 MB, and a solve whose preconditioner never fits a sum never needs it
    from scipy.optimize import nnls

    # truncating int exp(-lam e^s + s) ds at a leaves an absolute error of
    # about e^a (any lam), and at b about exp(-e^b); center the search there
    a0 = np.log(tau)
    b0 = np.log(max(np.log(1.0 / tau), 2.0))
    lam, target = _check_grid(M, 1500)
    best = (np.inf, None, None)
    besta, bestb = a0, b0
    a_grid = a0 + np.linspace(-3.0, 3.0, 5)
    b_grid = b0 + np.array([-1.0, 0.0, 1.0, 2.0])
    spread = 0.75
    centre = None
    for refine in range(2):
        for a in a_grid:
            for b in b_grid:
                # the refine grid holds the coarse winner itself (offset
                # 0.0); it was fitted already and cannot win again
                if b <= a or (a, b) == centre:
                    continue
                h = (b - a) / max(R - 1, 1)
                al = np.exp(a + h * np.arange(R))
                A = np.exp(-np.outer(lam, al))
                # trapezoid weights as a safety net, then the NNLS refit
                cand = [h * al]
                try:
                    w_fit, _ = nnls(A, target, maxiter=50 * R + 50)
                    cand.append(w_fit)
                except RuntimeError:
                    pass
                for w in cand:
                    err = float(np.max(np.abs(A @ w - target)))
                    if err < best[0]:
                        best = (err, w, al)
                        besta, bestb = a, b
        centre = (besta, bestb)
        a_grid = besta + np.linspace(-spread, spread, 5)
        b_grid = bestb + np.linspace(-spread, spread, 5)
        spread /= 2.0
    err, w, al = best
    if w is None:
        return best
    keep = w > 0.0
    return err, w[keep], al[keep]


def build_exp_sum(lam_min, lam_max, eps_rel):
    """Exponential sum with sup-error at most eps_rel / M on [1, M].

    Args:
        lam_min, lam_max: spectral interval (0 < lam_min <= lam_max); the
            sum approximates 1/lambda on [1, M] with M = lam_max/lam_min.
        eps_rel: relative tolerance; the absolute target is eps_rel / M.

    Returns:
        A shared :class:`ExpSum` whose arrays are read-only.

    Raises:
        ValueError: if not 0 < lam_min <= lam_max, or eps_rel <= 0.
        ExpSumError: if no sum of at most R_CAP terms meets the target
            (raised before any fit when :func:`rank_floor` exceeds R_CAP).
    """
    if not 0.0 < lam_min <= lam_max:
        raise ValueError("need 0 < lam_min <= lam_max, got lam_min = %r, "
                         "lam_max = %r" % (lam_min, lam_max))
    return _exp_sum(lam_max / lam_min, eps_rel)


@functools.lru_cache(maxsize=None)
def _exp_sum(M, eps_rel):
    """Memoized fit on [1, M]; raised errors are not cached."""
    es = _fit(M, eps_rel, R_CAP)
    es.weights.setflags(write=False)
    es.exponents.setflags(write=False)
    return es


def _cap_error(M, tau, r_cap):
    return ExpSumError(
        "no exponential sum with <= %d terms reaches %.3e on [1, %.3e]"
        % (r_cap, tau, M)
    )


def rank_floor(M, eps_rel, r_cap=R_CAP):
    """Smallest rank worth fitting on [1, M] at eps_rel, checked without a fit.

    Even an optimal exponential sum cannot beat ~exp(-pi^2 R / log(8M)), so
    ranks far below that threshold need not be tried at all.  On M = 1 one
    term is exact.  :func:`_fit` starts its walk here, and
    :func:`lriga.fastdiag.build_lowrank_fd` calls it so that a target no sum
    can meet fails at construction, not at the first use of the sum.

    Raises:
        ValueError: if eps_rel <= 0.
        ExpSumError: if the floor exceeds ``r_cap``.
    """
    if not eps_rel > 0.0:
        raise ValueError("need eps_rel > 0, got %r" % (eps_rel,))
    if M == 1.0:
        return 1
    tau = eps_rel / M
    lo = max(1, int(np.log(max(16.0 / (100.0 * tau), 1.0)) * np.log(8.0 * M)
                    / np.pi ** 2))
    if lo > r_cap:
        raise _cap_error(M, tau, r_cap)
    return lo


def _predicted_rank(M, tau, lo, r_cap):
    """First rank to fit: a least-squares model of the accepted rank plus
    a quarter, rounded down and clamped to [lo, r_cap].

    The accepted rank grows like log(1/tau) log(8M) (Braess & Hackbusch,
    IMA J. Numer. Anal. 2005); the tuned sinc sums also need a term in
    log(1/eps_rel)^2 whose weight grows like log log M.  The coefficients
    fit the accepted ranks of M = geomspace(1.5, 1e6, 16) x eps_rel in
    {1e-1, ..., 1e-6} (``accepted_rank_table`` in ``tests/util.py``).  A
    guess on the answer or one below it takes two fits, the guess and its
    neighbour; k ranks below takes k + 1, k ranks above k + 2.  The
    quarter centres the guess on that pair.
    """
    L, ell, e = np.log(1.0 / tau), np.log(8.0 * M), np.log(1.0 / (tau * M))
    guess = (0.12 * L * ell + (0.043 + 0.044 * np.log1p(np.log(M))) * e * e
             - 0.055)
    return min(max(math.floor(guess + 0.25), lo), r_cap)


def _fit(M, eps_rel, r_cap):
    """Smallest passing rank in [rank_floor(M, eps_rel), r_cap], walked one
    rank at a time from the predicted rank (:func:`_predicted_rank`).

    A passing guess is followed down while the rank below it passes; a
    failing one is followed up until a rank passes.  Raises
    :class:`ExpSumError` when the floor exceeds ``r_cap`` or ``r_cap``
    itself fails.
    """
    lo = rank_floor(M, eps_rel, r_cap)
    if M == 1.0:
        # single-point interval: omega e^{-alpha} = 1 exactly
        w, al = np.array([np.e]), np.array([1.0])
        return ExpSum(w, al, 1.0, _sup_error(w, al, 1.0, 1))

    tau = eps_rel / M

    def passing(R):
        """The rank-R sum if it passes the grid and the fine check, else None."""
        err, w, al = _best_for_rank(R, M, tau)
        if err <= 0.9 * tau:
            fine = _sup_error(w, al, M, 100_000)
            if fine <= tau:
                return ExpSum(w, al, M, fine)
        return None

    R = _predicted_rank(M, tau, lo, r_cap)
    es = passing(R)
    if es is not None:
        while R > lo:
            below = passing(R - 1)
            if below is None:
                break
            R, es = R - 1, below
        return es
    while es is None:
        if R == r_cap:
            raise _cap_error(M, tau, r_cap)
        R += 1
        es = passing(R)
    return es
