"""Shared helpers: random low-rank test instances and oracles."""

from collections import namedtuple

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial.chebyshev import chebvander
from scipy.optimize import nnls

from lriga import expsum
from lriga.eigen import exact_eigen
from lriga.expsum import ExpSum, ExpSumError, _check_grid
from lriga.geometry import GeometryError, GeometryMap, metric_pieces, metric_tensor
from lriga.truncation import _truncation_rank
from lriga.tucker import (
    TuckerOperator3,
    TuckerTensor3,
    mode_product,
    multi_mode_product,
    to_dense,
    tucker_zero,
)

from oracle import _densify, from_dense


def unvec(x, dims):
    """Inverse of ``lriga.tucker.vec`` for the given ``(n1, n2, n3)``."""
    return np.asarray(x).reshape(dims, order="F")


def eval_grid(sf, eta1, eta2, eta3):
    """A ``SeparableFunction3`` evaluated on the tensor grid eta1 x eta2 x eta3."""
    mats = [
        chebvander(2.0 * np.atleast_1d(e) - 1.0, d) @ U
        for e, d, U in zip((eta1, eta2, eta3), sf.degrees, sf.tensor.factors)
    ]
    return multi_mode_product(sf.tensor.core, mats)


def block_ranks(system):
    """{(a, b): operator rank of block (a, b)} of an ``AssembledSystem``."""
    return {(a, b): block.rank for a, row in enumerate(system.blocks)
            for b, block in enumerate(row)}


def residual_jump(report):
    """True when some step of a ``SolveReport`` increased the residual norm
    by more than 10x.

    Truncation makes mild non-monotonicity normal; a jump this large means
    the truncation tolerances are fighting the iteration.
    """
    r = report.res_norms
    return any(r[k + 1] > 10.0 * r[k] for k in range(len(r) - 1)
               if r[k] > 0.0)


def random_tucker(rng, dims, ranks):
    core = rng.standard_normal(ranks)
    factors = tuple(rng.standard_normal((n, r)) for n, r in zip(dims, ranks))
    return TuckerTensor3(core, factors)


def random_operator(rng, dims, ranks, dims_in=None):
    """Random Tucker-format operator; square per direction unless dims_in given."""
    dims_in = dims if dims_in is None else dims_in
    core = rng.standard_normal(ranks)
    factors = tuple(
        tuple(rng.standard_normal((m, n)) for _ in range(R))
        for m, n, R in zip(dims, dims_in, ranks)
    )
    return TuckerOperator3(core, factors)


def densify_apply(apply_one, dims):
    """Dense matrix of a Tucker-tensor-to-Tucker-tensor linear map."""
    from lriga.tucker import to_dense, vec

    N = int(np.prod(dims))
    out = np.zeros((N, N))
    col = 0
    for k in range(dims[2]):
        for j in range(dims[1]):
            for i in range(dims[0]):
                factors = []
                for n, idx in zip(dims, (i, j, k)):
                    e = np.zeros((n, 1))
                    e[idx, 0] = 1.0
                    factors.append(e)
                unit = TuckerTensor3(np.ones((1, 1, 1)), tuple(factors))
                out[:, col] = vec(to_dense(apply_one(unit)))
                col += 1
    return out


def dense_kron_sum(spaces, weights):
    """Weighted Kronecker-sum matrix (stiffness in one slot, mass elsewhere)."""
    from lriga.bsplines import assemble_pencil
    from oracle import kron3

    pencils = [assemble_pencil(s) for s in spaces]
    M = [p.M.toarray() for p in pencils]
    K = [p.K.toarray() for p in pencils]
    D = np.zeros((int(np.prod([s.n for s in spaces])),) * 2)
    for d, w in enumerate(weights):
        mats = [K[t] if t == d else M[t] for t in range(3)]
        D = D + w * kron3(*mats)
    return D


def basis_funs_all_ders(knots, p, eta, span, n_ders):
    """One-point oracle for ``lriga.bsplines.basis_funs`` (orders 0 and 1).

    Values and derivatives of the p+1 basis functions active on a span, by
    the scalar triangular-table algorithm (Piegl & Tiller, A2.3); returns an
    array of shape ``(n_ders+1, p+1)`` whose row k holds the k-th
    derivatives.
    """
    left = np.empty(p)
    right = np.empty(p)
    ndu = np.empty((p + 1, p + 1))
    a = np.empty((2, p + 1))
    ders = np.zeros((n_ders + 1, p + 1))

    ndu[0, 0] = 1.0
    for j in range(p):
        left[j] = eta - knots[span - j]
        right[j] = knots[span + 1 + j] - eta
        saved = 0.0
        for r in range(j + 1):
            ndu[j + 1, r] = right[r] + left[j - r]
            temp = ndu[r, j] / ndu[j + 1, r]
            ndu[r, j + 1] = saved + right[r] * temp
            saved = left[j - r] * temp
        ndu[j + 1, j + 1] = saved

    ders[0, :] = ndu[:, p]
    ne = min(n_ders, p)
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, ne + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    fac = float(p)
    for k in range(1, ne + 1):
        ders[k, :] *= fac
        fac *= p - k
    return ders


def oracle_span(p, n_el, eta):
    """Knot span of one point (clamped at the right end)."""
    return min(int(eta * n_el), n_el - 1) + p


def sthosvd_full_svd(X, eps):
    """Oracle for ``lriga.truncation.sthosvd``: the same rank rule and
    mode order, but every unfolding goes through a thin SVD and the next
    core is ``s_r * Vt_r``."""
    X = np.asarray(X, dtype=float)
    nrm = np.linalg.norm(X)
    if nrm == 0.0:
        return tucker_zero(X.shape)
    budget = eps * nrm / np.sqrt(3.0)

    W = X
    factors = []
    for k in range(3):
        Wk = np.moveaxis(W, k, 0).reshape(W.shape[k], -1)
        U, s, Vt = np.linalg.svd(Wk, full_matrices=False)
        r = _truncation_rank(s, budget)
        factors.append(U[:, :r])
        rest = [W.shape[j] for j in range(3) if j != k]
        W = np.moveaxis((s[:r, None] * Vt[:r]).reshape([r] + rest), 0, k)
    return TuckerTensor3(W, tuple(factors))


class ExactFD:
    """Exact inverse of the Kronecker sum w1 K1 (x) M2 (x) M3 + ... (dense
    path), the oracle for the fast-diagonalization preconditioner; the
    direction weights ``w`` scale each pencil's eigenvalues.  With a dense
    divisor ``denom`` in place of the eigenvalue sums and row scalings
    ``h`` it is ``H V D^-1 V^T H``, ``V = U1 (x) U2 (x) U3`` and ``H =
    diag(h1 (x) h2 (x) h3)``, applied as dense multiplications on either
    side."""

    def __init__(self, eigs, weights=(1.0, 1.0, 1.0), h=None, denom=None):
        self.eigs = eigs
        self.weights = weights
        self.h = h
        lam = [w * np.asarray(e.lambdas) for w, e in zip(weights, eigs)]
        sums = (lam[0][:, None, None] + lam[1][None, :, None]
                + lam[2][None, None, :])
        assert np.min(sums) > 0.0, "eigenvalue sums must be positive"
        self.spectral_ratio = float(np.max(sums) / np.min(sums))
        self.denom = sums if denom is None else denom

    def for_operator(self, op):
        """The inverse fitted to op by :func:`kron_fd_scaling`."""
        D, h = kron_fd_scaling(op, self.eigs)
        return ExactFD(self.eigs, self.weights, h, D)

    @property
    def dims(self):
        return tuple(e.n for e in self.eigs)

    def apply_array(self, S):
        """Inverse applied to a dense coefficient array of shape dims."""
        S = np.asarray(S, dtype=float)
        if S.shape != self.dims:
            raise ValueError("expected shape %s, got %s" % (self.dims, S.shape))
        H = None if self.h is None else [np.diag(h) for h in self.h]
        T = S if H is None else multi_mode_product(S, H)
        for k, e in enumerate(self.eigs):
            T = mode_product(T, k, e.U.T)
        T = T / self.denom
        for k, e in enumerate(self.eigs):
            T = mode_product(T, k, e.U)
        return T if H is None else multi_mode_product(T, H)

    def apply(self, s):
        """Inverse applied to a Tucker tensor; returns a full-rank Tucker tensor
        (``to_dense`` refuses sizes above ``tucker.DENSE_GUARD``)."""
        return from_dense(self.apply_array(to_dense(s)))


def log_fit(dA, dFD):
    """The separable fit of ``lriga.fastdiag.diagonal_scaling`` on dense
    ``n1 x n2 x n3`` diagonals: the log-ratio ``L = log dA - log dFD`` is
    fitted by its mode means ``m_k`` less two thirds of its mean; returns
    ``h_k = exp(-(m_k - 2 mean(L) / 3) / 2)``."""
    L = np.log(dA) - np.log(dFD)
    modes = [L.mean(axis=(1, 2)), L.mean(axis=(0, 2)), L.mean(axis=(0, 1))]
    return [np.exp(-0.5 * (m - 2.0 * L.mean() / 3.0)) for m in modes]


def kron_fd_scaling(op, eigs):
    """Oracle for ``LowRankFD.for_operator`` at sizes where no dense
    operator fits: ``(D, h)`` with ``D = diag(V^T op V)`` and the fit
    :func:`log_fit` of ``diag(op)`` against ``diag(V^-T D V^-1)``, each an
    ``n1 x n2 x n3`` array summed term by term over the Tucker operator's
    core from the dense per-direction matrices ``U^T C U``, ``diag(C)`` and
    ``U^-1``."""
    def summed(per_mode):
        return np.einsum("abc,ia,jb,kc->ijk", op.core, *per_mode,
                         optimize=True)

    dA = summed([np.column_stack([np.diag(_densify(C)) for C in Cs])
                 for Cs in op.factors])
    D = summed([np.column_stack([np.diag(e.U.T @ _densify(C) @ e.U)
                                 for C in Cs])
                for e, Cs in zip(eigs, op.factors)])
    W2 = [np.linalg.inv(e.U) ** 2 for e in eigs]
    dFD = np.einsum("ijk,ia,jb,kc->abc", D, *W2, optimize=True)
    return D, log_fit(dA, dFD)


DenseFD = namedtuple("DenseFD", "P P_inv")


def dense_scaled_fd(A, eigs):
    """Oracle for ``LowRankFD.for_operator`` from the dense operator ``A``
    (vec-space, colexicographic): with ``V = kron(U3, U2, U1)``, ``D =
    diag(V^T A V)``, ``h`` the :func:`log_fit` of ``diag(A)`` against
    ``diag(V^-T D V^-1)`` and ``H = diag(h1 (x) h2 (x) h3)``, returns ``P = H
    V D^-1 V^T H`` and its inverse ``H^-1 V^-T D V^-1 H^-1``."""
    dims = tuple(e.n for e in eigs)
    V = np.kron(eigs[2].U, np.kron(eigs[1].U, eigs[0].U))
    Ui = [np.linalg.inv(e.U) for e in eigs]
    W = np.kron(Ui[2], np.kron(Ui[1], Ui[0]))  # V^-1
    D = np.sum(V * (A @ V), axis=0)
    dFD = (W ** 2).T @ D
    h = log_fit(unvec(np.diag(A), dims), unvec(dFD, dims))
    hv = np.kron(h[2], np.kron(h[1], h[0]))
    P = hv[:, None] * ((V / D) @ V.T) * hv[None, :]
    P_inv = ((W.T * D) @ W) / np.outer(hv, hv)
    return DenseFD(P, P_inv)


def exact_fd(pencils):
    """Exact fast-diagonalization applicator from three univariate pencils."""
    return ExactFD([exact_eigen(pc) for pc in pencils])


def expsum_values(es, lam):
    """The exponential sum ``es`` evaluated at the points ``lam``:
    ``sum_j omega_j exp(-alpha_j lam)``, as one matrix-vector product."""
    return np.exp(-np.outer(lam, es.exponents)) @ es.weights


def best_for_rank_full_grid(R, M, tau):
    """Oracle for ``lriga.expsum._best_for_rank``: the same grid search,
    refitting the coarse winner again in the refine pass."""
    a0 = np.log(tau)
    b0 = np.log(max(np.log(1.0 / tau), 2.0))
    lam, target = _check_grid(M, 1500)
    best = (np.inf, None, None)
    besta, bestb = a0, b0
    a_grid = a0 + np.linspace(-3.0, 3.0, 5)
    b_grid = b0 + np.array([-1.0, 0.0, 1.0, 2.0])
    spread = 0.75
    for refine in range(2):
        for a in a_grid:
            for b in b_grid:
                if b <= a:
                    continue
                h = (b - a) / max(R - 1, 1)
                al = np.exp(a + h * np.arange(R))
                A = np.exp(-np.outer(lam, al))
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
        a_grid = besta + np.linspace(-spread, spread, 5)
        b_grid = bestb + np.linspace(-spread, spread, 5)
        spread /= 2.0
    err, w, al = best
    if w is None:
        return best
    keep = w > 0.0
    return err, w[keep], al[keep]


def exp_sum_linear_scan(M, eps_rel, r_cap=expsum.R_CAP):
    """Oracle for ``lriga.expsum._fit``: every rank from the a-priori floor
    upward until the first one passes both checks."""
    tau = eps_rel / M
    r_floor = int(np.log(max(16.0 / (100.0 * tau), 1.0)) * np.log(8.0 * M) / np.pi ** 2)
    for R in range(max(1, r_floor), r_cap + 1):
        err, w, al = best_for_rank_full_grid(R, M, tau)
        if err <= 0.9 * tau:
            lam, target = _check_grid(M, 100_000)
            fine = float(np.max(np.abs(np.exp(-np.outer(lam, al)) @ w - target)))
            if fine <= tau:
                return ExpSum(w, al, M, fine)
    raise ExpSumError(
        "no exponential sum with <= %d terms reaches %.3e on [1, %.3e]"
        % (r_cap, tau, M)
    )


def accepted_rank_table(Ms, eps_list, r_cap=expsum.R_CAP):
    """Rows ``(M, eps_rel, fitted ranks, accepted rank)`` for every M > 1
    and eps_rel, printed as they finish: the data `_predicted_rank` is
    fitted on.

    ``lriga.expsum._fit`` runs with ``_best_for_rank`` wrapped to log each
    rank it grid-searches; the accepted rank is the one whose weights the
    returned sum holds.  Minutes at eps_rel 1e-6, so no test runs it.
    """
    grid_search = expsum._best_for_rank
    rows = []
    for eps in eps_list:
        for M in Ms:
            fits = []

            def logged(R, M, tau):
                found = grid_search(R, M, tau)
                fits.append((R, found[1]))
                return found

            expsum._best_for_rank = logged
            try:
                es = expsum._fit(float(M), eps, r_cap)
            finally:
                expsum._best_for_rank = grid_search
            accepted = next(R for R, w in fits if w is es.weights)
            rows.append((float(M), eps, [R for R, _ in fits], accepted))
            print("M = %.6g, eps_rel %.0e: fitted %s, accepted %d" % rows[-1],
                  flush=True)
    return rows


def metric_data(geo, etas):
    """Vectorized metric: Q = det(J) J^-1 J^-T and det(J).

    Raises:
        GeometryError: if det(J) <= 0 anywhere in the sample.
    """
    Jinv, det = metric_pieces(geo, etas)
    return metric_tensor(Jinv, det), det


def metric_and_weight(geo, eta, f=None):
    """Pointwise (Q, omega) with omega = det(J) * f(eta) (f omitted: det)."""
    Q, det = metric_data(geo, np.asarray(eta, dtype=float))
    omega = det if f is None else det * f(eta)
    return Q, omega


def validate_geometry(geo, n_samples=1000, seed=0):
    """det(J) > 0 and Q symmetric positive definite on a random sample."""
    rng = np.random.default_rng(seed)
    etas = rng.uniform(0.0, 1.0, (n_samples, 3))
    Q, det = metric_data(geo, etas)
    assert np.all(det > 0)
    sym = np.max(np.abs(Q - np.swapaxes(Q, -1, -2)))
    eigs = np.linalg.eigvalsh(Q)
    return float(np.min(det)), float(sym), float(np.min(eigs))


def load_polynomial_map(path):
    """Load a polynomial map from a text file.

    Format (whitespace separated, '#' comments): first three integers are
    the degrees (d1, d2, d3); then, for each of the three physical
    components, (d1+1)(d2+1)(d3+1) monomial coefficients c[i,j,k] of
    eta1^i eta2^j eta3^k with i fastest.
    """
    with open(path) as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
    if len(tokens) < 3:
        raise GeometryError("polynomial map file %r: missing degree triple" % path)
    d = [int(t) for t in tokens[:3]]
    count = (d[0] + 1) * (d[1] + 1) * (d[2] + 1)
    vals = [float(t) for t in tokens[3:]]
    if len(vals) != 3 * count:
        raise GeometryError(
            "polynomial map file %r: expected %d coefficients, found %d"
            % (path, 3 * count, len(vals))
        )
    coefs = [
        np.reshape(vals[a * count : (a + 1) * count], (d[0] + 1, d[1] + 1, d[2] + 1), order="F")
        for a in range(3)
    ]
    dcoefs = [[P.polyder(c, axis=ax) for ax in range(3)] for c in coefs]

    def F(eta):
        eta = np.asarray(eta, dtype=float)
        e1, e2, e3 = eta[..., 0], eta[..., 1], eta[..., 2]
        return np.stack([P.polyval3d(e1, e2, e3, c) for c in coefs], axis=-1)

    def jac(eta):
        eta = np.asarray(eta, dtype=float)
        e1, e2, e3 = eta[..., 0], eta[..., 1], eta[..., 2]
        J = np.empty(eta.shape[:-1] + (3, 3))
        for a in range(3):
            for b in range(3):
                J[..., a, b] = P.polyval3d(e1, e2, e3, dcoefs[a][b])
        return J

    return GeometryMap("polynomial", F, jac)


def apriori_sup_bound(R, M):
    """Classical sup-error bound 16 exp(-R pi^2 / log(8 M)) for reporting."""
    return 16.0 * np.exp(-R * np.pi ** 2 / np.log(8.0 * M))
