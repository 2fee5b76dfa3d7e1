"""Univariate B-spline spaces on [0,1]: open uniform knots, basis and
derivative evaluation, Gauss quadrature, and weighted Galerkin matrices.

Basis functions follow the Cox-De Boor recursion (0/0 = 0 convention).
Weight functions for the weighted matrices are univariate polynomials given
by Chebyshev coefficients on [0,1] via the affine pullback T_k(2*eta - 1).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.chebyshev import chebval

BC_DIRICHLET = "dirichlet"
BC_NEUMANN = "neumann"


def open_uniform_knots(p, n_el):
    """Open (clamped) uniform knot vector on [0,1] with ``n_el`` spans."""
    interior = np.linspace(0.0, 1.0, n_el + 1)[1:-1]
    return np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])


def find_span(p, n_el, eta):
    """Index of the knot span containing each ``eta`` (clamped at the right end)."""
    return np.minimum((np.asarray(eta) * n_el).astype(np.intp), n_el - 1) + p


def basis_funs_all_ders(knots, p, etas, spans, n_ders):
    """Values and derivatives of the p+1 basis functions active at each point.

    Standard triangular-table algorithm (Piegl & Tiller, A2.3) run on arrays:
    ``etas`` and ``spans`` have shape ``(N,)`` and every table entry holds
    one value per point, computed by the same operations in the same order
    as the one-point recurrence.  Returns an array of shape
    ``(n_ders+1, p+1, N)`` whose entry ``[k, i]`` holds the k-th derivatives
    of the i-th active function.
    """
    N = len(etas)
    left = np.empty((p, N))
    right = np.empty((p, N))
    ndu = np.empty((p + 1, p + 1, N))
    a = np.empty((2, p + 1, N))
    ders = np.zeros((n_ders + 1, p + 1, N))

    ndu[0, 0] = 1.0
    for j in range(p):
        left[j] = etas - knots[spans - j]
        right[j] = knots[spans + 1 + j] - etas
        saved = 0.0
        for r in range(j + 1):
            ndu[j + 1, r] = right[r] + left[j - r]
            temp = ndu[r, j] / ndu[j + 1, r]
            ndu[r, j + 1] = saved + right[r] * temp
            saved = left[j - r] * temp
        ndu[j + 1, j + 1] = saved

    ders[0] = ndu[:, p]
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
        ders[k] *= fac
        fac *= p - k
    return ders


class SplineSpace1D:
    """B-spline space of degree p on n_el uniform spans of [0,1].

    A Dirichlet end removes the first/last basis function.  ``full_dim``
    counts every function, ``n`` the kept ones; ``keep`` is the slice of
    the kept functions in the full numbering.  :meth:`collocation_matrix`
    numbers the kept functions in order; the weighted assembly routines
    return the full basis, and callers trim it with ``keep``.

    Raises:
        ValueError: if p < 1, n_el < 1, or bc is not a pair of
            BC_DIRICHLET / BC_NEUMANN.
    """

    def __init__(self, p, n_el, bc=(BC_DIRICHLET, BC_DIRICHLET)):
        for name, value in (("p", p), ("n_el", n_el)):
            if not value >= 1:
                raise ValueError("need %s >= 1, got %r" % (name, value))
        bc = tuple(bc)
        if len(bc) != 2 or any(b not in (BC_DIRICHLET, BC_NEUMANN) for b in bc):
            raise ValueError("need bc = two of %r, %r; got %r"
                             % (BC_DIRICHLET, BC_NEUMANN, bc))
        self.p = p
        self.n_el = n_el
        self.bc = bc
        self.knots = open_uniform_knots(p, n_el)
        self.full_dim = n_el + p
        self.trim = (
            1 if bc[0] == BC_DIRICHLET else 0,
            1 if bc[1] == BC_DIRICHLET else 0,
        )
        self.keep = slice(self.trim[0], self.full_dim - self.trim[1])
        self.n = self.full_dim - self.trim[0] - self.trim[1]
        self._basis_cache = {}

    def __repr__(self):
        return "SplineSpace1D(p=%d, n_el=%d, bc=%s)" % (self.p, self.n_el, self.bc)

    def collocation_matrix(self, etas, deriv=0):
        """Sparse matrix of kept basis (derivative) values at many points,
        shape (len(etas), n).

        Raises:
            ValueError: if a point lies outside [0, 1].
        """
        etas = np.atleast_1d(np.asarray(etas, dtype=float))
        bad = ~((etas >= 0.0) & (etas <= 1.0))
        if bad.any():
            raise ValueError("evaluation point %g outside [0, 1]" % etas[bad][0])
        spans = find_span(self.p, self.n_el, etas)
        vals = basis_funs_all_ders(self.knots, self.p, etas, spans, deriv)[deriv].T
        idx = spans[:, None] + np.arange(-self.p, 1)
        kept = (idx >= self.keep.start) & (idx < self.keep.stop)
        rows = np.broadcast_to(np.arange(len(etas))[:, None], idx.shape)
        return sp.csr_matrix(
            (vals[kept], (rows[kept], idx[kept] - self.keep.start)),
            shape=(len(etas), self.n),
        )

    def element_basis(self, rule, deriv):
        """Basis values at the rule's points, per element.

        Returns:
            ndarray of shape (n_el, q, p+1): values of the p+1 active
            functions (full numbering, starting at element index).
        """
        n_el, q = rule.points.shape
        assert n_el == self.n_el
        key = (q, deriv, float(rule.points[0, 0]), float(rule.points[-1, -1]))
        cached = self._basis_cache.get(key)
        if cached is not None:
            return cached
        spans = np.repeat(np.arange(self.p, self.p + n_el), q)
        ders = basis_funs_all_ders(
            self.knots, self.p, rule.points.ravel(), spans, deriv
        )
        out = np.ascontiguousarray(ders[deriv].T).reshape(n_el, q, self.p + 1)
        self._basis_cache[key] = out
        return out


@dataclass(frozen=True)
class QuadratureRule1D:
    """Per-span Gauss points/weights; exact for degree <= 2q-1 per span."""

    points: np.ndarray  # (n_el, q)
    weights: np.ndarray  # (n_el, q)

    @property
    def q(self):
        return self.points.shape[1]


@functools.lru_cache(maxsize=None)
def gauss_rule(n_el, q):
    """Gauss-Legendre rule with q points on each of n_el uniform spans.

    Memoized per process: one shared rule with read-only arrays.
    """
    x, w = np.polynomial.legendre.leggauss(q)
    h = 1.0 / n_el
    starts = np.linspace(0.0, 1.0, n_el + 1)[:-1]
    pts = starts[:, None] + (x[None, :] + 1.0) * (h / 2.0)
    wts = np.tile(w * (h / 2.0), (n_el, 1))
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule1D(pts, wts)


@dataclass(frozen=True)
class UnivariatePencil:
    """Univariate mass/stiffness pair (sparse, bandwidth p, symmetric)."""

    M: sp.csr_matrix
    K: sp.csr_matrix


def _weight_values(rule, w_cheb):
    if w_cheb is None:
        return np.ones_like(rule.points)
    return chebval(2.0 * rule.points - 1.0, np.asarray(w_cheb, dtype=float))


def assemble_weighted_matrix(space, deriv_row, deriv_col, w_cheb=None):
    """Galerkin matrix with a polynomial weight on the full basis:

        A[i,j] = int_0^1 w(eta) * D^{dr} b_i(eta) * D^{dc} b_j(eta) deta

    for every basis function of ``space``, Dirichlet ends included: a
    ``full_dim`` square CSR matrix, which ``[space.keep, space.keep]``
    trims to the kept functions.  Quadrature order is chosen exact for
    the polynomial integrand.
    """
    p, n_el = space.p, space.n_el
    t_max = 0 if w_cheb is None else max(len(np.atleast_1d(w_cheb)) - 1, 0)
    q = p + 1 + math.ceil(t_max / 2)
    rule = gauss_rule(n_el, q)

    Br = space.element_basis(rule, deriv_row)
    Bc = space.element_basis(rule, deriv_col)
    wv = _weight_values(rule, w_cheb)
    local = np.einsum("eqi,eqj,eq,eq->eij", Br, Bc, wv, rule.weights)

    e = np.arange(n_el)[:, None, None]
    i = np.arange(p + 1)
    rows = np.broadcast_to(e + i[None, :, None], local.shape)
    cols = np.broadcast_to(e + i[None, None, :], local.shape)
    full = space.full_dim
    return sp.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=(full, full)
    ).tocsr()


def assemble_weighted_rhs(space, w_cheb=None):
    """Load vector f[i] = int_0^1 w(eta) b_i(eta) deta on the full basis
    (length ``full_dim``; ``[space.keep]`` trims it)."""
    p, n_el = space.p, space.n_el
    t_max = 0 if w_cheb is None else max(len(np.atleast_1d(w_cheb)) - 1, 0)
    q = p + 1 + math.ceil(t_max / 2)
    rule = gauss_rule(n_el, q)
    B = space.element_basis(rule, 0)
    wv = _weight_values(rule, w_cheb)
    local = np.einsum("eqi,eq,eq->ei", B, wv, rule.weights)
    f = np.zeros(space.full_dim)
    np.add.at(f, np.arange(n_el)[:, None] + np.arange(p + 1), local)
    return f


def assemble_pencil(space):
    """Mass and stiffness matrices of the kept basis functions."""
    keep = space.keep
    M = assemble_weighted_matrix(space, 0, 0)[keep, keep]
    K = assemble_weighted_matrix(space, 1, 1)[keep, keep]
    return UnivariatePencil(M, K)
