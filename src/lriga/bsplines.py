"""Univariate B-spline spaces on [0,1]: open uniform knots, basis values and
first derivatives, Gauss quadrature, and weighted Galerkin matrices.

Basis functions follow the Cox-De Boor recursion (0/0 = 0 convention).  The
weighted matrices read one memoized table per ``(p, n_el, q)``, which every
space of that degree and mesh shares whatever its boundary conditions, and
one memoized CSR pattern per ``(p, n_el)``, into which each matrix sums its
element entries without building a COO matrix.
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


def basis_funs(knots, p, etas, spans):
    """Values and first derivatives, shape ``(2, p+1, N)``, of the p+1
    basis functions active at each of N points (``etas``, ``spans``):
    Piegl & Tiller's A2.3 (table and k = 1 step) run on arrays, each entry
    computed by the same operations in the same order as for one point.
    """
    N = len(etas)
    left = np.empty((p, N))
    right = np.empty((p, N))
    ndu = np.empty((p + 1, p + 1, N))
    ders = np.zeros((2, p + 1, N))

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
    # function r: d = 1/ndu[p,r-1] * ndu[r-1,p-1] (r >= 1), then
    # d += -1/ndu[p,r] * ndu[r,p-1] (r < p), then d *= p
    ders[1, 1:] = 1.0 / ndu[p, :p] * ndu[:p, p - 1]
    ders[1, :p] += -1.0 / ndu[p, :p] * ndu[:p, p - 1]
    ders[1] *= p
    return ders


def _check_orders(*derivs):
    if any(d not in (0, 1) for d in derivs):
        raise ValueError("derivative orders must be 0 or 1, got %r" % (derivs,))


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

    def __repr__(self):
        return "SplineSpace1D(p=%d, n_el=%d, bc=%s)" % (self.p, self.n_el, self.bc)

    def collocation_matrix(self, etas, deriv=0):
        """Sparse matrix of kept basis (derivative) values at many points,
        shape (len(etas), n).

        Raises:
            ValueError: if deriv is not 0 or 1 or a point is outside [0, 1].
        """
        _check_orders(deriv)
        etas = np.atleast_1d(np.asarray(etas, dtype=float))
        bad = ~((etas >= 0.0) & (etas <= 1.0))
        if bad.any():
            raise ValueError("evaluation point %g outside [0, 1]" % etas[bad][0])
        spans = find_span(self.p, self.n_el, etas)
        vals = basis_funs(self.knots, self.p, etas, spans)[deriv].T
        idx = spans[:, None] + np.arange(-self.p, 1)
        kept = (idx >= self.keep.start) & (idx < self.keep.stop)
        rows = np.broadcast_to(np.arange(len(etas))[:, None], idx.shape)
        return sp.csr_matrix(
            (vals[kept], (rows[kept], idx[kept] - self.keep.start)),
            shape=(len(etas), self.n),
        )


@dataclass(frozen=True)
class QuadratureRule1D:
    """Per-span Gauss points/weights; exact for degree <= 2q-1 per span."""

    points: np.ndarray  # (n_el, q)
    weights: np.ndarray  # (n_el, q)


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


@functools.lru_cache(maxsize=None)
def element_basis(p, n_el, q):
    """Basis values and first derivatives at the points of
    ``gauss_rule(n_el, q)``, per element, on the full basis.

    Memoized per process: one read-only array.

    Returns:
        ndarray of shape (2, n_el, q, p+1): derivative order, element,
        point, and the p+1 active functions (full numbering, starting at
        the element index).
    """
    spans = np.repeat(np.arange(p, p + n_el), q)
    ders = basis_funs(open_uniform_knots(p, n_el), p,
                      gauss_rule(n_el, q).points.ravel(), spans)
    out = np.ascontiguousarray(ders.transpose(0, 2, 1)).reshape(2, n_el, q, p + 1)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class UnivariatePencil:
    """Univariate mass/stiffness pair (sparse, bandwidth p, symmetric)."""

    M: sp.csr_matrix
    K: sp.csr_matrix


def _quadrature(space, w_cheb):
    """Rule, weight values and basis table of ``q = p + 1 + ceil(t_max/2)``
    points per span, exact for a weight of Chebyshev degree ``t_max``."""
    t_max = 0 if w_cheb is None else max(len(np.atleast_1d(w_cheb)) - 1, 0)
    q = space.p + 1 + math.ceil(t_max / 2)
    rule = gauss_rule(space.n_el, q)
    wv = np.ones_like(rule.points) if w_cheb is None else chebval(
        2.0 * rule.points - 1.0, np.asarray(w_cheb, dtype=float))
    return rule, wv, element_basis(space.p, space.n_el, q)


@functools.lru_cache(maxsize=None)
def element_pattern(p, n_el):
    """CSR pattern of the element assembly on the full basis of ``(p,
    n_el)``, and the order in which a COO to CSR conversion sums the
    element entries into it.

    The conversion buckets the entries by row in input order, sorts each
    row's column indices with scipy's ``sort_indices``, which need not keep
    equal indices in input order (for p = 4 it does not), and sums equal
    neighbours left to right.  The order is read off that very sort, run
    once here on the entries' positions.

    Memoized per process: read-only arrays, so a matrix takes copies.

    Returns:
        ``(indptr, indices, order, slot)``: int32 CSR row pointers and
        column indices; ``order``, the local entries ``(e, i, j)`` (flat,
        C order) in summation order; and ``slot``, the position in
        ``indices`` that each of them is summed into.
    """
    full = n_el + p
    e = np.arange(n_el)[:, None, None]
    i = np.arange(p + 1)
    rows = np.broadcast_to(e + i[None, :, None], (n_el, p + 1, p + 1)).ravel()
    cols = np.broadcast_to(e + i[None, None, :], (n_el, p + 1, p + 1)).ravel()
    by_row = np.argsort(rows, kind="stable")
    ptr = np.zeros(full + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=full), out=ptr[1:])
    unsorted = sp.csr_matrix((by_row.astype(float), cols[by_row], ptr),
                             shape=(full, full))
    unsorted.sort_indices()
    order = unsorted.data.astype(np.intp)
    r, c = rows[order], cols[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    slot = np.cumsum(first) - 1
    indptr = np.zeros(full + 1, dtype=np.int32)
    np.cumsum(np.bincount(r[first], minlength=full), out=indptr[1:])
    indices = c[first].astype(np.int32)
    for a in (indptr, indices, order, slot):
        a.setflags(write=False)
    return indptr, indices, order, slot


def assemble_weighted_matrix(space, deriv_row, deriv_col, w_cheb=None):
    """Galerkin matrix with a polynomial weight on the full basis:

        A[i,j] = int_0^1 w(eta) * D^{dr} b_i(eta) * D^{dc} b_j(eta) deta

    for every basis function of ``space``, Dirichlet ends included: a
    ``full_dim`` square CSR matrix, which ``[space.keep, space.keep]``
    trims to the kept functions.  Quadrature order is chosen exact for
    the polynomial integrand.  Element entries are summed into the
    :func:`element_pattern` slots in the order of a COO to CSR
    conversion, so the matrix is the conversion's bit for bit.

    Raises:
        ValueError: if a derivative order is not 0 or 1.
    """
    _check_orders(deriv_row, deriv_col)
    rule, wv, B = _quadrature(space, w_cheb)
    local = np.einsum("eqi,eqj,eq,eq->eij", B[deriv_row], B[deriv_col], wv,
                      rule.weights)
    indptr, indices, order, slot = element_pattern(space.p, space.n_el)
    data = np.bincount(slot, weights=local.ravel()[order],
                       minlength=len(indices))
    full = space.full_dim
    return sp.csr_matrix((data, indices.copy(), indptr.copy()),
                         shape=(full, full))


def assemble_weighted_rhs(space, w_cheb=None):
    """Load vector f[i] = int_0^1 w(eta) b_i(eta) deta on the full basis
    (length ``full_dim``; ``[space.keep]`` trims it)."""
    rule, wv, B = _quadrature(space, w_cheb)
    local = np.einsum("eqi,eq,eq->ei", B[0], wv, rule.weights)
    rows = np.arange(space.n_el)[:, None] + np.arange(space.p + 1)
    return np.bincount(rows.ravel(), weights=local.ravel(),
                       minlength=space.full_dim)


def assemble_pencil(space):
    """Mass and stiffness matrices of the kept basis functions."""
    keep = space.keep
    M = assemble_weighted_matrix(space, 0, 0)[keep, keep]
    K = assemble_weighted_matrix(space, 1, 1)[keep, keep]
    return UnivariatePencil(M, K)
