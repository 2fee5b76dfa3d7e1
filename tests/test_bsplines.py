"""Univariate spline spaces, quadrature, and Galerkin matrices."""

import math

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial.chebyshev import chebval

from lriga import bsplines
from lriga.bsplines import (
    BC_DIRICHLET,
    BC_NEUMANN,
    SplineSpace1D,
    assemble_pencil,
    assemble_weighted_matrix,
    assemble_weighted_rhs,
    basis_funs,
    element_basis,
    find_span,
    gauss_rule,
    open_uniform_knots,
)

import util
from oracle import coo_weighted_matrix

NN = (BC_NEUMANN, BC_NEUMANN)
DD = (BC_DIRICHLET, BC_DIRICHLET)


def test_knots_and_dimensions():
    space = SplineSpace1D(3, 8)
    assert len(space.knots) == 8 + 2 * 3 + 1
    assert space.knots[0] == 0.0 and space.knots[-1] == 1.0
    assert space.full_dim == 11
    assert space.n == 9  # double Dirichlet: n_el + p - 2
    assert SplineSpace1D(3, 8, NN).n == 11
    assert SplineSpace1D(3, 8, (BC_NEUMANN, BC_DIRICHLET)).n == 10


@pytest.mark.parametrize("args,named", [
    ((0, 4), "p >= 1"),
    ((3, 0), "n_el >= 1"),
    ((3, 4, (BC_DIRICHLET, "neuman")), "neuman"),
    ((3, 4, (BC_DIRICHLET,)), "bc"),
], ids=["p", "n_el", "misspelled bc", "one bc"])
def test_bad_space_arguments_raise(args, named):
    # a check that raises, not an assert: under python -O a misspelled end
    # would otherwise become a Neumann end
    with pytest.raises(ValueError, match=named):
        SplineSpace1D(*args)


def test_one_linear_element_keeps_what_its_ends_leave():
    # one linear element has two functions and two Dirichlet ends remove
    # both; the space stays valid for the full-basis routines, and the CLI
    # refuses it as a configuration
    assert SplineSpace1D(1, 1).n == 0
    assert SplineSpace1D(1, 1, (BC_NEUMANN, BC_DIRICHLET)).n == 1
    assert SplineSpace1D(2, 1).n == 1


def test_partition_of_unity_and_nonnegativity():
    rng = np.random.default_rng(20)
    for p in range(1, 6):
        space = SplineSpace1D(p, 8, NN)
        C = space.collocation_matrix(rng.uniform(0, 1, 2000))
        assert np.all(C.data >= -1e-14)
        assert np.allclose(C.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diff(C.indptr) <= p + 1)


def test_derivative_sums_to_zero_inside():
    rng = np.random.default_rng(21)
    for p in (2, 4):
        space = SplineSpace1D(p, 8, NN)
        C = space.collocation_matrix(rng.uniform(0.05, 0.95, 200), deriv=1)
        assert np.allclose(C.sum(axis=1), 0.0, atol=1e-10)


def test_hat_function_values():
    space = SplineSpace1D(1, 2, NN)
    C = space.collocation_matrix([0.25])
    assert C.indices.tolist() == [0, 1]
    assert np.allclose(C.data, [0.5, 0.5])


def test_eval_outside_domain_raises():
    space = SplineSpace1D(2, 4)
    with pytest.raises(ValueError):
        space.collocation_matrix([1.5])


def test_gauss_rule_exactness():
    for q in (2, 4, 7):
        rule = gauss_rule(3, q)
        deg = 2 * q - 1
        # integral of x^deg over [0,1]
        approx = float(np.sum(rule.weights * rule.points ** deg))
        assert np.isclose(approx, 1.0 / (deg + 1), rtol=1e-13)


def test_hat_pencil_stencils():
    space = SplineSpace1D(1, 4, DD)
    pencil = assemble_pencil(space)
    h = 0.25
    M = pencil.M.toarray()
    K = pencil.K.toarray()
    assert np.allclose(np.diag(M), 4 * h / 6)
    assert np.allclose(np.diag(M, 1), h / 6)
    assert np.allclose(np.diag(K), 2 / h)
    assert np.allclose(np.diag(K, 1), -1 / h)


def test_total_mass_is_one():
    for p in (1, 2, 3):
        space = SplineSpace1D(p, 8, NN)
        M_full = assemble_weighted_matrix(space, 0, 0)
        assert np.isclose(M_full.sum(), 1.0, atol=1e-13)
        f = assemble_weighted_rhs(space)
        assert np.isclose(f.sum(), 1.0, atol=1e-13)


def test_pencil_symmetry_and_bandwidth():
    for p in (2, 3, 5):
        space = SplineSpace1D(p, 8)
        pencil = assemble_pencil(space)
        for A in (pencil.M.toarray(), pencil.K.toarray()):
            assert np.allclose(A, A.T, atol=1e-14)
            n = A.shape[0]
            for i in range(n):
                for j in range(n):
                    if abs(i - j) > p:
                        assert A[i, j] == 0.0
            # the band is actually full at distance p somewhere
            assert np.any(np.abs(np.diag(A, p)) > 1e-12)


def test_pencil_spectrum():
    space = SplineSpace1D(3, 32, DD)
    pencil = assemble_pencil(space)
    w = scipy.linalg.eigh(
        pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True
    )
    assert np.all(w > 0)
    assert abs(w[0] - np.pi ** 2) < 0.05 * np.pi ** 2


def test_weighted_matrix_unit_weight_identical():
    space = SplineSpace1D(3, 6)
    pencil = assemble_pencil(space)
    keep = space.keep
    M1 = assemble_weighted_matrix(space, 0, 0, w_cheb=[1.0])[keep, keep]
    K1 = assemble_weighted_matrix(space, 1, 1, w_cheb=[1.0])[keep, keep]
    assert (M1 != pencil.M).nnz == 0
    assert (K1 != pencil.K).nnz == 0


def quad_oracle_matrix(space, dr, dc, wfun, q=20):
    """Pointwise quadrature, evaluating the basis one point at a time."""
    rule = gauss_rule(space.n_el, q)
    A = np.zeros((space.n, space.n))
    for e in range(space.n_el):
        for k in range(rule.points.shape[1]):
            eta, wt = rule.points[e, k], rule.weights[e, k]
            vr = space.collocation_matrix([eta], deriv=dr).toarray()[0]
            vc = space.collocation_matrix([eta], deriv=dc).toarray()[0]
            A += wt * wfun(eta) * np.outer(vr, vc)
    return A


def test_weighted_matrix_linear_weight_vs_oracle():
    space = SplineSpace1D(2, 4)
    # w(eta) = eta expressed in Chebyshev form on [0,1]
    keep = space.keep
    A = assemble_weighted_matrix(space, 0, 0, w_cheb=[0.5, 0.5])[keep, keep]
    ref = quad_oracle_matrix(space, 0, 0, lambda eta: eta)
    assert np.max(np.abs(A.toarray() - ref)) < 1e-13

    B = assemble_weighted_matrix(space, 1, 0, w_cheb=[0.5, 0.5])[keep, keep]
    refB = quad_oracle_matrix(space, 1, 0, lambda eta: eta)
    assert np.max(np.abs(B.toarray() - refB)) < 1e-13


def test_weighted_rhs_vs_oracle():
    space = SplineSpace1D(3, 5, NN)
    # w = T_2(2 eta - 1)
    f = assemble_weighted_rhs(space, w_cheb=[0.0, 0.0, 1.0])
    rule = gauss_rule(space.n_el, 20)
    ref = np.zeros(space.n)
    for e in range(space.n_el):
        for k in range(rule.points.shape[1]):
            eta, wt = rule.points[e, k], rule.weights[e, k]
            vals = space.collocation_matrix([eta]).toarray()[0]
            x = 2 * eta - 1
            ref += wt * (2 * x * x - 1) * vals
    assert np.max(np.abs(f - ref)) < 1e-13
    assert np.all(assemble_weighted_rhs(space, w_cheb=[0.0]) == 0.0)


def test_collocation_matrix_matches_eval():
    space = SplineSpace1D(3, 6)
    etas = np.linspace(0, 1, 17)
    C = space.collocation_matrix(etas, deriv=1).toarray()
    for i, eta in enumerate(etas):
        row = space.collocation_matrix([eta], deriv=1).toarray()[0]
        assert np.allclose(C[i], row, atol=1e-14)


def _kernel_points(p, n_el):
    """Both ends, the interior breakpoints and the Gauss points of p+1 per span."""
    breaks = np.linspace(0.0, 1.0, n_el + 1)[1:-1]
    gauss = gauss_rule(n_el, p + 1).points.ravel()
    return np.concatenate([[0.0, 1.0], breaks, gauss])


@pytest.mark.parametrize("n_el", [1, 2, 7, 64])
def test_array_kernel_equals_scalar_oracle(n_el):
    for p in range(1, 6):
        knots = open_uniform_knots(p, n_el)
        etas = _kernel_points(p, n_el)
        spans = [util.oracle_span(p, n_el, eta) for eta in etas]
        assert find_span(p, n_el, etas).tolist() == spans
        # values and first derivatives, each one the oracle's to the bit
        ours = basis_funs(knots, p, etas, np.array(spans))
        ref = np.stack(
            [util.basis_funs_all_ders(knots, p, eta, span, 1)
             for eta, span in zip(etas, spans)],
            axis=-1,
        )
        assert ours.shape == (2, p + 1, len(etas))
        assert np.array_equal(ours, ref), p


@pytest.mark.parametrize("n_el", [1, 2, 7, 64])
def test_element_basis_and_collocation_equal_oracle(n_el):
    for p in range(1, 6):
        space = SplineSpace1D(p, n_el)
        rule = gauss_rule(n_el, p + 2)
        etas = _kernel_points(p, n_el)
        for deriv in (0, 1):
            ref = np.array([
                [util.basis_funs_all_ders(space.knots, p, eta, e + p, deriv)[deriv]
                 for eta in rule.points[e]]
                for e in range(n_el)
            ])
            assert np.array_equal(element_basis(p, n_el, p + 2)[deriv], ref)

            full = np.zeros((len(etas), space.full_dim))
            for i, eta in enumerate(etas):
                span = util.oracle_span(p, n_el, eta)
                full[i, span - p : span + 1] = util.basis_funs_all_ders(
                    space.knots, p, eta, span, deriv
                )[deriv]
            C = space.collocation_matrix(etas, deriv=deriv)
            assert np.array_equal(C.toarray(), full[:, 1:-1]), (p, deriv)


def test_collocation_matrix_rejects_one_bad_point():
    space = SplineSpace1D(3, 8)
    etas = np.linspace(0.0, 1.0, 1000)
    assert space.collocation_matrix(etas).shape == (1000, space.n)
    for bad in (1.0 + 1e-12, -1e-300, np.nan):
        x = etas.copy()
        x[537] = bad
        with pytest.raises(ValueError):
            space.collocation_matrix(x)


@pytest.mark.parametrize(
    "p,n_el,w_cheb", [(1, 1, None), (3, 7, [0.3, -0.2, 0.7]), (4, 64, [1.0, 0.5])]
)
def test_weighted_rhs_equals_loop_accumulation(p, n_el, w_cheb):
    space = SplineSpace1D(p, n_el)
    t_max = 0 if w_cheb is None else len(w_cheb) - 1
    q = p + 1 + math.ceil(t_max / 2)
    rule = gauss_rule(n_el, q)
    wv = np.ones_like(rule.points) if w_cheb is None else chebval(
        2.0 * rule.points - 1.0, w_cheb
    )
    local = np.einsum("eqi,eq,eq->ei", element_basis(p, n_el, q)[0], wv,
                      rule.weights)
    ref = np.zeros(space.full_dim)
    for e in range(n_el):
        ref[e : e + p + 1] += local[e]
    assert np.array_equal(assemble_weighted_rhs(space, w_cheb=w_cheb), ref)


def test_gauss_rule_is_shared_and_read_only():
    rule = gauss_rule(7, 4)
    assert gauss_rule(7, 4) is rule
    fresh = gauss_rule.__wrapped__(7, 4)
    for got, want in ((rule.points, fresh.points), (rule.weights, fresh.weights)):
        assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[0, 0] = 0.0


def test_element_basis_is_shared_and_read_only(monkeypatch):
    # one table per (p, n_el, q): the boundary conditions do not change it,
    # so the pencils of every space of that degree and mesh evaluate the
    # basis at most once between them
    calls = []
    kernel = bsplines.basis_funs
    monkeypatch.setattr(bsplines, "basis_funs",
                        lambda *args: calls.append(args) or kernel(*args))
    spaces = [SplineSpace1D(3, 13, bc) for bc in (DD, NN, (BC_NEUMANN, BC_DIRICHLET))]
    for space in spaces:
        assemble_pencil(space)
    assert len(calls) <= 1
    table = element_basis(3, 13, 4)
    assert table.shape == (2, 13, 4, 4)
    assert all(element_basis(s.p, s.n_el, 4) is table for s in spaces)
    assert np.array_equal(table, element_basis.__wrapped__(3, 13, 4))
    with pytest.raises(ValueError):
        table[0, 0, 0, 0] = 0.0


@pytest.mark.parametrize("deriv", [2, -1])
def test_unsupported_derivative_order_raises(deriv):
    # only values and first derivatives are evaluated; unchecked, -1 would
    # silently read the derivative row of the two-row table
    space = SplineSpace1D(3, 6)
    with pytest.raises(ValueError, match="0 or 1"):
        space.collocation_matrix([0.5], deriv=deriv)
    for orders in ((deriv, 0), (0, deriv)):
        with pytest.raises(ValueError, match="0 or 1"):
            assemble_weighted_matrix(space, *orders)


def test_unreduced_weighted_matrix_equals_sliced():
    # the full matrix, cut by hand to the functions the ends keep, is the
    # pencil bit for bit; with nothing to trim the cut spans the matrix
    for bc, rows in ((DD, slice(1, 8)), (NN, slice(0, 9)),
                     ((BC_NEUMANN, BC_DIRICHLET), slice(0, 8))):
        space = SplineSpace1D(3, 6, bc)
        pencil = assemble_pencil(space)
        for deriv, P in ((0, pencil.M), (1, pencil.K)):
            A = assemble_weighted_matrix(space, deriv, deriv)
            assert A.shape == (space.full_dim, space.full_dim) == (9, 9)
            B = A[rows, rows]
            assert B.shape == P.shape == (space.n, space.n)
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(B, name), getattr(P, name))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("n_el", [1, 2, 5, 16, 64])
def test_weighted_matrix_equals_coo_oracle(p, n_el):
    # the cached pattern and the bincount of element entries give the
    # arrays of a COO to CSR conversion, bit for bit
    weights = (None, np.linspace(1.0, 0.2, 5), np.linspace(0.7, -0.3, 12))
    for bc in (DD, NN, (BC_NEUMANN, BC_DIRICHLET)):
        space = SplineSpace1D(p, n_el, bc)
        for orders in ((0, 0), (0, 1), (1, 0), (1, 1)):
            for w in weights:
                got = assemble_weighted_matrix(space, *orders, w_cheb=w)
                want = coo_weighted_matrix(space, *orders, w_cheb=w)
                assert got.shape == want.shape
                for name in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, name),
                                          getattr(want, name)), name
                    assert getattr(got, name).dtype == getattr(want, name).dtype


def test_weighted_matrices_do_not_share_index_arrays():
    # a matrix's index arrays are its own: writing them, or a scipy
    # in-place operation, leaves another matrix of the same (p, n_el)
    # and the cached pattern as they were
    space = SplineSpace1D(3, 6)
    A = assemble_weighted_matrix(space, 1, 1)
    B = assemble_weighted_matrix(space, 0, 0)
    before = [a.copy() for a in (B.indptr, B.indices)]
    A.indices[:] = A.indices[::-1]
    A.has_sorted_indices = False
    A.sort_indices()
    A.indptr[:] = 0
    assert np.array_equal(B.indptr, before[0])
    assert np.array_equal(B.indices, before[1])
    C = assemble_weighted_matrix(space, 0, 0)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(C, name), getattr(B, name))
    for a in bsplines.element_pattern(3, 6):
        with pytest.raises(ValueError):
            a[0] = 1
