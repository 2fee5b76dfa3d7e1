"""Tucker algebra against dense brute-force references."""

import numpy as np
import pytest

from lriga.tucker import (
    MemoryGuardError,
    compression_percent,
    from_dense,
    mode_product,
    operator_sum,
    to_dense,
    tucker_add,
    tucker_inner,
    tucker_matvec,
    tucker_norm,
    tucker_scale,
    tucker_zero,
    unvec,
    vec,
)
from lriga.oracle import dense_operator, kron3

from util import random_operator, random_tucker


def mode_product_loops(X, axis, J):
    # direct triple-loop definition
    shape = list(X.shape)
    m = J.shape[0]
    shape[axis] = m
    Y = np.zeros(shape)
    for idx in np.ndindex(*shape):
        s = 0.0
        for j in range(X.shape[axis]):
            src = list(idx)
            src[axis] = j
            s += J[idx[axis], j] * X[tuple(src)]
        Y[idx] = s
    return Y


def test_mode_product_matches_loops():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((2, 3, 4))
    for axis, n in enumerate(X.shape):
        J = rng.standard_normal((5, n))
        got = mode_product(X, axis, J)
        assert np.allclose(got, mode_product_loops(X, axis, J), atol=1e-13)


def test_mode_product_sums_first_index():
    # X[i,j,k] = i (1-based), contracted with a row of ones along mode 0
    X = np.empty((2, 2, 2))
    for i in range(2):
        X[i] = i + 1
    J = np.ones((1, 2))
    Y = mode_product(X, 0, J)
    assert Y.shape == (1, 2, 2)
    assert np.all(Y == 3.0)


def test_vec_kron_identity():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, 4, 5))
    J1 = rng.standard_normal((2, 3))
    J2 = rng.standard_normal((6, 4))
    J3 = rng.standard_normal((3, 5))
    Y = mode_product(mode_product(mode_product(X, 0, J1), 1, J2), 2, J3)
    assert np.allclose(vec(Y), kron3(J1, J2, J3) @ vec(X), atol=1e-12)
    assert np.allclose(unvec(vec(X), X.shape), X)


def test_norm_equals_vec_norm():
    rng = np.random.default_rng(2)
    x = random_tucker(rng, (6, 5, 4), (3, 2, 4))
    assert np.isclose(tucker_norm(x), np.linalg.norm(vec(to_dense(x))), rtol=1e-12)


def test_from_to_dense_roundtrip():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 5, 6))
    x = from_dense(X)
    assert x.rank == X.shape
    assert np.allclose(to_dense(x), X, atol=1e-14)


def test_dense_guard():
    x = tucker_zero((1024, 1024, 1024))
    with pytest.raises(MemoryGuardError):
        to_dense(x)


def test_add_scale_inner_vs_dense():
    rng = np.random.default_rng(4)
    for _ in range(20):
        dims = tuple(rng.integers(2, 8, 3))
        x = random_tucker(rng, dims, tuple(rng.integers(1, 5, 3)))
        y = random_tucker(rng, dims, tuple(rng.integers(1, 5, 3)))
        Xd, Yd = to_dense(x), to_dense(y)
        s = tucker_add(x, y)
        assert s.rank == tuple(a + b for a, b in zip(x.rank, y.rank))
        assert np.allclose(to_dense(s), Xd + Yd, atol=1e-12)
        assert np.allclose(to_dense(tucker_scale(x, -2.5)), -2.5 * Xd, atol=1e-12)
        assert np.isclose(tucker_inner(x, y), np.dot(vec(Xd), vec(Yd)), atol=1e-10)
        # operator sugar
        assert np.allclose(to_dense(x + y), Xd + Yd, atol=1e-12)
        assert np.allclose(to_dense(x - y), Xd - Yd, atol=1e-12)
        assert np.allclose(to_dense(3.0 * x), 3.0 * Xd, atol=1e-12)


def test_matvec_vs_dense_operator():
    rng = np.random.default_rng(5)
    for _ in range(30):
        dims = tuple(rng.integers(2, 7, 3))
        dims_out = tuple(rng.integers(2, 7, 3))
        x = random_tucker(rng, dims, tuple(rng.integers(1, 4, 3)))
        op = random_operator(rng, dims_out, tuple(rng.integers(1, 4, 3)), dims_in=dims)
        y = tucker_matvec(op, x)
        ref = dense_operator(op) @ vec(to_dense(x))
        num = np.linalg.norm(vec(to_dense(y)) - ref)
        assert num <= 1e-12 * max(np.linalg.norm(ref), 1e-300)


def test_matvec_rank_multiplies():
    rng = np.random.default_rng(6)
    x = random_tucker(rng, (5, 6, 7), (2, 3, 2))
    op = random_operator(rng, (5, 6, 7), (3, 1, 2))
    y = tucker_matvec(op, x)
    # exact image, QR-reduced: rank min(n_k, R_k r_k), orthonormal factors
    assert y.rank == (min(5, 3 * 2), min(6, 1 * 3), min(7, 2 * 2)) == (5, 3, 4)
    assert y.dims == (5, 6, 7)
    for U in y.factors:
        assert np.allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-12)


def test_matvec_sparse_core_vs_dense_operator():
    # block-diagonal core (operator_sum) with extra zeros: only the nonzero
    # core entries contribute, the image must still be exact
    rng = np.random.default_rng(9)
    dims = (5, 4, 6)
    ops = [random_operator(rng, dims, (2, 3, 2)) for _ in range(2)]
    total = operator_sum(ops)
    total.core[0, 1, :] = 0.0
    total.core[3, :, 2] = 0.0
    x = random_tucker(rng, dims, (2, 1, 3))
    y = tucker_matvec(total, x)
    ref = dense_operator(total) @ vec(to_dense(x))
    assert np.linalg.norm(vec(to_dense(y)) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_operator_sum_vs_dense():
    rng = np.random.default_rng(7)
    dims = (4, 3, 5)
    ops = [random_operator(rng, dims, tuple(rng.integers(1, 3, 3))) for _ in range(3)]
    total = operator_sum(ops)
    ref = sum(dense_operator(op) for op in ops)
    assert np.allclose(dense_operator(total), ref, atol=1e-12)
    assert total.rank == tuple(sum(op.rank[k] for op in ops) for k in range(3))


def test_compression_percent_value():
    rng = np.random.default_rng(8)
    x = random_tucker(rng, (100, 100, 100), (5, 5, 5))
    assert compression_percent(x) == 0.1625
