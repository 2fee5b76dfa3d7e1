"""Tucker algebra against dense brute-force references."""

import os
import subprocess
import sys

import numpy as np
import pytest

import lriga

from lriga.tucker import (
    MemoryGuardError,
    TuckerTensor3,
    compression_percent,
    identity,
    mode_product,
    multi_mode_product,
    operator_sum,
    to_dense,
    tucker_add,
    tucker_inner,
    tucker_matvec,
    tucker_norm_qr,
    tucker_scale,
    tucker_zero,
    vec,
)
from oracle import dense_operator, from_dense, kron3

from util import random_operator, random_tucker, unvec


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


def _layouts(rng, shape):
    """The same kind of tensor stored C-ordered, Fortran-ordered and as a
    transposed (non-contiguous) view."""
    yield rng.standard_normal(shape)
    yield np.asfortranarray(rng.standard_normal(shape))
    yield rng.standard_normal(shape[::-1]).transpose(2, 1, 0)


def test_mode_product_matches_loops():
    rng = np.random.default_rng(0)
    for X in _layouts(rng, (2, 3, 4)):
        for axis, n in enumerate(X.shape):
            # m = 5 exceeds every n_axis; m = 1 collapses the mode; the last
            # J is a non-contiguous view (every other column of a wider J)
            for J in (rng.standard_normal((5, n)),
                      rng.standard_normal((1, n)),
                      rng.standard_normal((3, 2 * n))[:, ::2]):
                got = mode_product(X, axis, J)
                assert got.shape[axis] == J.shape[0]
                assert np.allclose(got, mode_product_loops(X, axis, J), atol=1e-13)


def test_multi_mode_product_leaves_none_modes_untouched():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((3, 4, 5))
    J = rng.standard_normal((2, 4))
    assert np.array_equal(multi_mode_product(X, (None, None, None)), X)
    assert np.array_equal(multi_mode_product(X, (None, J, None)),
                          mode_product(X, 1, J))
    K = rng.standard_normal((6, 5))
    assert np.array_equal(multi_mode_product(X, (None, J, K)),
                          mode_product(mode_product(X, 1, J), 2, K))


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
    assert np.isclose(x.norm(), np.linalg.norm(vec(to_dense(x))), rtol=1e-12)


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
        assert s.rank == tuple(min(n, a + b) for n, a, b in zip(dims, x.rank, y.rank))
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


def test_matvec_at_cap_uses_identity_basis():
    # R_k r_k >= n_k in modes 0 and 2: those factors are the shared
    # identity(n_k) and the core holds the image's entries there
    rng = np.random.default_rng(24)
    x = random_tucker(rng, (5, 6, 7), (2, 3, 4))
    op = random_operator(rng, (5, 6, 7), (3, 1, 2))
    y = tucker_matvec(op, x)
    assert y.rank == (5, 3, 7)
    assert y.factors[0] is identity(5) and y.factors[2] is identity(7)
    assert y.factors[1] is not identity(6)
    ref = dense_operator(op) @ vec(to_dense(x))
    assert np.linalg.norm(vec(to_dense(y)) - ref) <= 1e-12 * np.linalg.norm(ref)
    assert not identity(5).flags.writeable


def test_add_mixed_shared_and_stacked_modes_vs_dense():
    # mode 0: 4 + 3 >= 6 shared; mode 1: 2 + 2 < 7 stacked; mode 2: x is
    # already in the identity basis, so the mode is shared
    rng = np.random.default_rng(25)
    dims = (6, 7, 8)
    a = random_tucker(rng, dims, (4, 2, 8))
    x = TuckerTensor3(a.core, (a.factors[0], a.factors[1], identity(8)))
    y = random_tucker(rng, dims, (3, 2, 3))
    s = tucker_add(x, y)
    assert s.rank == (6, 4, 8)
    assert s.factors[0] is identity(6) and s.factors[2] is identity(8)
    ref = to_dense(x) + to_dense(y)
    assert np.linalg.norm(to_dense(s) - ref) <= 1e-13 * np.linalg.norm(ref)
    d = s - y  # modes 0 and 2 subtract in the core, mode 1 stacks again
    assert d.rank == (6, 6, 8)
    assert np.linalg.norm(to_dense(d) - to_dense(x)) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("combine", [tucker_add, tucker_inner])
def test_mismatched_dims_raise(combine):
    # every mode is shared (2 + 2 >= n), where a mismatch would pass silently
    rng = np.random.default_rng(27)
    x, y = random_tucker(rng, (4, 4, 4), (2, 2, 2)), random_tucker(
        rng, (3, 4, 4), (2, 2, 2))
    with pytest.raises(ValueError, match=r"\(4, 4, 4\) vs \(3, 4, 4\)"):
        combine(x, y)


def test_mismatched_dims_raise_under_optimize_flag():
    # python -O strips asserts; no shape check may be one.  Under -O the
    # first case once built a rank-(2,2,2) tensor on one-column factors and
    # the third an operator whose core expects two mode-1 matrices.
    malformed = [
        "TuckerTensor3(np.ones((2, 2, 2)), (np.ones((3, 1)),) * 3)",
        "TuckerTensor3(np.ones((2, 2)), (np.ones((3, 2)),) * 2)",
        "TuckerOperator3(np.ones((2, 1, 1)), ((I,), (I,), (I,)))",
        "TuckerOperator3(np.ones((2, 2)), ((I, I), (I, I), ()))",
        "BlockTuckerVector((t((4, 4, 4)), t((4, 4, 4)), t((3, 4, 4))))",
        "BlockTuckerVector((t((4, 4, 4)),) * 2)",
        "BlockTuckerOperator(((op,) * 3, (op,) * 3, (op,) * 2))",
        "BlockTuckerOperator(((op,) * 3,) * 2)",
        "sthosvd(np.ones((3, 3)), 0.1)",
        "tucker_add(t((4, 4, 4)), t((3, 4, 4)))",
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(lriga.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import numpy as np\n"
            "from lriga.tucker import (BlockTuckerOperator, BlockTuckerVector, "
            "TuckerOperator3, TuckerTensor3, tucker_add)\n"
            "from lriga.truncation import sthosvd\n"
            "I = np.eye(2)\n"
            "op = TuckerOperator3(np.ones((1, 1, 1)), ((I,), (I,), (I,)))\n"
            "def t(n): return TuckerTensor3(np.ones((2, 2, 2)), "
            "tuple(np.ones((k, 2)) for k in n))\n"
            "for expr in %r:\n"
            "    try:\n        eval(expr)\n        print('built', expr)\n"
            "    except ValueError:\n        print('raised')\n" % (malformed,))
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["raised"] * len(malformed)


def test_identity_factor_inner_and_norm_qr_vs_dense():
    # the shared identity(n) and a plain np.eye(n) give the same numbers
    rng = np.random.default_rng(26)
    dims = (5, 4, 6)
    core = rng.standard_normal(dims)
    marked = TuckerTensor3(core, tuple(identity(n) for n in dims))
    plain = from_dense(core)
    y = random_tucker(rng, dims, (2, 5, 3))
    for a, b in [(marked, y), (y, marked), (marked, marked), (marked, plain)]:
        ref = np.dot(vec(to_dense(a)), vec(to_dense(b)))
        assert np.isclose(tucker_inner(a, b), ref, rtol=1e-12)
    for t in (marked, plain, y):
        assert np.isclose(tucker_norm_qr(t), np.linalg.norm(to_dense(t)), rtol=1e-12)


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
