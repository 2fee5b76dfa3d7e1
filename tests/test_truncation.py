"""Error-bound and rank behaviour of the truncation operators."""

import numpy as np
import pytest

from lriga.elasticity import BlockTuckerVector
from lriga.truncation import sthosvd, truncate_dynamic, truncate_rel
from lriga.tucker import (
    from_dense,
    to_dense,
    tucker_add,
    tucker_norm,
    tucker_zero,
    vec,
)

from util import random_tucker


def _orthonormal(U):
    return np.allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-12)


def test_sthosvd_error_bound():
    rng = np.random.default_rng(10)
    for _ in range(25):
        X = rng.standard_normal((8, 9, 7))
        for eps in (0.5, 1e-1, 1e-3, 1e-8):
            t = sthosvd(X, eps)
            err = np.linalg.norm(to_dense(t) - X)
            assert err <= eps * np.linalg.norm(X) * (1 + 1e-12)
            assert all(_orthonormal(U) for U in t.factors)


def test_sthosvd_eps_zero_is_exact_full_rank():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((5, 4, 6))
    t = sthosvd(X, 0.0)
    assert t.rank == (5, 4, 6)
    assert np.allclose(to_dense(t), X, atol=1e-12)


def test_sthosvd_zero_tensor():
    t = sthosvd(np.zeros((4, 5, 6)), 1e-3)
    assert t.rank == (1, 1, 1)
    assert np.all(to_dense(t) == 0.0)


def test_sthosvd_recovers_exact_low_rank():
    rng = np.random.default_rng(12)
    x = random_tucker(rng, (12, 11, 10), (3, 2, 4))
    t = sthosvd(to_dense(x), 1e-10)
    assert t.rank == (3, 2, 4)


def test_truncate_rel_error_bound():
    rng = np.random.default_rng(13)
    for _ in range(60):
        dims = tuple(rng.integers(3, 13, 3))
        ranks = tuple(rng.integers(1, 6, 3))
        y = random_tucker(rng, dims, ranks)
        nrm = tucker_norm(y)
        for eps in (1e-1, 1e-3, 1e-6):
            t = truncate_rel(y, eps)
            err = np.linalg.norm(to_dense(t) - to_dense(y))
            assert err <= eps * nrm * (1 + 1e-10)
            assert all(_orthonormal(U) for U in t.factors)


def test_truncate_rel_rank_exceeding_dims():
    # nominal rank above the mode sizes must be handled (and reduced)
    rng = np.random.default_rng(14)
    y = random_tucker(rng, (5, 4, 3), (8, 9, 7))
    t = truncate_rel(y, 1e-12)
    assert all(r <= n for r, n in zip(t.rank, t.dims))
    assert np.allclose(to_dense(t), to_dense(y), atol=1e-10)


def test_truncate_rel_compresses_redundant_sum():
    rng = np.random.default_rng(15)
    x = random_tucker(rng, (9, 8, 7), (2, 3, 2))
    doubled = tucker_add(x, x)  # rank doubles, same tensor up to scale
    t = truncate_rel(doubled, 1e-12)
    assert t.rank == (2, 3, 2)
    assert np.allclose(to_dense(t), 2.0 * to_dense(x), atol=1e-9)


def test_truncate_rel_zero():
    t = truncate_rel(tucker_zero((4, 4, 4)), 1e-2)
    assert t.rank == (1, 1, 1)
    assert np.all(to_dense(t) == 0.0)


# The dynamic truncation is written against the vector interface, so each
# contract holds for a Tucker tensor and for a three-component block vector.
# The block case stacks power-of-two multiples of the scalar case's tensor:
# the data stay those of the scalar case (relative truncation is scale
# invariant and the scalings are exact) while the arithmetic runs through
# the block vector.  Independent components are tested further below.
KINDS = ["tucker", "block"]


def _vector(kind, make):
    """make() builds one TuckerTensor3; a block vector scales it thrice."""
    t = make()
    if kind == "tucker":
        return t
    return BlockTuckerVector((t, 2.0 * t, -0.5 * t))


def _dense(y):
    return np.stack([to_dense(c) for c in y.components])


@pytest.mark.parametrize("kind", KINDS)
def test_truncate_dynamic_accepts_clean_proposal(kind):
    # proposal is exactly low rank, just stored redundantly: the first
    # truncation reproduces it and must be accepted at the initial tolerance
    rng = np.random.default_rng(16)
    prev = _vector(kind, lambda: random_tucker(rng, (8, 8, 8), (2, 2, 2)))
    step = _vector(kind, lambda: random_tucker(rng, (8, 8, 8), (1, 1, 1)))
    prop = prev + step
    y, eps_new = truncate_dynamic(prev, prop, 1e-1, 0.5, 1e-6, 1e-3)
    assert eps_new == 1e-1
    assert np.allclose(_dense(y), _dense(prop), atol=1e-8)


@pytest.mark.parametrize("kind", KINDS)
def test_truncate_dynamic_stagnant_proposal(kind):
    # an exactly-zero update must be accepted as-is (no division by zero in v)
    prev = _vector(kind, lambda: tucker_zero((6, 6, 6)))
    prop = _vector(kind, lambda: tucker_zero((6, 6, 6)))
    y, eps_new = truncate_dynamic(prev, prop, 1e-2, 0.5, 1e-8, 1e-3)
    assert eps_new == 1e-2
    assert np.all(_dense(y) == 0.0)

    # a proposal differing from the previous iterate only by roundoff is
    # still legal input: the result must satisfy the documented invariants
    rng = np.random.default_rng(17)
    prev = _vector(kind, lambda: random_tucker(rng, (6, 6, 6), (2, 2, 2)))
    prop = prev + 0.0 * prev
    y, eps_new = truncate_dynamic(prev, prop, 1e-2, 0.5, 1e-8, 1e-3)
    assert 0.5 * 1e-8 <= eps_new <= 1e-2
    assert np.allclose(_dense(y), _dense(prev), atol=1e-10)


@pytest.mark.parametrize("kind", KINDS)
def test_truncate_dynamic_runs_to_floor(kind):
    # delta = 0 makes acceptance impossible, so the tolerance walks down by
    # factors of alpha and stops just above the floor
    rng = np.random.default_rng(18)
    prev = _vector(kind, lambda: tucker_zero((7, 7, 7)))
    prop = _vector(kind, lambda: from_dense(rng.standard_normal((7, 7, 7))))
    eps, alpha, eps_min = 1e-1, 0.5, 1e-3
    y, eps_new = truncate_dynamic(prev, prop, eps, alpha, eps_min, 0.0)
    assert eps_min < eps_new <= eps
    assert alpha * eps_new <= eps_min
    m = round(np.log(eps_new / eps) / np.log(alpha))
    assert np.isclose(eps_new, eps * alpha ** m, rtol=1e-12)
    # the accepted iterate is the truncation at the returned tolerance
    err = np.linalg.norm(_dense(y) - _dense(prop))
    assert err <= eps_new * prop.norm() * (1 + 1e-10)


@pytest.mark.parametrize("kind", KINDS)
def test_truncate_dynamic_floor_blocks_reduction(kind):
    # alpha * eps already below the floor: no reduction is permitted even
    # for a hopeless proposal, and the input tolerance comes back
    rng = np.random.default_rng(19)
    prev = _vector(kind, lambda: tucker_zero((6, 6, 6)))
    prop = _vector(kind, lambda: from_dense(rng.standard_normal((6, 6, 6))))
    y, eps_new = truncate_dynamic(prev, prop, 0.5, 0.5, 0.4, 0.0)
    assert eps_new == 0.5


def test_truncate_dynamic_block_tests_globally_truncates_per_component():
    # component 0 carries a large, exactly representable update, component
    # 1 a tiny update that truncation at the shared tolerance destroys.
    # Judged alone, component 1 would tighten the tolerance; the global
    # (component-summed) projection coefficient accepts the first try, and
    # every component is truncated at that one tolerance.
    rng = np.random.default_rng(20)
    dims = (6, 6, 6)
    prev = BlockTuckerVector((
        random_tucker(rng, dims, (2, 2, 2)),
        random_tucker(rng, dims, (2, 2, 2)),
        tucker_zero(dims),
    ))
    step = BlockTuckerVector((
        random_tucker(rng, dims, (1, 1, 1)),
        1e-3 * from_dense(rng.standard_normal(dims)),
        tucker_zero(dims),
    ))
    prop = prev + step
    eps, delta = 1e-1, 1e-3
    y, eps_new = truncate_dynamic(prev, prop, eps, 0.5, 1e-6, delta)

    assert eps_new == eps
    for got, c in zip(y.components, prop.components):
        assert np.array_equal(to_dense(got), to_dense(truncate_rel(c, eps)))

    def v(dy_exact, dy):
        return dy_exact.inner(dy) / dy_exact.inner(dy_exact)

    dy_exact, dy = step.components[1], y.components[1] - prev.components[1]
    assert abs(v(dy_exact, dy) - 1.0) >= delta
    assert abs(v(step, y - prev) - 1.0) < delta
