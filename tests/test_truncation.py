"""Error-bound and rank behaviour of the truncation operators."""

import numpy as np
import pytest

from lriga import truncation
from lriga.elasticity import BlockTuckerVector
from lriga.truncation import sthosvd, truncate_dynamic, truncate_rel
from lriga.tucker import (
    TuckerTensor3,
    identity,
    to_dense,
    tucker_add,
    tucker_matvec,
    tucker_zero,
    vec,
)

from oracle import from_dense
from util import random_operator, random_tucker, sthosvd_full_svd


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


@pytest.mark.parametrize("eps", [-0.5, -1e-300, np.nan])
def test_negative_or_nan_eps_raises(eps):
    # -0.5 once acted as 0.5, and NaN silently returned rank (1,1,1) with a
    # 14% error; a zero tensor, which returns early, is refused as well
    rng = np.random.default_rng(28)
    x = random_tucker(rng, (5, 5, 5), (2, 2, 2))
    for truncate, arg in ((truncate_rel, x), (sthosvd, to_dense(x)),
                          (sthosvd, np.zeros((3, 3, 3)))):
        with pytest.raises(ValueError, match="eps >= 0"):
            truncate(arg, eps)


def test_sthosvd_zero_tensor():
    t = sthosvd(np.zeros((4, 5, 6)), 1e-3)
    assert t.rank == (1, 1, 1)
    assert np.all(to_dense(t) == 0.0)


def test_sthosvd_recovers_exact_low_rank():
    rng = np.random.default_rng(12)
    x = random_tucker(rng, (12, 11, 10), (3, 2, 4))
    t = sthosvd(to_dense(x), 1e-10)
    assert t.rank == (3, 2, 4)


def _unfolding_singular_values(core, k):
    return np.linalg.svd(np.moveaxis(core, k, 0).reshape(core.shape[k], -1),
                         compute_uv=False)


def _oracle_cases():
    rng = np.random.default_rng(21)
    # wide unfoldings in every mode, a square cube, and shapes whose first
    # (then later) unfolding is tall so the direct-SVD branch runs
    for shape in [(8, 9, 7), (6, 6, 6), (40, 3, 4), (3, 40, 4), (2, 3, 30)]:
        yield "random%s" % (shape,), rng.standard_normal(shape), None
    # a spectrum decaying over six orders, so every eps cuts somewhere
    x = rng.standard_normal((12, 11, 10))
    for k, n in enumerate(x.shape):
        x = np.moveaxis(np.moveaxis(x, k, -1) * np.logspace(0, -6, n), -1, k)
    yield "graded", x, None
    x = to_dense(random_tucker(rng, (9, 10, 11), (2, 3, 2)))
    yield "rank(2,3,2)", x, (2, 3, 2)
    yield "zero", np.zeros((5, 6, 7)), (1, 1, 1)


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-10, 1e-6, 1e-1])
def test_sthosvd_matches_full_svd_oracle(eps):
    # the QR-first ST-HOSVD against the thin-SVD one: same kept ranks
    # (the exact rank for an exactly low-rank X at every eps > 0),
    # the same error bound, the same multilinear singular values of the
    # core, and at eps = 0 full rank with X reproduced to 10 eps_mach |X|.
    # (That last bound is checked against X, not the oracle: the oracle's
    # own reconstruction misses X by up to ~31 eps_mach |X| on "graded".)
    tiny = np.finfo(float).eps
    for name, X, exact_rank in _oracle_cases():
        got, ref = sthosvd(X, eps), sthosvd_full_svd(X, eps)
        nrm = np.linalg.norm(X)
        assert got.rank == ref.rank, name
        if exact_rank is not None and eps > 0.0:
            assert got.rank == exact_rank, name
        assert all(_orthonormal(U) for U in got.factors), name
        err = np.linalg.norm(to_dense(got) - X)
        assert err <= max(eps * nrm * (1 + 1e-12), 10 * tiny * nrm), name
        for k in range(3):
            assert np.allclose(
                _unfolding_singular_values(got.core, k),
                _unfolding_singular_values(ref.core, k),
                rtol=0.0, atol=1e-12 * nrm,
            ), (name, k)
        if eps == 0.0:
            full = tuple(min(n, X.size // n) for n in X.shape)
            assert got.rank == full or nrm == 0.0, name
            assert err <= 10 * tiny * nrm, name


def _count_gram(monkeypatch):
    """Counts of certified Gram ranks and R-SVD fallbacks in sthosvd."""
    counts = {"gram": 0, "rsvd": 0}
    gram_rank = truncation._gram_rank

    def counted(*args):
        U = gram_rank(*args)
        counts["rsvd" if U is None else "gram"] += 1
        return U

    monkeypatch.setattr(truncation, "_gram_rank", counted)
    return counts


def _graded(rng, shape, decades):
    x = rng.standard_normal(shape)
    for k, n in enumerate(shape):
        x = np.moveaxis(np.moveaxis(x, k, -1) * np.logspace(0, -decades, n), -1, k)
    return x


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-10])
def test_sthosvd_gram_path_matches_full_svd(monkeypatch, eps):
    # the certified Gram rank is the SVD's rank, and the error bound holds;
    # at eps 1e-10 every budget is within rounding of W W^T and every wide
    # unfolding takes the R-SVD
    counts = _count_gram(monkeypatch)
    rng = np.random.default_rng(27)
    for _ in range(40):
        shape = tuple(rng.integers(3, 14, 3))
        X = _graded(rng, shape, rng.uniform(1.0, 12.0))
        got, ref = sthosvd(X, eps), sthosvd_full_svd(X, eps)
        assert got.rank == ref.rank
        assert np.linalg.norm(to_dense(got) - X) <= eps * np.linalg.norm(X)
        assert all(_orthonormal(U) for U in got.factors)
    if eps == 1e-10:
        assert counts["gram"] == 0 and counts["rsvd"] > 0
    else:
        assert counts["gram"] > 0


def test_sthosvd_gram_falls_back_when_tail_meets_budget(monkeypatch):
    # mode-0 spectrum s with the budget set to the tail after three values:
    # the computed tail is within the rounding slack of budget^2, so the
    # Gram rank cannot be certified and the R-SVD decides
    counts = _count_gram(monkeypatch)
    rng = np.random.default_rng(28)
    s = np.array([1.0, 0.5, 0.1, 0.01, 0.005, 0.001])
    U = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    V = np.linalg.qr(rng.standard_normal((56, 6)))[0]
    X = ((U * s) @ V.T).reshape(6, 7, 8)
    nrm = np.linalg.norm(X)
    eps = np.sqrt(3.0 * np.sum(s[3:] ** 2)) / nrm
    t = sthosvd(X, eps)
    assert counts["rsvd"] >= 1
    assert t.rank[0] in (3, 4)
    assert np.linalg.norm(to_dense(t) - X) <= eps * nrm * (1 + 1e-10)


def test_truncate_rel_of_capped_matvec_makes_no_qr(monkeypatch):
    # every mode of the image is at its cap: identity factors, no factor
    # QR in the image or in its rounding, and a certified Gram rank
    rng = np.random.default_rng(29)
    dims = (6, 7, 5)
    x = random_tucker(rng, dims, (2, 3, 3))
    op = random_operator(rng, dims, (3, 3, 2))
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
    y = tucker_matvec(op, x)
    assert all(U is identity(n) for U, n in zip(y.factors, dims))
    t = truncate_rel(y, 1e-2)
    assert calls == []
    assert all(_orthonormal(U) for U in t.factors)
    ref = to_dense(y)
    assert np.linalg.norm(to_dense(t) - ref) <= 1e-2 * np.linalg.norm(ref)


def test_truncate_rel_error_bound():
    rng = np.random.default_rng(13)
    for _ in range(60):
        dims = tuple(rng.integers(3, 13, 3))
        ranks = tuple(rng.integers(1, 6, 3))
        y = random_tucker(rng, dims, ranks)
        nrm = y.norm()
        for eps in (1e-1, 1e-3, 1e-6):
            t = truncate_rel(y, eps)
            err = np.linalg.norm(to_dense(t) - to_dense(y))
            assert err <= eps * nrm * (1 + 1e-10)
            assert all(_orthonormal(U) for U in t.factors)


def test_truncate_rel_small_difference_dense_oracle():
    # x - (x + d) with |d| = 1e-4 |x|: the regime of the loop's first
    # truncations (eta = 0.1 tol / res, small), where the rounding must
    # recover -d to eps = 1e-10 relative to the difference itself
    rng = np.random.default_rng(23)
    dims = (11, 10, 9)
    x = random_tucker(rng, dims, (3, 4, 3))
    d = random_tucker(rng, dims, (2, 3, 2))
    d = (1e-4 * x.norm() / d.norm()) * d
    y = x - (x + d)
    truth = -to_dense(d)
    eps = 1e-10
    t = truncate_rel(y, eps)
    assert t.rank == (2, 3, 2)
    err = np.linalg.norm(to_dense(t) - truth)
    assert err <= eps * np.linalg.norm(truth)


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
    y, eps_new = truncate_dynamic(prev, step, 1e-1, 0.5, 1e-6, 1e-3)
    assert eps_new == 1e-1
    assert np.allclose(_dense(y), _dense(prop), atol=1e-8)


@pytest.mark.parametrize("kind", KINDS)
def test_truncate_dynamic_stagnant_proposal(kind):
    # an exactly-zero update must be accepted as-is (no division by zero in v)
    prev = _vector(kind, lambda: tucker_zero((6, 6, 6)))
    step = _vector(kind, lambda: tucker_zero((6, 6, 6)))
    y, eps_new = truncate_dynamic(prev, step, 1e-2, 0.5, 1e-8, 1e-3)
    assert eps_new == 1e-2
    assert np.all(_dense(y) == 0.0)

    # a step that is an exactly-zero multiple of the previous iterate is
    # still legal input: the result must satisfy the documented invariants
    rng = np.random.default_rng(17)
    prev = _vector(kind, lambda: random_tucker(rng, (6, 6, 6), (2, 2, 2)))
    step = 0.0 * prev
    y, eps_new = truncate_dynamic(prev, step, 1e-2, 0.5, 1e-8, 1e-3)
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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("size", [1e-8, 1e-10])
def test_truncate_dynamic_accepts_tight_step(kind, size):
    # a step in prev's factor span survives the first truncation however
    # small it is next to prev, so its alignment test passes at once
    rng = np.random.default_rng(21)
    prev = _vector(kind, lambda: random_tucker(rng, (8, 8, 8), (2, 2, 2)))
    prev = (1.0 / prev.norm()) * prev
    step = [TuckerTensor3(rng.standard_normal((2, 2, 2)),
                          tuple(F @ rng.standard_normal((2, 2)) for F in c.factors))
            for c in prev.components]
    step = step[0] if kind == "tucker" else BlockTuckerVector(tuple(step))
    step = (size / step.norm()) * step
    _, eps_new = truncate_dynamic(prev, step, 1e-1, 0.5, 1e-12, 1e-3)
    assert eps_new == 1e-1


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
    y, eps_new = truncate_dynamic(prev, step, eps, 0.5, 1e-6, delta)

    assert eps_new == eps
    for got, c in zip(y.components, prop.components):
        assert np.array_equal(to_dense(got), to_dense(truncate_rel(c, eps)))

    def v(dy_exact, dy):
        return dy_exact.inner(dy) / dy_exact.inner(dy_exact)

    dy_exact, dy = step.components[1], y.components[1] - prev.components[1]
    assert abs(v(dy_exact, dy) - 1.0) >= delta
    assert abs(v(step, y - prev) - 1.0) < delta
