"""Exponential-sum construction: accuracy, ranks, and timing."""

import functools
import re
import time
import tracemalloc

import numpy as np
import pytest

from lriga import expsum
from lriga.expsum import ExpSumError, _exp_sum, build_exp_sum
import util

linear_scan = functools.lru_cache(maxsize=None)(util.exp_sum_linear_scan)


def check_grid(es, n=100_000):
    lam = np.logspace(0, np.log10(es.M), n)
    return np.max(np.abs(util.expsum_values(es, lam) - 1.0 / lam))


def test_single_point_interval():
    es = build_exp_sum(7.0, 7.0, 1e-1)
    assert es.R == 1
    assert es.error <= 1e-3
    value = util.expsum_values(es, np.array([1.0]))[0]
    assert np.isclose(float(value), 1.0, atol=1e-12)


def test_moderate_interval_accuracy():
    es = build_exp_sum(1.0, 1e3, 1e-2)
    assert check_grid(es) <= 1e-2 / 1e3
    assert np.all(es.weights > 0) and np.all(es.exponents > 0)


@pytest.mark.parametrize(
    "M,reference_rank",
    [(1.6e4, 11), (2.6e5, 16)],
)
def test_table_scale_instances(M, reference_rank):
    t0 = time.time()
    es = build_exp_sum(1.0, M, 1e-1)
    elapsed = time.time() - t0
    assert check_grid(es) <= 1e-1 / M
    assert es.R <= 2 * reference_rank, es.R
    assert elapsed < 10.0
    # the classical bound at the accepted rank is reportable and finite
    assert np.isfinite(util.apriori_sup_bound(es.R, M))


def test_error_decreases_with_tighter_tolerance():
    r1 = build_exp_sum(1.0, 1e4, 1e-1).R
    r2 = build_exp_sum(1.0, 1e4, 1e-3).R
    assert r2 >= r1


def test_rank_cap_raises():
    # the a-priori floor here is 133 terms, above R_CAP = 128, so no fit runs
    with pytest.raises(ExpSumError):
        build_exp_sum(1.0, 1e12, 1e-8)


def test_same_ratio_returns_the_shared_instance():
    es = build_exp_sum(1.0, 1e3, 1e-1)
    assert build_exp_sum(4.0, 4e3, 1e-1) is es
    assert _exp_sum(1e3, 1e-1) is es


def test_shared_arrays_are_read_only():
    es = build_exp_sum(1.0, 2e3, 1e-1)
    with pytest.raises(ValueError):
        es.weights[0] = 0.0
    with pytest.raises(ValueError):
        es.exponents[:] = 1.0


def test_cached_fit_equals_fresh_fit():
    for M, eps in ((1.0, 1e-1), (3e3, 1e-1), (5e4, 1e-3)):
        cached = build_exp_sum(1.0, M, eps)
        fresh = _exp_sum.__wrapped__(M, eps)
        assert fresh is not cached
        assert np.array_equal(fresh.weights, cached.weights)
        assert np.array_equal(fresh.exponents, cached.exponents)
        assert (fresh.M, fresh.error) == (cached.M, cached.error)


def test_errors_are_not_cached():
    size = _exp_sum.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ExpSumError):
            build_exp_sum(1.0, 1e12, 1e-8)
    assert _exp_sum.cache_info().currsize == size


def assert_same_sum(a, b):
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.exponents, b.exponents)
    assert (a.M, a.error) == (b.M, b.error)


# (4682, 1e-1) fails at 14, then passes at 16 and 15: the search must not
# return a passing rank before the rank below it has failed.  (1e6, 1e-1)
# keeps 30 terms.
RANK_SEARCH_CASES = (
    [(M, eps) for M in (3.67, 53.6, 783.0, 1.15e4, 1.67e5) for eps in (1e-1, 1e-3)]
    + [(4682.0, 1e-1), (1e6, 1e-1)]
)


@pytest.mark.parametrize("M,eps", RANK_SEARCH_CASES)
def test_rank_search_equals_linear_scan(M, eps):
    assert_same_sum(expsum._fit(M, eps, 128), linear_scan(M, eps))


def record_ranks(monkeypatch, module, name):
    """Patch the grid search ``module.name`` to record each rank it fits."""
    ranks = []
    grid_search = getattr(module, name)

    def counted(R, M, tau):
        ranks.append(R)
        return grid_search(R, M, tau)

    monkeypatch.setattr(module, name, counted)
    return ranks


def test_rank_search_evaluation_count(monkeypatch):
    # the linear scan fits ranks 24..40 here (17 grid searches); the
    # search from the predicted rank fits 39 and 40
    ranks = record_ranks(monkeypatch, expsum, "_best_for_rank")
    expsum._fit(1.625e5, 1e-3, 128)
    assert len(ranks) <= 3, ranks
    assert len(set(ranks)) == len(ranks)


@pytest.mark.parametrize("M,eps", RANK_SEARCH_CASES)
def test_rank_search_from_prediction_is_short(monkeypatch, M, eps):
    ranks = record_ranks(monkeypatch, expsum, "_best_for_rank")
    expsum._fit(M, eps, 128)
    assert len(ranks) <= 3, ranks
    assert len(set(ranks)) == len(ranks)


def test_rank_walk_takes_unit_steps(monkeypatch):
    # the model predicts rank 26 here, two below the answer: the walk
    # climbs one rank at a time and stops at the first passing rank
    ranks = record_ranks(monkeypatch, expsum, "_best_for_rank")
    expsum._fit(9.1, 1e-6, 128)
    assert ranks[0] == expsum._predicted_rank(9.1, 1e-6 / 9.1, 1, 128)
    assert len(ranks) > 2 and ranks == list(range(ranks[0], ranks[-1] + 1)), ranks


def test_rank_walk_descends_in_unit_steps(monkeypatch):
    # the model predicts rank 15 here, two above the answer: the walk
    # descends one rank at a time until the rank below the answer fails
    ranks = record_ranks(monkeypatch, expsum, "_best_for_rank")
    es = expsum._fit(1.5, 1e-6, 128)
    assert ranks[0] == expsum._predicted_rank(1.5, 1e-6 / 1.5, 1, 128)
    assert len(ranks) > 2 and ranks == list(range(ranks[0], ranks[-1] - 1, -1)), ranks
    assert_same_sum(es, linear_scan(1.5, 1e-6))


def test_tight_tolerance_fit_is_short(monkeypatch):
    # fitted on eps_rel 1e-1..1e-3 alone, the model started 14 ranks low
    # here and the walk fitted 15 ranks
    ranks = record_ranks(monkeypatch, expsum, "_best_for_rank")
    expsum._fit(1e4, 1e-6, 128)
    assert len(ranks) <= 4, ranks


@pytest.mark.parametrize("M,eps,lo,r_cap,want", [
    (1.625e5, 1e-3, 24, 128, 39),  # the model gives 39.32
    (1.625e5, 1e-3, 24, 30, 30),   # clamped to the cap
    (1.5, 1.0, 1, 128, 1),         # 0.07, raised to the floor
    (1.5, 1e-1, 1, 128, 1),        # 1.06, at the floor
    (1.5, 1e-1, 3, 128, 3),        # raised to the floor
])
def test_predicted_rank_is_clamped(M, eps, lo, r_cap, want):
    assert expsum._predicted_rank(M, eps / M, lo, r_cap) == want


# Accepted ranks at M = geomspace(1.5, 1e6, 16), one row per eps_rel: the
# table the coefficients of _predicted_rank were fitted on, from
# util.accepted_rank_table(np.geomspace(1.5, 1e6, 16), list(ACCEPTED_RANKS)).
ACCEPTED_RANKS = {
    1e-1: (1, 2, 3, 4, 5, 7, 9, 11, 12, 15, 16, 20, 23, 26, 28, 32),
    1e-2: (2, 4, 5, 6, 8, 10, 12, 14, 17, 19, 21, 24, 28, 31, 34, 38),
    1e-3: (4, 7, 9, 11, 13, 15, 18, 20, 23, 26, 29, 33, 36, 40, 43, 47),
    1e-4: (6, 11, 15, 16, 20, 22, 25, 28, 31, 35, 38, 42, 45, 50, 54, 58),
    1e-5: (9, 17, 21, 23, 27, 30, 33, 37, 40, 44, 48, 52, 56, 61, 65, 70),
    1e-6: (13, 23, 28, 31, 35, 39, 43, 46, 50, 55, 59, 63, 68, 73, 78, 83),
}


@pytest.mark.parametrize("eps", list(ACCEPTED_RANKS))
def test_predicted_rank_matches_table(eps):
    # two ranks off at most, so no walk over the table fits more than four
    for M, accepted in zip(np.geomspace(1.5, 1e6, 16), ACCEPTED_RANKS[eps]):
        guess = expsum._predicted_rank(M, eps / M, 1, 128)
        assert abs(guess - accepted) <= 2, (M, eps, guess, accepted)


def test_sup_error_memory_is_blocked():
    # the setup sweep's largest sum: as one 100,000 x R matrix the fine
    # check traced 28 MB
    es = build_exp_sum(1.0, 1.625e5, 1e-3)
    assert es.R >= 30
    tracemalloc.start()
    try:
        expsum._sup_error(es.weights, es.exponents, es.M, 100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6, peak


@pytest.mark.parametrize("n", [1, 4095, expsum.BLOCK_ROWS + 1, 100_000])
def test_call_is_blocked_bit_for_bit(n):
    # the sum is its terms added up; the fine check, blocked, reads the
    # bits of the unblocked evaluation
    es = build_exp_sum(1.0, 1.625e5, 1e-3)
    lam = np.geomspace(1.0, es.M, n)
    terms = sum(w * np.exp(-a * lam) for w, a in zip(es.weights, es.exponents))
    assert np.allclose(util.expsum_values(es, lam), terms, rtol=1e-13,
                       atol=0.0)
    lam = np.logspace(0.0, np.log10(es.M), n)
    want = np.max(np.abs(util.expsum_values(es, lam) - 1.0 / lam))
    assert expsum._sup_error(es.weights, es.exponents, es.M, n) == want


@pytest.mark.parametrize("lam_min,lam_max,eps_rel,named", [
    (0.0, 1.0, 0.1, "lam_min = 0.0"),
    (-1.0, 1.0, 0.1, "lam_min = -1.0"),
    (2.0, 1.0, 0.1, "lam_min = 2.0, lam_max = 1.0"),
    (1.0, 2.0, 0.0, "eps_rel > 0, got 0.0"),
    (1.0, 2.0, -1e-3, "eps_rel > 0, got -0.001"),
])
def test_bad_input_raises(lam_min, lam_max, eps_rel, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        build_exp_sum(lam_min, lam_max, eps_rel)


def test_rank_cap_edges(monkeypatch):
    # the scan accepts rank 20 here and keeps 16 nonzero terms
    M, eps = 783.0, 1e-3
    ranks = record_ranks(monkeypatch, util, "best_for_rank_full_grid")
    ref = util.exp_sum_linear_scan(M, eps)
    rank = ranks[-1]
    assert rank > ref.R
    assert_same_sum(expsum._fit(M, eps, rank), ref)
    with pytest.raises(ExpSumError):
        expsum._fit(M, eps, rank - 1)
    with pytest.raises(ExpSumError):
        expsum._fit(1e12, 1e-8, 3)
