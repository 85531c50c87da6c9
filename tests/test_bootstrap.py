import numpy as np
import pytest
from scipy.stats import ks_2samp

from baws.bootstrap import (
    BootstrapConfig,
    block_length,
    bootstrap_gaps,
    empirical_quantile,
    oversized_block,
)
from baws.scoring import (
    Mean,
    VaR,
    VaRES,
    fit_target,
    joint_score_at,
    order_index,
    window_stats,
)

from conftest import (block_resample, brute_force_var_es, direct_pinball, empirical_score,
                      iid_resample)


def threshold(window, target, cfg, time_index=0, seed=0):
    gaps, _ = bootstrap_gaps(window, target, cfg, time_index=time_index, seed=seed)
    return empirical_quantile(gaps, cfg.beta)


def test_iid_resample_basics():
    rng = np.random.default_rng(0)
    assert iid_resample([4.2], rng).tolist() == [4.2]
    w = np.array([1.0, 2.0, 5.0])
    out = iid_resample(w, rng)
    assert out.shape == (3,)
    assert set(out).issubset(set(w))
    with pytest.raises(ValueError):
        iid_resample([], rng)


def test_iid_resample_deterministic():
    a = iid_resample([1.0, 2.0], np.random.default_rng(7))
    b = iid_resample([1.0, 2.0], np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_iid_resample_law_of_large_numbers():
    rng = np.random.default_rng(1)
    w = np.array([0.0, 1.0])
    means = np.array([iid_resample(w, rng).mean() for _ in range(20_000)])
    assert means.mean() == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("i,c,expected", [
    (1000, 1.0, (10, 100)),
    (27, 1.0, (3, 9)),
    (5, 1.0, (2, 2)),
])
def test_block_length_examples(i, c, expected):
    assert block_length(i, c) == expected


def test_block_length_rounding_and_floor():
    assert block_length(27, 0.5)[0] == 2  # round-half-up of 1.5
    assert block_length(2, 0.1)[0] == 1  # floored at 1
    with pytest.raises(ValueError):
        block_length(0, 1.0)
    with pytest.raises(ValueError):
        block_length(10, -1.0)


def test_oversized_block_matches_full_scan():
    for c in (0.5, 1.0, 2.5, 4.0, 8.0, 10.0, 17.0):
        for k_min in range(2, 60):
            bad = [(i, block_length(i, c)[0]) for i in range(k_min, 500)
                   if block_length(i, c)[0] > i]
            assert oversized_block(k_min, c) == (bad[0] if bad else None)
            for max_window in (k_min, k_min + 3):
                within = [b for b in bad if b[0] <= max_window]
                assert oversized_block(k_min, c, max_window) == (
                    within[0] if within else None)


def test_block_resample_single_block():
    rng = np.random.default_rng(2)
    out = block_resample([1.0, 2.0, 3.0], 3, rng)
    assert out.tolist() == [1.0, 2.0, 3.0]


def test_block_resample_preserves_adjacency():
    rng = np.random.default_rng(3)
    w = np.arange(10.0)
    out = block_resample(w, 2, rng)
    assert out.shape == (10,)
    for start in range(0, 10, 2):
        a, b = out[start], out[start + 1]
        assert b - a == 1.0  # each block is a contiguous source pair


def test_block_resample_errors():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        block_resample([1.0, 2.0], 3, rng)


def test_block_resample_keeps_serial_dependence():
    rng = np.random.default_rng(5)
    n = 10_000
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0]
    for t in range(1, n):
        x[t] = 0.8 * x[t - 1] + eps[t]

    def lag1(series):
        a, b = series[:-1], series[1:]
        return np.corrcoef(a, b)[0, 1]

    l, _ = block_length(n, 1.0)
    resampled = block_resample(x, l, rng)
    assert abs(lag1(resampled) - lag1(x)) < 0.1


def test_empirical_quantile_examples():
    assert empirical_quantile(np.arange(1.0, 101.0), 0.9) == 90.0
    assert empirical_quantile([5.0], 0.3) == 5.0
    assert empirical_quantile(np.arange(1.0, 11.0), 0.95) == 10.0
    with pytest.raises(ValueError):
        empirical_quantile([], 0.5)
    with pytest.raises(ValueError):
        empirical_quantile([1.0], 1.0)


def test_empirical_quantile_monotone_in_beta():
    rng = np.random.default_rng(6)
    values = rng.normal(size=137)
    taus = [empirical_quantile(values, b) for b in np.linspace(0.05, 0.99, 30)]
    assert all(a <= b for a, b in zip(taus, taus[1:]))


@pytest.mark.parametrize("mode", ["iid", "block"])
@pytest.mark.parametrize("target", [Mean(), VaR(0.95), VaRES(0.95)])
def test_constant_window_threshold_is_exactly_zero(mode, target):
    cfg = BootstrapConfig(beta=0.9, replications=200, mode=mode)
    gaps, fit = bootstrap_gaps([3.3] * 40, target, cfg, seed=11)
    assert empirical_quantile(gaps, cfg.beta) == 0.0
    assert fit.window_length == 40
    assert gaps.shape == (200,)


@pytest.mark.parametrize("mode", ["iid", "block"])
def test_threshold_bit_identical_across_runs(mode):
    rng = np.random.default_rng(8)
    w = rng.normal(size=150)
    cfg = BootstrapConfig(beta=0.9, replications=300, mode=mode)
    for target in (Mean(), VaR(0.9), VaRES(0.9)):
        a = threshold(w, target, cfg, time_index=5, seed=99)
        b = threshold(w, target, cfg, time_index=5, seed=99)
        assert a == b
    # distinct stream per time index and per seed (Mean gaps are continuous,
    # so ties across streams have probability zero)
    a = threshold(w, Mean(), cfg, time_index=5, seed=99)
    c = threshold(w, Mean(), cfg, time_index=6, seed=99)
    d = threshold(w, Mean(), cfg, time_index=5, seed=98)
    assert c != a and d != a


def test_gaps_nonnegative_and_quantile_consistent():
    rng = np.random.default_rng(9)
    w = rng.standard_t(5, size=120)
    for mode in ("iid", "block"):
        for target in (Mean(), VaR(0.9), VaRES(0.9)):
            cfg = BootstrapConfig(beta=0.8, replications=250, mode=mode)
            gaps, fit = bootstrap_gaps(w, target, cfg, seed=3)
            assert gaps.shape == (250,)
            assert gaps.min() >= 0.0
            assert threshold(w, target, cfg, seed=3) == empirical_quantile(gaps, 0.8)


def test_threshold_shrinks_with_window_length():
    cfg = BootstrapConfig(beta=0.9, replications=200, mode="iid")
    wins = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        big = threshold(rng.standard_normal(1000), Mean(), cfg, time_index=trial)
        small = threshold(rng.standard_normal(100), Mean(), cfg, time_index=trial)
        wins += big < small
    assert wins >= 95


def test_var_iid_fast_path_matches_naive_resampling():
    # the order-statistic sampler must reproduce the distribution of
    # "resample, fit, score on the original window"
    rng = np.random.default_rng(10)
    w = rng.standard_normal(80)
    alpha = 0.9
    cfg = BootstrapConfig(beta=0.9, replications=4000, mode="iid")
    fast, fit = bootstrap_gaps(w, VaR(alpha), cfg, seed=21)

    naive_rng = np.random.default_rng(22)
    j = order_index(alpha, w.size)
    naive = np.empty(4000)
    for b in range(4000):
        res = np.sort(iid_resample(w, naive_rng))
        naive[b] = direct_pinball(w, res[j - 1], alpha) - fit.score
    assert naive.min() >= -1e-12
    # gaps live on atoms (one per sample point); snap away float noise so
    # the two-sample comparison sees the ties
    stat = ks_2samp(np.round(fast, 12), np.round(np.maximum(naive, 0), 12)).statistic
    assert stat < 0.04
    assert np.quantile(fast, 0.9) == pytest.approx(np.quantile(naive, 0.9), abs=5e-3)


def test_block_var_matches_naive_block_resampling():
    rng = np.random.default_rng(11)
    w = rng.standard_normal(90)
    alpha = 0.9
    cfg = BootstrapConfig(beta=0.9, replications=3000, mode="block", block_c=1.0)
    fast, fit = bootstrap_gaps(w, VaR(alpha), cfg, seed=31)

    l, m = block_length(w.size, 1.0)
    naive_rng = np.random.default_rng(32)
    j = order_index(alpha, m * l)
    naive = np.empty(3000)
    for b in range(3000):
        res = np.sort(block_resample(w, l, naive_rng))
        naive[b] = direct_pinball(w, res[j - 1], alpha) - fit.score
    stat = ks_2samp(np.round(fast, 12), np.round(np.maximum(naive, 0), 12)).statistic
    assert stat < 0.045


def test_vares_gaps_match_naive_loop():
    rng = np.random.default_rng(12)
    w = rng.standard_normal(60)
    cfg = BootstrapConfig(beta=0.9, replications=1500, mode="iid")
    fast, fit = bootstrap_gaps(w, VaRES(0.9), cfg, seed=41)

    naive_rng = np.random.default_rng(42)
    naive = np.empty(1500)
    for b in range(1500):
        res = iid_resample(w, naive_rng)
        theta = fit_target(res, VaRES(0.9)).theta
        naive[b] = empirical_score(w, theta, VaRES(0.9)) - fit.score
    assert naive.min() >= -1e-12
    assert ks_2samp(fast, naive).statistic < 0.06


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("L", [10, 12, 19, 20, 40, 57])
@pytest.mark.parametrize("alpha", [0.9, 0.95])
def test_vares_resample_gaps_match_row_fits(L, alpha):
    # coarse values force ties, and alpha * L is integral for L in {10, 20, 40}
    rng = np.random.default_rng(L)
    stats = window_stats(np.round(rng.standard_t(4, size=L), 1))
    rows = stats.values_sorted[rng.integers(0, L, size=(60, L))]
    target = VaRES(alpha)
    fit = target.fit(stats)
    gaps = target.resample_gaps(stats, rows.copy(), fit)
    row_fits = [fit_target(row, target) for row in rows]
    expected = [joint_score_at(stats, *f.theta, alpha) - fit.score for f in row_fits]
    np.testing.assert_allclose(gaps, expected, rtol=0, atol=1e-12)
    if L <= 12:
        for row, f in zip(rows[:15], row_fits):
            assert f.score == pytest.approx(brute_force_var_es(row, alpha)[2], abs=1e-9)


def test_null_exceedance_rate_small_reference():
    # with a reference window much shorter than the candidate, the pairwise
    # type-I error under iid data approaches 1 - beta
    beta = 0.9
    k, i = 500, 25
    cfg = BootstrapConfig(beta=beta, replications=300, mode="iid")
    exceed = 0
    trials = 400
    for trial in range(trials):
        rng = np.random.default_rng(5000 + trial)
        x = rng.standard_normal(k)
        stat = (empirical_score(x[-i:], fit_target(x, Mean()).theta, Mean())
                - fit_target(x[-i:], Mean()).score)
        tau = threshold(x[-i:], Mean(), cfg, time_index=trial, seed=7)
        exceed += stat > tau
    rate = exceed / trials
    assert 0.5 * (1 - beta) <= rate <= 2.0 * (1 - beta)

