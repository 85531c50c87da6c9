import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

import baws
from baws import bootstrap
from baws.bootstrap import (
    BootstrapConfig,
    block_length,
    bootstrap_gaps,
    empirical_quantile,
    guarded_gaps,
    oversized_block,
)
from baws.errors import ConfigError
from baws.scoring import (
    Mean,
    VaR,
    VaRES,
    fit_target,
    joint_score_at,
    order_index,
    pinball_score_at,
    window_stats,
)

from conftest import (block_resample, brute_force_var_es, direct_pinball, empirical_score,
                      iid_resample, oneshot_bootstrap_gaps, row_length)


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


@pytest.mark.parametrize("block_c", [0.0, -1.0, float("nan"), float("inf")])
def test_block_constant_must_be_positive_and_finite(block_c):
    # NaN and inf would otherwise fail only once a block length is computed
    with pytest.raises(ConfigError, match="block_c"):
        BootstrapConfig(mode="block", block_c=block_c)


def test_block_constant_applies_to_block_mode_only():
    with pytest.raises(ConfigError, match="block_c applies to bootstrap mode 'block' only"):
        BootstrapConfig(mode="iid", block_c=2.0)
    assert BootstrapConfig(mode="iid").block_c is None
    # block mode fills in its default, so an explicit default is the same policy
    assert BootstrapConfig(mode="block") == BootstrapConfig(mode="block", block_c=1.0)


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


@pytest.mark.parametrize("L", [10, 12, 19, 20, 40, 57])
@pytest.mark.parametrize("alpha", [0.9, 0.95])
def test_vares_resample_gaps_match_row_fits(L, alpha):
    # coarse values force ties, and alpha * L is integral for L in {10, 20, 40}
    rng = np.random.default_rng(L)
    stats = window_stats(np.round(rng.standard_t(4, size=L), 1))
    ranks = rng.integers(0, L, size=(60, L)).astype(np.int32)
    rows = stats.values_sorted[ranks]
    target = VaRES(alpha)
    fit = target.fit(stats)
    gaps = target.row_gaps(stats, fit)(ranks)
    fits = [fit_target(row, target) for row in rows]
    expected = [joint_score_at(stats, *f.theta, alpha) - fit.score for f in fits]
    np.testing.assert_allclose(gaps, expected, rtol=0, atol=1e-12)
    if L <= 12:
        for row, f in zip(rows[:15], fits):
            assert f.score == pytest.approx(brute_force_var_es(row, alpha)[2], abs=1e-9)


@pytest.mark.parametrize("mode", ["iid", "block"])
@pytest.mark.parametrize("target", [Mean(), VaR(0.95), VaRES(0.95)], ids=str)
@pytest.mark.parametrize("n", [1, 20, 999, 1000, 2500])
@pytest.mark.parametrize("B", [1, 200])
def test_row_blocks_match_oneshot_oracle(mode, target, n, B):
    cfg = BootstrapConfig(replications=B, mode=mode)
    L = row_length(n, target, cfg)
    if B > 1 and n >= 999 and L > 1:  # iid VaR's rows of one rank fill one block
        # every row holds int32 ranks, whatever the target
        rows_per_block = bootstrap._BLOCK_BYTES // (L * 4)
        # several blocks, the last one short
        assert B > rows_per_block and B % rows_per_block
    w = np.random.default_rng(n).standard_t(4, size=n)
    # block rows rank tied values by window position; rounding forces ties
    for window in (w, np.round(w, 1)) if mode == "block" else (w,):
        gaps, fit = bootstrap_gaps(window, target, cfg, time_index=7, seed=3)
        want, want_fit = oneshot_bootstrap_gaps(window, target, cfg, time_index=7, seed=3)
        assert np.array_equal(gaps, want)
        assert np.array_equal(fit.theta, want_fit.theta) and fit.score == want_fit.score


@pytest.mark.parametrize("target", [Mean(), VaR(0.95), VaRES(0.95)], ids=str)
@pytest.mark.parametrize("n", [1, 20, 999, 2500])
def test_rounded_iid_windows_match_oneshot_oracle(target, n):
    # iid VaR gaps are read by rank: tied values must give their group's gap
    cfg = BootstrapConfig(replications=200, mode="iid")
    window = np.round(np.random.default_rng(n).standard_t(4, size=n), 1)
    gaps, fit = bootstrap_gaps(window, target, cfg, time_index=7, seed=3)
    want, want_fit = oneshot_bootstrap_gaps(window, target, cfg, time_index=7, seed=3)
    assert np.array_equal(gaps, want)
    assert np.array_equal(fit.theta, want_fit.theta) and fit.score == want_fit.score


@settings(max_examples=200, deadline=None)
@given(values=st.one_of(
           # ties, of values whose sums round, and windows of one value
           st.lists(st.integers(-30, 30).map(lambda v: v / 10), min_size=1, max_size=80),
           st.tuples(st.floats(-1e3, 1e3), st.integers(1, 40)).map(lambda c: [c[0]] * c[1]),
           st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 600)).map(
               lambda c: np.random.default_rng(c[0]).standard_t(4, size=c[1]).tolist()),
           st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 600)).map(
               lambda c: np.random.default_rng(c[0]).standard_t(4, size=c[1]).round(1).tolist())),
       alpha=st.sampled_from([0.01, 0.5, 0.9, 0.95, 0.975]))
def test_var_gap_table_is_pinball_score_at_every_rank(values, alpha):
    # a VaR fit is a rank r, whose gap is the score of values_sorted[r]; a
    # tied value is scored from the first rank of its group.  A row of one
    # rank, as iid_rows draws, has that rank as its fit.
    target = VaR(alpha)
    stats = window_stats(values)
    fit = target.fit(stats)
    ranks = np.arange(stats.n, dtype=np.int32)[:, None]
    got = target.row_gaps(stats, fit)(ranks)
    want = np.array([pinball_score_at(stats, stats.values_sorted[r], alpha) - fit.score
                     for r in range(stats.n)])
    assert got.tobytes() == want.tobytes()


def test_bootstrap_guard_clips_noise_and_rejects_negative_gaps():
    # the floor is -1e-9 times max(1, |score|)
    raw = np.array([0.25, -0.5e-9, 0.0])
    assert guarded_gaps(raw, 0.5, "bootstrap") is raw and raw.tolist() == [0.25, 0.0, 0.0]
    with pytest.raises(AssertionError, match="negative bootstrap gap"):
        guarded_gaps(np.array([0.25, -2e-9]), -0.5, "bootstrap")
    assert guarded_gaps(np.array([-2e-9]), 4.0, "bootstrap").tolist() == [0.0]
    with pytest.raises(AssertionError, match="negative bootstrap gap"):
        guarded_gaps(np.array([-5e-9]), -4.0, "bootstrap")


@settings(max_examples=60, deadline=None)
@given(target=st.sampled_from([Mean(), VaR(0.95), VaRES(0.9)]),
       mode=st.sampled_from(["iid", "block"]),
       # L = n (iid), m * l (block) or 1 (iid VaR): odd but for block mode
       # at n = 57
       n=st.sampled_from([1, 27, 57, 125, 343]),
       B=st.integers(1, 200),
       schedule=st.lists(st.integers(1, 90), max_size=8))
def test_any_block_schedule_continues_one_stream(target, mode, n, B, schedule):
    # curtailment rests on this: rows drawn in blocks of any sizes, in turn,
    # give the first gaps of the one-shot draw, bit for bit
    cfg = BootstrapConfig(replications=B, mode=mode)
    w = np.random.default_rng(n).standard_t(4, size=n)
    full, fit = bootstrap_gaps(w, target, cfg, time_index=3, seed=8)
    stats = window_stats(w)

    L = row_length(n, target, cfg)

    def sampled_gaps(sizes):
        rng = np.random.default_rng(np.random.SeedSequence((8, 3, n)))
        draw, ranks = bootstrap._row_sampler(w, stats, target, cfg, rng)
        assert ranks == L
        gaps = target.row_gaps(stats, fit)
        return [guarded_gaps(gaps(draw(b)), fit.score, "bootstrap") for b in sizes]

    # the row sampler, with 1-row and odd blocks
    sizes = []
    for size in schedule:
        sizes.append(min(size, B - sum(sizes)))
    sizes = [b for b in [*sizes, B - sum(sizes)] if b]
    assert np.array_equal(np.concatenate(sampled_gaps(sizes)), full)

    # bootstrap_gaps asked for the schedule's rows after its first block,
    # then for none
    blocks = []
    needs = iter(schedule)

    def until(gaps):
        blocks.append(gaps)
        return next(needs, 0)

    got, _ = bootstrap_gaps(w, target, cfg, time_index=3, seed=8, fit=fit, until=until)
    assert np.array_equal(np.concatenate(blocks), got)
    assert np.array_equal(got, full[:got.size])
    # the first block holds max(64, 512 // L) rows (L = 1 for iid VaR), each
    # later one max(need, rows drawn, 64, 512 // L), up to the rows left (the
    # 512 KB cap holds more than 200 rows of L <= 343), until B rows or no
    # need; ``until`` never sees an empty block
    smallest = max(bootstrap._FIRST_ROWS, bootstrap._FIRST_RANKS // L)
    assert all(block.size for block in blocks) and len(blocks) <= len(schedule) + 1
    drawn = 0
    for block, need in zip(blocks, [smallest, *schedule]):
        assert block.size == min(max(need, drawn, smallest), B - drawn)
        drawn += block.size
    assert got.size == drawn and (drawn == B or len(blocks) == len(schedule) + 1)


@pytest.mark.parametrize("alpha", [0.01, 0.5, 0.95])
@pytest.mark.parametrize("n", [20, 21, 250, 999, 1500])
def test_iid_var_fits_in_chunks_equal_one_draw(n, alpha):
    # the Beta order-statistic draws continue one stream across chunks, so
    # the iid VaR rows can be drawn block by block like resample rows
    target = VaR(alpha)
    stats = window_stats(np.random.default_rng(n).standard_t(4, size=n))

    def rows(sizes):
        rng = np.random.default_rng(np.random.SeedSequence((5, 2, n)))
        return np.concatenate([target.iid_rows(stats, b, rng) for b in sizes])

    one = rows([1000])
    assert one.dtype == np.int32 and one.shape == (1000, 1)
    assert np.array_equal(rows([1, 63, 448, 1, 487]), one)


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


def dispatch_features() -> list[str]:
    """The non-baseline CPU features numpy dispatches to in this process."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    return [f for f in getattr(umath, "__cpu_dispatch__", ()) if features.get(f)]


def gap_digests() -> dict[str, str]:
    """sha256 of the gaps and window fit of bootstrap_gaps, per target,
    mode and window length."""
    digests = {}
    for target in (Mean(), VaR(0.95), VaRES(0.95)):
        for mode in ("iid", "block"):
            for n in (57, 400, 1199):
                w = np.random.default_rng(n).standard_t(4, size=n)
                gaps, fit = bootstrap_gaps(w, target, BootstrapConfig(mode=mode),
                                           time_index=3, seed=5)
                digests[f"{target.name}-{mode}-{n}"] = hashlib.sha256(
                    gaps.tobytes() + fit.theta.tobytes()).hexdigest()
    return digests


def test_gaps_do_not_depend_on_simd_dispatch():
    features = dispatch_features()
    if not features:
        pytest.skip("numpy dispatches to no non-baseline CPU feature here")
    env = {k: v for k, v in os.environ.items() if k != "NPY_ENABLE_CPU_FEATURES"}
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(
        [*env.get("NPY_DISABLE_CPU_FEATURES", "").split(), *features])
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(baws.__file__).parents[1]), str(Path(__file__).parent),
         *filter(None, [env.get("PYTHONPATH")])])
    code = ("import json, test_bootstrap as t; "
            "print(json.dumps([t.dispatch_features(), t.gap_digests()]))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reduced_features, reduced = json.loads(proc.stdout.splitlines()[-1])
    assert not set(reduced_features) & set(features)
    here = gap_digests()
    assert [k for k in here if here[k] != reduced[k]] == []
