from types import SimpleNamespace

import numpy as np
import pytest

from baws.bootstrap import BootstrapConfig, bootstrap_gaps, empirical_quantile
from baws.scoring import Mean, VaR, fit_target, order_index
from baws.selection import (
    CandidateGridConfig,
    CandidateGridConfig as Grid,
    bonferroni_level,
    candidate_windows,
    rejection_probability_gaussian,
    select_window,
)

from conftest import empirical_score


def fixed(tau):
    """A threshold policy: any object with ``threshold_for``."""
    return SimpleNamespace(threshold_for=lambda i: tau)


def test_candidate_grid_no_anchor():
    got = candidate_windows(400, None, Grid(k_min=20))
    expected = ([20, 25, 30, 35, 40, 45] + [50, 60, 70, 80, 90]
                + list(range(100, 281, 20)) + [300, 350, 400])
    assert got == expected


def test_candidate_grid_with_anchor():
    got = candidate_windows(400, 120, Grid(k_min=20))
    expected = sorted(set(
        [20, 25, 30, 35, 40, 45, 50, 60, 70, 80, 90, 100, 120]
        + [121, 171, 221, 271, 321, 371] + [400]))
    assert got == expected


def test_candidate_grid_degenerate_and_invariants():
    assert candidate_windows(20, None, Grid(k_min=20)) == [20]
    assert candidate_windows(20, 20, Grid(k_min=20)) == [20]
    for hist in (37, 100, 999, 2500):
        for prev in (None, 20, 55, hist - 1):
            got = candidate_windows(hist, prev, Grid(k_min=20))
            assert got[0] == 20 and got[-1] == hist
            assert got == sorted(set(got))


def test_candidate_grid_respects_max_window():
    got = candidate_windows(5000, None, Grid(k_min=20, max_window=1000))
    assert got[-1] == 1000
    got = candidate_windows(5000, 990, Grid(k_min=20, max_window=1000))
    assert got[-1] == 1000 and 991 in got


def test_candidate_grid_insufficient_history():
    with pytest.raises(ValueError, match="insufficient history"):
        candidate_windows(19, None, Grid(k_min=20))


def test_bonferroni_level_examples():
    assert bonferroni_level(0.9, 5) == pytest.approx(0.98)
    assert bonferroni_level(0.9, 1) == pytest.approx(0.9)
    assert bonferroni_level(0.95, 10) == pytest.approx(0.995)
    with pytest.raises(ValueError):
        bonferroni_level(0.9, 0)


def test_rejection_probability_symmetric_case():
    from scipy.stats import norm

    p = rejection_probability_gaussian(1.0, 1.0, 0.3, 0.4, 400, 100, 0.01)
    frac = 300 / 400
    v = frac**2 * (0.3 / 300 + 0.4 / 100)
    expected = 2 * norm.cdf(-np.sqrt(0.01) / np.sqrt(v))
    assert p == pytest.approx(expected, rel=1e-12)


def test_rejection_probability_strong_break():
    p = rejection_probability_gaussian(1.0, 2.0, 0.25, 0.25, 500, 250, 0.1)
    assert p == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        rejection_probability_gaussian(1, 2, 0.25, 0.25, 500, 250, 0.0)
    with pytest.raises(ValueError):
        rejection_probability_gaussian(1, 2, 0.25, 0.25, 250, 250, 0.1)


def test_rejection_probability_against_simulation():
    rng = np.random.default_rng(99)
    mu1, mu2, v1, v2, k, k0, tau = 0.3, 0.0, 0.5, 0.8, 300, 120, 0.02
    trials = 100_000
    old = rng.normal(mu1, np.sqrt(v1), size=(trials, k - k0)).mean(axis=1)
    new = rng.normal(mu2, np.sqrt(v2), size=(trials, k0)).mean(axis=1)
    stat = ((k - k0) / k * old + k0 / k * new - new) ** 2
    freq = float(np.mean(stat > tau))
    p = rejection_probability_gaussian(mu1, mu2, v1, v2, k, k0, tau)
    assert freq == pytest.approx(p, abs=0.01)


def test_select_window_iid_accepts_largest():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(500)
    policy = fixed(1e9)  # everything passes
    trace = select_window(x, Mean(), policy, Grid(k_min=20))
    assert trace.k_hat == 500
    assert trace.candidates[0] == 20
    assert bool(trace.admissible.all())


def test_select_window_constant_history():
    x = np.full(300, 2.5)
    cfg = BootstrapConfig(beta=0.9, replications=100)
    trace = select_window(x, Mean(), cfg, Grid(k_min=20), seed=5)
    assert trace.k_hat == 300  # all gaps and thresholds zero, equality accepts
    assert np.all(trace.pair_gap == 0.0)
    assert np.all(trace.pair_threshold == 0.0)


def test_select_window_two_regime_break():
    hits = 0
    grid = Grid(k_min=250, bands=((0, 250),))
    for rep in range(20):
        rng = np.random.default_rng(100 + rep)
        x = np.concatenate([rng.normal(1.0, 0.5, 250), rng.normal(2.0, 0.5, 250)])
        cfg = BootstrapConfig(beta=0.9, replications=500, mode="iid")
        trace = select_window(x, Mean(), cfg, grid, time_index=501, seed=rep)
        assert list(trace.candidates) == [250, 500]
        hits += trace.k_hat == 250
    assert hits == 20


def test_trace_consistency_invariants():
    rng = np.random.default_rng(42)
    x = rng.standard_normal(400) * (1 + (np.arange(400) > 250))
    cfg = BootstrapConfig(beta=0.8, replications=150)
    trace = select_window(x, VaR(0.9), cfg, Grid(k_min=20), seed=1)
    cands = list(trace.candidates)
    assert trace.k_hat in cands
    # every pair threshold for a given reference is identical (single bootstrap)
    for i in set(trace.pair_reference):
        taus = trace.pair_threshold[trace.pair_reference == i]
        assert np.all(taus == taus[0])
    # admissibility bookkeeping: k admissible iff no pair rejects it
    rejected = set(trace.pair_candidate[trace.pair_reject == 1])
    for pos, k in enumerate(cands):
        assert trace.admissible[pos] == (k not in rejected)
    # k_hat is the largest admissible candidate
    assert trace.k_hat == max(np.asarray(cands)[trace.admissible])
    # re-derive each reject decision from gap vs threshold
    assert np.array_equal(trace.pair_reject, trace.pair_gap > trace.pair_threshold)
    assert np.all(trace.pair_gap >= 0.0)
    # pairs cover exactly all (i, k) with i < k in the candidate set
    assert len(trace.pair_gap) == len(cands) * (len(cands) - 1) // 2


def test_squared_loss_gap_identity():
    rng = np.random.default_rng(7)
    x = rng.normal(size=500)
    trace = select_window(x, Mean(), fixed(0.0), Grid(k_min=250, bands=((0, 250),)))
    mu_500 = fit_target(x, Mean()).theta[0]
    mu_250 = fit_target(x[250:], Mean()).theta[0]
    pair = [p for p in trace.pair_records() if p.reference == 250 and p.candidate == 500]
    assert len(pair) == 1
    assert pair[0].gap == pytest.approx((mu_500 - mu_250) ** 2, abs=1e-10)
    direct = (empirical_score(x[250:], [mu_500], Mean())
              - empirical_score(x[250:], [mu_250], Mean()))
    assert pair[0].gap == pytest.approx(direct, abs=1e-10)


def test_threshold_agnostic_core():
    from baws.baselines import SAWSConfig

    rng = np.random.default_rng(3)
    x = rng.standard_normal(300)
    cfg = SAWSConfig(alpha_tau=0.1, c_tau=0.5, family="lipschitz")
    a = select_window(x, VaR(0.9), cfg, Grid(k_min=20))
    b = select_window(x, VaR(0.9), SimpleNamespace(threshold_for=cfg.threshold_for),
                      Grid(k_min=20))
    assert a.k_hat == b.k_hat
    assert np.array_equal(a.pair_gap, b.pair_gap)
    assert np.array_equal(a.pair_threshold, b.pair_threshold)
    assert np.array_equal(a.fit.theta, b.fit.theta)


def test_fwer_mode_tightens_thresholds():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(400)
    cfg = BootstrapConfig(beta=0.9, replications=400)
    pcer = select_window(x, Mean(), cfg, Grid(k_min=20), seed=13, error_control="pcer")
    fwer = select_window(x, Mean(), cfg, Grid(k_min=20), seed=13, error_control="fwer")
    assert np.all(fwer.pair_threshold >= pcer.pair_threshold)
    assert fwer.k_hat >= pcer.k_hat
    # fwer thresholds must be re-quantiled from the same cached gap sample
    gaps, _ = bootstrap_gaps(x[-20:], Mean(), cfg, time_index=401, seed=13)
    s = np.flatnonzero(fwer.pair_reference == 20)
    for pos in s:
        k = fwer.pair_candidate[pos]
        comparisons = int(np.sum(fwer.candidates < k))
        level = bonferroni_level(0.9, comparisons)
        assert fwer.pair_threshold[pos] == empirical_quantile(gaps, level)
    with pytest.raises(ValueError):
        select_window(x, Mean(), fixed(0.1), Grid(k_min=20),
                      error_control="fwer")


def test_select_window_insufficient_history():
    with pytest.raises(ValueError):
        select_window(np.zeros(10), Mean(), fixed(0.0), Grid(k_min=20))


def test_grid_config_validation():
    with pytest.raises(ValueError):
        CandidateGridConfig(k_min=1)
    with pytest.raises(ValueError):
        CandidateGridConfig(k_min=20, max_window=10)
    with pytest.raises(ValueError):
        CandidateGridConfig(bands=((0, 5), (0, 10)))
