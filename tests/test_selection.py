from types import SimpleNamespace

import numpy as np
import pytest

from baws import selection
from baws.bootstrap import BootstrapConfig, bootstrap_gaps, empirical_quantile
from baws.scoring import Mean, VaR, VaRES, fit_target, order_index
from baws.selection import (
    CandidateGridConfig,
    CandidateGridConfig as Grid,
    bonferroni_level,
    candidate_windows,
    rejection_probability_gaussian,
    select_window,
)

from conftest import empirical_score, exhaustive_select_window, oneshot_bootstrap_gaps


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
    # pairs are all (i, k), i < k, with i a scanned reference: the candidates
    # below the first one that is not below k_hat
    scanned = sorted(set(trace.pair_reference.tolist()))
    assert scanned == cands[:len(scanned)] and cands[len(scanned)] >= trace.k_hat
    assert sorted(zip(trace.pair_reference.tolist(), trace.pair_candidate.tolist())) == [
        (i, k) for i in scanned for k in cands if k > i]


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
    # on the pairs both traces hold
    held = {(i, k): tau for i, k, tau in zip(pcer.pair_reference, pcer.pair_candidate,
                                              pcer.pair_threshold)}
    common = [(held[i, k], tau) for i, k, tau in zip(fwer.pair_reference, fwer.pair_candidate,
                                                     fwer.pair_threshold) if (i, k) in held]
    assert common and all(tau >= pcer_tau for pcer_tau, tau in common)
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


@pytest.mark.parametrize("target,mode,error_control", [
    (Mean(), "iid", "pcer"),
    (VaR(0.95), "block", "pcer"),
    (VaRES(0.95), "block", "fwer"),
])
def test_concurrent_trace_matches_serial_oneshot_oracle(target, mode, error_control,
                                                        monkeypatch):
    x = np.random.default_rng(17).standard_t(4, size=1300)
    cfg = BootstrapConfig(replications=150, mode=mode)
    kwargs = dict(prev_k=400, time_index=1301, seed=9, error_control=error_control)
    got = select_window(x, target, cfg, **kwargs)
    # the oracle calibrates from one-shot resample matrices
    monkeypatch.setattr(selection, "bootstrap_gaps", oneshot_bootstrap_gaps)
    want = select_window(x, target, cfg, **kwargs)
    assert got.candidates.size > 10
    for field in ("candidates", "pair_reference", "pair_candidate", "pair_gap",
                  "pair_threshold", "pair_reject", "admissible"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.k_hat == want.k_hat
    assert np.array_equal(got.fit.theta, want.fit.theta)


@pytest.mark.parametrize("history", ["break", "stable"])
@pytest.mark.parametrize("error_control", ["pcer", "fwer"])
@pytest.mark.parametrize("mode", ["iid", "block"])
@pytest.mark.parametrize("target", [Mean(), VaR(0.95), VaRES(0.95)], ids=["mean", "var", "vares"])
def test_scan_matches_exhaustive_oracle(target, mode, error_control, history):
    x = np.random.default_rng(23).standard_normal(600)
    if history == "break":
        x[-60:] = 3.0 + 3.0 * x[-60:]
    cfg = BootstrapConfig(beta=0.9, replications=100, mode=mode)
    kwargs = dict(time_index=601, seed=4, error_control=error_control)
    got = select_window(x, target, cfg, **kwargs)
    want = exhaustive_select_window(x, target, cfg, **kwargs)
    assert np.array_equal(got.candidates, want.candidates)
    assert np.array_equal(got.admissible, want.admissible)
    assert got.k_hat == want.k_hat
    assert np.array_equal(got.fit.theta, want.fit.theta)
    # every recorded pair is the oracle's pair, bit for bit
    oracle = {(p.reference, p.candidate): p for p in want.pair_records()}
    for p in got.pair_records():
        assert p == oracle[p.reference, p.candidate]
    # the scanned references are the candidates below the stop: the first
    # reference not below the largest candidate its predecessors leave admissible
    cands = want.candidates.tolist()
    admissible = np.ones(len(cands), dtype=bool)
    stop = 0
    while cands[stop] < cands[np.flatnonzero(admissible)[-1]]:
        admissible &= [not (k > cands[stop] and oracle[cands[stop], k].reject)
                       for k in cands]
        stop += 1
    scanned = cands[:stop]
    assert sorted(zip(got.pair_reference.tolist(), got.pair_candidate.tolist())) == [
        (i, k) for i in scanned for k in cands if k > i]
    if history == "break":
        assert got.k_hat < 300 and 2 * len(scanned) <= len(cands)
