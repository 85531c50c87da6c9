from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from baws import bootstrap, selection
from baws.bootstrap import BootstrapConfig, bootstrap_gaps, empirical_quantile
from baws.errors import ConfigError
from baws.scoring import Mean, VaR, VaRES, fit_target, order_index
from baws.selection import (
    ERROR_CONTROLS,
    CandidateGridConfig,
    CandidateGridConfig as Grid,
    bonferroni_level,
    candidate_windows,
    rejection_probability_gaussian,
    select_window,
)

from conftest import (empirical_score, exhaustive_select_window, oneshot_bootstrap_gaps,
                      row_length)


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


@pytest.mark.parametrize("prev_k", [0, 5, 19])
def test_candidate_grid_rejects_previous_window_below_k_min(prev_k):
    # no selection is below k_min, and the grid holds no window below it
    with pytest.raises(ValueError, match="below k_min=20"):
        candidate_windows(100, prev_k, Grid(k_min=20))


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
    # a non-finite mean, variance or tau has no probability (NaN, or 1.0 for
    # an infinite mean): it is rejected
    finite = [1.0, 2.0, 0.25, 0.25, 0.1]  # mu1, mu2, var1, var2, tau
    for pos in range(len(finite)):
        for bad in (np.nan, np.inf, -np.inf):
            mu1, mu2, var1, var2, tau = finite[:pos] + [bad] + finite[pos + 1:]
            with pytest.raises(ConfigError, match="must be finite"):
                rejection_probability_gaussian(mu1, mu2, var1, var2, 500, 250, tau)


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


@pytest.mark.parametrize("mu1, mu2, v1, v2, k, k0, tau", [
    (0.3, 0.0, 0.5, 0.8, 300, 120, 0.02),
    (1.0, 1.0, 0.3, 0.4, 400, 100, 0.01),
    (0.0, 0.2, 1.0, 1.0, 200, 50, 0.02),
])
def test_select_window_rejects_at_gaussian_rate(mu1, mu2, v1, v2, k, k0, tau):
    # the candidates are exactly {k0, k}, so k0 is selected when the one
    # pair (k0, k) rejects at the fixed tau
    grid = Grid(k_min=k0, bands=((0, k + 1),))
    rng = np.random.default_rng(k)
    draws = 4000
    hits = 0
    for _ in range(draws):
        x = np.concatenate([rng.normal(mu1, np.sqrt(v1), k - k0),
                            rng.normal(mu2, np.sqrt(v2), k0)])
        trace = select_window(x, Mean(), fixed(tau), grid)
        assert trace.candidates.tolist() == [k0, k]
        hits += trace.k_hat == k0
    p = rejection_probability_gaussian(mu1, mu2, v1, v2, k, k0, tau)
    assert abs(hits / draws - p) <= 4 * np.sqrt(p * (1 - p) / draws)


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
    assert trace.k_hat == 300  # all gaps zero: no bootstrap gap lies below one
    assert np.all(trace.pair_gap == 0.0)
    assert np.all(trace.pair_below == 0)
    # every bootstrap gap, and so every threshold, is zero too
    samples = {}
    assert np.all(exhaustive_select_window(x, Mean(), cfg, Grid(k_min=20), seed=5,
                                           samples=samples).pair_below == 0)
    assert all(np.all(sample == 0.0) for sample in samples.values())


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
    # the pairs are ordered by candidate, then by reference
    order = np.lexsort((trace.pair_reference, trace.pair_candidate))
    assert np.array_equal(order, np.arange(order.size))
    # every pair of a reference decides as its gap against the reference's
    # one threshold; the record is the count of drawn gaps below the gap
    assert np.all(trace.pair_order == order_index(0.8, 150))
    for i, rows in zip(cands, trace.rows_drawn):
        gaps, _ = bootstrap_gaps(x[-i:], VaR(0.9), cfg, time_index=401, seed=1)
        tau = empirical_quantile(gaps, 0.8)
        mine = trace.pair_reference == i
        assert np.array_equal(trace.pair_reject[mine], trace.pair_gap[mine] > tau)
        assert np.array_equal(trace.pair_below[mine],
                              (gaps[:rows] < trace.pair_gap[mine, None]).sum(axis=1))
    # admissibility bookkeeping: k admissible iff no pair rejects it
    rejected = set(trace.pair_candidate[trace.pair_reject == 1])
    for pos, k in enumerate(cands):
        assert trace.admissible[pos] == (k not in rejected)
    # k_hat is the largest admissible candidate
    assert trace.k_hat == max(np.asarray(cands)[trace.admissible])
    assert np.all(trace.pair_gap >= 0.0)
    # the scanned references are the candidates below the first one that is
    # not below k_hat; the pairs of each are (i, k) with every candidate k > i
    # that no earlier reference rejected
    scanned = cands[:trace.rows_drawn.size]
    assert sorted(set(trace.pair_reference.tolist())) == scanned
    assert cands[len(scanned)] >= trace.k_hat
    alive = set(cands)
    for i in scanned:
        mine = trace.pair_reference == i
        assert sorted(trace.pair_candidate[mine].tolist()) == sorted(
            k for k in alive if k > i)
        alive -= set(trace.pair_candidate[mine & trace.pair_reject].tolist())


def test_squared_loss_gap_identity():
    rng = np.random.default_rng(7)
    x = rng.normal(size=500)
    trace = select_window(x, Mean(), fixed(0.0), Grid(k_min=250, bands=((0, 250),)))
    mu_500 = fit_target(x, Mean()).theta[0]
    mu_250 = fit_target(x[250:], Mean()).theta[0]
    pair = (trace.pair_reference == 250) & (trace.pair_candidate == 500)
    assert pair.sum() == 1
    gap = trace.pair_gap[pair][0]
    assert gap == pytest.approx((mu_500 - mu_250) ** 2, abs=1e-10)
    direct = (empirical_score(x[250:], [mu_500], Mean())
              - empirical_score(x[250:], [mu_250], Mean()))
    assert gap == pytest.approx(direct, abs=1e-10)


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
    assert np.array_equal(a.pair_below, b.pair_below)
    assert np.array_equal(a.pair_order, b.pair_order)
    assert np.array_equal(a.fit.theta, b.fit.theta)


def test_fwer_mode_tightens_thresholds():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(400)
    cfg = BootstrapConfig(beta=0.9, replications=400)
    pcer = select_window(x, Mean(), cfg, Grid(k_min=20), seed=13, error_control="pcer")
    fwer = select_window(x, Mean(), cfg, Grid(k_min=20), seed=13, error_control="fwer")
    assert fwer.k_hat >= pcer.k_hat
    # every pair's count over calibrations of all B rows: the same samples,
    # so fwer raises each order index and rejects a subset of pcer's pairs
    pcer_all, fwer_all = (exhaustive_select_window(x, Mean(), cfg, Grid(k_min=20), seed=13,
                                                   error_control=mode)
                          for mode in ERROR_CONTROLS)
    assert np.array_equal(pcer_all.pair_candidate, fwer_all.pair_candidate)
    assert np.array_equal(fwer_all.pair_below, pcer_all.pair_below)
    assert np.all(fwer_all.pair_order >= pcer_all.pair_order)
    assert np.any(fwer_all.pair_order > pcer_all.pair_order)
    assert not np.any(fwer_all.pair_reject & ~pcer_all.pair_reject)
    # fwer decisions read the same gap sample at the Bonferroni level
    gaps, _ = bootstrap_gaps(x[-20:], Mean(), cfg, time_index=401, seed=13)
    rows = fwer.rows_drawn[0]
    s = np.flatnonzero(fwer.pair_reference == 20)
    assert s.size
    for pos in s:
        k = fwer.pair_candidate[pos]
        level = bonferroni_level(0.9, int(np.sum(fwer.candidates < k)))
        tau = empirical_quantile(gaps, level)
        assert fwer.pair_reject[pos] == (fwer.pair_gap[pos] > tau)
        assert fwer.pair_order[pos] == order_index(level, 400)
        assert fwer.pair_below[pos] == np.sum(gaps[:rows] < fwer.pair_gap[pos])
    with pytest.raises(ValueError):
        select_window(x, Mean(), fixed(0.1), Grid(k_min=20),
                      error_control="fwer")
    for policy in (cfg, fixed(0.1)):
        with pytest.raises(ValueError, match="error_control"):
            select_window(x, Mean(), policy, Grid(k_min=20), error_control="bogus")


def test_select_window_insufficient_history():
    with pytest.raises(ValueError):
        select_window(np.zeros(10), Mean(), fixed(0.0), Grid(k_min=20))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_select_window_rejects_non_finite_history(bad):
    x = np.zeros(100)
    x[50] = bad
    with pytest.raises(ValueError, match="finite"):
        select_window(x, Mean(), BootstrapConfig(replications=20), Grid(k_min=20))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pair_counts_stop_with_every_decision_fixed(data):
    # small integer gaps force ties between the pair gaps and the sample
    B = data.draw(st.integers(1, 300), label="B")
    sample = np.array(data.draw(st.lists(st.integers(0, 6), min_size=B, max_size=B),
                                label="sample"), dtype=float)
    pairs = data.draw(st.integers(1, 6), label="pairs")
    gaps = np.array(data.draw(st.lists(st.integers(-1, 7), min_size=pairs, max_size=pairs),
                              label="gaps"), dtype=float)
    j = np.array(data.draw(st.lists(st.integers(1, B), min_size=pairs, max_size=pairs),
                           label="j"))
    # draw only the rows the counter asks for: the smallest blocks possible
    counts = selection._PairCounts(gaps, j, B)
    want = counts(sample[:0])
    drawn = 0
    while drawn < B and want > 0:
        b = min(want, B - drawn)
        want = counts(sample[drawn:drawn + b])
        drawn += b
    assert np.array_equal(counts.below >= j, gaps > np.sort(sample)[j - 1])


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
    # the oracle calibrates from one-shot resample matrices of all B rows
    monkeypatch.setattr(selection, "bootstrap_gaps", oneshot_bootstrap_gaps)
    want = select_window(x, target, cfg, **kwargs)
    assert got.candidates.size > 10
    for field in ("candidates", "pair_reference", "pair_candidate", "pair_gap",
                  "pair_order", "pair_reject", "admissible"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    # counts agree where the calibration drew all B rows, as the oracle's all do
    assert np.all(want.rows_drawn == 150)
    rows = got.rows_drawn[got.candidates.searchsorted(got.pair_reference)]
    assert np.array_equal(got.pair_below[rows == 150], want.pair_below[rows == 150])
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
    B = cfg.replications
    kwargs = dict(time_index=601, seed=4, error_control=error_control)
    samples = {}
    want = exhaustive_select_window(x, target, cfg, samples=samples, **kwargs)
    oracle = {(int(i), int(k)): pos
              for pos, (i, k) in enumerate(zip(want.pair_reference, want.pair_candidate))}
    # replay the scan on the oracle's decisions: the scanned references are
    # the candidates below the stop, the first reference not below the
    # largest candidate its predecessors leave admissible; the live pairs of
    # a reference are those with the candidates still admissible above it
    cands = want.candidates.tolist()
    admissible = np.ones(len(cands), dtype=bool)
    live = []
    stop = 0
    while cands[stop] < cands[np.flatnonzero(admissible)[-1]]:
        i = cands[stop]
        live += [(i, k) for k, ok in zip(cands, admissible) if ok and k > i]
        admissible &= [not (k > i and want.pair_reject[oracle[i, k]]) for k in cands]
        stop += 1
    scanned = cands[:stop]
    got = select_window(x, target, cfg, **kwargs)
    assert np.array_equal(got.candidates, want.candidates)
    assert np.array_equal(got.admissible, want.admissible)
    assert got.k_hat == want.k_hat
    assert np.array_equal(got.fit.theta, want.fit.theta)
    # the live pairs, each with the oracle's gap, order index and decision,
    # and the count of the oracle's first rows_drawn gaps below its gap
    assert got.rows_drawn.size == len(scanned)
    rows = dict(zip(scanned, got.rows_drawn.tolist()))
    assert sorted(zip(got.pair_reference.tolist(), got.pair_candidate.tolist())) == sorted(live)
    for i, k, gap, below, j, reject in zip(got.pair_reference.tolist(),
                                           got.pair_candidate.tolist(), got.pair_gap,
                                           got.pair_below, got.pair_order, got.pair_reject):
        q = oracle[i, k]
        assert (gap, j, reject) == (want.pair_gap[q], want.pair_order[q], want.pair_reject[q])
        assert below == np.sum(samples[i][:rows[i]] < gap)
    # each reference draws at least its first block, max(64, 512 // L) rows
    # of L ranks up to B; on the stable history some reference stops before
    # B rows, unless every first block holds all B (iid VaR, L = 1)
    first = {i: min(max(bootstrap._FIRST_ROWS, bootstrap._FIRST_RANKS
                        // row_length(i, target, cfg)), B) for i in scanned}
    assert all(first[i] <= r <= B for i, r in rows.items())
    if history == "stable" and min(first.values()) < B:
        assert min(rows.values()) < B
    if history == "break":
        assert got.k_hat < 300 and 2 * len(scanned) <= len(cands)


@pytest.mark.parametrize("history", ["break", "stable"])
@pytest.mark.parametrize("error_control", ["pcer", "fwer"])
@pytest.mark.parametrize("mode", ["iid", "block"])
@pytest.mark.parametrize("target", [Mean(), VaR(0.95), VaRES(0.95)], ids=["mean", "var", "vares"])
def test_every_recorded_decision_is_fixed_by_its_count(target, mode, error_control, history):
    x = np.random.default_rng(29).standard_normal(600)
    if history == "break":
        x[-60:] = 3.0 + 3.0 * x[-60:]
    cfg = BootstrapConfig(beta=0.9, replications=100, mode=mode)
    B = cfg.replications
    trace = select_window(x, target, cfg, time_index=601, seed=6, error_control=error_control)
    # each pair's count is over the rows its reference drew; a reject is
    # fixed by j gaps below, an accept once the rows left cannot reach j
    rows = trace.rows_drawn[trace.candidates.searchsorted(trace.pair_reference)]
    below, j = trace.pair_below, trace.pair_order
    assert np.all((0 <= below) & (below <= rows))
    assert np.all((below >= j) | (below + (B - rows) < j))
    assert np.array_equal(trace.pair_reject, below >= j)
    # the admissible set and the selection follow from the recorded decisions
    rejected = trace.pair_candidate[trace.pair_reject]
    assert np.array_equal(trace.admissible, ~np.isin(trace.candidates, rejected))
    assert trace.k_hat == trace.candidates[trace.admissible][-1]


@pytest.mark.parametrize("target", [Mean(), VaR(0.95), VaRES(0.95)], ids=["mean", "var", "vares"])
def test_saws_is_a_sample_of_one(target):
    from baws.baselines import SAWSConfig

    x = np.random.default_rng(29).standard_normal(600)
    x[-60:] = 3.0 + 3.0 * x[-60:]
    cfg = SAWSConfig()
    trace = select_window(x, target, cfg, Grid(k_min=20))
    # the sample is the one gap tau(i), and j = 1: a pair rejects when tau(i)
    # lies below its gap, and no bootstrap row is drawn
    assert np.all(trace.pair_order == 1)
    assert set(trace.pair_below.tolist()) <= {0, 1}
    tau = np.array([cfg.threshold_for(int(i)) for i in trace.pair_reference])
    assert np.array_equal(trace.pair_reject, trace.pair_gap > tau)
    assert trace.pair_reject.any() and not trace.pair_reject.all()
    assert np.all(trace.rows_drawn == 0)
