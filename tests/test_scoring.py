import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from baws.baselines import SAWSConfig
from baws.scoring import (
    Mean,
    VaR,
    VaRES,
    es_given_v,
    joint_vares_score,
    order_index,
    pinball_score,
    pointwise_score,
    score_at,
    squared_loss,
    tail_weight,
    tail_weight_integral,
    window_stats,
)
from baws.selection import candidate_windows, select_window

from conftest import direct_joint, direct_pinball, empirical_score


def test_squared_loss_values():
    assert squared_loss(3, 3) == 0
    assert squared_loss(0, 2) == 4
    assert squared_loss(-1, 1) == 4


def test_squared_loss_rejects_nonfinite():
    with pytest.raises(ValueError):
        squared_loss(np.nan, 0)
    with pytest.raises(ValueError):
        squared_loss(0, np.inf)


def test_pinball_values():
    assert pinball_score(0, 1, 0.95) == pytest.approx(0.05)
    assert pinball_score(2, 1, 0.95) == pytest.approx(0.95)
    assert pinball_score(1, 1, 0.95) == 0  # tie x == v is the no-exceedance branch


def test_pinball_level_validation():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            pinball_score(0, 1, bad)


def test_tail_weight_basics():
    assert tail_weight(0.0) == pytest.approx(-0.5)
    assert tail_weight_integral(0.0) == pytest.approx(math.log(2))
    assert abs(tail_weight(50.0)) < 1e-20
    assert abs(tail_weight_integral(50.0)) < 1e-20


def test_tail_weight_overflow_safe():
    assert np.isfinite(tail_weight(-800.0))
    assert np.isfinite(joint_vares_score(0.0, 0.0, -800.0, 0.95))
    assert np.isfinite(joint_vares_score(0.0, 0.0, 800.0, 0.95))


def test_joint_score_worked_example():
    # direct evaluation: 0.05 - 1/(1+e^2) - log(1+e^-2)
    expected = 0.05 - 1.0 / (1.0 + math.e**2) - math.log1p(math.exp(-2.0))
    assert joint_vares_score(0, 1, 2, 0.95) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-0.196131, abs=1e-6)


def test_joint_reduces_to_pinball_for_large_e():
    for x in (-2.0, -0.3, 0.0, 0.7, 3.1):
        for v in (-1.0, 0.0, 0.5, 2.0):
            diff = joint_vares_score(x, v, 100.0, 0.9) - pinball_score(x, v, 0.9)
            assert abs(diff) < 1e-12


@given(
    st.floats(-5, 5), st.floats(0.01, 0.99),
    st.tuples(st.floats(-5, 5), st.floats(0.1, 3), st.floats(0.1, 3)),
)
def test_pinball_convex_in_v(x, alpha, vs):
    v1 = vs[0]
    v2 = v1 + vs[1]
    v3 = v2 + vs[2]
    s1, s2, s3 = (pinball_score(x, v, alpha) for v in (v1, v2, v3))
    chord = s1 + (s3 - s1) * (v2 - v1) / (v3 - v1)
    assert s2 <= chord + 1e-9


def test_empirical_score_examples():
    assert empirical_score([1, 2, 3], [2.0], Mean()) == pytest.approx(2 / 3)
    assert empirical_score([0, 2], [1.0], VaR(0.95)) == pytest.approx(0.5)
    # degenerate window scores the pointwise value at x = c
    c = 3.7
    for target in (Mean(), VaR(0.9)):
        assert empirical_score([c] * 5, [c], target) == 0
    es = empirical_score([c] * 5, [c, c], VaRES(0.9))
    assert es == pytest.approx(float(pointwise_score(c, np.array([c, c]), VaRES(0.9))))


def test_empirical_score_is_exact_mean():
    rng = np.random.default_rng(7)
    w = rng.normal(size=17)
    theta = np.array([0.3, 1.1])
    total = sum(float(pointwise_score(x, theta, VaRES(0.9))) for x in w)
    assert empirical_score(w, theta, VaRES(0.9)) * 17 == pytest.approx(total, rel=1e-14)


def test_empirical_score_validation():
    with pytest.raises(ValueError):
        empirical_score([], [0.0], Mean())
    with pytest.raises(ValueError):
        empirical_score([1.0], [0.0], VaRES(0.9))  # wrong dimension


def test_window_stats_evaluators_match_direct_formulas():
    rng = np.random.default_rng(3)
    w = rng.normal(size=41)
    stats = window_stats(w)
    for v in np.linspace(w.min() - 0.5, w.max() + 0.5, 23):
        assert float(score_at(stats, np.array([v]), VaR(0.9))) == pytest.approx(
            direct_pinball(w, v, 0.9), abs=1e-12)
        for e in (0.0, 1.3):
            got = float(score_at(stats, np.array([v, e]), VaRES(0.9)))
            assert got == pytest.approx(direct_joint(w, v, e, 0.9), abs=1e-12)
    for mu in np.linspace(-1, 1, 7):
        got = float(score_at(stats, np.array([mu]), Mean()))
        assert got == pytest.approx(empirical_score(w, [mu], Mean()), abs=1e-12)


def test_monte_carlo_expected_joint_score_minimizer():
    # grid minimum of the Monte Carlo expected joint score on N(0,1) must
    # land within one 0.05 step of the analytic (VaR, ES) at alpha = 0.95
    rng = np.random.default_rng(12345)
    draws = np.sort(rng.standard_normal(1_200_000))
    n = draws.size
    prefix = np.concatenate(([0.0], np.cumsum(draws)))
    alpha = 0.95
    step = 0.05
    v_grid = 1.6449 + step * np.arange(-5, 6)
    e_grid = 2.0627 + step * np.arange(-5, 6)
    n_lt = np.searchsorted(draws, v_grid, side="left")
    s_lt = prefix[n_lt]
    total = prefix[-1]
    pin = ((1 - alpha) * (n_lt * v_grid - s_lt)
           + alpha * ((total - s_lt) - (n - n_lt) * v_grid)) / n
    tail = ((total - s_lt) - (n - n_lt) * v_grid) / n
    w = tail_weight(e_grid)
    surface = (pin[:, None]
               - w[None, :] * tail[:, None] / (1 - alpha)
               + w[None, :] * (e_grid[None, :] - v_grid[:, None])
               - tail_weight_integral(e_grid)[None, :])
    iv, ie = np.unravel_index(np.argmin(surface), surface.shape)
    assert abs(v_grid[iv] - 1.6448536) <= step + 1e-12
    assert abs(e_grid[ie] - 2.0627128) <= step + 1e-12


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(values=st.one_of(
           # ties and mixed signs
           st.lists(st.integers(-3, 3).map(lambda v: v * 0.75), min_size=2, max_size=60),
           st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60),
           # heavy-tailed draws, whose sums round
           st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 200)).map(
               lambda c: np.random.default_rng(c[0]).standard_t(4, size=c[1]).tolist()),
           # a constant history: every window constant
           st.tuples(st.floats(-1e3, 1e3), st.integers(2, 60)).map(lambda c: [c[0]] * c[1])),
       data=st.data(),
       alpha=st.sampled_from([0.5, 0.9, 0.95, 0.975]))
@example(values=[1.0, -2.0], data=None, alpha=0.9)  # k = 2 only
def test_grid_matches_per_window_fits_and_scores(values, data, alpha):
    # target.grid scores every candidate's fit on every window in one pass;
    # target.fit reads a grid of one window, so each fit must be the same in
    # a grid of one window as in a grid of many, and each score score_at's,
    # bit for bit
    x = np.asarray(values, dtype=float)
    n = x.size
    lengths = [n] if data is None else sorted(data.draw(
        st.lists(st.integers(2, n), min_size=1, max_size=12, unique=True), label="lengths"))
    stats = [window_stats(x[n - k:]) for k in lengths]
    for target in (Mean(), VaR(alpha), VaRES(alpha)):
        theta, scores = target.grid(stats)
        assert theta.shape == (len(stats), target.dim)
        assert scores.shape == (len(stats), len(stats))
        for c, s in enumerate(stats):
            fit = target.fit(s)
            assert same_bits(theta[c], fit.theta) and same_bits(scores[c, c], fit.score)
            if isinstance(target, Mean):
                mean = s.center + float(np.mean(s.values_sorted - s.center))
                assert same_bits(theta[c, 0], mean)
            else:
                v = s.values_sorted[order_index(alpha, s.n) - 1]
                assert same_bits(theta[c, 0], v)
                if isinstance(target, VaRES):
                    assert same_bits(theta[c, 1], es_given_v(s, v, alpha))
        for r, s in enumerate(stats):
            for c in range(len(stats)):
                assert same_bits(scores[r, c], score_at(s, theta[c], target)), (target, r, c)


@settings(max_examples=150, deadline=None)
@given(n=st.one_of(st.integers(1, 300), st.sampled_from([1000, 1400, 2000, 2100])),
       seed=st.integers(0, 2**32 - 1),
       loc=st.sampled_from([0.0, -3.5, 1e6, -1e12, 1e150]),
       spread=st.sampled_from([0.0, 1e-3, 1.0, 1e100]))
def test_window_moments_are_np_mean_bit_for_bit(n, seed, loc, spread):
    # spread 0 gives constant windows; loc 1e150 and spread 1e100 large
    # magnitudes, whose squares still fit a float64
    x = loc + spread * np.random.default_rng(seed).standard_t(4, size=n)
    s = window_stats(x)
    fit = Mean().fit(s)
    mean = s.center + float(np.mean(s.values_sorted - s.center))
    assert same_bits(fit.theta[0], mean)
    assert same_bits(fit.score, float(np.mean((s.values_sorted - mean) ** 2)))


@dataclass(frozen=True)
class _PlantedGap(VaR):
    """VaR whose grid plants ``gap`` as the score gap at ``cell`` (row r
    scores candidate c on window r)."""

    gap: float = 0.0
    cell: tuple[int, int] = (0, -1)

    def grid(self, stats):
        theta, scores = super().grid(stats)
        r, c = self.cell
        scores[r, c] = scores[r, r] + self.gap
        return theta, scores


def test_pairwise_guard_rejects_a_planted_negative_gap():
    # the losses are below 1, so every fitted score is and the floor is -1e-9
    x = np.random.default_rng(5).uniform(0.0, 0.5, size=60)
    policy = SAWSConfig()
    cands = candidate_windows(x.size)
    with pytest.raises(AssertionError, match="negative pairwise gap"):
        select_window(x, _PlantedGap(0.9, gap=-2e-9), policy)
    # rounding noise within the slack is clipped to a zero gap
    trace = select_window(x, _PlantedGap(0.9, gap=-0.5e-9), policy)
    pair = (trace.pair_reference == cands[0]) & (trace.pair_candidate == cands[-1])
    assert trace.pair_gap[pair].tolist() == [0.0]
    # the smaller candidate's fit on the largest window is no pair: not guarded
    select_window(x, _PlantedGap(0.9, gap=-1.0, cell=(-1, 0)), policy)
