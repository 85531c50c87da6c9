import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from baws.scoring import (
    Mean,
    VaR,
    VaRES,
    joint_vares_score,
    pinball_score,
    pointwise_score,
    score_at,
    squared_loss,
    tail_weight,
    tail_weight_integral,
    window_stats,
)

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
