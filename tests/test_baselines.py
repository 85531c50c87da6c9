import numpy as np
import pytest

from baws.baselines import (
    SAWSConfig,
    full_window_forecast,
    rolling_forecast,
    saws_threshold,
)
from baws.bootstrap import BootstrapConfig
from baws.scoring import Mean, VaR
from baws.selection import CandidateGridConfig as Grid
from baws.selection import select_window


def test_saws_threshold_derived_values():
    cs = SAWSConfig(alpha_tau=0.1, c_tau=0.3, family="convex_smooth")
    assert saws_threshold(100, cs) == pytest.approx(0.3 * 100 ** -0.9, rel=1e-12)
    assert saws_threshold(100, cs) == pytest.approx(0.004754679, abs=1e-7)
    lp = SAWSConfig(alpha_tau=0.1, c_tau=0.5, family="lipschitz")
    assert saws_threshold(100, lp) == pytest.approx(0.5 * 100 ** -0.4, rel=1e-12)
    assert saws_threshold(100, lp) == pytest.approx(0.07924466, abs=1e-7)


def test_saws_threshold_monotone_decreasing():
    for cfg in (SAWSConfig(), SAWSConfig(family="lipschitz", c_tau=0.5)):
        taus = [saws_threshold(i, cfg) for i in (10, 50, 100, 500, 1000)]
        assert all(a > b for a, b in zip(taus, taus[1:]))


def test_saws_config_validation():
    with pytest.raises(ValueError):
        SAWSConfig(alpha_tau=0.0)
    with pytest.raises(ValueError):
        SAWSConfig(c_tau=-1.0)
    with pytest.raises(ValueError):
        SAWSConfig(family="other")


def test_rolling_forecast_windowing():
    x = np.arange(1.0, 1001.0)
    fit = rolling_forecast(x, 250, Mean())
    assert fit.window_length == 250
    assert fit.theta[0] == pytest.approx(x[-250:].mean())
    short = rolling_forecast(x[:100], 250, Mean())
    assert short.window_length == 100  # falls back to the full history
    assert short.theta[0] == pytest.approx(x[:100].mean())


def test_full_window_forecast():
    x = np.arange(1.0, 101.0)
    assert full_window_forecast(x, Mean()).theta[0] == pytest.approx(50.5)
    assert full_window_forecast([7.0], Mean()).theta[0] == 7.0
    big = rolling_forecast(x, 1000, VaR(0.9))
    assert big.theta[0] == full_window_forecast(x, VaR(0.9)).theta[0]
    with pytest.raises(ValueError):
        full_window_forecast([], Mean())


def test_constant_history_matches_full_window():
    x = np.full(60, 1.25)
    assert rolling_forecast(x, 10, Mean()).theta[0] == \
        full_window_forecast(x, Mean()).theta[0]


def test_saws_select_threshold_extremes():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(300)
    huge = SAWSConfig(alpha_tau=0.1, c_tau=1e9)
    assert select_window(x, Mean(), huge, Grid(k_min=20)).k_hat == 300
    tiny = SAWSConfig(alpha_tau=0.5, c_tau=1e-9, family="lipschitz")
    picks = []
    for rep in range(10):
        data = np.random.default_rng(rep).standard_normal(300)
        picks.append(select_window(data, Mean(), tiny, Grid(k_min=20)).k_hat)
    assert np.median(picks) == 20  # any positive gap rejects


def test_saws_select_shares_candidate_machinery():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(400)
    a = select_window(x, Mean(), SAWSConfig(), Grid(k_min=20), prev_k=120)
    b = select_window(x, Mean(), BootstrapConfig(rng_seed=0, replications=50),
                      Grid(k_min=20), prev_k=120)
    assert np.array_equal(a.candidates, b.candidates)
