import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from baws.estimators import fit_mean, fit_target, fit_var, fit_var_es, tail_es_given_v
from baws.scoring import Mean, VaR, VaRES, empirical_score

from conftest import brute_force_var, brute_force_var_es, direct_joint, direct_pinball


def test_fit_mean_examples():
    assert fit_mean([1, 2, 3]).theta[0] == pytest.approx(2.0)
    assert fit_mean([4.2]).theta[0] == pytest.approx(4.2)
    assert fit_mean([-1, 1]).theta[0] == pytest.approx(0.0)


def test_fit_mean_is_local_minimum():
    rng = np.random.default_rng(0)
    w = rng.normal(size=31)
    fit = fit_mean(w)
    for eps in (1e-3, -1e-3):
        worse = empirical_score(w, [fit.theta[0] + eps], Mean())
        assert worse > fit.score


def test_fit_var_order_statistic_convention():
    rng = np.random.default_rng(1)
    w20 = rng.permutation(np.arange(1, 21))
    assert fit_var(w20, 0.9).theta[0] == 18  # alpha*k integral: lower endpoint
    w100 = rng.permutation(np.arange(1, 101))
    assert fit_var(w100, 0.95).theta[0] == 95
    assert fit_var([3.3] * 7, 0.9).theta[0] == 3.3
    assert fit_var([3.3] * 7, 0.9).score == 0


def test_fit_var_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(60):
        k = int(rng.integers(1, 60))
        alpha = float(rng.uniform(0.05, 0.97))
        w = rng.normal(size=k)
        v, s = brute_force_var(w, alpha)
        fit = fit_var(w, alpha)
        assert fit.score == pytest.approx(s, abs=1e-12)
        # equal score but possibly a tie: lower endpoint must not exceed oracle v
        assert fit.theta[0] <= v + 1e-12


def test_tail_es_examples():
    assert tail_es_given_v(np.arange(1, 21), 18.0, 0.9) == pytest.approx(19.5)
    assert tail_es_given_v([5.0] * 9, 5.0, 0.9) == pytest.approx(5.0)
    assert tail_es_given_v([0.0, 10.0], 0.0, 0.5) == pytest.approx(10.0)


def test_tail_es_is_stationary_point():
    rng = np.random.default_rng(3)
    w = rng.normal(size=40)
    v = float(np.quantile(w, 0.9))
    e_star = tail_es_given_v(w, v, 0.9)
    base = direct_joint(w, v, e_star, 0.9)
    for eps in (1e-4, -1e-4):
        assert direct_joint(w, v, e_star + eps, 0.9) >= base


def test_fit_var_es_examples():
    fit = fit_var_es(np.arange(1, 21), 0.9)
    assert fit.theta[0] == pytest.approx(18.0)
    assert fit.theta[1] == pytest.approx(19.5)
    v, e, s = brute_force_var_es(np.arange(1, 21), 0.9)
    assert fit.score == pytest.approx(s, abs=1e-10)
    const = fit_var_es([2.5] * 6, 0.9)
    assert const.theta[0] == 2.5
    assert const.theta[1] == 2.5


def test_fit_var_es_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(25):
        k = int(rng.integers(2, 40))
        alpha = float(rng.uniform(0.5, 0.96))
        w = rng.normal(size=k)
        v, e, s = brute_force_var_es(w, alpha)
        fit = fit_var_es(w, alpha)
        assert fit.score <= s + 1e-10
        assert fit.score == pytest.approx(s, abs=1e-8)


def test_fit_var_es_large_sample_gaussian():
    rng = np.random.default_rng(5)
    w = rng.standard_normal(100_000)
    fit = fit_var_es(w, 0.95)
    assert fit.theta[0] == pytest.approx(1.6448536, abs=0.05)
    assert fit.theta[1] == pytest.approx(2.0627128, abs=0.05)


def test_var_and_var_es_choose_same_quantile():
    # both fits take the smallest minimizing v, the order statistic
    # ceil(alpha * k); every other draw uses a level on a coarse grid, which
    # makes alpha * k integral (a flat minimizing interval) for many k
    rng = np.random.default_rng(6)
    for n in range(1000):
        k = int(rng.integers(1, 30))
        alpha = float(rng.uniform(0.05, 0.95) if n % 2 else rng.choice([0.5, 0.75, 0.8, 0.9]))
        w = np.round(rng.normal(size=k), 1)  # coarse values force ties
        assert fit_var_es(w, alpha).theta[0] == fit_var(w, alpha).theta[0]


def test_no_sample_point_beats_fit():
    rng = np.random.default_rng(7)
    for _ in range(40):
        k = int(rng.integers(1, 200))
        w = rng.standard_t(4, size=k)
        alpha = float(rng.uniform(0.1, 0.95))
        var_fit = fit_var(w, alpha)
        for v in w:
            assert direct_pinball(w, v, alpha) >= var_fit.score - 1e-12
        es_fit = fit_var_es(w, alpha)
        for v in w:
            e = tail_es_given_v(w, v, alpha)
            assert direct_joint(w, v, e, alpha) >= es_fit.score - 1e-12


def test_achieved_score_matches_empirical_score():
    rng = np.random.default_rng(8)
    w = rng.normal(size=57)
    for target in (Mean(), VaR(0.9), VaRES(0.9)):
        fit = fit_target(w, target)
        assert fit.score == pytest.approx(
            empirical_score(w, fit.theta, target), abs=1e-12)
        assert fit.window_length == 57


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=25),
    st.floats(-100, 100),
)
@example([0.0] * 9 + [1.0], -4.0)  # alpha * k integral: v must stay x_(9)
def test_location_equivariance(values, shift):
    w = np.asarray(values)
    shifted = w + shift
    assert fit_mean(shifted).theta[0] == pytest.approx(
        fit_mean(w).theta[0] + shift, abs=1e-9)
    # order statistics shift exactly
    assert fit_var(shifted, 0.9).theta[0] == fit_var(w, 0.9).theta[0] + shift
    a, b = fit_var_es(shifted, 0.9).theta, fit_var_es(w, 0.9).theta
    assert a[0] == pytest.approx(b[0] + shift, abs=1e-9)
    assert a[1] == pytest.approx(b[1] + shift, abs=1e-9)


def test_empty_window_errors():
    for fn in (fit_mean, lambda w: fit_var(w, 0.9), lambda w: fit_var_es(w, 0.9)):
        with pytest.raises(ValueError):
            fn([])
