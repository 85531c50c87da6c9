import numpy as np
import pytest
from scipy.stats import norm

from baws.metrics import (
    ExperimentTensor,
    cumulative_loss,
    cumulative_risk_mean,
    cumulative_risk_var,
    mab,
    mean_variance,
    mse,
)
from baws.scenarios import (
    GaussianLaw,
    SkewedTLaw,
    skewed_t_cdf,
    skewed_t_moments,
    skewed_t_partial_expectation,
    skewed_t_quantile,
)
from baws.scoring import Mean, VaR, VaRES

from conftest import skewt_partial_expectation_quad


def _tensor(estimates, truths, realized=None):
    est = np.asarray(estimates, dtype=float)
    if realized is None:
        realized = np.zeros(est.shape[:2])
    return ExperimentTensor(est, truths, realized)


def test_mab_examples():
    truth = np.array([1.0, 2.0, 3.0])
    exact = _tensor(np.tile(truth, (4, 1))[:, :, None], truth)
    assert mab(exact) == 0.0
    two = _tensor(np.array([[[0.0]], [[2.0]]]), np.array([1.0]))
    assert mab(two) == 0.0  # bias of the mean, not mean of |bias|
    one = _tensor(np.array([[[1.3]]]), np.array([1.0]))
    assert mab(one) == pytest.approx(0.3)


def test_tensor_holds_its_inputs_as_views():
    rng = np.random.default_rng(1)
    truths, realized = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
    tensor = ExperimentTensor(rng.normal(size=(3, 5, 2)), truths, realized)
    assert np.shares_memory(tensor.truths, truths)
    assert np.shares_memory(tensor.realized, realized)
    assert tensor.truths.shape == (3, 5, 2) and tensor.realized.shape == (3, 5)


def test_variance_and_mse_hand_example():
    t = _tensor(np.array([[[2.0]], [[4.0]]]), np.array([3.0]))
    assert mean_variance(t) == pytest.approx(2.0)  # divisor n - 1 = 1
    assert mse(t) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mean_variance(_tensor(np.array([[[2.0]]]), np.array([3.0])))


def test_mse_translation_invariance():
    rng = np.random.default_rng(0)
    est = rng.normal(size=(5, 7, 1))
    truth = rng.normal(size=7)
    base = mse(_tensor(est, truth))
    shifted = mse(_tensor(est + 3.7, truth + 3.7))
    assert shifted == pytest.approx(base, rel=1e-12)


def test_cr_mean_equals_mse_times_horizon():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n, horizon = int(rng.integers(1, 8)), int(rng.integers(1, 50))
        est = rng.normal(size=(n, horizon, 1))
        truth = rng.normal(size=horizon)
        t = _tensor(est, truth)
        assert cumulative_risk_mean(t) == pytest.approx(
            mse(t) * horizon, abs=1e-10, rel=1e-10)


def test_cr_mean_offset_example():
    truth = np.zeros(10)
    t = _tensor(np.ones((1, 10, 1)), truth)
    assert cumulative_risk_mean(t) == pytest.approx(10.0)


def test_metrics_invariant_under_replication_permutation():
    rng = np.random.default_rng(2)
    est = rng.normal(size=(6, 9, 1))
    truth = rng.normal(size=9)
    realized = rng.normal(size=(6, 9))
    t1 = ExperimentTensor(est, truth, realized)
    perm = rng.permutation(6)
    t2 = ExperimentTensor(est[perm], truth, realized[perm])
    assert mab(t1) == pytest.approx(mab(t2), rel=1e-12)
    assert mse(t1) == pytest.approx(mse(t2), rel=1e-12)
    assert mean_variance(t1) == pytest.approx(mean_variance(t2), rel=1e-12)
    assert cumulative_loss(t1, Mean()) == pytest.approx(
        cumulative_loss(t2, Mean()), rel=1e-12)


def test_cr_var_zero_at_true_var():
    mu = np.array([0.0, 1.0, -0.5])
    sigma = np.array([1.0, 0.5, 2.0])
    alpha = 0.95
    true_var = mu + sigma * norm.ppf(alpha)
    t = _tensor(true_var[None, :, None], true_var)
    assert cumulative_risk_var(t, mu, sigma, GaussianLaw(), alpha) == \
        pytest.approx(0.0, abs=1e-12)


def test_cr_var_frozen_value_and_monte_carlo():
    # standard normal, alpha = .95, forecast v = 2:
    # closed form -0.95*2 + phi(2) - phi(z_alpha) + 2*Phi(2)
    z = norm.ppf(0.95)
    expected = -0.95 * 2 + norm.pdf(2.0) - norm.pdf(z) + 2 * norm.cdf(2.0)
    assert expected == pytest.approx(0.0053551, abs=1e-6)
    t = _tensor(np.array([[[2.0]]]), np.array([z]))
    got = cumulative_risk_var(t, np.zeros(1), np.ones(1), GaussianLaw(), 0.95)
    assert got == pytest.approx(expected, rel=1e-12)
    # Monte Carlo oracle: E pinball(X, v) - E pinball(X, VaR)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(10_000_000)
    mc = (np.mean(((x < 2.0) - 0.95) * (2.0 - x))
          - np.mean(((x < z) - 0.95) * (z - x)))
    assert got == pytest.approx(mc, abs=5e-4)


def test_cr_var_nonnegative_on_grid():
    mu, sigma, alpha = 0.3, 0.8, 0.9
    true_var = mu + sigma * norm.ppf(alpha)
    for v in np.linspace(mu - 3 * sigma, mu + 4 * sigma, 41):
        t = _tensor(np.array([[[v]]]), np.array([true_var]))
        assert cumulative_risk_var(t, mu, sigma, GaussianLaw(), alpha) >= -1e-12


def test_skewt_partial_expectation_quad_vs_closed_form():
    for nu, r in ((5.0, 0.95), (4.5, 0.8), (6.0, 1.1), (3.0, 0.7), (30.0, 1.3)):
        m, s = skewed_t_moments(nu, r)
        kink = -m / s  # where the two pieces meet
        a = np.concatenate([np.linspace(-40.0, 40.0, 161),
                            [kink - 1e-12, kink, kink + 1e-12]]).reshape(2, -1)
        closed = skewed_t_partial_expectation(a, nu, r)
        assert closed.shape == a.shape
        oracle = np.vectorize(lambda x: skewt_partial_expectation_quad(x, nu, r))(a)
        np.testing.assert_allclose(closed, oracle, rtol=0, atol=1e-10)


def test_cr_var_skewt_matches_cellwise_quadrature():
    rng = np.random.default_rng(5)
    alpha, nu, r = 0.95, 5.0, 0.95
    sigma = rng.uniform(0.005, 0.05, size=(3, 7))
    v = sigma * rng.uniform(-1.0, 4.0, size=(3, 7))
    got = cumulative_risk_var(_tensor(v[:, :, None], v), 0.0, sigma, SkewedTLaw(nu, r),
                              alpha)
    # X = sigma Z with Z = -eps:  E[X 1{X < v}] = -sigma E[eps 1{eps > -v/sigma}]
    # = sigma E[eps 1{eps <= -v/sigma}] (eps has mean zero), P(X < v) = 1 - F(-v/sigma)
    q = -skewed_t_quantile(1 - alpha, nu, r)
    psi_true = skewt_partial_expectation_quad(-q, nu, r)
    risk = np.empty_like(v)
    for i, j in np.ndindex(*v.shape):
        a = -v[i, j] / sigma[i, j]
        psi = skewt_partial_expectation_quad(a, nu, r)
        risk[i, j] = (-alpha * v[i, j] - sigma[i, j] * psi + sigma[i, j] * psi_true
                      + v[i, j] * (1.0 - skewed_t_cdf(a, nu, r)))
    assert got == pytest.approx(float(np.mean(risk.sum(axis=1))), abs=1e-9)


def test_cr_var_skewt_zero_at_true_var():
    sigma = np.array([0.01, 0.02, 0.05])
    alpha, nu, r = 0.95, 5.0, 0.95
    q = -skewed_t_quantile(1 - alpha, nu, r)
    true_var = sigma * q
    t = _tensor(true_var[None, :, None], true_var)
    got = cumulative_risk_var(t, 0.0, sigma, SkewedTLaw(nu, r), alpha)
    assert got == pytest.approx(0.0, abs=1e-10)


def test_cr_var_skewt_positive_off_optimum():
    sigma = np.full(4, 0.02)
    alpha, nu, r = 0.95, 5.0, 0.95
    q = -skewed_t_quantile(1 - alpha, nu, r)
    t = _tensor(np.full((2, 4, 1), 0.03), sigma * q)
    got = cumulative_risk_var(t, 0.0, sigma, SkewedTLaw(nu, r), alpha)
    assert got > 0


def test_cumulative_loss_examples():
    realized = np.array([[1.0, 2.0, 3.0]])
    exact = ExperimentTensor(realized[:, :, None], np.zeros(3), realized)
    assert cumulative_loss(exact, Mean()) == 0.0
    one = ExperimentTensor(np.array([[[1.0]]]), np.zeros(1), np.array([[0.0]]))
    assert cumulative_loss(one, VaR(0.95)) == pytest.approx(0.05)
    rng = np.random.default_rng(4)
    est = rng.normal(size=(3, 5, 1))
    realized = rng.normal(size=(3, 5))
    t1 = ExperimentTensor(est, np.zeros(5), realized)
    t2 = ExperimentTensor(np.concatenate([est, est]), np.zeros(5),
                          np.concatenate([realized, realized]))
    assert cumulative_loss(t2, VaR(0.9)) == pytest.approx(
        cumulative_loss(t1, VaR(0.9)), rel=1e-12)


def test_cumulative_loss_dimension_check():
    t = ExperimentTensor(np.zeros((2, 3, 1)), np.zeros(3), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        cumulative_loss(t, VaRES(0.9))


def test_tensor_truth_per_component():
    truths = np.stack([np.full(4, 1.0), np.full(4, 3.0)], axis=-1)  # (horizon, dim)
    est = np.zeros((2, 4, 2))
    t = ExperimentTensor(est, truths[None], np.zeros((2, 4)))
    assert np.all(t.errors(0) == -1.0) and np.all(t.errors(1) == -3.0)
    shared = ExperimentTensor(est, np.full(4, 1.0), np.zeros((2, 4)))
    assert np.all(shared.errors(1) == -1.0)  # one truth for every component


def test_tensor_shape_validation():
    with pytest.raises(ValueError):
        ExperimentTensor(np.zeros((2, 3, 1, 1)), np.zeros(3), np.zeros((2, 3)))
