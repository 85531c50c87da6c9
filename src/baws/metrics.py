"""Evaluation metrics over replicated forecasting experiments.

Conventions: ``estimates`` has shape (replications, horizon, dim); truths
and realized losses have shape (horizon,) or (replications, horizon), the
latter for scenarios whose true parameter path is itself random.  A truth
of shape (replications or 1, horizon, dim) holds one truth per estimate
component; a 1- or 2-d truth is shared by every component.  All
reductions subtract the aligned truth before averaging, which coincides
with the usual definitions when the truth is common across replications.

    MAB   mean over time of |mean over replications of (estimate - truth)|
    Var   mean over time of the (n-1)-divisor variance across replications
    MSE   mean over time and replications of squared error
    CR    cumulative expected excess risk of the forecasts (population
          risk of the estimate minus that of the true parameter): MSE
          times the horizon for the mean; for VaR, closed forms on the
          kernels ``scipy.special.ndtr``/``ndtri``, ``norm_pdf``, ``skewed_t_*``
    CL    cumulative realized forecast loss
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .scoring import ForecastTarget, pointwise_score
from .scenarios import norm_pdf, skewed_t_cdf, skewed_t_partial_expectation, skewed_t_quantile


@dataclass(frozen=True)
class ExperimentTensor:
    """Replication-by-time stack of forecasts with aligned truth and outcomes."""

    estimates: np.ndarray
    truths: np.ndarray
    realized: np.ndarray

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=float)
        if est.ndim == 2:
            est = est[:, :, None]
        if est.ndim != 3:
            raise ValueError("estimates must have shape (n, horizon, dim)")
        n, horizon, dim = est.shape
        truths = np.asarray(self.truths, dtype=float)
        if truths.ndim < 3:  # one truth shared by every component
            truths = np.broadcast_to(truths, (n, horizon))[:, :, None]
        truths = np.broadcast_to(truths, (n, horizon, dim)).copy()
        realized = np.broadcast_to(np.asarray(self.realized, dtype=float), (n, horizon)).copy()
        object.__setattr__(self, "estimates", est)
        object.__setattr__(self, "truths", truths)
        object.__setattr__(self, "realized", realized)

    @property
    def n(self) -> int:
        return self.estimates.shape[0]

    @property
    def horizon(self) -> int:
        return self.estimates.shape[1]

    def errors(self, component: int = 0) -> np.ndarray:
        return self.estimates[:, :, component] - self.truths[:, :, component]


def mab(tensor: ExperimentTensor, component: int = 0) -> float:
    """Mean absolute bias: average the error across replications first."""
    return float(np.mean(np.abs(tensor.errors(component).mean(axis=0))))


def mean_variance(tensor: ExperimentTensor, component: int = 0) -> float:
    """Average across time of the replication variance (divisor n - 1)."""
    if tensor.n < 2:
        raise ValueError("variance requires at least two replications")
    return float(np.mean(np.var(tensor.errors(component), axis=0, ddof=1)))


def mse(tensor: ExperimentTensor, component: int = 0) -> float:
    """Mean squared error over replications and time."""
    return float(np.mean(tensor.errors(component) ** 2))


def cumulative_risk_mean(tensor: ExperimentTensor) -> float:
    """Per-replication sum over time of squared mean error, averaged over
    replications; equals mse * horizon up to summation order."""
    return float(np.mean(np.sum(tensor.errors(0) ** 2, axis=1)))


@dataclass(frozen=True)
class GaussianTruth:
    """Per-period Gaussian loss distribution N(mu_t, sigma_t^2)."""

    mu: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class SkewedTTruth:
    """Loss X_t = sigma_t * Z with Z the sign-flipped standardized skewed t."""

    sigma: np.ndarray
    nu: float
    skew: float


def cumulative_risk_var(tensor: ExperimentTensor, truth, alpha: float) -> float:
    """Cumulative excess expected pinball risk of VaR forecasts.

    Per period the excess risk of forecast v against the true loss law is

        -alpha v - E[X 1{X < v}] + E[X 1{X < VaR}] + v P(X < v),

    which vanishes at v = VaR.  Gaussian truths use the closed-form partial
    expectation mu Phi(z) - sigma phi(z); skewed-t truths use the closed-form
    partial expectation of the standardized innovation
    (``skewed_t_partial_expectation``), evaluated over the whole
    (replication, time) array at once.
    """
    v = tensor.estimates[:, :, 0]
    n, horizon = v.shape
    if isinstance(truth, GaussianTruth):
        mu = np.broadcast_to(np.asarray(truth.mu, dtype=float), (n, horizon))
        sigma = np.broadcast_to(np.asarray(truth.sigma, dtype=float), (n, horizon))
        z = (v - mu) / sigma
        z_alpha = ndtri(alpha)
        part_v = mu * ndtr(z) - sigma * norm_pdf(z)
        part_true = mu * alpha - sigma * norm_pdf(z_alpha)
        risk = -alpha * v - part_v + part_true + v * ndtr(z)
    elif isinstance(truth, SkewedTTruth):
        sigma = np.broadcast_to(np.asarray(truth.sigma, dtype=float), (n, horizon))
        nu, r = truth.nu, truth.skew
        q_z = -skewed_t_quantile(1.0 - alpha, nu, r)  # alpha-quantile of Z = -eps
        psi_true = skewed_t_partial_expectation(-q_z, nu, r)
        a = -v / sigma
        psi = skewed_t_partial_expectation(a, nu, r)
        prob_below = 1.0 - skewed_t_cdf(a, nu, r)
        risk = -alpha * v - sigma * psi + sigma * psi_true + v * prob_below
    else:
        raise TypeError(f"unsupported truth distribution {truth!r}")
    return float(np.mean(np.sum(risk, axis=1)))


def cumulative_loss(tensor: ExperimentTensor, target: ForecastTarget) -> float:
    """Average over replications of the summed realized forecast loss."""
    if tensor.estimates.shape[2] != target.dim:
        raise ValueError("estimate dimension does not match target")
    scores = pointwise_score(tensor.realized, tensor.estimates, target)
    return float(np.mean(np.sum(scores, axis=1)))
