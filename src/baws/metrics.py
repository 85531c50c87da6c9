"""Evaluation metrics over replicated forecasting experiments.

Conventions: ``estimates`` has shape (replications, horizon, dim); truths
and realized losses have shape (horizon,) or (replications, horizon), the
latter for scenarios whose true parameter path is itself random.  A truth
of shape (replications or 1, horizon, dim) holds one truth per estimate
component; a 1- or 2-d truth is shared by every component.  All
reductions subtract the aligned truth before averaging, which coincides
with the usual definitions when the truth is common across replications.
An ``ExperimentTensor`` holds its inputs as (broadcast) views and never
writes to them; every metric computes fresh arrays from them.

    MAB   mean over time of |mean over replications of (estimate - truth)|
    Var   mean over time of the (n-1)-divisor variance across replications
    MSE   mean over time and replications of squared error
    CR    cumulative expected excess risk of the forecasts (population
          risk of the estimate minus that of the true parameter): MSE
          times the horizon for the mean; for VaR, one closed form on the
          loss law mu + sigma * Z, whose innovation law (a scenario path's
          ``law``) owns the kernels: its cdf, partial expectation and
          quantile
    CL    cumulative realized forecast loss
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scoring import ForecastTarget, pointwise_score


@dataclass(frozen=True)
class ExperimentTensor:
    """Replication-by-time views of forecasts with aligned truth and outcomes."""

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
        truths = np.broadcast_to(truths, (n, horizon, dim))
        realized = np.broadcast_to(np.asarray(self.realized, dtype=float), (n, horizon))
        object.__setattr__(self, "estimates", est)
        object.__setattr__(self, "truths", truths)
        object.__setattr__(self, "realized", realized)

    @property
    def n(self) -> int:
        return self.estimates.shape[0]

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


def cumulative_risk_var(tensor: ExperimentTensor, mu, sigma, law, alpha: float) -> float:
    """Cumulative excess expected pinball risk of VaR forecasts.

    Each (replication, time) cell's loss is X = mu + sigma * Z, Z ~ ``law``.
    The excess risk of forecast v against it is

        -alpha v - E[X 1{X < v}] + E[X 1{X < VaR}] + v P(X < v),

    which vanishes at v = VaR = mu + sigma q, q the law's alpha-quantile.  At
    z = (v - mu) / sigma, E[X 1{X < v}] = mu P(Z < z) + sigma E[Z 1{Z < z}],
    from the law's closed-form cdf and partial expectation.
    """
    v = tensor.estimates[:, :, 0]
    n, horizon = v.shape
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (n, horizon))
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (n, horizon))
    z = (v - mu) / sigma
    below = law.cdf(z)
    part_v = mu * below + sigma * law.partial(z)
    part_true = mu * alpha + sigma * law.partial(law.quantile(alpha))
    risk = -alpha * v - part_v + part_true + v * below
    return float(np.mean(np.sum(risk, axis=1)))


def cumulative_loss(tensor: ExperimentTensor, target: ForecastTarget) -> float:
    """Average over replications of the summed realized forecast loss."""
    if tensor.estimates.shape[2] != target.dim:
        raise ValueError("estimate dimension does not match target")
    scores = pointwise_score(tensor.realized, tensor.estimates, target)
    return float(np.mean(np.sum(scores, axis=1)))
