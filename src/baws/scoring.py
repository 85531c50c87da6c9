"""Forecast targets and their scoring functions for mean, VaR, and joint VaR/ES.

Every forecast target is scored by a consistent (elicitable) loss:

    mean        squared error          (x - mu)^2
    VaR         check / pinball loss   (1{x < v} - alpha) * (v - x)
    (VaR, ES)   joint quantile/ES loss, built from the pinball term plus
                a logistic tail weight on the ES component

``score_at`` gives the average pointwise loss over a look-back window from
its ``WindowStats``; window selection compares these averages across
windows.  All scores are evaluated in double precision and are
overflow-safe for large |e|.

Each target is one ``ForecastTarget`` class, the only place where the
package decides anything per target.  A target class supplies

    name, dim, columns      CLI name, parameter dimension, CSV columns
    saws_defaults           SAWSConfig keyword defaults
    from_level(alpha)       the target at a tail level (used by the CLI)
    pointwise(x, theta)     loss at single observations
    score_at(stats, theta)  empirical score on a window's WindowStats
    fit(stats)              exact empirical-score minimizer, a FitResult
    resample_gaps(stats, rows, fit)
                            raw bootstrap score gaps of (B, L) resamples
    iid_gaps(stats, B, rng) (raw gaps, fit) for B iid resamples drawn
                            without materializing them, or None
    truth(path)             true parameter path of a scenario, shape (T,)
                            or (T, dim) with one column per component
    metric_rows(tensor, population, metrics)
                            experiment metric rows between MSE and CL

Adding a target means one class here plus its entry in ``TARGETS``.
Callers fit a target through its two entry points:

    fit_target(window, target)      fit on a raw window
    fit_from_stats(stats, target)   fit on precomputed WindowStats
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError


def _check_level(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"tail level must lie strictly in (0, 1), got {alpha}")


def _check_finite(name: str, *values) -> None:
    for v in values:
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} requires finite inputs")


def order_index(level: float, n: int) -> int:
    """1-based order-statistic index ceil(level * n).

    Exact multiples resolve down (level*n integral gives exactly level*n);
    a half-ulp guard absorbs float noise like 0.9 * 20 = 18.000000000000004.
    """
    return max(1, min(n, math.ceil(level * n - 1e-9)))


def tail_weight(e):
    """Logistic weight -exp(-e) / (1 + exp(-e)) on the ES tail terms.

    Strictly increasing with limit 0 as e -> +inf; evaluated stably for
    any magnitude of e.
    """
    return -expit(-np.asarray(e, dtype=float))


def tail_weight_integral(e):
    """Antiderivative log(1 + exp(-e)) of ``tail_weight``, vanishing at +inf."""
    return np.logaddexp(0.0, -np.asarray(e, dtype=float))


def squared_loss(x, mu):
    """Squared error (x - mu)^2."""
    _check_finite("squared_loss", x, mu)
    d = np.asarray(x, dtype=float) - np.asarray(mu, dtype=float)
    return d * d


def pinball_score(x, v, alpha: float):
    """Check-function score (1{x < v} - alpha) * (v - x).

    The indicator is strictly "x < v"; ties x == v contribute zero.
    """
    _check_level(alpha)
    _check_finite("pinball_score", x, v)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return ((x < v) - alpha) * (v - x)


def joint_vares_score(x, v, e, alpha: float):
    """Joint VaR/ES score at quantile estimate v and shortfall estimate e.

    pinball(x, v) + w(e) * 1{x >= v} * (v - x) / (1 - alpha)
                  + w(e) * (e - v) + softplus(-e)

    with w = ``tail_weight``.  As e -> +inf both tail terms vanish and the
    score reduces to the pinball score.
    """
    _check_level(alpha)
    _check_finite("joint_vares_score", x, v, e)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    e = np.asarray(e, dtype=float)
    w = tail_weight(e)
    base = ((x < v) - alpha) * (v - x)
    tail = w * (x >= v) * (v - x) / (1.0 - alpha)
    return base + tail + w * (e - v) - tail_weight_integral(e)


class WindowStats:
    """Sorted-order sufficient statistics of one window.

    Enables O(log k) empirical-score evaluation at arbitrary parameters,
    which the selection loop and the bootstrap hit thousands of times per
    window.  Sums are kept relative to the smallest observation: the
    pinball and tail terms only involve differences, and centering keeps
    them exact for degenerate (constant) windows instead of leaving
    cancellation noise.  ``prefix[r]`` is the sum of the r smallest
    centered observations.  Moment statistics are computed lazily; the
    quantile paths never need them.
    """

    __slots__ = ("values_sorted", "prefix", "center", "n", "_mean", "_var")

    def __init__(self, values_sorted: np.ndarray, prefix: np.ndarray,
                 center: float, n: int):
        self.values_sorted = values_sorted
        self.prefix = prefix
        self.center = center
        self.n = n
        self._mean = None
        self._var = None

    @property
    def total(self) -> float:
        return float(self.prefix[-1])

    @property
    def mean(self) -> float:
        if self._mean is None:
            self._mean = self.center + float(np.mean(self.values_sorted - self.center))
        return self._mean

    @property
    def var(self) -> float:
        """Mean squared deviation from the mean (divisor k)."""
        if self._var is None:
            self._var = float(np.mean((self.values_sorted - self.mean) ** 2))
        return self._var


def window_stats(window) -> WindowStats:
    """Precompute ``WindowStats`` for a window."""
    w = np.asarray(window, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("window must be a non-empty 1-d sequence")
    ws = np.sort(w)
    center = float(ws[0])
    prefix = np.concatenate(([0.0], np.cumsum(ws - center)))
    return WindowStats(ws, prefix, center, w.size)


def mean_score_at(stats: WindowStats, mu) -> np.ndarray:
    """Empirical squared-error score at mean estimates ``mu``.

    Uses the exact decomposition mean((x-mu)^2) = var + (mu - mean)^2,
    which is stable when comparing nearby mu.
    """
    mu = np.asarray(mu, dtype=float)
    d = mu - stats.mean
    return stats.var + d * d


def _tail_counts(stats: WindowStats, v: np.ndarray):
    n_lt = np.searchsorted(stats.values_sorted, v, side="left")
    s_lt = stats.prefix[n_lt]
    return n_lt, s_lt


def pinball_score_at(stats: WindowStats, v, alpha: float) -> np.ndarray:
    """Empirical pinball score at quantile estimates ``v``."""
    v = np.asarray(v, dtype=float)
    n_lt, s_lt = _tail_counts(stats, v)
    vc = v - stats.center
    below = (1.0 - alpha) * (n_lt * vc - s_lt)
    above = alpha * ((stats.total - s_lt) - (stats.n - n_lt) * vc)
    return (below + above) / stats.n


def tail_mean_at(stats: WindowStats, v) -> np.ndarray:
    """mean(1{x >= v} * (x - v)) over the window; nonnegative for v <= max."""
    v = np.asarray(v, dtype=float)
    n_lt, s_lt = _tail_counts(stats, v)
    vc = v - stats.center
    return ((stats.total - s_lt) - (stats.n - n_lt) * vc) / stats.n


def es_given_v(stats: WindowStats, v, alpha: float) -> np.ndarray:
    """Shortfall estimate e(v) = v + mean((x - v)+) / (1 - alpha) minimizing
    the empirical joint score in e at a fixed quantile estimate v."""
    return v + tail_mean_at(stats, v) / (1.0 - alpha)


def joint_score_at(stats: WindowStats, v, e, alpha: float) -> np.ndarray:
    """Empirical joint VaR/ES score at estimates ``(v, e)``."""
    v = np.asarray(v, dtype=float)
    e = np.asarray(e, dtype=float)
    w = tail_weight(e)
    return (
        pinball_score_at(stats, v, alpha)
        - w * tail_mean_at(stats, v) / (1.0 - alpha)
        + w * (e - v)
        - tail_weight_integral(e)
    )


@dataclass(frozen=True)
class FitResult:
    """Fitted parameter vector, its achieved empirical score, and window length."""

    theta: np.ndarray
    score: float
    window_length: int


class ForecastTarget:
    """Base of the target classes; the module docstring lists the protocol."""

    dim = 1

    @classmethod
    def from_level(cls, alpha: float) -> ForecastTarget:
        _check_level(alpha)  # rejected even where the target has no level
        return cls()

    def iid_gaps(self, stats: WindowStats, replications: int, rng):
        return None

    def _path_truth(self, path, field: str):
        value = getattr(path, field)
        if value is None:
            raise ValueError(f"{self.name} metrics need a scenario path with {field}")
        return value


@dataclass(frozen=True)
class Mean(ForecastTarget):
    """Conditional-mean target, scored by squared error; the fit is the
    sample mean."""

    name = "mean"
    columns = ("mean_hat",)
    saws_defaults = {"alpha_tau": 0.1, "c_tau": 0.3, "family": "convex_smooth"}

    def pointwise(self, x, theta):
        return squared_loss(x, theta[..., 0])

    def score_at(self, stats: WindowStats, theta) -> np.ndarray:
        return mean_score_at(stats, theta[..., 0])

    def fit(self, stats: WindowStats) -> FitResult:
        return FitResult(np.array([stats.mean]), float(mean_score_at(stats, stats.mean)),
                         stats.n)

    def resample_gaps(self, stats: WindowStats, rows: np.ndarray, fit: FitResult):
        # squared-loss score: gap reduces exactly to (mean_b - mean)^2;
        # centered means keep constant windows at exactly zero
        d = (rows - stats.center).mean(axis=1) - (stats.mean - stats.center)
        return d * d

    def truth(self, path):
        return path.true_mean

    def metric_rows(self, tensor, population, metrics):
        return [("CR", metrics.cumulative_risk_mean(tensor))]


@dataclass(frozen=True)
class _TailTarget(ForecastTarget):
    """A target at tail level alpha; its truth is the true VaR path."""

    alpha: float

    saws_defaults = {"alpha_tau": 0.1, "c_tau": 0.5, "family": "lipschitz"}

    def __post_init__(self):
        _check_level(self.alpha)

    @classmethod
    def from_level(cls, alpha: float) -> ForecastTarget:
        return cls(alpha)

    def quantile_index(self, n: int) -> int:
        """1-based index j = ceil(alpha * n) of the fitted order statistic:
        position j - 1 of a sorted window or of a row partitioned at j - 1."""
        return order_index(self.alpha, n)

    def truth(self, path):
        return self._path_truth(path, "true_var")


@dataclass(frozen=True)
class VaR(_TailTarget):
    """Value-at-Risk (alpha-quantile of the loss), scored by pinball loss.

    The fit is the order statistic ceil(alpha * k), the lower endpoint of
    the minimizing interval when alpha * k is integral.
    """

    name = "var"
    columns = ("var_hat",)

    def pointwise(self, x, theta):
        return pinball_score(x, theta[..., 0], self.alpha)

    def score_at(self, stats: WindowStats, theta) -> np.ndarray:
        return pinball_score_at(stats, theta[..., 0], self.alpha)

    def fit(self, stats: WindowStats) -> FitResult:
        v = float(stats.values_sorted[self.quantile_index(stats.n) - 1])
        return FitResult(np.array([v]), float(pinball_score_at(stats, v, self.alpha)), stats.n)

    def resample_gaps(self, stats: WindowStats, rows: np.ndarray, fit: FitResult):
        j = self.quantile_index(rows.shape[1])
        rows.partition(j - 1, axis=1)
        return pinball_score_at(stats, rows[:, j - 1], self.alpha) - fit.score

    def iid_gaps(self, stats: WindowStats, replications: int, rng):
        # The fitted VaR of an iid resample is its j-th order statistic,
        # which lands on sorted-window position floor(n * U_(j)) with
        # U_(j) ~ Beta(j, n - j + 1); sampling that position directly is
        # distribution-exact and avoids materializing the resamples.
        n = stats.n
        j = self.quantile_index(n)
        v = stats.values_sorted[j - 1]
        u = rng.beta(j, n - j + 1, size=replications)
        pos = np.minimum((n * u).astype(np.int64), n - 1)
        scores = pinball_score_at(stats, np.append(stats.values_sorted[pos], v), self.alpha)
        fit = FitResult(np.array([v]), float(scores[-1]), n)
        return scores[:-1] - fit.score, fit

    def metric_rows(self, tensor, population, metrics):
        return [("CR", metrics.cumulative_risk_var(tensor, population, self.alpha))]


@dataclass(frozen=True)
class VaRES(_TailTarget):
    """Joint (VaR, ES) target, scored by the two-parameter joint loss.

    The fit is closed form.  At fixed v the score is minimized in e at
    e(v) = v + mean((x - v)+) / (1 - alpha) (``es_given_v``), where it equals
    pinball(v) - softplus(-e(v)).  The pinball term is minimized on the
    alpha-quantile interval; so is e(v), the Rockafellar-Uryasev function,
    and -softplus(-e) increases with e.  Both terms are flat on that
    interval, so its lower endpoint, the order statistic x_(j) with
    j = ceil(alpha * k) that ``VaR`` fits, is the smallest minimizing v, and
    e = e(x_(j)).  O(k) on partitioned rows.
    """

    name = "vares"
    dim = 2
    columns = ("var_hat", "es_hat")

    def pointwise(self, x, theta):
        return joint_vares_score(x, theta[..., 0], theta[..., 1], self.alpha)

    def score_at(self, stats: WindowStats, theta) -> np.ndarray:
        return joint_score_at(stats, theta[..., 0], theta[..., 1], self.alpha)

    def fit(self, stats: WindowStats) -> FitResult:
        v = float(stats.values_sorted[self.quantile_index(stats.n) - 1])
        theta = np.array([v, es_given_v(stats, v, self.alpha)])
        score = float(joint_score_at(stats, theta[0], theta[1], self.alpha))
        return FitResult(theta, score, stats.n)

    def resample_gaps(self, stats: WindowStats, rows: np.ndarray, fit: FitResult):
        j = self.quantile_index(rows.shape[1])
        rows.partition(j - 1, axis=1)
        v = rows[:, j - 1]
        # e(v) of each row: after the partition its values >= v sit past j
        e = v + (rows[:, j:] - v[:, None]).sum(axis=1) / (rows.shape[1] * (1.0 - self.alpha))
        return joint_score_at(stats, v, e, self.alpha) - fit.score

    def truth(self, path):
        return np.stack([super().truth(path), self._path_truth(path, "true_es")], axis=-1)

    def metric_rows(self, tensor, population, metrics):
        rows = [("MAB_es", metrics.mab(tensor, component=1))]
        if tensor.n >= 2:
            rows.append(("Var_es", metrics.mean_variance(tensor, component=1)))
        return rows + [("MSE_es", metrics.mse(tensor, component=1))]


TARGETS = {cls.name: cls for cls in (Mean, VaR, VaRES)}


def pointwise_score(x, theta, target: ForecastTarget):
    """Loss of parameter vector ``theta`` at a single observation ``x``."""
    return target.pointwise(x, np.asarray(theta, dtype=float))


def score_at(stats: WindowStats, theta: np.ndarray, target: ForecastTarget) -> np.ndarray:
    """Empirical score of parameter rows ``theta`` (shape (..., dim)) on a window."""
    return target.score_at(stats, np.asarray(theta, dtype=float))


def fit_target(window, target: ForecastTarget) -> FitResult:
    """Fit the empirical-score minimizer for ``target`` on ``window``."""
    return target.fit(window_stats(window))


def fit_from_stats(stats: WindowStats, target: ForecastTarget) -> FitResult:
    """Fit from precomputed ``WindowStats`` (shared by selection and bootstrap)."""
    return target.fit(stats)
