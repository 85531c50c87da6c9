"""Forecast targets and their scoring functions for mean, VaR, and joint VaR/ES.

Every forecast target is scored by a consistent (elicitable) loss:

    mean        squared error          (x - mu)^2
    VaR         check / pinball loss   (1{x < v} - alpha) * (v - x)
    (VaR, ES)   joint quantile/ES loss, built from the pinball term plus
                a logistic tail weight on the ES component

``score_at`` gives the average pointwise loss over a look-back window from
its ``WindowStats``; window selection compares these averages across
windows, all of them at once through a target's ``grid``.  All scores are
evaluated in double precision and are overflow-safe for large |e|.  The
tail weight's kernel is ``scipy.special.expit``, looked up through
``_special`` on first use, so that only VaR/ES scoring imports
``scipy.special``.

Each target is one ``ForecastTarget`` class, the only place where the
package decides anything per target.  A target class supplies

    name, dim, columns      CLI name, parameter dimension, CSV columns
    saws_defaults           SAWSConfig keyword overrides (none by default)
    from_level(alpha)       the target at a tail level (used by the CLI)
    pointwise(x, theta)     loss at single observations
    score_at(stats, theta)  empirical score on a window's WindowStats
    grid(stats)             (theta, scores) of a sequence of C windows'
                            WindowStats in one pass: the (C, dim) fits and
                            the (C, C) scores, scores[r, c] being the score
                            of fit c on window r; bit for bit those of
                            score_at, whose arithmetic it shares
    row_gaps(stats, fit)    per calibration, the function mapping a (b, L)
                            block of resample rows of int32 ranks into
                            stats.values_sorted, which it may overwrite, to
                            their b raw score gaps against the window fit
    iid_rows(stats, b, rng) (b, 1) rows of one rank standing for the next b
                            iid resamples of the stream rng, drawn without
                            them; None (the default) for no such shortcut
    truth(path)             true parameter path of a scenario, shape (T,)
                            or (T, dim) with one column per component
    metric_rows(tensor, population, metrics)
                            experiment metric rows between MSE and CL;
                            population is the loss law (mu, sigma, law)
                            of the replications' paths

Adding a target means one class here plus its entry in ``TARGETS``.  The
base class's ``fit(stats)``, the exact empirical-score minimizer on one
window, reads window 0 of a grid of that window alone, so each target
computes its fit in ``grid`` only.  Callers fit a target through its two
entry points:

    fit_target(window, target)      fit on a raw window
    fit_from_stats(stats, target)   fit on precomputed WindowStats
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _special
from .errors import ConfigError

_GATHER_CHUNK = 8192  # ranks gathered per np.take call in Mean.row_gaps


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
    return -_special.expit(-np.asarray(e, dtype=float))


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
    centered observations.  The prefix sums and the moment statistics are
    computed lazily: the mean paths never need the former, and the
    quantile paths never need the latter.
    """

    __slots__ = ("values_sorted", "center", "n", "_prefix", "_mean", "_var")

    def __init__(self, values_sorted: np.ndarray, center: float, n: int):
        self.values_sorted = values_sorted
        self.center = center
        self.n = n
        self._prefix = None
        self._mean = None
        self._var = None

    @property
    def prefix(self) -> np.ndarray:
        if self._prefix is None:
            # the cumsum of the centered values behind a leading 0.0, summed
            # in place; the first centered value is x_(1) - x_(1) = +0.0, so
            # starting from 0.0 changes no sum
            p = np.zeros(self.n + 1)
            np.subtract(self.values_sorted, self.center, out=p[1:])
            self._prefix = np.add.accumulate(p, out=p)
        return self._prefix

    @property
    def total(self) -> float:
        return float(self.prefix[-1])

    @property
    def mean(self) -> float:
        if self._mean is None:
            # np.mean of float64 is this reduce and one true divide
            self._mean = self.center + float(
                np.add.reduce(self.values_sorted - self.center) / self.n)
        return self._mean

    @property
    def var(self) -> float:
        """Mean squared deviation from the mean (divisor k)."""
        if self._var is None:
            self._var = float(np.add.reduce((self.values_sorted - self.mean) ** 2) / self.n)
        return self._var


def window_stats(window) -> WindowStats:
    """Precompute ``WindowStats`` for a window."""
    w = np.asarray(window, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("window must be a non-empty 1-d sequence")
    ws = np.sort(w)
    return WindowStats(ws, float(ws[0]), w.size)


def _mean_score(mean, var, mu):
    """Squared-error score at mean estimates ``mu`` of a window with mean
    ``mean`` and variance ``var``, by the exact decomposition
    mean((x-mu)^2) = var + (mu - mean)^2, which is stable when comparing
    nearby mu."""
    d = mu - mean
    return var + d * d


def _split(n, n_lt, s_lt, vc, total):
    """Split sums of a window of n values whose centered values sum to
    ``total``, at a v of centered value ``vc``, from the count ``n_lt`` and
    the centered sum ``s_lt`` of its values below v."""
    return n_lt * vc - s_lt, (total - s_lt) - (n - n_lt) * vc


def _split_sums(stats: WindowStats, v: np.ndarray):
    """(sum of v - x over x < v, sum of x - v over x >= v), from one
    ``searchsorted`` into the window."""
    n_lt = stats.values_sorted.searchsorted(v, side="left")
    return _split(stats.n, n_lt, stats.prefix[n_lt], v - stats.center, stats.total)


def _grid_split_sums(stats, v: np.ndarray):
    """(n, below, upper) of the windows ``stats`` at the C values ``v``: the
    (C, 1) window lengths and the (C, C) split sums, row r holding window
    r's ``_split_sums`` at every v.  One ``searchsorted`` per window, and
    one gather from the windows' concatenated prefix sums."""
    n_lt = np.array([s.values_sorted.searchsorted(v, side="left") for s in stats])
    n = np.array([s.n for s in stats])[:, None]
    ends = np.cumsum(n + 1)  # each prefix holds n + 1 sums
    prefix = np.concatenate([s.prefix for s in stats])
    center = np.array([s.center for s in stats])[:, None]
    s_lt = prefix[n_lt + (ends[:, None] - n - 1)]
    return n, *_split(n, n_lt, s_lt, v - center, prefix[ends - 1][:, None])


def _pinball(n, below, upper, alpha: float) -> np.ndarray:
    return ((1.0 - alpha) * below + alpha * upper) / n


def pinball_score_at(stats: WindowStats, v, alpha: float) -> np.ndarray:
    """Empirical pinball score at quantile estimates ``v``."""
    return _pinball(stats.n, *_split_sums(stats, np.asarray(v, dtype=float)), alpha)


def _es(n, v, upper, alpha: float):
    """e(v) = v + mean((x - v)+) / (1 - alpha), from the window's upper split
    sum at v."""
    return v + upper / n / (1.0 - alpha)


def es_given_v(stats: WindowStats, v, alpha: float) -> np.ndarray:
    """Shortfall estimate e(v) = v + mean((x - v)+) / (1 - alpha) minimizing
    the empirical joint score in e at a fixed quantile estimate v."""
    return _es(stats.n, v, _split_sums(stats, np.asarray(v, dtype=float))[1], alpha)


def _joint(n, below, upper, v, e, alpha: float) -> np.ndarray:
    """Joint VaR/ES score from the split sums at v, with the tail weight
    evaluated on e alone."""
    w = tail_weight(e)
    return (
        _pinball(n, below, upper, alpha)
        - w * (upper / n) / (1.0 - alpha)
        + w * (e - v)
        - tail_weight_integral(e)
    )


def joint_score_at(stats: WindowStats, v, e, alpha: float) -> np.ndarray:
    """Empirical joint VaR/ES score at estimates ``(v, e)``."""
    v = np.asarray(v, dtype=float)
    return _joint(stats.n, *_split_sums(stats, v), v, np.asarray(e, dtype=float), alpha)


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

    saws_defaults = {}
    iid_rows = None

    def fit(self, stats: WindowStats) -> FitResult:
        theta, scores = self.grid([stats])
        return FitResult(theta[0], float(scores[0, 0]), stats.n)

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

    def pointwise(self, x, theta):
        return squared_loss(x, theta[..., 0])

    def score_at(self, stats: WindowStats, theta) -> np.ndarray:
        return _mean_score(stats.mean, stats.var, theta[..., 0])

    def grid(self, stats) -> tuple[np.ndarray, np.ndarray]:
        mean = np.array([s.mean for s in stats])
        var = np.array([s.var for s in stats])
        return mean[:, None], _mean_score(mean[:, None], var[:, None], mean)

    def row_gaps(self, stats: WindowStats, fit: FitResult):
        # centered means keep constant windows at exactly zero gap, and the
        # squared-loss gap reduces exactly to (mean_b - mean)^2
        centered = stats.values_sorted - stats.center
        centered_mean = stats.mean - stats.center

        def gaps(rows: np.ndarray) -> np.ndarray:
            ranks = rows.reshape(-1)
            values = np.empty(ranks.size)
            # np.take casts each chunk's int32 ranks to a cache-resident index
            # temporary; ranks are in range, so "wrap" changes none and, unlike
            # "raise", writes straight to ``out``
            for c in range(0, ranks.size, _GATHER_CHUNK):
                np.take(centered, ranks[c:c + _GATHER_CHUNK], out=values[c:c + _GATHER_CHUNK],
                        mode="wrap")
            means = np.add.reduce(values.reshape(rows.shape), axis=1) / rows.shape[1]
            return np.square(means - centered_mean)

        return gaps

    def truth(self, path):
        return path.true_mean

    def metric_rows(self, tensor, population, metrics):
        return [("CR", metrics.cumulative_risk_mean(tensor))]


@dataclass(frozen=True)
class _TailTarget(ForecastTarget):
    """A target at tail level alpha; its truth is the true VaR path."""

    alpha: float

    saws_defaults = {"c_tau": 0.5, "family": "lipschitz"}

    def __post_init__(self):
        _check_level(self.alpha)

    @classmethod
    def from_level(cls, alpha: float) -> ForecastTarget:
        return cls(alpha)

    def quantile_index(self, n: int) -> int:
        """1-based index j = ceil(alpha * n) of the fitted order statistic:
        position j - 1 of a sorted window or of a row partitioned at j - 1."""
        return order_index(self.alpha, n)

    def grid_quantiles(self, stats) -> tuple[np.ndarray, tuple]:
        """The fitted VaR of each window, its order statistic x_(j), and the
        windows' (n, below, upper) split sums at every one of them."""
        v = np.array([s.values_sorted[self.quantile_index(s.n) - 1] for s in stats])
        return v, _grid_split_sums(stats, v)

    def partition_rows(self, rows: np.ndarray) -> int:
        """Partition rank rows at j - 1 and return j.  values_sorted is
        nondecreasing, so each row's j-th smallest rank, at j - 1, indexes
        its j-th smallest value, the row's fitted VaR (Hutson & Ernst,
        JRSS B 62, 2000: a bootstrap quantile is an order statistic of the
        window)."""
        j = self.quantile_index(rows.shape[1])
        rows.partition(j - 1, axis=1)
        return j

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

    def grid(self, stats) -> tuple[np.ndarray, np.ndarray]:
        v, sums = self.grid_quantiles(stats)
        return v[:, None], _pinball(*sums, self.alpha)

    def row_gaps(self, stats: WindowStats, fit: FitResult):
        # a row's fit is its j-th smallest rank, and its gap that of the value
        # there: score every rank once, ties from the first of their group
        table = pinball_score_at(stats, stats.values_sorted, self.alpha) - fit.score

        def gaps(rows: np.ndarray) -> np.ndarray:
            j = self.partition_rows(rows)
            return table[rows[:, j - 1]]

        return gaps

    def iid_rows(self, stats: WindowStats, b: int, rng) -> np.ndarray:
        # The fitted VaR of an iid resample is its j-th order statistic,
        # which lands on sorted-window position floor(n * U_(j)) with
        # U_(j) ~ Beta(j, n - j + 1); sampling that position directly is
        # distribution-exact and avoids materializing the resamples.
        n = stats.n
        j = self.quantile_index(n)
        u = rng.beta(j, n - j + 1, size=b)
        return np.minimum((n * u).astype(np.int32), n - 1)[:, None]

    def metric_rows(self, tensor, population, metrics):
        return [("CR", metrics.cumulative_risk_var(tensor, *population, self.alpha))]


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

    def grid(self, stats) -> tuple[np.ndarray, np.ndarray]:
        v, (n, below, upper) = self.grid_quantiles(stats)
        e = _es(n[:, 0], v, upper.diagonal(), self.alpha)
        return np.column_stack((v, e)), _joint(n, below, upper, v, e, self.alpha)

    def row_gaps(self, stats: WindowStats, fit: FitResult):
        def gaps(rows: np.ndarray) -> np.ndarray:
            j = self.partition_rows(rows)
            v = stats.values_sorted[rows[:, j - 1]]
            # e(v) of each row: after the partition its values >= v sit past
            # j, summed in rank order, not in the CPU-dependent order the
            # partition leaves them
            tail = stats.values_sorted[np.sort(rows[:, j:], axis=1)]
            e = v + (tail - v[:, None]).sum(axis=1) / (rows.shape[1] * (1.0 - self.alpha))
            return joint_score_at(stats, v, e, self.alpha) - fit.score

        return gaps

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
    """Fit from precomputed ``WindowStats``, through a grid of that window
    alone: the bootstrap's window fit when its caller passes none (selection
    passes the fit of its own step's grid)."""
    return target.fit(stats)
