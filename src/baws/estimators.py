"""Exact empirical-score minimizers on a window.

Each target's ``fit`` (in ``scoring``) holds its algorithm; these are the
window-level entry points.  All fits are deterministic and validated
against brute-force minimization in the test suite:

    mean      sample mean (closed form)
    VaR       order statistic ceil(alpha * k)
    VaR/ES    the VaR order statistic and its shortfall e(v), closed form
"""

from __future__ import annotations

from .scoring import (
    FitResult,
    ForecastTarget,
    Mean,
    VaR,
    VaRES,
    WindowStats,
    es_given_v,
    window_stats,
)


def fit_mean(window) -> FitResult:
    """Minimize the empirical squared error; the minimizer is the sample mean."""
    return fit_target(window, Mean())


def fit_var(window, alpha: float) -> FitResult:
    """Minimize the empirical pinball score over quantile estimates."""
    return fit_target(window, VaR(alpha))


def fit_var_es(window, alpha: float) -> FitResult:
    """Minimize the empirical joint VaR/ES score: v is the order statistic
    ceil(alpha * k) that ``fit_var`` returns and e = ``tail_es_given_v``."""
    return fit_target(window, VaRES(alpha))


def tail_es_given_v(window, v: float, alpha: float) -> float:
    """Optimal shortfall estimate for a fixed quantile estimate v.

    e(v) = v + mean(1{x >= v} (x - v)) / (1 - alpha), the unique stationary
    point in e of the empirical joint score (its e-derivative is a strictly
    positive factor times the bracket that this solves).
    """
    return float(es_given_v(window_stats(window), v, alpha))


def fit_target(window, target: ForecastTarget) -> FitResult:
    """Fit the empirical-score minimizer for ``target`` on ``window``."""
    return fit_from_stats(window_stats(window), target)


def fit_from_stats(stats: WindowStats, target: ForecastTarget) -> FitResult:
    """Fit from precomputed ``WindowStats`` (shared by selection and bootstrap)."""
    return target.fit(stats)
