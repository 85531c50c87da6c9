"""Reference forecasters: fixed rolling window, full window, and the
deterministic power-law thresholds of the SAWS selector.

SAWS is ``selection.select_window`` with a ``SAWSConfig`` as its threshold
policy in place of a ``BootstrapConfig``.  Two threshold families are
provided,

    convex_smooth   tau(i) = c_tau * i^-(1 - alpha_tau)
    lipschitz       tau(i) = c_tau * i^-(1/2 - alpha_tau)

matching the decay rates appropriate for strongly convex/smooth and for
Lipschitz losses respectively.  Any other rule can be plugged in through
``selection.CallableThreshold``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import FitResult, fit_target
from .scoring import ForecastTarget

SAWS_FAMILIES = ("convex_smooth", "lipschitz")


@dataclass(frozen=True)
class SAWSConfig:
    """Deterministic threshold family with rate constant alpha_tau and scale c_tau."""

    alpha_tau: float = 0.1
    c_tau: float = 0.3
    family: str = "convex_smooth"

    def __post_init__(self):
        if not 0.0 < self.alpha_tau < 1.0:
            raise ValueError("alpha_tau must lie in (0, 1)")
        if self.c_tau <= 0:
            raise ValueError("c_tau must be positive")
        if self.family not in SAWS_FAMILIES:
            raise ValueError(f"family must be one of {SAWS_FAMILIES}")

    def threshold_for(self, window_length: int) -> float:
        return saws_threshold(window_length, self)


def saws_threshold(window_length: int, cfg: SAWSConfig) -> float:
    """Deterministic threshold for a reference window of given length."""
    if window_length < 1:
        raise ValueError("window length must be >= 1")
    if cfg.family == "convex_smooth":
        exponent = 1.0 - cfg.alpha_tau
    else:
        exponent = 0.5 - cfg.alpha_tau
    return float(cfg.c_tau * window_length ** (-exponent))


def rolling_forecast(history, window: int, target: ForecastTarget) -> FitResult:
    """Fit on the last min(window, len(history)) observations."""
    x = np.asarray(history, dtype=float)
    if x.size == 0:
        raise ValueError("history must be non-empty")
    if window < 1:
        raise ValueError("window must be >= 1")
    k = min(window, x.size)
    return fit_target(x[x.size - k:], target)


def full_window_forecast(history, target: ForecastTarget) -> FitResult:
    """Fit on the entire available history."""
    x = np.asarray(history, dtype=float)
    if x.size == 0:
        raise ValueError("history must be non-empty")
    return fit_target(x, target)
