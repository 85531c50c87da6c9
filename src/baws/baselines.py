"""Reference forecasters: the fixed rolling window (the full window is a
rolling window as long as the history) and the deterministic power-law
thresholds of the SAWS selector.

SAWS is ``selection.select_window`` with a ``SAWSConfig`` as its threshold
policy in place of a ``BootstrapConfig``.  Two threshold families are
provided,

    convex_smooth   tau(i) = c_tau * i^-(1 - alpha_tau)
    lipschitz       tau(i) = c_tau * i^-(1/2 - alpha_tau)

matching the decay rates appropriate for strongly convex/smooth and for
Lipschitz losses respectively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .scoring import FitResult, ForecastTarget, fit_target

SAWS_FAMILIES = ("convex_smooth", "lipschitz")


@dataclass(frozen=True)
class SAWSConfig:
    """Deterministic threshold family with rate constant alpha_tau and scale c_tau."""

    alpha_tau: float = 0.1
    c_tau: float = 0.3
    family: str = "convex_smooth"

    def __post_init__(self):
        if not 0.0 < self.alpha_tau < 1.0:
            raise ConfigError("alpha_tau must lie in (0, 1)")
        if self.c_tau <= 0:
            raise ConfigError("c_tau must be positive")
        if self.family not in SAWS_FAMILIES:
            raise ConfigError(f"family must be one of {SAWS_FAMILIES}")

    def threshold_for(self, window_length: int) -> float:
        """Deterministic threshold for a reference window of given length."""
        if window_length < 1:
            raise ValueError("window length must be >= 1")
        if self.family == "convex_smooth":
            exponent = 1.0 - self.alpha_tau
        else:
            exponent = 0.5 - self.alpha_tau
        return float(self.c_tau * window_length ** (-exponent))


def rolling_forecast(history, window: int, target: ForecastTarget) -> FitResult:
    """Fit on the last min(window, len(history)) observations."""
    x = np.asarray(history, dtype=float)
    if x.size == 0:
        raise ValueError("history must be non-empty")
    if window < 1:
        raise ValueError("window must be >= 1")
    k = min(window, x.size)
    return fit_target(x[x.size - k:], target)
