"""Bootstrap calibration of window-stability thresholds.

For a window of length i the threshold is the empirical beta-quantile of
the nonnegative score gaps

    gap_b = score_on_window(theta_b) - score_on_window(theta_hat),

where theta_b is fitted on the b-th resample (iid, or moving-block for
dependent data) and theta_hat on the window itself.  Both estimators are
scored on the original window, so every gap is >= 0 by the minimizer
property of theta_hat.  This module draws the resamples; the target's
``resample_gaps`` (or its ``iid_gaps`` shortcut) turns them into gaps.

Resampling is vectorized across replications.  Streams derive from
(seed, time_index, window_length) through ``numpy.random.SeedSequence``,
so thresholds are reproducible bit-for-bit and independent of evaluation
order across time steps and reference windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .estimators import FitResult, fit_from_stats
from .scoring import ForecastTarget, WindowStats, order_index, window_stats

# unused here; bound so that benchmark/tracing.py can patch these names
from .scoring import joint_score_at, pinball_score_at  # noqa: F401

_GAP_SLACK = 1e-9  # tolerated negative rounding noise, relative to score scale


@dataclass(frozen=True)
class BootstrapConfig:
    """Threshold-calibration policy.

    beta          quantile level of the gap distribution used as threshold
    replications  number of bootstrap resamples per window
    mode          "iid" (classic) or "block" (moving block, dependent data)
    block_c       block length constant: l = round(block_c * ceil(i^(1/3)))
    rng_seed      base seed; streams are derived per (seed, t, i)
    """

    beta: float = 0.9
    replications: int = 500
    mode: str = "iid"
    block_c: float = 1.0
    rng_seed: int | None = None

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.mode not in ("iid", "block"):
            raise ValueError(f"mode must be 'iid' or 'block', got {self.mode!r}")
        if self.block_c <= 0:
            raise ValueError("block_c must be positive")
        if self.rng_seed is not None and self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")


@dataclass(frozen=True)
class ThresholdValue:
    """Calibrated threshold for one reference window."""

    tau: float
    window_length: int
    replications: int


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a (seed, *key) context."""
    if seed is None:
        raise ValueError("bootstrap requires rng_seed to be set")
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))


def iid_resample(window, rng: np.random.Generator) -> np.ndarray:
    """Sample len(window) points uniformly with replacement from the window."""
    w = np.asarray(window, dtype=float)
    if w.size == 0:
        raise ValueError("cannot resample an empty window")
    return w[rng.integers(0, w.size, size=w.size)]


def _int_cbrt_ceil(i: int) -> int:
    """Smallest integer q with q**3 >= i (float-noise-proof)."""
    q = round(i ** (1.0 / 3.0))
    while q**3 < i:
        q += 1
    while q > 1 and (q - 1) ** 3 >= i:
        q -= 1
    return q


def block_length(i: int, c: float) -> tuple[int, int]:
    """Moving-block length l = round_half_up(c * ceil(i^(1/3))) and count m = i // l."""
    if i < 1:
        raise ValueError("window length must be >= 1")
    if c <= 0:
        raise ValueError("block constant must be positive")
    l = max(1, math.floor(c * _int_cbrt_ceil(i) + 0.5))
    return l, i // l


def oversized_block(k_min: int, c: float,
                    max_window: int | None = None) -> tuple[int, int] | None:
    """First window length i >= k_min (up to ``max_window``) whose block
    length l exceeds it, as (i, l), or None.  The scan stops at the first i
    where c * (i^(1/3) + 1) + 0.5 <= i: that bound on l(i) stays <= i for
    every larger i, since its slope is then below 1 and falling."""
    i = k_min
    while (max_window is None or i <= max_window) and c * (i ** (1.0 / 3.0) + 1.0) + 0.5 > i:
        l, _ = block_length(i, c)
        if l > i:
            return i, l
        i += 1
    return None


def block_resample(window, block_len: int, rng: np.random.Generator) -> np.ndarray:
    """Concatenate m = floor(i/l) blocks drawn with replacement from the
    i - l + 1 contiguous length-l blocks, in draw order (length m*l <= i)."""
    w = np.asarray(window, dtype=float)
    i = w.size
    if not 1 <= block_len <= i:
        raise ValueError(f"block length {block_len} outside [1, {i}]")
    m = i // block_len
    starts = rng.integers(0, i - block_len + 1, size=m)
    return sliding_window_view(w, block_len)[starts].reshape(-1)


def empirical_quantile(values, beta: float) -> float:
    """The ceil(beta * B)-th order statistic (1-based) of ``values``."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    j = order_index(beta, v.size)
    return float(np.partition(v, j - 1)[j - 1])


def _resample_rows(window, stats: WindowStats, cfg: BootstrapConfig,
                   rng: np.random.Generator) -> np.ndarray:
    """(B, L) matrix of resampled values; L = i (iid) or m*l (block)."""
    B = cfg.replications
    n = stats.n
    if cfg.mode == "iid":
        # iid resampling is exchangeable, so drawing from the sorted window
        # makes thresholds invariant to permutations of the input
        idx = rng.integers(0, n, size=(B, n))
        return stats.values_sorted[idx]
    l, m = block_length(n, cfg.block_c)
    if m < 1:
        raise ValueError(f"block length {l} exceeds window length {n}")
    w = np.ascontiguousarray(np.asarray(window, dtype=float))
    starts = rng.integers(0, n - l + 1, size=(B, m))
    return sliding_window_view(w, l)[starts].reshape(B, m * l)


def guarded_gaps(raw: np.ndarray, scale: float, kind: str) -> np.ndarray:
    """Clip rounding noise off score gaps; genuine negatives violate the
    minimizer property of the reference fit."""
    floor = -_GAP_SLACK * max(1.0, abs(scale))
    if raw.min() < floor:
        raise AssertionError(f"negative {kind} gap beyond rounding tolerance")
    return np.maximum(raw, 0.0)


def bootstrap_gaps(window, target: ForecastTarget, cfg: BootstrapConfig, *,
                   time_index: int = 0,
                   stats: WindowStats | None = None) -> tuple[np.ndarray, FitResult]:
    """Score gaps of B resample fits against the window fit, plus that fit.

    All gaps are evaluated under the original window's empirical score.
    """
    if stats is None:
        stats = window_stats(window)
    rng = derive_rng(cfg.rng_seed, time_index, stats.n)
    shortcut = target.iid_gaps(stats, cfg.replications, rng) if cfg.mode == "iid" else None
    if shortcut is None:
        fit = fit_from_stats(stats, target)
        raw = target.resample_gaps(stats, _resample_rows(window, stats, cfg, rng), fit)
    else:
        raw, fit = shortcut
    return guarded_gaps(raw, fit.score, "bootstrap"), fit


def bootstrap_threshold(window, target: ForecastTarget, cfg: BootstrapConfig, *,
                        time_index: int = 0) -> ThresholdValue:
    """Calibrate the stability threshold for one window."""
    gaps, _ = bootstrap_gaps(window, target, cfg, time_index=time_index)
    tau = empirical_quantile(gaps, cfg.beta)
    return ThresholdValue(tau, int(np.asarray(window).size), cfg.replications)
