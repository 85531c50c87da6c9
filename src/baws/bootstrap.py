"""Bootstrap calibration of window-stability thresholds.

For a window of length i the threshold is the empirical beta-quantile of
the nonnegative score gaps

    gap_b = score_on_window(theta_b) - score_on_window(theta_hat),

where theta_b is fitted on the b-th resample (iid, or moving-block for
dependent data) and theta_hat on the window itself.  Both estimators are
scored on the original window, so every gap is >= 0 by the minimizer
property of theta_hat.  This module draws the resamples; the target's
``row_fits`` reduces them to fits and its ``fit_gaps`` scores those (or
its ``iid_gaps`` shortcut draws the gaps without resample rows).

What a row holds per drawn observation is the target's ``row_source``:
for Mean, its value centered on the window's smallest value; for the
tail targets, its int32 rank in the sorted window.  iid draws are ranks
already, and block rows are blocks of the ranks of a stable argsort.  A
tail fit partitions the ranks and reads its order statistic from the
sorted window; VaR/ES sums its tail in rank order, not in the order the
partition leaves it, which depends on the SIMD code numpy dispatches to.
Thresholds are therefore bit-identical across CPUs and dispatch targets.

Resamples are filled in blocks of rows, of at most 512 KB each, in a
scratch buffer that each thread keeps across calls; every block is
reduced to its row fits before the next is drawn, and the B fits are
scored once.  Memory per call is therefore bounded whatever B is.  Indices
are drawn as int32, which gives the same integers from the same stream as
int64 draws, and consecutive blocks continue one stream, so the resamples
equal those of a single (B, L) draw.

Streams derive from (seed, time_index, window_length) through
``numpy.random.SeedSequence``; the seed and time index are arguments of
``bootstrap_gaps``, not policy fields, so thresholds are reproducible
bit-for-bit and independent of evaluation order, or concurrency, across
time steps and reference windows.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError
from .scoring import (FitResult, ForecastTarget, WindowStats, fit_from_stats, order_index,
                      window_stats)

# unused here; bound so that benchmark/tracing.py can patch these names
from .scoring import joint_score_at, pinball_score_at  # noqa: F401

_GAP_SLACK = 1e-9  # tolerated negative rounding noise, relative to score scale
_BLOCK_BYTES = 1 << 19  # bytes of resample rows per row block
_buffers = threading.local()


@dataclass(frozen=True)
class BootstrapConfig:
    """Threshold-calibration policy.

    beta          quantile level of the gap distribution used as threshold
    replications  number of bootstrap resamples per window
    mode          "iid" (classic) or "block" (moving block, dependent data)
    block_c       block length constant: l = round(block_c * ceil(i^(1/3)))

    The stream seed is not part of the policy: ``bootstrap_gaps`` takes it
    as a call argument beside the time index.
    """

    beta: float = 0.9
    replications: int = 500
    mode: str = "iid"
    block_c: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.mode not in ("iid", "block"):
            raise ConfigError(f"mode must be 'iid' or 'block', got {self.mode!r}")
        if self.block_c <= 0:
            raise ConfigError("block_c must be positive")


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


def empirical_quantile(values, beta: float) -> float:
    """The ceil(beta * B)-th order statistic (1-based) of ``values``."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    j = order_index(beta, v.size)
    return float(np.partition(v, j - 1)[j - 1])


def _scratch(name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An array of ``shape`` and ``dtype`` on this thread's byte buffer
    ``name``, which grows but is never freed: fresh blocks above the
    allocator's mmap threshold would each fault their pages in anew."""
    dtype = np.dtype(dtype)
    size = math.prod(shape) * dtype.itemsize
    buf = getattr(_buffers, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=np.uint8)
        setattr(_buffers, name, buf)
    return buf[:size].view(dtype).reshape(shape)


def _row_fits(window, stats: WindowStats, target: ForecastTarget,
              cfg: BootstrapConfig, rng: np.random.Generator) -> np.ndarray:
    """(B, dim) fits of B resample rows, filled and reduced block by block.

    A row is i draws of single observations (iid) or m draws of length-l
    blocks (block), concatenated in draw order: L = i or m * l entries,
    each the target's ``row_source`` entry of the observation drawn.
    """
    n = stats.n
    if cfg.mode == "iid":
        # iid resampling is exchangeable, so drawing from the sorted window
        # makes thresholds invariant to permutations of the input; a None
        # source means the drawn ranks are the rows
        source, draws, width, choices = target.row_source(stats, None), n, 1, n
    else:
        l, m = block_length(n, cfg.block_c)
        if m < 1:
            raise ValueError(f"block length {l} exceeds window length {n}")
        per_obs = target.row_source(stats, np.asarray(window, dtype=float))
        # np.take copies a strided source on every call; copy it once here
        source = _scratch("blocks", (n - l + 1, l), per_obs.dtype)
        source[...] = sliding_window_view(per_obs, l)
        draws, width, choices = m, l, n - l + 1
    B = cfg.replications
    L = draws * width
    dtype = np.dtype(np.int32) if source is None else source.dtype
    step = max(1, _BLOCK_BYTES // (L * dtype.itemsize))
    fits = np.empty((B, target.dim))
    for r0 in range(0, B, step):
        b = min(step, B - r0)
        rows = idx = rng.integers(0, choices, size=(b, draws), dtype=np.int32)
        if source is not None:
            rows = _scratch("rows", (b, L), dtype)
            # indices are in range, so "wrap" changes none; "raise" would
            # gather into a temporary and copy it to ``out``
            np.take(source, idx, axis=0, out=rows.reshape((b, draws) + source.shape[1:]),
                    mode="wrap")
        fits[r0:r0 + b] = target.row_fits(stats, rows)
    return fits


def guarded_gaps(raw: np.ndarray, scale: float, kind: str) -> np.ndarray:
    """Clip rounding noise off score gaps; genuine negatives violate the
    minimizer property of the reference fit."""
    floor = -_GAP_SLACK * max(1.0, abs(scale))
    if raw.min() < floor:
        raise AssertionError(f"negative {kind} gap beyond rounding tolerance")
    return np.maximum(raw, 0.0)


def bootstrap_gaps(window, target: ForecastTarget, cfg: BootstrapConfig, *,
                   time_index: int = 0, seed: int = 0,
                   stats: WindowStats | None = None) -> tuple[np.ndarray, FitResult]:
    """Score gaps of B resample fits against the window fit, plus that fit.

    The resamples come from the stream keyed by (seed, time_index, window
    length).  All gaps are evaluated under the original window's empirical
    score.
    """
    if stats is None:
        stats = window_stats(window)
    rng = np.random.default_rng(np.random.SeedSequence((seed, time_index, stats.n)))
    if cfg.mode == "block" or target.iid_gaps is None:  # no shortcut: fill rows
        fit = fit_from_stats(stats, target)
        raw = target.fit_gaps(stats, _row_fits(window, stats, target, cfg, rng), fit)
    else:
        raw, fit = target.iid_gaps(stats, cfg.replications, rng)
    return guarded_gaps(raw, fit.score, "bootstrap"), fit
