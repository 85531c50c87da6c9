"""Bootstrap calibration of window-stability thresholds.

For a window of length i the threshold is the empirical beta-quantile of
the nonnegative score gaps

    gap_b = score_on_window(theta_b) - score_on_window(theta_hat),

where theta_b is fitted on the b-th resample (iid, or moving-block for
dependent data) and theta_hat on the window itself.  Both estimators are
scored on the original window, so every gap is >= 0 by the minimizer
property of theta_hat.  This module draws the resamples, and the function
that the target's ``row_gaps`` builds once per calibration maps each block
of resample rows to their gaps.

Every row holds int32 ranks into the sorted window, whatever the target:
iid rows are the rank draws themselves, and block rows are blocks of the
ranks of a stable argsort of the window.  A target's ``row_gaps`` reads
its fits from the sorted window at those ranks.  A tail fit partitions the
ranks; a VaR fit is the row's j-th smallest rank itself, an order statistic
of the window, so VaR's gaps are read from one table of the gap at every
rank, and its ``iid_rows`` shortcut draws that rank of each iid resample
as a row of one rank.  VaR/ES sums its tail in rank order, not in the order
the partition leaves it, which depends on the SIMD code numpy dispatches
to.  Thresholds are therefore bit-identical across CPUs and dispatch
targets.

Resamples are filled in blocks of rows, of at most 512 KB each (block
rows in a scratch buffer that each thread keeps across calls); every block is
reduced to its gaps before the next is drawn.  Memory per call is
therefore bounded whatever B is.  Indices are drawn as int32, which
gives the same integers from the same stream as int64 draws, and
consecutive blocks continue one stream, so the resamples, and the gaps,
equal those of a single (B, L) draw whatever the block sizes.

That makes calibration curtailable.  A caller that needs the threshold only
through a few decisions passes ``until``, which sees each block's gaps and
returns how many more rows its decisions need; the draw stops once they are
fixed, and the gaps drawn so far are the first ones of the full draw (see
``selection``).  A curtailed draw's blocks hold at least those rows, at
least the rows drawn so far (so blocks double) and at least max(64 rows,
512 ranks), since a smaller block costs more per row: the iid VaR
shortcut's rows of one rank come in one block up to B = 512.

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
from typing import Callable

import numpy as np

from .errors import ConfigError
from .scoring import (FitResult, ForecastTarget, WindowStats, fit_from_stats, order_index,
                      window_stats)

# unused here; bound so that benchmark/tracing.py can patch these names
from .scoring import joint_score_at, pinball_score_at  # noqa: F401

MODES = ("iid", "block")
BLOCK_C = 1.0  # block mode's default block length constant
_GAP_SLACK = 1e-9  # tolerated negative rounding noise, relative to score scale
_BLOCK_BYTES = 1 << 19  # bytes of resample rows per row block
_FIRST_ROWS, _FIRST_RANKS = 64, 512  # a curtailed draw's smallest block: max(rows, ranks)
_buffers = threading.local()


@dataclass(frozen=True)
class BootstrapConfig:
    """Threshold-calibration policy.

    beta          quantile level of the gap distribution used as threshold
    replications  number of bootstrap resamples per window
    mode          "iid" (classic) or "block" (moving block, dependent data)
    block_c       block length constant: l = round(block_c * ceil(i^(1/3)));
                  block mode only, where it defaults to ``BLOCK_C``

    The stream seed is not part of the policy: ``bootstrap_gaps`` takes it
    as a call argument beside the time index.
    """

    beta: float = 0.9
    replications: int = 500
    mode: str = "iid"
    block_c: float | None = None

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "iid" and self.block_c is not None:
            raise ConfigError("block_c applies to bootstrap mode 'block' only")
        if self.mode == "block" and self.block_c is None:
            object.__setattr__(self, "block_c", BLOCK_C)
        if self.block_c is not None and not 0.0 < self.block_c < math.inf:
            raise ConfigError(f"block_c must be positive and finite, got {self.block_c}")


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
    """The ceil(beta * B)-th order statistic (1-based) of ``values``.  Kept
    though only tests call it: it is public (``baws.__all__``), and bound in
    ``selection`` for the benchmark's tracing patch (ROADMAP item 3)."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    j = order_index(beta, v.size)
    return float(np.partition(v, j - 1)[j - 1])


def _scratch(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """An int32 array of ``shape`` on this thread's buffer ``name``, which
    grows but is never freed: fresh blocks above the allocator's mmap
    threshold would each fault their pages in anew."""
    size = math.prod(shape)
    buf = getattr(_buffers, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=np.int32)
        setattr(_buffers, name, buf)
    return buf[:size].reshape(shape)


def _ranks(window) -> np.ndarray:
    """int32 rank of each observation of ``window`` in its sorted order.  A
    stable sort ranks tied observations by position, so the ranks, and every
    fit read from them, are one function of the window."""
    w = np.asarray(window, dtype=float)
    ranks = np.empty(w.size, dtype=np.int32)
    ranks[np.argsort(w, kind="stable")] = np.arange(w.size, dtype=np.int32)
    return ranks


def _row_sampler(window, stats: WindowStats, target: ForecastTarget, cfg: BootstrapConfig,
                 rng: np.random.Generator):
    """``(draw, L)``: ``draw(b)`` gives the next b resample rows of the
    stream, of L ranks each.

    A row is i draws of single observations (iid) or m draws of length-l
    blocks (block), concatenated in draw order: L = i or m * l ranks.  A
    target's ``iid_rows`` gives rows of one rank, L = 1.
    """
    n = stats.n
    if cfg.mode == "iid" and target.iid_rows is not None:
        return (lambda b: target.iid_rows(stats, b, rng)), 1
    if cfg.mode == "iid":
        # iid resampling is exchangeable, so drawing ranks into the sorted
        # window makes thresholds invariant to permutations of the input
        draws, width, choices = n, 1, n
    else:
        l, m = block_length(n, cfg.block_c)
        if m < 1:
            raise ValueError(f"block length {l} exceeds window length {n}")
        # np.take copies a strided source on every call; copy it once here
        ranks = _ranks(window)
        blocks = _scratch("blocks", (n - l + 1, l))
        # row s of the strided view is the block of ranks starting at s
        blocks[...] = np.ndarray((n - l + 1, l), np.int32, ranks, strides=ranks.strides * 2)
        draws, width, choices = m, l, n - l + 1
    L = draws * width

    def draw(b: int) -> np.ndarray:
        rows = idx = rng.integers(0, choices, size=(b, draws), dtype=np.int32)
        if cfg.mode == "block":
            rows = _scratch("rows", (b, L))
            # indices are in range, so "wrap" changes none; "raise" would
            # gather into a temporary and copy it to ``out``
            np.take(blocks, idx, axis=0, out=rows.reshape(b, draws, width), mode="wrap")
        return rows

    return draw, L


def guarded_gaps(raw: np.ndarray, scale: float | np.ndarray, kind: str) -> np.ndarray:
    """Clip rounding noise off score gaps, in place; genuine negatives
    violate the minimizer property of the reference fit.  ``scale``, the
    reference fit's score, is a float or broadcasts against ``raw``: one
    per row of a pair grid."""
    if isinstance(scale, float):
        negative = raw.min() < -_GAP_SLACK * max(1.0, abs(scale))
    else:
        negative = (raw < -_GAP_SLACK * np.maximum(1.0, np.abs(scale))).any()
    if negative:
        raise AssertionError(f"negative {kind} gap beyond rounding tolerance")
    return np.maximum(raw, 0.0, out=raw)


def bootstrap_gaps(window, target: ForecastTarget, cfg: BootstrapConfig, *,
                   time_index: int = 0, seed: int = 0, stats: WindowStats | None = None,
                   fit: FitResult | None = None,
                   until: Callable[[np.ndarray], int] | None = None,
                   ) -> tuple[np.ndarray, FitResult]:
    """Score gaps of resample fits against the window fit, plus that fit.

    The resamples come from the stream keyed by (seed, time_index, window
    length).  All gaps are evaluated under the original window's empirical
    score.  ``stats`` and ``fit``, when given, must be the window's own:
    the tail targets subtract the fit's score from every resample's.

    Rows are drawn in stream order, in blocks within the 512 KB cap and the
    rows left.  Without ``until`` all B rows are drawn.  With it, ``until``
    is called with each block's guarded gaps and returns the fewest further
    rows its decisions need; the first block holds max(64, 512 // L) rows
    of L ranks, and each later one max(need, rows drawn, 64, 512 // L).
    Drawing stops when it returns 0 or at B rows, and the gaps drawn so far
    are returned: the first gaps of the full draw, bit for bit.
    """
    if stats is None:
        stats = window_stats(window)
    if fit is None:
        fit = fit_from_stats(stats, target)
    rng = np.random.default_rng(np.random.SeedSequence((seed, time_index, stats.n)))
    B = cfg.replications
    draw, L = _row_sampler(window, stats, target, cfg, rng)
    gaps = target.row_gaps(stats, fit)
    cap = max(1, _BLOCK_BYTES // (4 * L))
    smallest = max(_FIRST_ROWS, _FIRST_RANKS // L)
    need = B if until is None else smallest
    parts = []
    drawn = 0
    while drawn < B and need > 0:
        b = min(max(need, drawn, smallest), cap, B - drawn)
        parts.append(guarded_gaps(gaps(draw(b)), fit.score, "bootstrap"))
        drawn += b
        need = B - drawn if until is None else until(parts[-1])
    return np.concatenate(parts), fit
