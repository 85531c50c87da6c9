"""Adaptive look-back window selection by pairwise stability testing.

At each time step a sparse grid of candidate windows is built from the
available history (anchored at the previously selected window when known).
Every candidate k is compared against each smaller candidate i: the fit on
window k is re-scored on window i and the excess over window i's own fit
is tested against a threshold tau(t, i).  A candidate survives when no
comparison rejects, and the largest surviving window is selected.

Thresholds come from a pluggable policy: a ``BootstrapConfig`` (calibrated
from the data), or any object exposing ``threshold_for(window_length)``,
such as the deterministic SAWS families of ``baselines``.  With the
default error control each comparison runs at level 1 - beta; the "fwer"
mode tightens pairwise levels by a Bonferroni split across the comparisons
of each candidate, re-quantiling the cached bootstrap gap samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np
from scipy.special import ndtr

from .bootstrap import (
    BootstrapConfig,
    bootstrap_gaps,
    empirical_quantile,
    guarded_gaps,
    order_index,
)
from .errors import ConfigError
from .scoring import FitResult, ForecastTarget, fit_from_stats, score_at, window_stats

ERROR_CONTROLS = ("pcer", "fwer")


@dataclass(frozen=True)
class CandidateGridConfig:
    """Increasing-interval grid of candidate window lengths.

    ``bands`` lists (start, step) pairs: within [start, next_start) the grid
    holds the multiples of step.  The minimum window, the previous selection,
    and the largest usable window are always included.  Above a previous
    selection, exploration proceeds at ``explore_step`` from prev_k + 1.
    """

    k_min: int = 20
    max_window: int | None = None
    bands: tuple[tuple[int, int], ...] = ((0, 5), (50, 10), (100, 20), (300, 50), (1000, 100))
    explore_step: int = 50

    def __post_init__(self):
        if self.k_min < 2:
            raise ConfigError("k_min must be >= 2")
        if self.max_window is not None and self.max_window < self.k_min:
            raise ConfigError("max_window must be >= k_min")
        starts = [b[0] for b in self.bands]
        if sorted(starts) != starts or len(set(starts)) != len(starts):
            raise ConfigError("band starts must be strictly increasing")
        if any(step < 1 for _, step in self.bands):
            raise ConfigError("band steps must be positive")
        if self.explore_step < 1:
            raise ConfigError("explore_step must be positive")


class PairDecision(NamedTuple):
    reference: int
    candidate: int
    gap: float
    threshold: float
    reject: int


@dataclass(frozen=True)
class SelectionTrace:
    """Full record of one selection step (pairs stored as parallel arrays)."""

    time_index: int
    candidates: np.ndarray
    pair_reference: np.ndarray
    pair_candidate: np.ndarray
    pair_gap: np.ndarray
    pair_threshold: np.ndarray
    pair_reject: np.ndarray
    admissible: np.ndarray
    k_hat: int
    fit: FitResult

    def pair_records(self) -> Iterator[PairDecision]:
        for r, k, g, tau, rej in zip(
            self.pair_reference, self.pair_candidate, self.pair_gap,
            self.pair_threshold, self.pair_reject,
        ):
            yield PairDecision(int(r), int(k), float(g), float(tau), int(rej))


def _band_points(cfg: CandidateGridConfig, lo: int, hi: int) -> list[int]:
    """Grid points (multiples of the band step) within [lo, hi]."""
    pts: list[int] = []
    bands = list(cfg.bands)
    for idx, (start, step) in enumerate(bands):
        end = bands[idx + 1][0] if idx + 1 < len(bands) else hi + 1
        first = max(start, lo, step)
        first = ((first + step - 1) // step) * step
        last = min(end - 1, hi)
        pts.extend(range(first, last + 1, step))
    return pts


def candidate_windows(history_length: int, prev_k: int | None = None,
                      cfg: CandidateGridConfig = CandidateGridConfig()) -> list[int]:
    """Ordered candidate window set for the current step."""
    if history_length < cfg.k_min:
        raise ValueError(
            f"insufficient history: {history_length} observations, k_min={cfg.k_min}"
        )
    limit = history_length
    if cfg.max_window is not None:
        limit = min(limit, cfg.max_window)
    pts = {cfg.k_min, limit}
    if prev_k is None:
        pts.update(_band_points(cfg, cfg.k_min, limit))
    else:
        anchor = min(prev_k, limit)
        pts.update(_band_points(cfg, cfg.k_min, anchor))
        pts.add(anchor)
        pts.update(range(anchor + 1, limit + 1, cfg.explore_step))
    return sorted(pts)


def bonferroni_level(beta: float, comparisons: int) -> float:
    """Quantile level 1 - (1 - beta)/s controlling the familywise rate
    across s pairwise comparisons at union-bound level 1 - beta."""
    if comparisons < 1:
        raise ValueError("comparisons must be >= 1")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    return 1.0 - (1.0 - beta) / comparisons


def rejection_probability_gaussian(mu1: float, mu2: float, var1: float, var2: float,
                                   k: int, k0: int, tau: float) -> float:
    """Probability that the squared mean gap between nested windows exceeds tau.

    Two independent Gaussian regimes: the k-window holds k - k0 draws from
    N(mu1, var1) followed by k0 draws from N(mu2, var2); the reference window
    is the last k0 draws.  The mean gap is Gaussian with

        m = (k - k0)/k * (mu1 - mu2)
        v = ((k - k0)/k)^2 * (var1/(k - k0) + var2/k0)

    and the exceedance probability of its square over tau is the two-sided
    normal tail at +-sqrt(tau).
    """
    if not tau > 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    if not k > k0 >= 1:
        raise ConfigError(f"need k > k0 >= 1, got k={k}, k0={k0}")
    if not (var1 > 0 and var2 > 0):
        raise ConfigError(f"variances must be positive, got {var1} and {var2}")
    frac = (k - k0) / k
    m = frac * (mu1 - mu2)
    v = frac * frac * (var1 / (k - k0) + var2 / k0)
    root = np.sqrt(tau)
    sd = np.sqrt(v)
    return float(1.0 - ndtr((root - m) / sd) + ndtr((-root - m) / sd))


def select_window(history, target: ForecastTarget, policy,
                  grid: CandidateGridConfig = CandidateGridConfig(),
                  prev_k: int | None = None, *,
                  time_index: int | None = None, seed: int = 0,
                  error_control: str = "pcer") -> SelectionTrace:
    """Select the largest admissible window from ``history``.

    ``policy`` is a ``BootstrapConfig`` or any object with
    ``threshold_for(window_length)``.  ``seed`` and ``time_index`` key the
    bootstrap streams (``time_index`` defaults to len(history) + 1, the
    forecast time in an online run).  Returns the full decision trace; the
    smallest candidate has no references and is always admissible, so a
    selection always exists.
    """
    if error_control not in ERROR_CONTROLS:
        raise ValueError(f"error_control must be one of {ERROR_CONTROLS}, "
                         f"got {error_control!r}")
    x = np.asarray(history, dtype=float)
    if x.ndim != 1:
        raise ValueError("history must be 1-dimensional")
    n = x.size
    t = time_index if time_index is not None else n + 1
    candidates = candidate_windows(n, prev_k, grid)

    bootstrap_policy = isinstance(policy, BootstrapConfig)
    if error_control == "fwer" and not bootstrap_policy:
        raise ValueError("error_control='fwer' requires a bootstrap policy")
    if not bootstrap_policy and not hasattr(policy, "threshold_for"):
        raise TypeError(f"unsupported threshold policy {policy!r}")

    stats = {k: window_stats(x[n - k:]) for k in candidates}

    # one threshold calibration per reference window, shared by all pairs;
    # the bootstrap already fits the reference window, so reuse that fit
    fits: dict[int, FitResult] = {}
    taus: dict[int, float] = {}
    sorted_gaps: dict[int, np.ndarray] = {}
    for i in candidates[:-1]:
        if bootstrap_policy:
            gaps, fits[i] = bootstrap_gaps(x[n - i:], target, policy, time_index=t,
                                           seed=seed, stats=stats[i])
            if error_control == "fwer":
                sorted_gaps[i] = np.sort(gaps)
            else:
                taus[i] = empirical_quantile(gaps, policy.beta)
        else:
            fits[i] = fit_from_stats(stats[i], target)
            taus[i] = float(policy.threshold_for(i))
    top = candidates[-1]
    fits[top] = fit_from_stats(stats[top], target)

    refs, cands, gap_col, tau_col = [], [], [], []
    theta_rows = np.vstack([fits[k].theta for k in candidates])
    for pos, i in enumerate(candidates[:-1]):
        larger = candidates[pos + 1:]
        raw = score_at(stats[i], theta_rows[pos + 1:], target) - fits[i].score
        gaps_i = guarded_gaps(raw, fits[i].score, "pairwise")
        refs.extend([i] * len(larger))
        cands.extend(larger)
        gap_col.append(gaps_i)
        if error_control == "pcer":
            tau_col.append(np.full(len(larger), taus[i]))
        else:
            # candidate k at position s has s references below it
            g = sorted_gaps[i]
            tau_col.append(np.array([
                float(g[order_index(bonferroni_level(policy.beta, s), g.size) - 1])
                for s in range(pos + 1, len(candidates))]))

    pair_reference = np.asarray(refs, dtype=np.int64)
    pair_candidate = np.asarray(cands, dtype=np.int64)
    pair_gap = np.concatenate(gap_col) if gap_col else np.empty(0)
    pair_threshold = np.concatenate(tau_col) if tau_col else np.empty(0)
    pair_reject = pair_gap > pair_threshold

    cand_arr = np.asarray(candidates, dtype=np.int64)
    admissible = np.ones(cand_arr.size, dtype=bool)
    if pair_reject.any():
        rejected = np.unique(pair_candidate[pair_reject])
        admissible[np.isin(cand_arr, rejected)] = False
    k_hat = int(cand_arr[admissible][-1])

    # pairs ordered by ascending candidate, then reference
    order = np.lexsort((pair_reference, pair_candidate))
    return SelectionTrace(
        time_index=t,
        candidates=cand_arr,
        pair_reference=pair_reference[order],
        pair_candidate=pair_candidate[order],
        pair_gap=pair_gap[order],
        pair_threshold=pair_threshold[order],
        pair_reject=pair_reject[order],
        admissible=admissible,
        k_hat=k_hat,
        fit=fits[k_hat],
    )
