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
of each candidate, which raises the order index j of its pairs.

Every pair is scored, in one pass per step: the target's ``grid`` fits
every candidate window and scores each fit on every candidate window, and
the minimizer guard on the gaps covers every fit.  Thresholds are the
costly part (a bootstrap calibration of reference i costs B * i), and
only references below the selected window can decide it: reference i
compares i with larger candidates only.  So the references are scanned in
ascending order, each calibrated and its rejections marked in turn, and
the scan stops at the first reference that is not below the largest
candidate still admissible.  That candidate is the selection: no
remaining reference can reject it, and every reference below it has been
calibrated, so the admissible set and the selection are those of a scan
over every reference.  A step right after a structural change, where
short references reject the long candidates, calibrates only the short
references.  Each calibration draws from its own (seed, t, i) stream, so
the scan's order and its stop change no threshold.

A scanned reference i needs its threshold only through the decisions of
its live pairs, those with the candidates k > i still admissible.  With
tau_i the j-th smallest of B bootstrap gaps (j = ceil(beta * B), or one j
per candidate under "fwer"), pair (i, k) rejects exactly when j of the B
gaps lie below gap_k: a comparison count, with no arithmetic on the gaps.
The calibration draws its rows in stream order, block by block, and stops
once every live decision is fixed: a reject by j gaps below gap_k, an
accept by B - j + 1 gaps not below it (curtailed sampling with a fixed B,
Besag & Clifford, Biometrika 78, 1991).  The drawn gaps are the first ones
of the full draw, so every decision, the admissible set and the selection
are those of full calibrations, bit for bit.  The count and j are the
record of a decision; tau_i itself is never computed.  A fixed-threshold
policy is a sample of one gap, tau(i), with j = 1, so both policies decide
by the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _special
from .bootstrap import BootstrapConfig, bootstrap_gaps, guarded_gaps, order_index
from .errors import ConfigError
from .scoring import FitResult, ForecastTarget, window_stats

# unused here; bound so that benchmark/tracing.py can patch these names
from .bootstrap import empirical_quantile  # noqa: F401
from .scoring import fit_from_stats, score_at  # noqa: F401

ERROR_CONTROLS = ("pcer", "fwer")
_EXPLORE_STEP = 50  # grid step above a previous selection, from prev_k + 1


def check_error_control(error_control: str, calibrated: bool) -> None:
    """Reject an unknown ``error_control``, and "fwer" unless the thresholds
    are ``calibrated`` by bootstrap: its Bonferroni split raises the order
    index of a bootstrap sample, and a fixed threshold has none."""
    if error_control not in ERROR_CONTROLS:
        raise ConfigError(f"error_control must be one of {ERROR_CONTROLS}, "
                          f"got {error_control!r}")
    if error_control == "fwer" and not calibrated:
        raise ConfigError("error_control 'fwer' requires bootstrap thresholds (method 'baws')")


@dataclass(frozen=True)
class CandidateGridConfig:
    """Increasing-interval grid of candidate window lengths.

    ``bands`` lists (start, step) pairs: within [start, next_start) the grid
    holds the multiples of step.  The minimum window, the previous selection,
    and the largest usable window are always included.  Above a previous
    selection, exploration proceeds at a fixed step from prev_k + 1.
    """

    k_min: int = 20
    max_window: int | None = None
    bands: tuple[tuple[int, int], ...] = ((0, 5), (50, 10), (100, 20), (300, 50), (1000, 100))

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


class _PairCounts:
    """Decisions of one reference's pairs, counted from its bootstrap gaps.

    A pair rejects when its gap exceeds tau, the j-th smallest of the B
    bootstrap gaps: exactly when j of them lie below the pair's gap.  So a
    reject is fixed once j drawn gaps lie below it, and an accept once
    B - j + 1 do not.  Called with each drawn block of gaps (the ``until``
    of ``bootstrap_gaps``, which never passes an empty one), it counts them
    and returns the fewest further rows that can fix every decision: 0 once
    all are fixed, as they are at B rows.
    """

    def __init__(self, gaps: np.ndarray, order: np.ndarray, replications: int):
        self.gaps = gaps
        self.order = order
        self.replications = replications
        self.below = 0  # per pair, the drawn gaps below its gap
        self.drawn = 0

    def __call__(self, block: np.ndarray) -> int:
        self.below = self.below + np.sort(block).searchsorted(self.gaps, side="left")
        self.drawn += block.size
        # per pair, the fewest further rows that can fix its decision; the
        # two terms sum to B + 1 - drawn, so one is not positive at B rows
        need = np.minimum(self.order - self.below,
                          self.below + (self.replications + 1 - self.drawn) - self.order)
        return max(int(need.max()), 0)


@dataclass(frozen=True)
class SelectionTrace:
    """Record of one selection step.

    Every candidate appears with its admissibility.  The scanned references
    are the candidates below the point where the scan stopped (see the
    module docstring); references above it were not calibrated, and their
    pairs are not recorded.  The pairs are stored as parallel arrays
    ordered by candidate and then reference.  They are the live pairs,
    whose decisions the scan used: (i, k) with i a scanned reference and k a
    candidate still admissible when i was scanned.

    The counts are the record of a decision: ``pair_below`` holds the drawn
    gaps of the reference's sample that lie below the pair's gap, and
    ``pair_order`` its order index j; the pair rejected when the count
    reached j.  Under a fixed-threshold policy the sample is the one gap
    tau(i) and j = 1.  The bootstrap tau of any (seed, t, i) is one
    ``bootstrap_gaps`` call away.

    ``rows_drawn[r]`` is the number of bootstrap rows drawn for the scanned
    reference ``candidates[r]`` (0 under a fixed-threshold policy).
    """

    time_index: int
    candidates: np.ndarray
    pair_reference: np.ndarray
    pair_candidate: np.ndarray
    pair_gap: np.ndarray
    pair_below: np.ndarray
    pair_order: np.ndarray
    rows_drawn: np.ndarray
    admissible: np.ndarray
    k_hat: int
    fit: FitResult

    @property
    def pair_reject(self) -> np.ndarray:
        return self.pair_below >= self.pair_order


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
    """Ordered candidate window set for the current step; a previous
    selection ``prev_k`` is never below ``cfg.k_min``."""
    if history_length < cfg.k_min:
        raise ValueError(
            f"insufficient history: {history_length} observations, k_min={cfg.k_min}"
        )
    if prev_k is not None and prev_k < cfg.k_min:
        raise ValueError(f"previous window {prev_k} is below k_min={cfg.k_min}")
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
        pts.update(range(anchor + 1, limit + 1, _EXPLORE_STEP))
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
    if not np.isfinite([mu1, mu2, var1, var2, tau]).all():
        raise ConfigError(f"means, variances and tau must be finite, got mu1={mu1}, "
                          f"mu2={mu2}, var1={var1}, var2={var2}, tau={tau}")
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
    return float(1.0 - _special.ndtr((root - m) / sd) + _special.ndtr((-root - m) / sd))


def select_window(history, target: ForecastTarget, policy,
                  grid: CandidateGridConfig = CandidateGridConfig(),
                  prev_k: int | None = None, *,
                  time_index: int | None = None, seed: int = 0,
                  error_control: str = "pcer") -> SelectionTrace:
    """Select the largest admissible window from ``history``.

    ``policy`` is a ``BootstrapConfig`` or any object with
    ``threshold_for(window_length)``.  ``seed`` and ``time_index`` key the
    bootstrap streams (``time_index`` defaults to len(history) + 1, the
    forecast time in an online run).  Returns the decision trace of the
    scanned references; the smallest candidate has no references and is
    always admissible, so a selection always exists.  Each calibration
    stops drawing once its live pairs are decided, and the trace holds
    those pairs only.
    """
    bootstrap_policy = isinstance(policy, BootstrapConfig)
    check_error_control(error_control, bootstrap_policy)
    x = np.asarray(history, dtype=float)
    if x.ndim != 1:
        raise ValueError("history must be 1-dimensional")
    n = x.size
    t = time_index if time_index is not None else n + 1
    candidates = candidate_windows(n, prev_k, grid)
    # decisions count the bootstrap gaps below each pair's gap: a NaN would
    # count none; the fits and calibrations read the largest window only
    if not np.isfinite(x[n - candidates[-1]:]).all():
        raise ValueError("history must be finite within the largest candidate window")

    if not bootstrap_policy and not hasattr(policy, "threshold_for"):
        raise TypeError(f"unsupported threshold policy {policy!r}")

    stats = [window_stats(x[n - k:]) for k in candidates]
    # theta[c] is candidate c's fit and scores[r, c] its score on window r;
    # gaps[r, c], for c > r, is the gap of the pair (candidates[r], candidates[c])
    theta, scores = target.grid(stats)
    own = scores.diagonal()
    gaps = guarded_gaps(np.triu(scores - own[:, None], 1), own[:, None], "pairwise")

    def fit(pos: int) -> FitResult:
        return FitResult(theta[pos], float(own[pos]))

    # a pair with the candidate at position s rejects when order[s] gaps of
    # its reference's sample lie below its gap
    if not bootstrap_policy:
        order = np.ones(len(candidates), dtype=np.int64)
    elif error_control == "pcer":
        order = np.full(len(candidates), order_index(policy.beta, policy.replications))
    else:  # s references lie below the candidate at position s (none at 0)
        order = np.array([order_index(bonferroni_level(policy.beta, max(s, 1)),
                                      policy.replications)
                          for s in range(len(candidates))])

    def calibrate(pos: int, g: np.ndarray, j: np.ndarray):
        """(the gaps below each of ``g``, rows drawn) for the pairs of
        reference candidates[pos] whose gaps are ``g`` and order indices ``j``."""
        i = candidates[pos]
        if not bootstrap_policy:  # a sample of one gap, tau(i)
            return (g > float(policy.threshold_for(i))).astype(np.int64), 0
        counts = _PairCounts(g, j, policy.replications)
        sample, _ = bootstrap_gaps(x[n - i:], target, policy, time_index=t, seed=seed,
                                   stats=stats[pos], fit=fit(pos), until=counts)
        return counts.below, sample.size

    cand_arr = np.asarray(candidates, dtype=np.int64)
    kept = np.arange(cand_arr.size)  # the positions still admissible, ascending
    k_pos = cand_arr.size - 1  # the position of the selection so far, kept[-1]
    # live[r, c] marks a live pair of the scan, and below[r, c] holds its count
    live = np.zeros(gaps.shape, dtype=bool)
    below = np.zeros(gaps.shape, dtype=np.int64)
    rows_drawn = []
    for pos in range(cand_arr.size):
        if pos >= k_pos:  # later references test only candidates above k_hat: all rejected
            break
        # the live pairs: those with the larger candidates still admissible
        split = kept.searchsorted(pos, side="right")
        cols = kept[split:]
        j = order[cols]
        counts, rows = calibrate(pos, gaps[pos, cols], j)
        kept = np.concatenate((kept[:split], cols[counts < j]))
        k_pos = int(kept[-1])
        live[pos, cols] = True
        below[pos, cols] = counts
        rows_drawn.append(rows)

    # row-major over live.T: by ascending candidate, then reference
    col, ref = np.nonzero(live.T)
    admissible = np.zeros(cand_arr.size, dtype=bool)
    admissible[kept] = True
    return SelectionTrace(
        time_index=t,
        candidates=cand_arr,
        pair_reference=cand_arr[ref],
        pair_candidate=cand_arr[col],
        pair_gap=gaps[ref, col],
        pair_below=below[ref, col],
        pair_order=order[col],
        rows_drawn=np.asarray(rows_drawn, dtype=np.int64),
        admissible=admissible,
        k_hat=candidates[k_pos],
        fit=fit(k_pos),
    )
