"""Shared independent oracles: brute-force minimizers, closed forms,
one-draw-at-a-time and one-shot resamplers, an exhaustive window
selection, a direct window score and a CSV reader.

These re-derive expected values from first principles (direct loops,
exhaustive scans, scalar refinement, textbook formulas) without touching
the library's fast paths, so implementation and oracle stay independent.
The one-shot resampler is the exception: it keeps the library's former
single-matrix algorithm on float64 values (one Beta draw of all B order
statistics for iid VaR), where the library's rows now hold ranks and come
in blocks, and reuses its fits, so that the row blocks can be checked
against it bit for bit.  So is the exhaustive selection: it calibrates
every reference with the library's ``bootstrap_gaps`` and reads the
selection off all pairs at once, so that the scan that stops early can be
checked against it bit for bit.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from baws.bootstrap import (BootstrapConfig, block_length, bootstrap_gaps, empirical_quantile,
                            guarded_gaps)
from baws.errors import DataError
from baws.pipeline import ForecastRecord
from baws.scoring import (TARGETS, ForecastTarget, Mean, VaR, fit_from_stats, joint_score_at,
                          order_index, pinball_score_at, pointwise_score, score_at,
                          window_stats)
from baws.selection import (CandidateGridConfig, SelectionTrace, bonferroni_level,
                            candidate_windows)


def direct_pinball(window, v, alpha):
    w = np.asarray(window, dtype=float)
    return float(np.mean(((w < v).astype(float) - alpha) * (v - w)))


def direct_joint(window, v, e, alpha):
    w = np.asarray(window, dtype=float)
    g2 = -math.exp(-e) / (1.0 + math.exp(-e)) if e > -500 else -1.0
    calg2 = math.log1p(math.exp(-e)) if e > -500 else -e
    base = ((w < v).astype(float) - alpha) * (v - w)
    tail = g2 * (w >= v).astype(float) * (v - w) / (1.0 - alpha)
    return float(np.mean(base + tail)) + g2 * (e - v) - calg2


def brute_force_var(window, alpha):
    """Minimize the empirical pinball score over sample points (smallest-v ties)."""
    best_v, best_s = None, np.inf
    for v in sorted(np.asarray(window, dtype=float)):
        s = direct_pinball(window, v, alpha)
        if s < best_s - 1e-15:
            best_v, best_s = v, s
    return best_v, best_s


def brute_force_var_es(window, alpha, grid_points=800):
    """Minimize the joint score over v in sample points and an e-grid,
    then refine e locally (the profile in e is unimodal)."""
    w = np.sort(np.asarray(window, dtype=float))
    lo = w[0] - 1.0
    hi = w[-1] + (w[-1] - w[0] + 1.0) / (1.0 - alpha)
    e_grid = np.linspace(lo, hi, grid_points)
    step = e_grid[1] - e_grid[0]
    g2 = -np.exp(-e_grid) / (1.0 + np.exp(-e_grid))
    g2_int = np.log1p(np.exp(-e_grid))
    best = (None, None, np.inf)
    for v in w:
        pin = float(np.mean(((w < v).astype(float) - alpha) * (v - w)))
        tail = float(np.mean((w >= v).astype(float) * (v - w)))
        scan = pin + g2 * tail / (1.0 - alpha) + g2 * (e_grid - v) - g2_int
        coarse = float(e_grid[np.argmin(scan)])
        res = minimize_scalar(lambda e: direct_joint(window, v, e, alpha),
                              bounds=(coarse - step, coarse + step),
                              method="bounded", options={"xatol": 1e-10})
        if res.fun < best[2] - 1e-13:
            best = (float(v), float(res.x), float(res.fun))
    return best


def skewt_partial_expectation_quad(a, nu, r):
    """E[eps 1{eps <= a}] for the standardized skewed t, by quadrature of
    y * density(y), split at the density kink -m/s."""
    from baws.scenarios import skewed_t_moments

    m, s = skewed_t_moments(nu, r)
    # t_nu density constant, times the two-piece weight 2r/(1+r^2) and the
    # Jacobian s of x = m + s y
    c = (math.exp(math.lgamma((nu + 1) / 2.0) - math.lgamma(nu / 2.0))
         / math.sqrt(nu * math.pi) * 2.0 * r / (1.0 + r * r) * s)

    def pdf(y):
        x = m + s * y
        arg = x / r if x >= 0 else x * r
        return c * (1.0 + arg * arg / nu) ** (-(nu + 1) / 2.0)

    kink = -m / s
    pieces = [(-np.inf, min(a, kink))]
    if a > kink:
        pieces.append((kink, a))
    total = 0.0
    for lo, hi in pieces:
        val, _ = quad(lambda y: y * pdf(y), lo, hi, epsabs=1e-10, epsrel=1e-10)
        total += val
    return total


# resampling oracles for the vectorized draws of baws.bootstrap

def iid_resample(window, rng: np.random.Generator) -> np.ndarray:
    """Sample len(window) points uniformly with replacement from the window."""
    w = np.asarray(window, dtype=float)
    if w.size == 0:
        raise ValueError("cannot resample an empty window")
    return w[rng.integers(0, w.size, size=w.size)]


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


# one-shot oracle for the row-block resampling of baws.bootstrap: every
# index in one (B, draws) int64 draw, every value in one (B, L) matrix, and
# each target's gap formula applied to the whole matrix

def oneshot_resample_rows(window, stats, target: ForecastTarget, cfg: BootstrapConfig,
                          rng: np.random.Generator) -> np.ndarray:
    """(B, L) matrix of resampled values; L = i (iid) or m*l (block), or 1
    for iid VaR, whose rows hold only the resample's fitted VaR."""
    B, n = cfg.replications, stats.n
    if cfg.mode == "iid" and isinstance(target, VaR):
        # the j-th smallest of n iid uniforms is Beta(j, n - j + 1), and the
        # j-th smallest resampled value the one at sorted position floor(n u)
        j = order_index(target.alpha, n)
        u = rng.beta(j, n - j + 1, size=B)
        return stats.values_sorted[np.clip(np.floor(n * u), 0, n - 1).astype(int)][:, None]
    if cfg.mode == "iid":
        return stats.values_sorted[rng.integers(0, n, size=(B, n))]
    l, m = block_length(n, cfg.block_c)
    w = np.ascontiguousarray(np.asarray(window, dtype=float))
    starts = rng.integers(0, n - l + 1, size=(B, m))
    return sliding_window_view(w, l)[starts].reshape(B, m * l)


def row_length(n: int, target: ForecastTarget, cfg: BootstrapConfig) -> int:
    """Ranks L per resample row of a window of n: i (iid), m*l (block), or
    1 for iid VaR, whose order-statistic fits are drawn without rows."""
    if cfg.mode == "block":
        l, m = block_length(n, cfg.block_c)
        return m * l
    return 1 if isinstance(target, VaR) else n


def oneshot_gaps(stats, rows: np.ndarray, fit, target: ForecastTarget) -> np.ndarray:
    """Raw score gaps of every row of ``rows`` (reordered in place)."""
    if isinstance(target, Mean):
        # the gap of squared loss is (mean_b - mean)^2, on centered values
        d = (rows - stats.center).mean(axis=1) - (fit.theta[0] - stats.center)
        return d * d
    j = order_index(target.alpha, rows.shape[1])
    rows.partition(j - 1, axis=1)
    v = rows[:, j - 1]
    if isinstance(target, VaR):
        return pinball_score_at(stats, v, target.alpha) - fit.score
    # the tail summed in sorted order, the rank order of the library's rows
    tail = np.sort(rows[:, j:], axis=1)
    e = v + (tail - v[:, None]).sum(axis=1) / rows.shape[1] / (1.0 - target.alpha)
    return joint_score_at(stats, v, e, target.alpha) - fit.score


def oneshot_bootstrap_gaps(window, target: ForecastTarget, cfg: BootstrapConfig, *,
                           time_index: int = 0, seed: int = 0, stats=None, fit=None,
                           until=None):
    """``bootstrap_gaps`` drawing all B rows from one-shot resample matrices;
    it does not stop early, and passes ``until`` its B gaps at once."""
    if stats is None:
        stats = window_stats(window)
    if fit is None:
        fit = target.fit(stats)
    rng = np.random.default_rng(np.random.SeedSequence((seed, time_index, stats.n)))
    raw = oneshot_gaps(stats, oneshot_resample_rows(window, stats, target, cfg, rng), fit,
                       target)
    gaps = guarded_gaps(raw, fit.score, "bootstrap")
    if until is not None:
        until(gaps)
    return gaps, fit


# exhaustive oracle for the scan of baws.selection, which stops at the
# selected window: every reference calibrated, every pair recorded

def exhaustive_select_window(history, target: ForecastTarget, policy,
                             grid: CandidateGridConfig = CandidateGridConfig(),
                             prev_k=None, *, time_index=None, seed: int = 0,
                             error_control: str = "pcer", samples=None) -> SelectionTrace:
    """``select_window`` with every reference window calibrated and every
    pair (i, k), i < k, scored and tested; a candidate is admissible when
    none of its pairs rejects.  Reference fits come from their calibrations.

    Each pair is decided as gap > tau, tau read from the reference's full
    sample (all B bootstrap gaps, or the one gap tau(i) of a fixed policy),
    and checked against the count rule: j of the sample below the gap.  The
    trace records the count over the full sample.  ``samples``, when given,
    is a dict filled with each reference's sample in draw order."""
    x = np.asarray(history, dtype=float)
    n = x.size
    t = time_index if time_index is not None else n + 1
    candidates = candidate_windows(n, prev_k, grid)
    stats = {k: window_stats(x[n - k:]) for k in candidates}
    references = candidates[:-1]
    bootstrap = isinstance(policy, BootstrapConfig)
    calibrated = {}
    for i in references:
        if bootstrap:
            gaps, fit = bootstrap_gaps(x[n - i:], target, policy, time_index=t, seed=seed,
                                       stats=stats[i])
            calibrated[i] = (gaps, fit)
        else:
            calibrated[i] = (np.array([float(policy.threshold_for(i))]),
                             fit_from_stats(stats[i], target))
    if samples is not None:
        samples.update({i: sample for i, (sample, _) in calibrated.items()})
    fits = {i: fit for i, (_, fit) in calibrated.items()}
    fits[candidates[-1]] = fit_from_stats(stats[candidates[-1]], target)

    refs, cands, gap_col, below_col, order_col, reject_col = [], [], [], [], [], []
    theta_rows = np.vstack([fits[k].theta for k in candidates])
    for pos, i in enumerate(references):
        larger = candidates[pos + 1:]
        raw = score_at(stats[i], theta_rows[pos + 1:], target) - fits[i].score
        gaps = guarded_gaps(raw, fits[i].score, "pairwise")
        sample = calibrated[i][0]
        B = sample.size
        if not bootstrap:
            j = np.ones(len(larger), dtype=np.int64)
            tau = np.full(len(larger), sample[0])
        elif error_control == "pcer":
            j = np.full(len(larger), order_index(policy.beta, B))
            tau = np.full(len(larger), empirical_quantile(sample, policy.beta))
        else:
            j = np.array([order_index(bonferroni_level(policy.beta, s), B)
                          for s in range(pos + 1, len(candidates))])
            tau = np.sort(sample)[j - 1]
        below = (sample[None, :] < gaps[:, None]).sum(axis=1)
        reject = gaps > tau
        assert np.array_equal(reject, below >= j), (i, larger)
        refs.extend([i] * len(larger))
        cands.extend(larger)
        gap_col.append(gaps)
        below_col.append(below)
        order_col.append(j)
        reject_col.append(reject)

    def column(parts, dtype):
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    pair_reference = np.asarray(refs, dtype=np.int64)
    pair_candidate = np.asarray(cands, dtype=np.int64)
    cand_arr = np.asarray(candidates, dtype=np.int64)
    admissible = ~np.isin(cand_arr, pair_candidate[column(reject_col, bool)])
    k_hat = int(cand_arr[admissible][-1])
    order = np.lexsort((pair_reference, pair_candidate))
    return SelectionTrace(
        time_index=t, candidates=cand_arr, pair_reference=pair_reference[order],
        pair_candidate=pair_candidate[order], pair_gap=column(gap_col, float)[order],
        pair_below=column(below_col, np.int64)[order],
        pair_order=column(order_col, np.int64)[order],
        rows_drawn=np.full(len(references), policy.replications if bootstrap else 0),
        admissible=admissible, k_hat=k_hat, fit=fits[k_hat])


# score oracle for score_at on WindowStats

def empirical_score(window, theta, target: ForecastTarget) -> float:
    """Average loss of ``theta`` over a window: (1/k) * sum of pointwise scores."""
    window = np.asarray(window, dtype=float)
    if window.size == 0:
        raise ValueError("empirical_score requires a non-empty window")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape[-1] != target.dim:
        raise ValueError(
            f"parameter dimension {theta.shape[-1]} does not match target {target!r}"
        )
    return float(np.mean(pointwise_score(window, theta, target)))


# reader of the wide forecasts CSV that emit_results writes

def read_forecasts_csv(path) -> list[ForecastRecord]:
    """Parse a forecasts CSV back into records (inverse of emit_results)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows[0]
    idx = {name: pos for pos, name in enumerate(header)}
    known = dict.fromkeys(c for cls in TARGETS.values() for c in cls.columns)
    theta_cols = [c for c in known if c in idx]
    records = []
    for row in rows[1:]:
        records.append(ForecastRecord(
            t=int(row[idx["t"]]),
            k_hat=int(row[idx["k_hat"]]),
            theta=tuple(float(row[idx[c]]) for c in theta_cols),
            realized=float(row[idx["realized_loss"]]),
            score=float(row[idx["realized_score"]]),
            date=row[idx["date"]] or None if "date" in idx else None,
        ))
    return records
