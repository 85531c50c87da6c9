"""Shared independent oracles: brute-force minimizers, closed forms,
one-draw-at-a-time resamplers, a direct window score and a CSV reader.

These re-derive expected values from first principles (direct loops,
exhaustive scans, scalar refinement, textbook formulas) without touching
the library's fast paths, so implementation and oracle stay independent.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from baws.errors import DataError
from baws.pipeline import ForecastRecord
from baws.scoring import TARGETS, ForecastTarget, pointwise_score


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
