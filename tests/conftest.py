"""Shared independent oracles: brute-force minimizers and closed forms.

These re-derive expected values from first principles (direct loops,
exhaustive scans, scalar refinement, textbook formulas) without touching
the library's fast paths, so implementation and oracle stay independent.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar


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
