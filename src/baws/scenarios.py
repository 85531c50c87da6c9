"""Synthetic nonstationary loss processes with ground-truth parameter paths.

Three families, all seeded and bit-reproducible:

    A1-A3   independent Gaussians with abrupt breaks in mean (and variance)
    B1-B3   independent Gaussians with smoothly drifting mean (sine path,
            random walk, geometric random walk)
    GARCH   sign-flipped GARCH(1,1) losses with standardized skewed-t
            innovations and a persistence jump at t = 1000

Each path carries its true mean/volatility sequences and, when a tail
level is supplied, the true VaR and ES paths (mu + sigma * z_alpha and
mu + sigma * phi(z_alpha) / (1 - alpha) for Gaussians; sigma times the
flipped innovation's quantile and ES for the GARCH process).  Kernels:
``Generator.standard_t`` draws t variates, ``scipy.special.stdtr``/``stdtrit``
give the t CDF and quantile, and ``norm_pdf`` is the one normal density.

``generate`` is the one entry point, by a name in ``SCENARIOS``;
``gen_garch`` alone takes the innovation law (``nu``, ``skew``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtri, stdtr, stdtrit

from .errors import ConfigError
from .scoring import _check_level

GARCH_OMEGA = 1e-5
GARCH_ARCH = 0.04
GARCH_PERSISTENCE_LOW = 0.70
GARCH_PERSISTENCE_JUMP = 0.25
GARCH_BREAK_T = 1000
GARCH_BURN_IN = 200
GARCH_NU = 5.0
GARCH_SKEW = 0.95

SCENARIOS = ("A1", "A2", "A3", "B1", "B2", "B3", "GARCH")


@dataclass(frozen=True)
class ScenarioPath:
    """One simulated loss path plus index-aligned truth sequences."""

    name: str
    seed: int
    losses: np.ndarray
    true_mean: np.ndarray
    true_sigma: np.ndarray
    true_var: np.ndarray | None
    alpha: float | None
    innovations: str = "gaussian"  # "gaussian" | "skewt"
    nu: float | None = None
    skew: float | None = None
    true_es: np.ndarray | None = None


def norm_pdf(z):
    """Standard normal density, in the form ``scipy.stats.norm.pdf`` evaluates."""
    return np.exp(-z**2 / 2.0) / np.sqrt(2.0 * np.pi)


def _gaussian_path(name, seed, mu, sigma, alpha, rng) -> ScenarioPath:
    losses = mu + sigma * rng.standard_normal(mu.size)
    sigma = np.broadcast_to(sigma, mu.shape).copy()
    true_var = true_es = None
    if alpha is not None:
        z = ndtri(alpha)
        true_var = mu + sigma * z
        true_es = mu + sigma * (norm_pdf(z) / (1.0 - alpha))
    return ScenarioPath(name, seed, losses, mu, sigma, true_var, alpha, true_es=true_es)


def _piecewise(t: np.ndarray, breaks: list[int], values: list[float]) -> np.ndarray:
    out = np.full(t.shape, values[-1], dtype=float)
    for b, v in zip(reversed(breaks), reversed(values[:-1])):
        out[t <= b] = v
    return out


def _t_abs_moment(nu: float) -> float:
    """E|T| for T ~ t_nu."""
    return (2.0 * np.sqrt(nu) * np.exp(gammaln((nu + 1) / 2.0) - gammaln(nu / 2.0))
            / (np.sqrt(np.pi) * (nu - 1.0)))


def skewed_t_moments(nu: float, r: float) -> tuple[float, float]:
    """Mean and standard deviation of the unstandardized two-piece skewed t.

    The two-piece variable equals r|T| with probability r^2/(1+r^2) and
    -|T|/r otherwise, T ~ t_nu.  Closed first two moments:

        E|T|   = 2 sqrt(nu) Gamma((nu+1)/2) / (sqrt(pi) (nu-1) Gamma(nu/2))
        E X    = E|T| (r - 1/r)
        E X^2  = nu/(nu-2) * (r^3 + r^-3)/(r + 1/r)
    """
    if nu <= 2:
        raise ValueError("degrees of freedom must exceed 2 for a finite variance")
    if r <= 0:
        raise ValueError("skewness parameter must be positive")
    m = _t_abs_moment(nu) * (r - 1.0 / r)
    msq = nu / (nu - 2.0) * (r**3 + r**-3) / (r + 1.0 / r)
    return float(m), float(np.sqrt(msq - m * m))


def skewed_t_sample(nu: float, r: float, rng: np.random.Generator, size=None):
    """Draw from the skewed t standardized to zero mean and unit variance.

    Sign-mixture construction: positive piece r|T| with probability
    r^2/(1+r^2), negative piece -|T|/r otherwise, then affine
    standardization by the closed-form moments.
    """
    m, s = skewed_t_moments(nu, r)
    scalar = size is None
    n = 1 if scalar else size
    t_abs = np.abs(rng.standard_t(nu, size=n))
    positive = rng.random(n) < r * r / (1.0 + r * r)
    x = np.where(positive, r * t_abs, -t_abs / r)
    z = (x - m) / s
    return float(z[0]) if scalar else z


def skewed_t_quantile(p, nu: float, r: float):
    """Quantile of the standardized skewed t, by analytic two-piece inversion.

    The unstandardized CDF is 2/(1+r^2) * T_nu(r x) for x <= 0 and
    1 - 2 r^2/(1+r^2) * (1 - T_nu(x/r)) above, so inversion routes through
    the symmetric t quantile; the result is then standardized.
    """
    m, s = skewed_t_moments(nu, r)
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("quantile level must lie strictly in (0, 1)")
    split = 1.0 / (1.0 + r * r)
    lower = stdtrit(nu, p * (1.0 + r * r) / 2.0) / r
    upper = r * stdtrit(nu, 1.0 - (1.0 - p) * (1.0 + r * r) / (2.0 * r * r))
    x = np.where(p < split, lower, upper)
    out = (x - m) / s
    return float(out) if out.ndim == 0 else out


def skewed_t_cdf(y, nu: float, r: float):
    """CDF of the standardized skewed t (the two-piece CDF at x = m + s y)."""
    m, s = skewed_t_moments(nu, r)
    x = m + s * np.asarray(y, dtype=float)
    lower = 2.0 / (1.0 + r * r) * stdtr(nu, x * r)
    upper = 1.0 - 2.0 * r * r / (1.0 + r * r) * (1.0 - stdtr(nu, x / r))
    out = np.where(x <= 0, lower, upper)
    return float(out) if out.ndim == 0 else out


def _t_tail_abs_moment(a, nu: float):
    """E[|T| 1{|T| >= a}] for T ~ t_nu and a >= 0.

    Equals 2 (nu + a^2)/(nu - 1) t_nu(a); writing out the density
    t_nu(a) = t_nu(0) (1 + a^2/nu)^(-(nu+1)/2) and E|T| = 2 nu t_nu(0)/(nu - 1)
    gives E|T| (1 + a^2/nu)^(-(nu-1)/2).
    """
    return _t_abs_moment(nu) * (1.0 + a * a / nu) ** (-(nu - 1.0) / 2.0)


def skewed_t_partial_expectation(a, nu: float, r: float):
    """E[eps 1{eps <= a}] for the standardized skewed t eps, in closed form.

    With y = m + s a and p = r^2/(1+r^2), the two-piece partial expectation
    E[X 1{X <= y}] is -((1-p)/r) g(-r y) for y <= 0 (only the negative
    piece -|T|/r reaches below y) and m - p r g(y/r) above (the mean minus
    the positive piece beyond y), where g(a) = E[|T| 1{|T| >= a}].
    Standardizing gives (E[X 1{X <= y}] - m P(X <= y)) / s.
    """
    m, s = skewed_t_moments(nu, r)
    y = m + s * np.asarray(a, dtype=float)
    p = r * r / (1.0 + r * r)
    # clamped so that each branch is evaluated only on its own half-line
    lower = -((1.0 - p) / r) * _t_tail_abs_moment(-r * np.minimum(y, 0.0), nu)
    upper = m - p * r * _t_tail_abs_moment(np.maximum(y, 0.0) / r, nu)
    partial = np.where(y <= 0, lower, upper)
    out = (partial - m * skewed_t_cdf(a, nu, r)) / s
    return float(out) if out.ndim == 0 else out


def gen_garch(T: int = 2000, seed: int = 0, alpha: float | None = 0.95,
              nu: float = GARCH_NU, skew: float = GARCH_SKEW) -> ScenarioPath:
    """Loss path L_t = -sigma_t eps_t with GARCH(1,1) volatility.

    sigma_t^2 = 1e-5 + 0.04 L_{t-1}^2 + gamma_t sigma_{t-1}^2, with the
    persistence gamma jumping from 0.70 to 0.95 after t = 1000.  The
    recursion starts at the pre-break unconditional variance and a 200-step
    burn-in (discarded) washes out the initialization.
    """
    if T < 1:
        raise ConfigError("T must be >= 1")
    rng = np.random.default_rng(seed)
    total = T + GARCH_BURN_IN
    eps = skewed_t_sample(nu, skew, rng, size=total)
    eps_sq = eps * eps
    var = np.empty(total)
    var[0] = GARCH_OMEGA / (1.0 - GARCH_ARCH - GARCH_PERSISTENCE_LOW)
    for u in range(1, total):
        t_real = u + 1 - GARCH_BURN_IN  # calendar time of step u
        gamma = GARCH_PERSISTENCE_LOW + (
            GARCH_PERSISTENCE_JUMP if t_real > GARCH_BREAK_T else 0.0
        )
        var[u] = GARCH_OMEGA + (GARCH_ARCH * eps_sq[u - 1] + gamma) * var[u - 1]
    sigma = np.sqrt(var[GARCH_BURN_IN:])
    losses = -sigma * eps[GARCH_BURN_IN:]
    true_var = true_es = None
    if alpha is not None:
        # L_t = sigma_t * (-eps); quantile of -eps at alpha is q = -q_eps(1 - alpha),
        # and its ES is E[-eps | eps <= -q] = -E[eps 1{eps <= -q}] / (1 - alpha)
        q = -skewed_t_quantile(1.0 - alpha, nu, skew)
        true_var = sigma * q
        true_es = sigma * (-skewed_t_partial_expectation(-q, nu, skew) / (1.0 - alpha))
    return ScenarioPath("GARCH", seed, losses, np.zeros(T), sigma, true_var, alpha,
                        innovations="skewt", nu=nu, skew=skew, true_es=true_es)


def generate(name: str, T: int = 2000, seed: int = 0,
             alpha: float | None = None) -> ScenarioPath:
    """Generate the scenario path ``name`` (one of ``SCENARIOS``).

    GARCH is ``gen_garch`` at the default innovation law and at tail
    level 0.95 when ``alpha`` is None.
    """
    if alpha is not None:
        _check_level(alpha)
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    key = name.upper()
    if key not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}, expected one of {SCENARIOS}")
    if key == "GARCH":
        return gen_garch(T, seed, alpha if alpha is not None else 0.95)
    if T < 1:
        raise ConfigError("T must be >= 1")
    rng = np.random.default_rng(seed)
    t = np.arange(1, T + 1)
    sigma = np.full(T, 0.5)
    if key == "A1":
        mu = np.where(t <= T // 2, 1.0, 2.0)
    elif key in ("A2", "A3"):
        mu = _piecewise(t, [800, 1400], [1.0, 0.0, 2.0])
        if key == "A3":
            sigma = np.sqrt(_piecewise(t, [800, 1400], [0.25, 1.0, 0.49]))
    elif key == "B1":
        mu = np.sin(2.0 * np.pi * t / T)
    else:
        # a random walk W with N(0, 1/T) increments, drawn before the losses:
        # B2 is W itself (mu_0 = 0), B3 the geometric path
        # exp((drift - s^2/2) t/T + s W_t) with drift 0.5 and s^2 0.25
        w = np.cumsum(rng.normal(0.0, np.sqrt(1.0 / T), size=T))
        mu = w if key == "B2" else np.exp((0.5 - 0.125) * t / T + 0.5 * w)
    return _gaussian_path(key, seed, mu, sigma, alpha, rng)
