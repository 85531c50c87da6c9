import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm
from scipy.stats import t as student_t

from baws.scenarios import (
    GARCH_BURN_IN,
    gen_garch,
    generate,
    norm_pdf,
    skewed_t_moments,
    skewed_t_quantile,
    skewed_t_sample,
)


def test_setting_a1_parameters():
    path = generate("A1", T=2000, seed=0, alpha=0.95)
    assert np.all(path.true_mean[:1000] == 1.0)
    assert np.all(path.true_mean[1000:] == 2.0)
    assert np.all(path.true_sigma == 0.5)
    expected = 2.0 + 0.5 * ndtri(0.95)
    assert path.true_var[-1] == pytest.approx(expected, rel=1e-12)
    assert path.true_var[-1] == pytest.approx(2.8224268, abs=1e-6)


def test_setting_a2_a3_breaks():
    a2 = generate("A2", T=2000, seed=1)
    assert a2.true_mean[799] == 1.0 and a2.true_mean[800] == 0.0
    assert a2.true_mean[1399] == 0.0 and a2.true_mean[1400] == 2.0
    a3 = generate("A3", T=2000, seed=1)
    assert np.all(a3.true_mean == a2.true_mean)
    assert a3.true_sigma[799] == 0.5
    assert a3.true_sigma[1000] == 1.0
    assert a3.true_sigma[1500] == pytest.approx(0.7)
    with pytest.raises(ValueError):
        generate("A4")


def test_setting_b1_sine_path():
    path = generate("B1", T=2000, seed=2)
    assert path.true_mean[499] == pytest.approx(1.0)  # t = T/4
    assert path.true_mean[-1] == pytest.approx(0.0, abs=1e-12)  # t = T
    assert np.all(path.true_sigma == 0.5)


def test_setting_b2_random_walk_variance():
    finals = np.array([
        generate("B2", T=200, seed=s).true_mean[-1] for s in range(10_000)
    ])
    assert finals.var() == pytest.approx(1.0, abs=0.05)


def test_setting_b3_positive_and_reproducible():
    a = generate("B3", T=500, seed=3)
    b = generate("B3", T=500, seed=3)
    assert np.array_equal(a.losses, b.losses)
    assert np.all(a.true_mean > 0)


def test_gaussian_exceedance_rate():
    path = generate("A1", T=100_000, seed=4, alpha=0.95)
    exceed = np.mean(path.losses > path.true_var)
    assert exceed == pytest.approx(0.05, abs=0.01)


def test_skewed_t_symmetric_case():
    # raw sample skewness of a t5 has infinite variance (no 6th moment),
    # so symmetry is checked on a clipped third moment and tail quantiles
    rng = np.random.default_rng(5)
    draws = skewed_t_sample(5.0, 1.0, rng, size=1_000_000)
    assert abs(np.mean(draws)) < 0.01
    clipped = np.clip(draws, -10, 10)
    assert np.mean(clipped**3) == pytest.approx(0.0, abs=0.02)
    for p in (0.9, 0.95, 0.99):
        lo, hi = np.quantile(draws, [1 - p, p])
        assert lo == pytest.approx(-hi, abs=0.02)


def test_skewed_t_standardization():
    rng = np.random.default_rng(6)
    draws = skewed_t_sample(5.0, 0.95, rng, size=1_000_000)
    assert np.mean(draws) == pytest.approx(0.0, abs=0.01)
    assert np.var(draws) == pytest.approx(1.0, abs=0.02)
    assert np.mean(np.clip(draws, -10, 10) ** 3) < -0.1  # r < 1 skews left


def test_skewed_t_sample_validation():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        skewed_t_sample(2.0, 0.95, rng)
    with pytest.raises(ValueError):
        skewed_t_sample(5.0, -1.0, rng)
    assert isinstance(skewed_t_sample(5.0, 0.95, rng), float)


def test_skewed_t_quantile_symmetric_median():
    assert skewed_t_quantile(0.5, 7.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_skewed_t_quantile_monotone():
    qs = [skewed_t_quantile(p, 5.0, 0.95) for p in (0.9, 0.95, 0.99)]
    assert qs[0] < qs[1] < qs[2]
    with pytest.raises(ValueError):
        skewed_t_quantile(1.0, 5.0, 0.95)


def test_skewed_t_quantile_inverts_sampler():
    rng = np.random.default_rng(8)
    draws = skewed_t_sample(5.0, 0.95, rng, size=1_000_000)
    q = skewed_t_quantile(0.95, 5.0, 0.95)
    assert np.mean(draws <= q) == pytest.approx(0.95, abs=0.002)
    # continuity across the piece boundary
    split = 1.0 / (1.0 + 0.95**2)
    lo = skewed_t_quantile(split - 1e-9, 5.0, 0.95)
    hi = skewed_t_quantile(split + 1e-9, 5.0, 0.95)
    assert lo == pytest.approx(hi, abs=1e-6)


def test_garch_initial_variance_and_floor():
    path = gen_garch(T=2000, seed=9, alpha=0.95)
    assert path.true_sigma.size == 2000
    assert np.all(path.true_sigma**2 >= 1e-5 - 1e-18)
    # pre-break unconditional variance used to seed the recursion
    assert 1e-5 / 0.26 == pytest.approx(3.846153846e-5, rel=1e-9)
    assert path.innovations == "skewt"
    assert path.nu == 5.0 and path.skew == 0.95


def test_garch_zero_mean_and_finite():
    maxabs = []
    means = []
    for seed in range(100):
        path = gen_garch(T=2000, seed=seed)
        maxabs.append(np.max(np.abs(path.losses)))
        means.append(path.losses.mean())
    assert np.all(np.isfinite(maxabs))
    grand = np.mean(means)
    se = np.std(means) / 10.0
    assert abs(grand) < 3 * se + 1e-12


def test_garch_break_raises_volatility():
    pre, post = [], []
    for seed in range(30):
        path = gen_garch(T=2000, seed=seed)
        pre.append(np.var(path.losses[500:1000]))
        post.append(np.var(path.losses[1500:]))
    assert np.mean(post) > 5 * np.mean(pre)


def test_garch_true_var_scales_with_sigma():
    path = gen_garch(T=1000, seed=10, alpha=0.95)
    q = -skewed_t_quantile(0.05, 5.0, 0.95)
    assert np.allclose(path.true_var, path.true_sigma * q, rtol=1e-12)
    assert q > 0


def test_gaussian_true_es_matches_tail_expectation():
    path = generate("A3", T=2000, seed=0, alpha=0.9)
    for t in (0, 1000, 1999):
        mu, sigma, v = path.true_mean[t], path.true_sigma[t], path.true_var[t]
        expected = norm.expect(lambda x: x, loc=mu, scale=sigma, lb=v, conditional=True)
        assert path.true_es[t] == pytest.approx(expected, rel=1e-9)
    assert generate("A1", T=10, seed=0).true_es is None


def test_garch_true_es_matches_monte_carlo():
    alpha, nu, r = 0.95, 5.0, 0.95
    path = gen_garch(T=300, seed=13, alpha=alpha, nu=nu, skew=r)
    es_z = path.true_es / path.true_sigma
    assert np.allclose(es_z, es_z[0], rtol=1e-12)
    # ES of the loss innovation -eps: mean of -eps beyond its alpha-quantile
    loss = -skewed_t_sample(nu, r, np.random.default_rng(14), size=4_000_000)
    q = -skewed_t_quantile(1 - alpha, nu, r)
    assert es_z[0] == pytest.approx(loss[loss >= q].mean(), abs=0.01)
    assert es_z[0] > q


def test_generate_dispatch_and_reproducibility():
    for name in ("A1", "B2", "GARCH"):
        a = generate(name, T=400, seed=11, alpha=0.9)
        b = generate(name, T=400, seed=11, alpha=0.9)
        assert a.name.upper() == name
        assert np.array_equal(a.losses, b.losses)
        assert a.losses.size == 400
        assert a.true_var is not None
    with pytest.raises(ValueError):
        generate("C9")


def test_moments_match_monte_carlo():
    rng = np.random.default_rng(12)
    m, s = skewed_t_moments(5.0, 0.95)
    t_abs = np.abs(rng.standard_t(5.0, size=2_000_000))
    pos = rng.random(2_000_000) < 0.95**2 / (1 + 0.95**2)
    raw = np.where(pos, 0.95 * t_abs, -t_abs / 0.95)
    assert raw.mean() == pytest.approx(m, abs=0.01)
    assert raw.std() == pytest.approx(s, abs=0.01)


# ---------------------------------------------------------------------------
# the kernels are the ones behind scipy.stats, called directly
# ---------------------------------------------------------------------------

KERNEL_LAWS = [(5.0, 0.95), (3.0, 1.0), (2.5, 0.5), (10.0, 1.5), (30.0, 2.0)]


@pytest.mark.parametrize("nu,r", KERNEL_LAWS)
def test_skewed_t_sample_matches_scipy_stats_construction(nu, r):
    m, s = skewed_t_moments(nu, r)
    for seed in (0, 7, 123):
        rng = np.random.default_rng(seed)
        t_abs = np.abs(student_t.rvs(nu, size=5000, random_state=rng))
        positive = rng.random(5000) < r * r / (1.0 + r * r)
        expected = (np.where(positive, r * t_abs, -t_abs / r) - m) / s
        got = skewed_t_sample(nu, r, np.random.default_rng(seed), size=5000)
        assert np.array_equal(got, expected)
    rng = np.random.default_rng(5)
    t_abs = abs(student_t.rvs(nu, size=1, random_state=rng)[0])
    x = r * t_abs if rng.random(1)[0] < r * r / (1.0 + r * r) else -t_abs / r
    assert skewed_t_sample(nu, r, np.random.default_rng(5)) == (x - m) / s


@pytest.mark.parametrize("nu,r", KERNEL_LAWS)
def test_skewed_t_quantile_matches_t_ppf_form(nu, r):
    p = np.concatenate([np.logspace(-300, np.log10(0.5), 2000),
                        1.0 - np.logspace(-16, np.log10(0.5), 2000)])
    m, s = skewed_t_moments(nu, r)
    lower = student_t.ppf(p * (1.0 + r * r) / 2.0, nu) / r
    upper = r * student_t.ppf(1.0 - (1.0 - p) * (1.0 + r * r) / (2.0 * r * r), nu)
    expected = (np.where(p < 1.0 / (1.0 + r * r), lower, upper) - m) / s
    assert np.array_equal(skewed_t_quantile(p, nu, r), expected)
    assert skewed_t_quantile(p[10], nu, r) == expected[10]
    assert skewed_t_quantile(p[-10], nu, r) == expected[-10]


def test_norm_pdf_matches_scipy_stats():
    z = np.concatenate([np.linspace(-40.0, 40.0, 20001), ndtri([0.5, 0.9, 0.95, 0.99])])
    assert np.array_equal(norm_pdf(z), norm.pdf(z))
    assert norm_pdf(ndtri(0.95)) == norm.pdf(ndtri(0.95))


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, baws; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
