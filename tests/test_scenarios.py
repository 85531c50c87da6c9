import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm
from scipy.stats import t as student_t

from baws import scenarios
from baws.errors import ConfigError
from baws.scenarios import (
    GARCH_BURN_IN,
    GaussianLaw,
    SkewedTLaw,
    gen_garch,
    generate,
    norm_pdf,
    skewed_t_moments,
    skewed_t_quantile,
    skewed_t_sample,
)

from conftest import skewt_partial_expectation_quad


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
    assert path.law == SkewedTLaw(5.0, 0.95)


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


def test_generate_without_alpha_has_no_truths():
    for name in ("A1", "B3", "GARCH"):
        path = generate(name, T=50, seed=1)
        assert path.alpha is None and path.true_var is None and path.true_es is None
    # gen_garch keeps its own default level
    assert gen_garch(T=50, seed=1).alpha == 0.95


def test_gen_garch_checks_its_arguments_before_drawing(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a path was drawn before the argument check")

    monkeypatch.setattr(scenarios, "skewed_t_sample", unreachable)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        gen_garch(T=50, seed=-1)
    with pytest.raises(ConfigError, match=r"tail level must lie strictly in \(0, 1\)"):
        gen_garch(T=50, alpha=1.5)


def test_generate_dispatch_and_reproducibility():
    for name in ("A1", "B2", "GARCH"):
        a = generate(name, T=400, seed=11, alpha=0.9)
        b = generate(name, T=400, seed=11, alpha=0.9)
        assert a.name.upper() == name
        assert np.array_equal(a.losses, b.losses)
        assert a.losses.size == 400
        assert a.true_var is not None
        assert a.law == (SkewedTLaw(5.0, 0.95) if name == "GARCH" else GaussianLaw())
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


@pytest.mark.parametrize("law", [GaussianLaw(), SkewedTLaw(5.0, 0.95), SkewedTLaw(4.5, 1.2)])
def test_law_kernels_agree_with_oracles(law):
    # the skewed-t law is that of Z = -eps: each kernel flips a sign
    p = np.linspace(0.01, 0.99, 99)
    np.testing.assert_allclose(law.cdf(law.quantile(p)), p, rtol=0, atol=1e-12)
    if isinstance(law, GaussianLaw):
        z = np.linspace(-8.0, 8.0, 65)
        np.testing.assert_array_equal(law.partial(z), -norm.pdf(z))
        draws = np.random.default_rng(15).standard_normal(1_000_000)
    else:
        m, s = skewed_t_moments(law.nu, law.skew)
        kink = m / s  # where the two pieces of Z's density meet
        z = np.concatenate([np.linspace(-8.0, 8.0, 65), [kink - 1e-12, kink, kink + 1e-12]])
        oracle = [skewt_partial_expectation_quad(-x, law.nu, law.skew) for x in z]
        np.testing.assert_allclose(law.partial(z), oracle, rtol=0, atol=1e-10)
        draws = -skewed_t_sample(law.nu, law.skew, np.random.default_rng(15), size=1_000_000)
    # Monte Carlo: P(Z < z) and E[Z 1{Z < z}] of the drawn innovations
    for x in (-1.5, 0.0, 0.3, 1.6):
        assert law.cdf(x) == pytest.approx(np.mean(draws < x), abs=0.002)
        assert law.partial(x) == pytest.approx(np.mean(draws * (draws < x)), abs=0.005)


# the start of each fresh interpreter below, whose argument is a scratch
# directory: baws, inputs and helpers for the cases
_LAZY_SETUP = """
import sys
from pathlib import Path
import numpy as np
import baws, baws.cli
from baws import BacktestConfig, BootstrapConfig, Mean, VaR, VaRES

x = np.random.default_rng(0).normal(size=60)
tmp = Path(sys.argv[1])

def backtest(target, mode):
    cfg = BacktestConfig(method="baws", target=target, t0=56,
                         bootstrap=BootstrapConfig(replications=50, mode=mode))
    return baws.run_backtest(x, cfg)

def experiment(target, workers):
    return baws.run_experiment("A1", ["baws", "full"], target, n=2, T=60, t0=57,
                               replications=20, workers=workers)

def loaded():
    return "scipy.special" in sys.modules
"""

# cases that must leave scipy.special unloaded, run in turn in one interpreter
_LAZY_CASES = """
prices = tmp / "prices.csv"
prices.write_text("date,price\\n" + "".join(f"d{i},{100 + i}\\n" for i in range(60)))
for case, run in [
    ("mean iid", lambda: backtest(Mean(), "iid")),
    ("mean block", lambda: backtest(Mean(), "block")),
    ("var iid", lambda: backtest(VaR(0.95), "iid")),
    ("var block", lambda: backtest(VaR(0.95), "block")),
    ("mean experiment, one worker", lambda: experiment(Mean(), 1)),
    ("load_price_csv", lambda: baws.load_price_csv(prices)),
    ("emit_results", lambda: baws.emit_results(backtest(VaR(0.95), "iid"), tmp / "o.csv",
                                               target=VaR(0.95))),
]:
    run()
    assert not loaded(), case
"""

# cases that must load scipy.special, each in its own interpreter
_EAGER_CASES = {
    "vares backtest": "backtest(VaRES(0.95), 'iid')",
    "a path with truths": "baws.generate('A1', T=50, alpha=0.95)",
    "rejection probability": "baws.rejection_probability_gaussian(1, 2, 1, 1, 200, 100, 0.1)",
    "experiment with a pool, in the parent": "experiment(Mean(), 2)",
}


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    """``import baws`` loads neither scipy.stats nor scipy.special, and
    scipy.special loads only where a kernel of it is needed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}

    def run(code):
        subprocess.run([sys.executable, "-c", _LAZY_SETUP + code, str(tmp_path)], env=env,
                       check=True)

    run("assert 'scipy.stats' not in sys.modules and not loaded()\n" + _LAZY_CASES)
    for case, call in _EAGER_CASES.items():
        run(f"assert not loaded()\n{call}\nassert loaded(), {case!r}\n")
