import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import spearmanr

import baws
from baws import pipeline
from baws.baselines import SAWSConfig
from baws.bootstrap import BootstrapConfig
from baws.pipeline import (
    BacktestConfig,
    ConfigError,
    DataError,
    LossSeries,
    emit_results,
    load_price_csv,
    parse_method,
    run_backtest,
    run_experiment,
)
from baws.scenarios import ScenarioPath, generate
from baws.scoring import Mean, VaR, VaRES
from baws.selection import CandidateGridConfig as Grid

from conftest import read_forecasts_csv


def constant_scenario(seed):
    T = 40
    flat = np.full(T, 2.0)
    return ScenarioPath("const", seed, flat, flat.copy(), np.ones(T), None, None)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_price_csv_log_returns(tmp_path):
    f = tmp_path / "px.csv"
    f.write_text("date,price\n2020-01-01,100\n2020-01-02,99\n2020-01-03,99\n")
    series = load_price_csv(f)
    assert series.values[0] == pytest.approx(-np.log(0.99), rel=1e-12)
    assert series.values[0] == pytest.approx(0.0100503, abs=1e-7)
    assert series.values[1] == 0.0
    assert series.dates == ("2020-01-02", "2020-01-03")


def test_load_price_csv_rejects_bad_prices(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("price\n100\n-1\n")
    with pytest.raises(DataError, match="row 3"):
        load_price_csv(f)
    f.write_text("price\nabc\n100\n")
    with pytest.raises(DataError, match="row 2"):
        load_price_csv(f)
    f.write_text("price\n100\n")
    with pytest.raises(DataError, match="at least 2"):
        load_price_csv(f)


def test_load_loss_csv_without_dates(tmp_path):
    f = tmp_path / "loss.csv"
    f.write_text("loss\n0.01\n-0.02\n0.005\n")
    series = load_price_csv(f)
    assert series.values.tolist() == [0.01, -0.02, 0.005]
    assert series.dates is None


@pytest.mark.parametrize("header", ["loss,date", "price,date"])
def test_load_csv_names_a_row_without_its_date(tmp_path, header):
    # named where it is read, not left to misalign the dates and the values
    f = tmp_path / "dated.csv"
    f.write_text(f"{header}\n0.1,2020-01-01\n0.2\n0.3,2020-01-03\n")
    with pytest.raises(DataError, match="row 3 has too few columns"):
        load_price_csv(f)
    f.write_text(f"{header}\n0.1,2020-01-01\n0.2,\n0.3,2020-01-03\n")
    with pytest.raises(DataError, match="row 3: empty date"):
        load_price_csv(f)


def test_load_csv_column_errors(tmp_path):
    f = tmp_path / "odd.csv"
    f.write_text("date,value\n2020-01-01,1\n")
    with pytest.raises(ConfigError, match="price.*loss"):
        load_price_csv(f)
    with pytest.raises(ConfigError, match="not found"):
        load_price_csv(f, loss_col="loss")
    with pytest.raises(DataError):
        load_price_csv(tmp_path / "missing.csv")


def test_parse_method():
    assert parse_method("baws") == ("baws", None)
    assert parse_method("fixed:250") == ("fixed", 250)
    assert parse_method("fixed250") == ("fixed", 250)
    with pytest.raises(ConfigError):
        parse_method("magic")


# ---------------------------------------------------------------------------
# backtests
# ---------------------------------------------------------------------------

def test_fixed_window_backtest_pattern():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(300)
    cfg = BacktestConfig(method="fixed", target=Mean(), t0=5, fixed_k=250)
    records = run_backtest(x, cfg)
    assert [r.t for r in records] == list(range(5, 301))
    for r in records:
        assert r.k_hat == min(250, r.t - 1)
        assert r.realized == x[r.t - 1]


def test_full_window_backtest_and_cap():
    x = np.arange(1.0, 61.0)
    cfg = BacktestConfig(method="full", target=Mean(), t0=10,
                         grid=Grid(k_min=2, max_window=20))
    records = run_backtest(x, cfg)
    for r in records:
        assert r.k_hat == min(r.t - 1, 20)


def test_baws_selected_window_grows_on_iid_data():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(600)
    cfg = BacktestConfig(
        method="baws", target=VaR(0.9), t0=101,
        grid=Grid(k_min=20),
        bootstrap=BootstrapConfig(beta=0.9, replications=150, mode="iid"),
        seed=7,
    )
    records = run_backtest(x, cfg)
    t = np.array([r.t for r in records])
    k = np.array([r.k_hat for r in records], dtype=float)
    rho = spearmanr(t, k).statistic
    assert rho > 0


def test_baws_adapts_after_break():
    path = generate("A1", T=1100, seed=3)  # break at t = 550
    cfg = BacktestConfig(
        method="baws", target=Mean(), t0=500, grid=Grid(k_min=20),
        bootstrap=BootstrapConfig(beta=0.9, replications=150, mode="iid"),
        seed=11,
    )
    records = run_backtest(path.losses, cfg)
    by_t = {r.t: r.k_hat for r in records}
    pre = np.median([by_t[t] for t in range(500, 550)])
    post = np.median([by_t[t] for t in range(600, 651)])
    # within 100 steps of the break the selection hugs the post-break data
    assert post <= 120
    assert post < pre / 2


def test_no_lookahead_poisoning():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(200)
    cfg = BacktestConfig(
        method="baws", target=Mean(), t0=150, grid=Grid(k_min=10),
        bootstrap=BootstrapConfig(replications=100, mode="iid"), seed=5,
    )
    baseline = run_backtest(x, cfg)
    poisoned_x = x.copy()
    t_star = 170
    poisoned_x[t_star - 1] += 100.0
    poisoned = run_backtest(poisoned_x, cfg)
    a = baseline[t_star - 150]
    b = poisoned[t_star - 150]
    assert a.t == b.t == t_star
    assert a.k_hat == b.k_hat
    assert a.theta == b.theta  # forecast untouched by the realized value
    assert b.realized != a.realized


def test_backtest_deterministic():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(250)
    cfg = BacktestConfig(
        method="baws", target=VaR(0.95), t0=200, grid=Grid(k_min=20),
        bootstrap=BootstrapConfig(replications=200, mode="block"), seed=21,
    )
    a = run_backtest(x, cfg)
    b = run_backtest(x, cfg)
    assert a == b
    # the config seed is the one seed of the bootstrap streams
    assert run_backtest(x, replace(cfg, seed=22)) != a


def test_checkpoint_resume_reproduces_suffix():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(260)
    cfg = BacktestConfig(
        method="baws", target=VaR(0.9), t0=201, grid=Grid(k_min=20),
        bootstrap=BootstrapConfig(replications=150, mode="iid"), seed=9,
    )
    full = run_backtest(x, cfg)
    t_resume = 230
    prev_k = next(r.k_hat for r in full if r.t == t_resume - 1)
    suffix = run_backtest(x, cfg, start_t=t_resume, initial_prev_k=prev_k)
    assert suffix == [r for r in full if r.t >= t_resume]
    # a previous selection below k_min fails on the first step, not midway
    for bad_k in (0, 5):
        with pytest.raises(ValueError, match="below k_min"):
            run_backtest(x, cfg, start_t=t_resume, initial_prev_k=bad_k)


def test_backtest_validation():
    with pytest.raises(ConfigError):
        BacktestConfig(method="nope", target=Mean())
    with pytest.raises(ConfigError):
        BacktestConfig(method="fixed", target=Mean())
    with pytest.raises(ConfigError):
        BacktestConfig(method="baws", target=Mean(), t0=10, grid=Grid(k_min=20))
    cfg = BacktestConfig(method="full", target=Mean(), t0=50)
    with pytest.raises(ConfigError):
        run_backtest(np.zeros(10), cfg)
    # a finished run resumes to no records; a start past it is an error
    assert run_backtest(np.zeros(60), cfg, start_t=61) == []
    for start_t in (62, 10**6):
        with pytest.raises(ConfigError, match="past the series end"):
            run_backtest(np.zeros(60), cfg, start_t=start_t)
    with pytest.raises(DataError):
        run_backtest(np.array([np.nan] * 60), cfg)
    # only an adaptive method has a candidate grid for a previous selection to seed
    for method, fixed_k in (("full", None), ("fixed", 20)):
        cfg = BacktestConfig(method=method, target=VaR(0.9), t0=50, fixed_k=fixed_k)
        with pytest.raises(ConfigError, match="initial_prev_k"):
            run_backtest(np.zeros(60), cfg, initial_prev_k=3)


def test_negative_seed_rejected_on_entry():
    with pytest.raises(ConfigError, match="seed"):
        BacktestConfig(method="baws", target=Mean(), seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        run_experiment("A1", ["full"], Mean(), n=1, T=60, t0=41, seed=-1, workers=1)
    for name in ("A1", "GARCH"):
        with pytest.raises(ConfigError, match="seed"):
            generate(name, T=10, seed=-1)


def test_experiment_checks_scenario_name_before_replicating(monkeypatch):
    def unreachable(spec, rep):
        raise AssertionError("a replication ran before the scenario check")

    monkeypatch.setattr(pipeline, "_replication", unreachable)
    with pytest.raises(ConfigError, match="unknown scenario"):
        run_experiment("Z9", ["full"], Mean(), n=2, T=60, t0=41, workers=1)


def test_experiment_checks_t0_against_named_path_length(monkeypatch):
    def unreachable(spec, rep):
        raise AssertionError("a replication ran before the length check")

    monkeypatch.setattr(pipeline, "_replication", unreachable)
    with pytest.raises(ConfigError, match="series length 100 is shorter than t0=200"):
        run_experiment("A1", ["full"], Mean(), n=2, T=100, t0=200, workers=1)
    # a path of exactly t0 losses has one forecast step
    monkeypatch.undo()
    report = run_experiment("A1", ["full"], Mean(), n=1, T=60, t0=60, workers=1)
    assert report.value("full", "MSE") >= 0.0


def test_experiment_rows_carry_the_canonical_scenario_name():
    report = run_experiment("a1", ["full"], Mean(), n=1, T=60, t0=41, workers=1)
    assert {row[1] for row in report.rows} == {"A1"}
    assert report == run_experiment("A1", ["full"], Mean(), n=1, T=60, t0=41, workers=1)


def test_error_control_checked_at_construction():
    with pytest.raises(ConfigError, match="error_control"):
        BacktestConfig(method="baws", target=Mean(), error_control="bogus")
    for method, fixed_k in (("saws", None), ("fixed", 5), ("full", None)):
        with pytest.raises(ConfigError, match="fwer"):
            BacktestConfig(method=method, target=Mean(), fixed_k=fixed_k,
                           error_control="fwer")
    BacktestConfig(method="baws", target=Mean(), error_control="fwer")


def test_block_length_checked_at_construction():
    def config(c, k_min, max_window=None):
        return BacktestConfig(method="baws", target=VaR(0.95), t0=200,
                              grid=Grid(k_min=k_min, max_window=max_window),
                              bootstrap=BootstrapConfig(mode="block", block_c=c))

    with pytest.raises(ConfigError, match="block length 30 exceeds window length 20"):
        config(10, 20)
    # k_min = 27 fits (l = 24), but lengths 28-31 get l = 32
    with pytest.raises(ConfigError, match="block length 32 exceeds window length 28"):
        config(8, 27)
    config(8, 27, max_window=27)
    config(8, 32)
    config(1.0, 20)
    # the iid bootstrap draws no blocks
    BacktestConfig(method="baws", target=VaR(0.95), grid=Grid(k_min=20),
                   bootstrap=BootstrapConfig(mode="iid", block_c=10))


def test_experiment_block_c_applies_to_block_mode_only():
    def no_path(seed):
        raise AssertionError("a replication ran")

    for scenario, mode in (("A1", None), ("GARCH", "iid"), (no_path, None)):
        with pytest.raises(ConfigError, match="block_c applies to bootstrap mode 'block'"):
            run_experiment(scenario, ["baws"], VaR(0.95), n=1, mode=mode, block_c=3.0,
                           workers=1)
    kwargs = dict(n=1, T=80, t0=41, seed=3, replications=40, grid=Grid(k_min=10),
                  workers=1)
    assert (run_experiment("A1", ["baws"], VaR(0.9), mode="block", block_c=1.0, **kwargs)
            == run_experiment("A1", ["baws"], VaR(0.9), mode="block", **kwargs))


def test_experiment_rejects_replications_of_different_laws():
    def garch(seed):  # the replications of seed 0 draw an odd and an even path seed
        return baws.gen_garch(T=330, seed=seed, nu=5.0 if seed % 2 else 30.0, alpha=0.95)

    with pytest.raises(ConfigError, match=r"different loss laws, SkewedTLaw\(nu=30.0.*"
                                          r"SkewedTLaw\(nu=5.0"):
        run_experiment(garch, ["full"], VaR(0.95), n=2, t0=301, seed=0, workers=1)


def test_experiment_fwer_applies_to_baws_only():
    kwargs = dict(n=1, T=80, t0=41, seed=3, replications=40, grid=Grid(k_min=10),
                  workers=1)
    fwer = run_experiment("A1", ["baws", "saws"], VaR(0.9), error_control="fwer", **kwargs)
    pcer = run_experiment("A1", ["baws", "saws"], VaR(0.9), **kwargs)
    assert fwer.value("saws", "MSE") == pcer.value("saws", "MSE")
    with pytest.raises(ConfigError, match="error_control"):
        run_experiment("A1", ["baws"], VaR(0.9), error_control="bogus", **kwargs)
    # the control is checked whatever the methods, and fwer needs a baws method
    with pytest.raises(ConfigError, match="error_control"):
        run_experiment("A1", ["full"], VaR(0.9), error_control="bogus", **kwargs)
    with pytest.raises(ConfigError, match="fwer"):
        run_experiment("A1", ["saws", "full"], VaR(0.9), error_control="fwer", **kwargs)


def test_saws_policy_requires_saws_method():
    policy = SAWSConfig(**VaR(0.95).saws_defaults)
    for method, fixed_k in (("baws", None), ("fixed", 5), ("full", None)):
        with pytest.raises(ConfigError, match="saws policy"):
            BacktestConfig(method=method, target=VaR(0.95), fixed_k=fixed_k, saws=policy)
    assert BacktestConfig(method="saws", target=VaR(0.95), saws=policy).saws is policy


def test_fixed_k_requires_fixed_method():
    for method in ("baws", "saws", "full"):
        with pytest.raises(ConfigError, match="fixed_k"):
            BacktestConfig(method=method, target=VaR(0.95), fixed_k=5)
    assert BacktestConfig(method="fixed", target=VaR(0.95), fixed_k=5).fixed_k == 5


def test_fixed_k_within_max_window():
    with pytest.raises(ConfigError, match="fixed window 251 exceeds max_window=250"):
        BacktestConfig(method="fixed", target=VaR(0.95), fixed_k=251,
                       grid=Grid(max_window=250))
    BacktestConfig(method="fixed", target=VaR(0.95), fixed_k=250, grid=Grid(max_window=250))


def test_bootstrap_policy_requires_baws_method():
    policy = BootstrapConfig(mode="block", block_c=10)
    for method, fixed_k in (("saws", None), ("fixed", 5), ("full", None)):
        with pytest.raises(ConfigError, match="bootstrap policy"):
            BacktestConfig(method=method, target=VaR(0.95), grid=Grid(k_min=20),
                           fixed_k=fixed_k, bootstrap=policy)
    assert BacktestConfig(method="full", target=VaR(0.95)).bootstrap is None


def test_default_saws_config_per_target():
    mean = BacktestConfig(method="saws", target=Mean()).saws
    assert mean.family == "convex_smooth"
    assert mean.c_tau == 0.3
    var = BacktestConfig(method="saws", target=VaR(0.95)).saws
    assert var.family == "lipschitz"
    assert var.c_tau == 0.5


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_experiment_constant_data_zero_risk_and_loss():
    report = run_experiment(constant_scenario, ["fixed:5"], Mean(),
                            n=1, t0=10, workers=1)
    assert report.value("fixed:5", "CR") == 0.0
    assert report.value("fixed:5", "CL") == 0.0
    assert report.value("fixed:5", "MAB") == 0.0


def test_experiment_method_list_checked_before_replications():
    def no_path(seed):
        raise AssertionError("a replication ran")

    for methods in ([], ["full", "full"], ["full", " FULL"], ["fixed:30", "fixed30"],
                    ["baws", "fixed:5", "BAWS "]):
        with pytest.raises(ConfigError, match="empty or repeats a method"):
            run_experiment(no_path, methods, Mean(), n=2, t0=10, workers=1)
    report = run_experiment(constant_scenario, [" full", "fixed:5 ", "FIXED:6"], Mean(),
                            n=1, t0=10, workers=1)
    assert list(dict.fromkeys(row[0] for row in report.rows)) == ["full", "fixed:5", "FIXED:6"]


def test_experiment_worker_count_checked_on_entry():
    def no_path(seed):
        raise AssertionError("a replication ran")

    for workers in (0, -1):
        with pytest.raises(ConfigError, match="workers"):
            run_experiment(no_path, ["full"], Mean(), n=2, t0=10, workers=workers)


# Run in a fresh interpreter so that a deadlock in a worker process shows as
# a timeout.
WORKERS_SCRIPT = """
from baws import VaR, run_experiment, selection

kwargs = dict(n=2, T=160, t0=121, seed=5, replications=50,
              grid=selection.CandidateGridConfig(k_min=20))
in_workers = run_experiment("GARCH", ["baws"], VaR(0.95), workers=2, **kwargs)
in_process = run_experiment("GARCH", ["baws"], VaR(0.95), workers=1, **kwargs)
assert in_workers.rows == in_process.rows
print("ok")
"""


def test_worker_processes_match_in_process_run():
    src = str(Path(baws.__file__).resolve().parents[1])
    # a session of its own, so that a timeout also ends the worker processes
    proc = subprocess.Popen([sys.executable, "-c", WORKERS_SCRIPT], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True,
                            env=dict(os.environ, PYTHONPATH=src))
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a worker process deadlocked")
    assert proc.returncode == 0, err
    assert out.strip() == "ok"


def test_experiment_deterministic_and_complete():
    kwargs = dict(n=2, T=120, t0=40, seed=3, beta=0.9, replications=60,
                  grid=Grid(k_min=10), workers=1)
    r1 = run_experiment("A1", ["baws", "saws", "fixed:20", "full"], VaR(0.95), **kwargs)
    r2 = run_experiment("A1", ["baws", "saws", "fixed:20", "full"], VaR(0.95), **kwargs)
    assert r1.rows == r2.rows
    for method in ("baws", "saws", "fixed:20", "full"):
        for metric in ("MAB", "Var", "MSE", "CR", "CL"):
            assert np.isfinite(r1.value(method, metric))


def test_experiment_mean_target_has_cr_identity():
    report = run_experiment("A1", ["full"], Mean(), n=3, T=100, t0=41,
                            grid=Grid(k_min=10), seed=1, workers=1)
    horizon = 100 - 41 + 1
    assert report.value("full", "CR") == pytest.approx(
        report.value("full", "MSE") * horizon, rel=1e-10)


def test_experiment_vares_reports_both_components():
    report = run_experiment("A1", ["fixed:20"], __import__("baws").VaRES(0.9),
                            n=2, T=100, t0=41, grid=Grid(k_min=10), seed=2,
                            workers=1)
    for metric in ("MAB", "MSE", "MAB_es", "MSE_es", "CL"):
        assert np.isfinite(report.value("fixed:20", metric))
    with pytest.raises(KeyError):
        report.value("fixed:20", "CR")  # no VaR/ES cumulative risk row


def test_experiment_vares_perfect_forecaster_has_zero_error(monkeypatch):
    # a forecaster that knows the true (VaR, ES) path of each replication
    paths = {}

    def scenario(seed):
        path = generate("A3", T=60, seed=seed, alpha=0.9)
        paths[id(path.losses)] = path
        return path

    def oracle_backtest(losses, cfg):
        path = paths[id(losses)]
        truth = np.column_stack([path.true_var, path.true_es])[cfg.t0 - 1:]
        return [SimpleNamespace(theta=theta, k_hat=1) for theta in truth]

    monkeypatch.setattr(pipeline, "run_backtest", oracle_backtest)
    report = run_experiment(scenario, ["full"], VaRES(0.9), n=2, T=60, t0=41,
                            grid=Grid(k_min=10), workers=1)
    for metric in ("MAB", "MSE", "MAB_es", "Var_es", "MSE_es"):
        assert report.value("full", metric) == 0.0
    # a path without the target's truth fails before any backtest runs
    no_es = ScenarioPath("const", 0, np.zeros(60), np.zeros(60), np.ones(60), np.ones(60), 0.9)
    no_var = replace(no_es, true_var=None)

    def unreachable(losses, cfg):
        raise AssertionError("backtest ran before the truth check")

    monkeypatch.setattr(pipeline, "run_backtest", unreachable)
    for target, path, field in ((VaRES(0.9), no_es, "true_es"), (VaR(0.9), no_var, "true_var")):
        with pytest.raises(ValueError, match=field):
            run_experiment(lambda seed: path, ["full"], target, n=2, T=60, t0=41,
                           grid=Grid(k_min=10), workers=1)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_forecast_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    x = rng.standard_normal(40)
    cfg = BacktestConfig(method="fixed", target=VaR(0.9), t0=30, fixed_k=10)
    records = run_backtest(x, cfg)
    out = tmp_path / "fc.csv"
    emit_results(records, out, target=VaR(0.9))
    parsed = read_forecasts_csv(out)
    assert len(parsed) == len(records)
    for a, b in zip(parsed, records):
        assert a.t == b.t and a.k_hat == b.k_hat
        assert a.theta[0] == pytest.approx(b.theta[0], rel=1e-11)
    # emitting the parsed records again reproduces the bytes exactly
    out2 = tmp_path / "fc2.csv"
    emit_results(parsed, out2, target=VaR(0.9))
    assert out.read_bytes() == out2.read_bytes()


def test_forecast_csv_formats(tmp_path):
    records = [
        __import__("baws").ForecastRecord(t=5, k_hat=4, theta=(1.5, 2.5),
                                          realized=0.25, score=0.125),
    ]
    wide = tmp_path / "w.csv"
    emit_results(records, wide, fmt="wide", target=__import__("baws").VaRES(0.9))
    lines = wide.read_text().strip().splitlines()
    assert lines[0] == "t,k_hat,var_hat,es_hat,realized_loss,realized_score"
    assert lines[1] == "5,4,1.5,2.5,0.25,0.125"
    long = tmp_path / "l.csv"
    emit_results(records, long, fmt="long", target=__import__("baws").VaRES(0.9))
    body = long.read_text().strip().splitlines()
    assert body[0] == "series,t,value"
    assert "k_hat,5,4" in body
    assert "es_hat,5,2.5" in body


def test_empty_records_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit_results([], out, target=Mean())
    assert out.read_text().strip() == "t,k_hat,mean_hat,realized_loss,realized_score"


def test_twelve_significant_digits(tmp_path):
    value = 0.123456789012345678
    records = [__import__("baws").ForecastRecord(t=1, k_hat=1, theta=(value,),
                                                 realized=value, score=value)]
    out = tmp_path / "digits.csv"
    emit_results(records, out, target=Mean())
    assert "0.123456789012" in out.read_text()


def test_scenario_csv_loadable_as_losses(tmp_path):
    path = generate("A1", T=50, seed=7, alpha=0.95)
    out = tmp_path / "sim.csv"
    emit_results(path, out)
    header = out.read_text().splitlines()[0]
    assert header == "t,loss,true_mean,true_sigma,true_var"
    series = load_price_csv(out, loss_col="loss")
    assert np.allclose(series.values, path.losses, rtol=1e-11)


def test_loss_series_container():
    with pytest.raises(DataError):
        LossSeries(np.zeros(3), dates=("a",))
    s = LossSeries([1.0, 2.0])
    assert len(s) == 2
