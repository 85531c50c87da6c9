import json

import numpy as np
import pytest

from baws.cli import main
from baws.pipeline import read_forecasts_csv
from baws.selection import rejection_probability_gaussian


def run(args):
    return main([str(a) for a in args])


def test_simulate_writes_scenario(tmp_path):
    out = tmp_path / "a1.csv"
    assert run(["simulate", "--scenario", "A1", "--T", "300", "--seed", "5",
                "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,loss,true_mean,true_sigma,true_var"
    assert len(lines) == 301


def test_simulate_then_backtest_round_trip(tmp_path):
    sim = tmp_path / "sim.csv"
    assert run(["simulate", "--scenario", "A1", "--T", "150", "--seed", "1",
                "--out", sim]) == 0
    fc = tmp_path / "fc.csv"
    code = run(["backtest", "--input", sim, "--loss-col", "loss",
                "--method", "baws", "--target", "var", "--alpha", "0.95",
                "--t0", "60", "--k0", "10", "--B", "80",
                "--bootstrap-mode", "iid", "--seed", "3", "--out", fc])
    assert code == 0
    records = read_forecasts_csv(fc)
    assert [r.t for r in records] == list(range(60, 151))
    assert all(r.k_hat <= r.t - 1 for r in records)


def test_backtest_deterministic_bytes(tmp_path):
    sim = tmp_path / "sim.csv"
    run(["simulate", "--scenario", "B1", "--T", "120", "--seed", "2", "--out", sim])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["backtest", "--input", sim, "--loss-col", "loss", "--method", "baws",
            "--target", "mean", "--t0", "80", "--k0", "10", "--B", "60",
            "--seed", "9"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_experiment_smoke(tmp_path):
    out = tmp_path / "metrics.csv"
    code = run(["experiment", "--scenario", "A1", "--methods", "baws,fixed:20,full",
                "--target", "var", "--alpha", "0.95", "--n", "2", "--T", "100",
                "--t0", "41", "--k0", "10", "--B", "40", "--seed", "4",
                "--out", out])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method,scenario,metric,value"
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"baws", "fixed:20", "full"}


def test_diagnose_matches_library(tmp_path):
    out = tmp_path / "diag.csv"
    code = run(["diagnose", "--mu1", "1", "--mu2", "2", "--var1", "0.25",
                "--var2", "0.25", "--k", "500", "--k0", "250",
                "--tau", "0.1,0.2", "--out", out])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    first = lines[1].split(",")
    expected = rejection_probability_gaussian(1, 2, 0.25, 0.25, 500, 250, 0.1)
    assert float(first[-1]) == pytest.approx(expected, rel=1e-10)


def test_config_file_defaults_flags_win(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"horizon": 200, "seed": 5, "alpha": 0.9}))
    out1 = tmp_path / "o1.csv"
    assert run(["simulate", "--scenario", "A1", "--config", cfgfile,
                "--out", out1]) == 0
    assert len(out1.read_text().strip().splitlines()) == 201
    # explicit flag beats the config file value
    out2 = tmp_path / "o2.csv"
    assert run(["simulate", "--scenario", "A1", "--config", cfgfile,
                "--T", "50", "--out", out2]) == 0
    assert len(out2.read_text().strip().splitlines()) == 51


def test_exit_codes(tmp_path):
    out = tmp_path / "x.csv"
    # usage error: unknown flag
    assert run(["simulate", "--scenario", "A1", "--bogus", "1", "--out", out]) == 1
    # config error: unknown scenario
    assert run(["simulate", "--scenario", "Z9", "--out", out]) == 1
    # config error: bad config file keys
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text('{"nope": 1}')
    assert run(["simulate", "--scenario", "A1", "--config", cfgfile,
                "--out", out]) == 1
    # data error: missing input file
    assert run(["backtest", "--input", tmp_path / "none.csv", "--out", out]) == 2
    # data error: corrupt number
    bad = tmp_path / "bad.csv"
    bad.write_text("loss\n0.1\nxyz\n")
    assert run(["backtest", "--input", bad, "--t0", "2", "--k0", "2",
                "--method", "full", "--out", out]) == 2


def test_invalid_configs_exit_1_before_running(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    run(["simulate", "--scenario", "GARCH", "--T", "80", "--seed", "3", "--out", sim])
    out = tmp_path / "o.csv"
    base = ["backtest", "--input", sim, "--loss-col", "loss", "--t0", "50",
            "--B", "20", "--out", out]
    assert run(base + ["--method", "saws", "--error-control", "fwer"]) == 1
    assert "fwer" in capsys.readouterr().err
    assert run(base + ["--block-c", "10", "--k0", "20"]) == 1
    assert "block length 30 exceeds window length 20" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_rejects_saws_options(tmp_path):
    out = tmp_path / "m.csv"
    base = ["experiment", "--scenario", "A1", "--methods", "saws", "--n", "1",
            "--T", "60", "--t0", "41", "--k0", "10", "--out", out]
    for flag, value in (("--saws-alpha-tau", "0.2"), ("--saws-c-tau", "50"),
                        ("--saws-family", "lipschitz")):
        assert run(base + [flag, value]) == 1
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"saws_c_tau": 50}))
    assert run(base + ["--config", cfgfile]) == 1
    assert not out.exists()
    assert run(base) == 0


def test_unknown_scenario_message(tmp_path, capsys):
    assert run(["simulate", "--scenario", "QQ", "--out", tmp_path / "o.csv"]) == 1
    assert "error" in capsys.readouterr().err


def test_backtest_defaults_to_block_mode(tmp_path):
    # real-data default is the moving-block bootstrap; tiny series smoke
    sim = tmp_path / "sim.csv"
    run(["simulate", "--scenario", "GARCH", "--T", "80", "--seed", "3", "--out", sim])
    fc = tmp_path / "fc.csv"
    code = run(["backtest", "--input", sim, "--loss-col", "loss", "--method",
                "baws", "--target", "var", "--t0", "50", "--k0", "10",
                "--B", "50", "--seed", "2", "--out", fc])
    assert code == 0
    assert len(read_forecasts_csv(fc)) == 31
