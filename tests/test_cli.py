import json

import numpy as np
import pytest

from baws import pipeline
from baws.cli import main
from baws.selection import rejection_probability_gaussian

from conftest import read_forecasts_csv


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


def test_experiment_t0_past_the_path_exits_1(tmp_path, capsys, monkeypatch):
    def unreachable(spec, rep):
        raise AssertionError("a replication ran before the length check")

    # one replication runs in this process, where the patch reaches it
    monkeypatch.setattr(pipeline, "_replication", unreachable)
    out = tmp_path / "metrics.csv"
    code = run(["experiment", "--scenario", "A1", "--methods", "full", "--n", "1",
                "--T", "100", "--t0", "200", "--out", out])
    assert code == 1
    assert "series length 100 is shorter than t0=200" in capsys.readouterr().err
    assert not out.exists()


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
    cfgfile.write_text(json.dumps({"T": 200, "seed": 5, "alpha": 0.9}))
    out1 = tmp_path / "o1.csv"
    assert run(["simulate", "--scenario", "A1", "--config", cfgfile,
                "--out", out1]) == 0
    assert len(out1.read_text().strip().splitlines()) == 201
    # explicit flag beats the config file value
    out2 = tmp_path / "o2.csv"
    assert run(["simulate", "--scenario", "A1", "--config", cfgfile,
                "--T", "50", "--out", out2]) == 0
    assert len(out2.read_text().strip().splitlines()) == 51


def test_config_keys_are_the_flags_they_name(tmp_path, capsys):
    out, from_file = tmp_path / "flags.csv", tmp_path / "file.csv"
    cfgfile = tmp_path / "cfg.json"
    values = {"T": 60, "B": 20, "k0": 10}
    experiment = ["experiment", "--scenario", "A1", "--methods", "baws", "--n", "1",
                  "--t0", "41", "--seed", "2"]
    for key, value in values.items():
        others = [text for k, v in values.items() if k != key for text in (f"--{k}", v)]
        assert run(experiment + others + [f"--{key}", value, "--out", out]) == 0
        cfgfile.write_text(json.dumps({key: value}))
        assert run(experiment + others + ["--config", cfgfile, "--out", from_file]) == 0, key
        assert from_file.read_bytes() == out.read_bytes(), key
        from_file.unlink()
    # a key is the flag's name, not the name the parsed value is stored under,
    # and only its underscore spelling, so that no two keys name one flag
    for key in ("horizon", "boot_b", "max-window"):
        cfgfile.write_text(json.dumps({key: 60}))
        assert run(experiment + ["--config", cfgfile, "--out", from_file]) == 1, key
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
    # every diagnose option is required, so a file could set none of them
    cfgfile.write_text("{}")
    assert run(["diagnose", "--mu1", "0", "--mu2", "1", "--var1", "1", "--var2", "1",
                "--tau", "0.1", "--k", "100", "--k0", "50", "--config", cfgfile,
                "--out", from_file]) == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not from_file.exists()


def test_target_is_one_of_the_targets(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    run(["simulate", "--scenario", "A1", "--T", "80", "--seed", "3", "--out", sim])
    out = tmp_path / "o.csv"
    backtest = ["backtest", "--input", sim, "--loss-col", "loss", "--method", "full",
                "--t0", "50", "--k0", "10", "--out", out]
    experiment = ["experiment", "--scenario", "A1", "--methods", "full", "--n", "1",
                  "--T", "60", "--t0", "41", "--k0", "10", "--out", out]
    for command in (backtest, experiment):
        assert run(command + ["--target", "bogus"]) == 1, command[0]
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not out.exists()
    # a target's name is read in any case
    assert run(backtest + ["--target", "vares"]) == 0
    lower = out.read_bytes()
    assert run(backtest + ["--target", "VaRES"]) == 0
    assert out.read_bytes() == lower


def test_exit_codes(tmp_path, capsys):
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
    # config error: a file value must pass the check its flag's text would
    experiment = ["experiment", "--scenario", "A1", "--methods", "full", "--T", "60",
                  "--k0", "10", "--config", cfgfile, "--out", out]
    for values in ({"t0": 41.5}, {"B": 20.5}, {"n": 1.5}, {"seed": True}):
        cfgfile.write_text(json.dumps(values))
        assert run(experiment) == 1, values
        assert "invalid int value" in capsys.readouterr().err
    cfgfile.write_text('{"seed": true}')
    assert run(["simulate", "--scenario", "A1", "--T", "50", "--config", cfgfile,
                "--out", out]) == 1
    cfgfile.write_text('{"error_control": "bogus"}')
    assert run(experiment) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    # config error: a key the file cannot set, a required option among them
    for key, value in (("out", "elsewhere.csv"), ("scenario", "A2"),
                       ("config", "nothere.json"), ("help", True)):
        cfgfile.write_text(json.dumps({key: value}))
        assert run(experiment) == 1, key
        assert f"config key {key!r} names no optional long option" in capsys.readouterr().err
    cfgfile.write_text(json.dumps({"input": "in.csv", "out": "out.csv"}))
    assert run(["backtest", "--input", tmp_path / "none.csv", "--config", cfgfile,
                "--out", out]) == 1
    assert not out.exists()
    # config error: a price and a loss column at once
    both = tmp_path / "both.csv"
    both.write_text("date,price,loss\n2020-01-01,1.0,0.1\n2020-01-02,1.1,0.2\n")
    assert run(["backtest", "--input", both, "--price-col", "price", "--loss-col", "loss",
                "--method", "full", "--t0", "2", "--k0", "2", "--out", out]) == 1
    assert "price_col and loss_col exclude each other" in capsys.readouterr().err
    # data error: missing input file
    assert run(["backtest", "--input", tmp_path / "none.csv", "--out", out]) == 2
    # data error: corrupt number
    bad = tmp_path / "bad.csv"
    bad.write_text("loss\n0.1\nxyz\n")
    assert run(["backtest", "--input", bad, "--t0", "2", "--k0", "2",
                "--method", "full", "--out", out]) == 2
    # data error: a row without its date cell
    bad.write_text("loss,date\n0.1,2020-01-01\n0.2\n0.3,2020-01-03\n")
    assert run(["backtest", "--input", bad, "--t0", "2", "--k0", "2",
                "--method", "full", "--out", out]) == 2
    assert "row 3 has too few columns" in capsys.readouterr().err


def test_invalid_configs_exit_1_before_running(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    run(["simulate", "--scenario", "GARCH", "--T", "80", "--seed", "3", "--out", sim])
    out = tmp_path / "o.csv"
    base = ["backtest", "--input", sim, "--loss-col", "loss", "--t0", "50", "--out", out]
    assert run(base + ["--method", "saws", "--error-control", "fwer"]) == 1
    assert "fwer" in capsys.readouterr().err
    assert run(base + ["--block-c", "10", "--k0", "20"]) == 1
    assert "block length 30 exceeds window length 20" in capsys.readouterr().err
    for bad in (["--B", "0"], ["--beta", "1.5"], ["--alpha", "1.5"],
                ["--target", "mean", "--alpha", "2"], ["--k0", "1"],
                ["--block-c", "-1"], ["--k0", "20", "--max-window", "10"],
                ["--bootstrap-mode", "block", "--block-c", "nan"],
                ["--bootstrap-mode", "block", "--block-c", "inf"],
                ["--method", "saws", "--saws-c-tau", "nan"],
                ["--method", "saws", "--saws-c-tau", "inf"]):
        assert run(base + bad) == 1, bad
    assert run(["simulate", "--scenario", "A1", "--T", "0", "--out", out]) == 1
    for scenario in ("A1", "GARCH"):
        assert run(["simulate", "--scenario", scenario, "--alpha", "2", "--out", out]) == 1
    experiment = ["experiment", "--scenario", "A1", "--methods", "full", "--n", "1",
                  "--T", "60", "--t0", "41", "--k0", "10", "--out", out]
    assert run(experiment + ["--methods", "baws", "--B", "0"]) == 1
    assert "replications must be >= 1" in capsys.readouterr().err
    # fwer applies to BAWS only, in an experiment as in a backtest
    assert run(experiment + ["--methods", "saws,full", "--error-control", "fwer"]) == 1
    assert "fwer" in capsys.readouterr().err
    # a fixed window must fit within --max-window
    assert run(base + ["--method", "fixed:30", "--k0", "10", "--max-window", "20"]) == 1
    assert run(experiment + ["--methods", "fixed:30,full", "--max-window", "20"]) == 1
    assert "fixed window 30 exceeds max_window=20" in capsys.readouterr().err
    # a method list must be nonempty and name each method once
    for methods in (",", "full,full", "full, FULL", "fixed:30,fixed30"):
        assert run(experiment + ["--methods", methods]) == 1, methods
    assert "repeats a method" in capsys.readouterr().err
    # a negative seed is rejected by every command
    assert run(base + ["--seed", "-1"]) == 1
    assert run(["simulate", "--scenario", "A1", "--T", "50", "--seed", "-1", "--out", out]) == 1
    assert run(experiment + ["--seed", "-1"]) == 1
    assert "seed must be nonnegative" in capsys.readouterr().err
    # diagnose checks every list value before it opens the file
    diagnose = ["diagnose", "--mu1", "0", "--mu2", "1", "--var1", "1", "--out", out]
    for bad in (["--var2", "1", "--tau", "0.1,0", "--k", "100", "--k0", "50"],
                ["--var2", "1", "--tau", "0.1", "--k", "100.7", "--k0", "50"],
                ["--var2", "1", "--tau", "0.1", "--k", "100", "--k0", "50.5"],
                ["--var2", "1", "--tau", "0.1", "--k", "100,50", "--k0", "50"],
                ["--var2", "1", "--tau", "0.1", "--k", "100", "--k0", "0"],
                ["--var2", "1,0", "--tau", "0.1", "--k", "100", "--k0", "50"],
                ["--mu1", "nan", "--mu2", "0", "--var2", "1", "--tau", "0.1", "--k", "200",
                 "--k0", "100"],
                ["--mu1", "0,inf", "--var2", "1", "--tau", "0.1", "--k", "200", "--k0", "100"],
                ["--mu2", "-inf", "--var2", "1", "--tau", "0.1", "--k", "200", "--k0", "100"],
                ["--var1", "inf", "--var2", "1", "--tau", "0.1", "--k", "200", "--k0", "100"],
                ["--var2", "nan", "--tau", "0.1", "--k", "200", "--k0", "100"],
                ["--var2", "1", "--tau", "0.1,inf", "--k", "200", "--k0", "100"]):
        assert run(diagnose + bad) == 1, bad
    assert "runtime failure" not in capsys.readouterr().err
    assert not out.exists()


def test_alpha_takes_effect_or_is_rejected(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    run(["simulate", "--scenario", "A1", "--T", "80", "--seed", "3", "--out", sim])
    out = tmp_path / "o.csv"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"alpha": 0.9}))
    backtest = ["backtest", "--input", sim, "--loss-col", "loss", "--method", "full",
                "--t0", "50", "--k0", "10", "--out", out]
    experiment = ["experiment", "--scenario", "A1", "--methods", "full", "--n", "1",
                  "--T", "60", "--t0", "41", "--k0", "10", "--out", out]
    # the mean has no tail level: a given alpha is an error, as a flag or a key
    for command in (backtest, experiment):
        for given in (["--alpha", "0.9"], ["--config", cfgfile]):
            assert run(command + ["--target", "mean", *given]) == 1, (command[0], given)
            assert "target 'mean' takes no tail level" in capsys.readouterr().err
    assert not out.exists()
    # var and vares default to 0.95
    for target in ("var", "vares"):
        for command in (backtest, experiment):
            assert run(command + ["--target", target]) == 0
            default = out.read_bytes()
            assert run(command + ["--target", target, "--alpha", "0.95"]) == 0
            assert out.read_bytes() == default, (command[0], target)
            assert run(command + ["--target", target, "--config", cfgfile]) == 0
            assert out.read_bytes() != default, (command[0], target)


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


def test_options_the_method_ignores_exit_1(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    run(["simulate", "--scenario", "GARCH", "--T", "80", "--seed", "3", "--out", sim])
    out = tmp_path / "o.csv"
    base = ["backtest", "--input", sim, "--loss-col", "loss", "--t0", "50", "--k0", "10",
            "--out", out]
    for method, flag, value in (("baws", "--saws-c-tau", "1e-5"),
                                ("fixed:50", "--saws-family", "lipschitz"),
                                ("full", "--saws-alpha-tau", "0.2"),
                                ("full", "--bootstrap-mode", "iid"),
                                ("saws", "--bootstrap-mode", "block")):
        assert run(base + ["--method", method, flag, value]) == 1, (method, flag)
    assert "saws policy requires method 'saws'" in capsys.readouterr().err
    # the bootstrap options reach baws only, and --block-c block mode only
    for method, options in (("full", ["--beta", "0.5", "--B", "7"]),
                            ("full", ["--B", "7"]),
                            ("fixed:50", ["--beta", "0.5"]),
                            ("saws", ["--block-c", "2"]),
                            ("baws", ["--bootstrap-mode", "iid", "--block-c", "3"])):
        assert run(base + ["--method", method, *options]) == 1, (method, options)
    err = capsys.readouterr().err
    assert "a bootstrap policy requires method 'baws', got 'full'" in err
    assert "block_c applies to bootstrap mode 'block' only" in err
    for options in (["--method", "full"], ["--method", "baws", "--B", "20", "--block-c", "2"]):
        assert run(base + options) == 0, options
        out.unlink()
    # a config file value counts as given
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"bootstrap_mode": "iid"}))
    assert run(base + ["--method", "fixed:20", "--config", cfgfile]) == 1
    # config errors come before the input is read
    missing = base + ["--input", tmp_path / "none.csv"]
    assert run(missing + ["--method", "full", "--bootstrap-mode", "iid"]) == 1
    experiment = ["experiment", "--scenario", "A1", "--n", "1", "--T", "60", "--t0", "41",
                  "--k0", "10", "--B", "20", "--bootstrap-mode", "block", "--out", out]
    assert run(experiment + ["--methods", "saws,fixed:20,full"]) == 1
    assert ("bootstrap options [replications=20, mode='block'] apply to method 'baws' only"
            in capsys.readouterr().err)
    assert run(experiment + ["--methods", "baws", "--bootstrap-mode", "iid",
                             "--block-c", "2"]) == 1
    # with no --bootstrap-mode an experiment runs block mode on GARCH only
    default_mode = ["experiment", "--methods", "baws", "--n", "1", "--T", "60", "--t0", "41",
                    "--k0", "10", "--B", "20", "--block-c", "3", "--out", out]
    assert run(default_mode + ["--scenario", "A1"]) == 1
    assert not out.exists()
    assert run(default_mode + ["--scenario", "GARCH"]) == 0
    out.unlink()
    assert run(experiment + ["--methods", "baws,full"]) == 0
    assert run(base + ["--method", "baws", "--B", "20", "--bootstrap-mode", "iid"]) == 0


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
