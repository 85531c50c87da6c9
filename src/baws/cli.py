"""Batch command-line interface.

Subcommands:
    simulate     generate a scenario path and write it as CSV
    backtest     run one forecasting method over a losses/prices CSV
    experiment   replicate a scenario, run several methods, write metrics
    diagnose     closed-form rejection probabilities for the two-regime
                 Gaussian mean-shift model

A JSON config file (--config) may give simulate, backtest and experiment
the value of any optional long option but --config and --help.  Its key is
the option's name with _ for -, e.g. T, B, max_window, bootstrap_mode; each
value is parsed as that flag's text would be, and explicit flags win.
diagnose, whose options are all required, takes no config file.  The
library checks the bootstrap options as it does any caller's.  Exit codes:
0 success, 1 usage or configuration error, 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .bootstrap import BLOCK_C, MODES, BootstrapConfig
from .pipeline import (
    FORMATS,
    BacktestConfig,
    ConfigError,
    DataError,
    _fmt,
    _write_csv,
    default_mode,
    emit_results,
    load_price_csv,
    parse_method,
    run_backtest,
    run_experiment,
)
from .baselines import SAWS_FAMILIES, SAWSConfig
from .scenarios import DEFAULT_T, SCENARIOS, generate
from .scoring import DEFAULT_ALPHA, TARGETS
from .selection import ERROR_CONTROLS, CandidateGridConfig, rejection_probability_gaussian


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _grid(args) -> CandidateGridConfig:
    return CandidateGridConfig(k_min=args.k0, max_window=args.max_window)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of option values, each keyed by its long "
                   "option's name with _ for - (T, B, max_window, bootstrap_mode, ...); "
                   "flags win; diagnose takes none")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=0)


def _add_method_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", default="var", type=str.lower, choices=TARGETS)
    p.add_argument("--alpha", type=float, default=None,
                   help=f"tail level, var and vares only (default {DEFAULT_ALPHA})")
    # the bootstrap options default to None, so that the library rejects one
    # given to a run that cannot use it and supplies the defaults
    p.add_argument("--beta", type=float, default=None,
                   help=f"threshold level, baws only (default {BootstrapConfig.beta})")
    p.add_argument("--B", dest="boot_b", type=int, default=None,
                   help=f"bootstrap replications, baws only "
                        f"(default {BootstrapConfig.replications})")
    p.add_argument("--bootstrap-mode", default=None, choices=MODES,
                   help="baws only (default: block on real data and GARCH, else iid)")
    p.add_argument("--block-c", type=float, default=None,
                   help=f"block length constant, block mode only (default {BLOCK_C})")
    p.add_argument("--k0", type=int, default=CandidateGridConfig.k_min,
                   help="minimum candidate window")
    p.add_argument("--max-window", type=int, default=None)
    p.add_argument("--t0", type=int, default=BacktestConfig.t0, help="first forecast index")
    p.add_argument("--error-control", default=BacktestConfig.error_control,
                   choices=ERROR_CONTROLS, help="baws only")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="baws", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a scenario path as CSV")
    p.add_argument("--scenario", required=True, help=", ".join(SCENARIOS))
    p.add_argument("--T", dest="horizon", type=int, default=DEFAULT_T)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    _add_common(p)

    p = sub.add_parser("backtest", help="online forecasts over a losses CSV")
    p.add_argument("--input", required=True, help="CSV of prices or losses")
    p.add_argument("--method", default="baws", help="baws | saws | fixed:<k> | full")
    p.add_argument("--price-col", default=None)
    p.add_argument("--loss-col", default=None)
    p.add_argument("--date-col", default=None)
    p.add_argument("--format", default="wide", choices=FORMATS)
    p.add_argument("--saws-alpha-tau", type=float, default=None)
    p.add_argument("--saws-c-tau", type=float, default=None)
    p.add_argument("--saws-family", default=None, choices=SAWS_FAMILIES)
    _add_method_options(p)
    _add_common(p)

    p = sub.add_parser("experiment", help="replicated scenario comparison")
    p.add_argument("--scenario", required=True, help=", ".join(SCENARIOS))
    p.add_argument("--methods", default="baws,saws,fixed:250,fixed:500,fixed:750,full",
                   help="comma-separated method specs")
    p.add_argument("--n", type=int, default=1000, help="number of replications")
    p.add_argument("--T", dest="horizon", type=int, default=DEFAULT_T)
    _add_method_options(p)
    _add_common(p)

    p = sub.add_parser("diagnose", help="two-regime rejection probability table")
    for flag in ("--mu1", "--mu2", "--var1", "--var2", "--tau"):
        p.add_argument(flag, required=True,
                       help="value or comma-separated list")
    p.add_argument("--k", required=True, help="value or comma-separated list")
    p.add_argument("--k0", dest="k0_list", required=True,
                   help="value or comma-separated list")
    p.add_argument("--out", required=True)
    return parser


def _apply_config_file(parser, args, argv):
    if getattr(args, "config", None) is None:
        return args
    try:
        with open(args.config, encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad config file {args.config}: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError("config file must hold a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = sub.choices[args.command]._option_string_actions
    flags = {key: "--" + key.replace("_", "-") for key in values}
    # a key holds no "-", so that no two keys name one flag
    unknown = sorted(key for key, flag in flags.items() if "-" in key or flag not in options)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    # argparse checks required options before the file is read, and a
    # file's config or help key would come too late to act
    for key, flag in flags.items():
        if options[flag].required or key in ("config", "help"):
            raise ConfigError(f"config key {key!r} names no optional long option")
    # argparse checks each file value as the flag's text; explicit flags come
    # later and win
    given = [f"{flags[key]}={value}" for key, value in values.items()]
    return parser.parse_args([args.command, *given, *argv[1:]])


def _saws_override(args, target) -> SAWSConfig | None:
    given = {"alpha_tau": args.saws_alpha_tau, "c_tau": args.saws_c_tau,
             "family": args.saws_family}
    given = {key: value for key, value in given.items() if value is not None}
    return SAWSConfig(**{**target.saws_defaults, **given}) if given else None


def _bootstrap_options(args) -> dict:
    """The bootstrap flags given, as ``BootstrapConfig`` fields; the library
    rejects them for a run with no BAWS method, or in the wrong mode."""
    fields = {"beta": args.beta, "replications": args.boot_b,
              "mode": args.bootstrap_mode, "block_c": args.block_c}
    return {key: value for key, value in fields.items() if value is not None}


def _cmd_simulate(args) -> None:
    path = generate(args.scenario, T=args.horizon, seed=args.seed, alpha=args.alpha)
    emit_results(path, args.out)


def _cmd_backtest(args) -> None:
    target = TARGETS[args.target].from_level(args.alpha)
    kind, fixed_k = parse_method(args.method)
    given = _bootstrap_options(args)
    # built for any method when a flag is given, so BacktestConfig rejects it
    boot = (BootstrapConfig(**{"mode": default_mode(), **given})
            if kind == "baws" or given else None)
    cfg = BacktestConfig(method=kind, target=target, t0=args.t0, grid=_grid(args),
                         bootstrap=boot, saws=_saws_override(args, target),
                         fixed_k=fixed_k, seed=args.seed,
                         error_control=args.error_control)
    series = load_price_csv(args.input, price_col=args.price_col,
                            loss_col=args.loss_col, date_col=args.date_col)
    records = run_backtest(series, cfg)
    emit_results(records, args.out, fmt=args.format, target=target)


def _cmd_experiment(args) -> None:
    target = TARGETS[args.target].from_level(args.alpha)
    methods = [m for m in args.methods.split(",") if m.strip()]
    report = run_experiment(
        args.scenario, methods, target,
        n=args.n, T=args.horizon, t0=args.t0, seed=args.seed,
        grid=_grid(args), error_control=args.error_control, **_bootstrap_options(args),
    )
    emit_results(report, args.out)


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad numeric list {text!r}") from None


def _ints(text: str) -> list[int]:
    values = _floats(text)
    if not all(v.is_integer() for v in values):
        raise ConfigError(f"bad integer list {text!r}")
    return [int(v) for v in values]


def _cmd_diagnose(args) -> None:
    combos = itertools.product(
        _floats(args.mu1), _floats(args.mu2), _floats(args.var1), _floats(args.var2),
        _ints(args.k), _ints(args.k0_list), _floats(args.tau),
    )
    # every row, and so every value check, comes before the file is opened
    rows = [[_fmt(mu1), _fmt(mu2), _fmt(var1), _fmt(var2), str(k), str(k0), _fmt(tau),
             _fmt(rejection_probability_gaussian(mu1, mu2, var1, var2, k, k0, tau))]
            for mu1, mu2, var1, var2, k, k0, tau in combos]
    _write_csv(args.out, ["mu1", "mu2", "var1", "var2", "k", "k0", "tau",
                          "rejection_probability"], rows)


COMMANDS = {"simulate": _cmd_simulate, "backtest": _cmd_backtest,
            "experiment": _cmd_experiment, "diagnose": _cmd_diagnose}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config_file(parser, args, argv)
        COMMANDS[args.command](args)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 3
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
