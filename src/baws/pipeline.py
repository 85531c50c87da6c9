"""Online forecasting pipeline: data loading, backtests, experiments, CSV output.

Time is 1-based: the forecast at time t is fitted on observations
x_1..x_{t-1} and scored against the realized x_t, so nothing at or after t
can leak into the forecast.  Adaptive methods feed the previously selected
window into the next step's candidate grid.  Runs are deterministic given
(input, config, seed); bootstrap streams are keyed by (seed, t, i), so a
run can be resumed from any recorded step and reproduce the remaining
records exactly.
"""

from __future__ import annotations

import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .baselines import SAWSConfig, rolling_forecast
from .bootstrap import BootstrapConfig, oversized_block
from .errors import ConfigError, DataError
from .metrics import (  # cumulative_risk_* are called through this module
    ExperimentTensor,
    GaussianTruth,
    SkewedTTruth,
    cumulative_loss,
    cumulative_risk_mean,
    cumulative_risk_var,
    mab,
    mean_variance,
    mse,
)
from .scenarios import ScenarioPath, generate
from .scoring import ForecastTarget, pointwise_score
from .selection import ERROR_CONTROLS, CandidateGridConfig, select_window

WORKERS_ENV = "BAWS_WORKERS"

METHODS = ("baws", "saws", "fixed", "full")


@dataclass(frozen=True)
class LossSeries:
    """Ordered loss observations with optional date labels."""

    values: np.ndarray
    dates: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.dates is not None and len(self.dates) != values.size:
            raise DataError("dates and losses have different lengths")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class BacktestConfig:
    """One forecasting method applied online over a loss series."""

    method: str
    target: ForecastTarget
    t0: int = 501
    grid: CandidateGridConfig = CandidateGridConfig()
    bootstrap: BootstrapConfig | None = None
    saws: SAWSConfig | None = None
    fixed_k: int | None = None
    seed: int = 0
    error_control: str = "pcer"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.t0 < 2:
            raise ConfigError("t0 must be >= 2")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.method in ("baws", "saws") and self.t0 <= self.grid.k_min:
            raise ConfigError("t0 must exceed the minimum window k_min")
        if self.method == "fixed" and (self.fixed_k is None or self.fixed_k < 1):
            raise ConfigError("fixed method requires fixed_k >= 1")
        if self.error_control not in ERROR_CONTROLS:
            raise ConfigError(f"error_control must be one of {ERROR_CONTROLS}, "
                              f"got {self.error_control!r}")
        if self.error_control == "fwer" and self.method != "baws":
            raise ConfigError("error_control 'fwer' requires method 'baws'")
        if self.method == "baws" and self.bootstrap is None:
            object.__setattr__(self, "bootstrap", BootstrapConfig())
        if self.method == "saws" and self.saws is None:
            object.__setattr__(self, "saws", SAWSConfig(**self.target.saws_defaults))
        if self.method == "baws" and self.bootstrap.mode == "block":
            oversized = oversized_block(self.grid.k_min, self.bootstrap.block_c,
                                        self.grid.max_window)
            if oversized is not None:
                i, l = oversized
                raise ConfigError(f"block length {l} exceeds window length {i}; "
                                  "lower block_c or raise k_min")


@dataclass(frozen=True)
class ForecastRecord:
    """Output of one online forecasting step."""

    t: int
    k_hat: int
    theta: tuple[float, ...]
    realized: float
    score: float
    date: str | None = None


def run_backtest(series, cfg: BacktestConfig, *, start_t: int | None = None,
                 initial_prev_k: int | None = None) -> list[ForecastRecord]:
    """Apply one method online from t0 (or start_t when resuming).

    The forecast at t uses x_1..x_{t-1} only; ``initial_prev_k`` seeds the
    candidate grid when resuming an adaptive run from a checkpoint.  Records
    carry dates only when ``series`` is a ``LossSeries`` with dates.
    """
    dates = None
    if isinstance(series, LossSeries):
        series, dates = series.values, series.dates
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise DataError("loss series must be 1-dimensional")
    if not np.all(np.isfinite(x)):
        raise DataError("loss series contains non-finite values")
    n = x.size
    if n < cfg.t0:
        raise ConfigError(f"series length {n} is shorter than t0={cfg.t0}")
    first = cfg.t0 if start_t is None else start_t
    if first < cfg.t0:
        raise ConfigError("start_t cannot precede t0")

    # adaptive methods select with a threshold policy; the others fit the
    # last min(t - 1, span) observations
    policy = {"baws": cfg.bootstrap, "saws": cfg.saws}.get(cfg.method)
    span = n if cfg.grid.max_window is None else cfg.grid.max_window
    if cfg.method == "fixed":
        span = min(span, cfg.fixed_k)

    prev_k = initial_prev_k
    records: list[ForecastRecord] = []
    for t in range(first, n + 1):
        history = x[: t - 1]
        if policy is not None:
            trace = select_window(history, cfg.target, policy, cfg.grid, prev_k,
                                  time_index=t, seed=cfg.seed,
                                  error_control=cfg.error_control)
            k_hat, fit = trace.k_hat, trace.fit
            prev_k = k_hat
        else:
            k_hat = min(t - 1, span)
            fit = rolling_forecast(history, k_hat, cfg.target)
        realized = float(x[t - 1])
        score = float(pointwise_score(realized, fit.theta, cfg.target))
        records.append(ForecastRecord(
            t=t,
            k_hat=int(k_hat),
            theta=tuple(float(v) for v in fit.theta),
            realized=realized,
            score=score,
            date=None if dates is None else dates[t - 1],
        ))
    return records


@dataclass(frozen=True)
class MetricsReport:
    """Long-format metric rows: (method, scenario, metric, value)."""

    rows: tuple[tuple[str, str, str, float], ...]

    def value(self, method: str, metric: str) -> float:
        for m, _, name, val in self.rows:
            if m == method and name == metric:
                return val
        raise KeyError(f"no metric {metric!r} for method {method!r}")


def parse_method(spec: str) -> tuple[str, int | None]:
    """Parse a method spec: "baws", "saws", "full", or "fixed:<k>"."""
    name = spec.strip().lower()
    if name in ("baws", "saws", "full"):
        return name, None
    if name.startswith("fixed"):
        tail = name[5:].lstrip(":")
        try:
            return "fixed", int(tail)
        except ValueError:
            raise ConfigError(f"bad fixed-window spec {spec!r}; use fixed:<k>") from None
    raise ConfigError(f"unknown method {spec!r}")


def _experiment_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if raw:
        try:
            count = int(raw)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
        if count < 1:
            raise ConfigError(f"{WORKERS_ENV} must be >= 1")
        return count
    return os.cpu_count() or 1


def _derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class _ExperimentSpec:
    """Everything a replication needs besides its index."""

    scenario: object  # scenario name, or a callable seed -> ScenarioPath
    T: int
    seed: int
    target: ForecastTarget
    methods: tuple[tuple[str, BacktestConfig], ...]  # (spec, config template)


def _replication(spec: _ExperimentSpec, rep: int) -> dict:
    path_seed = _derived_seed(spec.seed, 1, rep)
    if callable(spec.scenario):
        path = spec.scenario(path_seed)
    else:
        path = generate(spec.scenario, T=spec.T, seed=path_seed,
                        alpha=getattr(spec.target, "alpha", None))
    # a path without the target's truth fails here, before its backtests run
    out = {"path": path, "truth": spec.target.truth(path), "methods": {}}
    for idx, (name, cfg) in enumerate(spec.methods):
        # BAWS draws its bootstrap streams from cfg.seed; other methods ignore it
        cfg = replace(cfg, seed=_derived_seed(spec.seed, 2, rep, idx))
        records = run_backtest(path.losses, cfg)
        assert len(records) == len(path.losses) - cfg.t0 + 1
        out["methods"][name] = np.array([r.theta for r in records])
    return out


def run_experiment(scenario, methods, target: ForecastTarget, *,
                   n: int, T: int = 2000, t0: int = BacktestConfig.t0, seed: int = 0,
                   beta: float = BootstrapConfig.beta,
                   replications: int = BootstrapConfig.replications,
                   mode: str | None = None, block_c: float = BootstrapConfig.block_c,
                   grid: CandidateGridConfig = CandidateGridConfig(), workers: int | None = None,
                   error_control: str = BacktestConfig.error_control) -> MetricsReport:
    """Replicate a scenario n times, run every method, aggregate the metrics.

    ``scenario`` is a scenario name (A1-A3, B1-B3, GARCH) or a callable
    mapping a seed to a ``ScenarioPath``.  Paths are generated, and the
    truth is taken, at the target's own tail level (none for the mean).
    The bootstrap mode defaults to moving-block for the serially dependent
    GARCH scenario and iid otherwise.  ``error_control`` applies to the BAWS
    methods.  Each method is named once (``full`` and ``FULL`` are one), and
    labels its rows by its stripped spec.  Replications run in parallel
    across processes when the machine (or the BAWS_WORKERS variable) allows.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    if mode is None:
        mode = "block" if isinstance(scenario, str) and scenario.upper() == "GARCH" else "iid"
    scenario_label = scenario if isinstance(scenario, str) else getattr(
        scenario, "__name__", "custom")

    boot = BootstrapConfig(beta=beta, replications=replications, mode=mode,
                           block_c=block_c)
    parsed = [(name.strip(), parse_method(name)) for name in methods]
    if not parsed or len({method for _, method in parsed}) < len(parsed):
        raise ConfigError(f"method list {methods} is empty or repeats a method")
    configs = []
    for name, (kind, fixed_k) in parsed:
        is_baws = kind == "baws"
        configs.append((name, BacktestConfig(
            method=kind, target=target, t0=t0, grid=grid,
            bootstrap=boot if is_baws else None, fixed_k=fixed_k,
            error_control=error_control if is_baws else BacktestConfig.error_control)))
    spec = _ExperimentSpec(scenario, T, seed, target, tuple(configs))
    workers = _experiment_workers() if workers is None else workers
    if workers > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=min(workers, n)) as pool:
            results = list(pool.map(partial(_replication, spec), range(n)))
    else:
        results = [_replication(spec, rep) for rep in range(n)]

    paths = [res["path"] for res in results]
    realized = np.stack([p.losses[t0 - 1:] for p in paths])
    truths = np.stack([res["truth"][t0 - 1:] for res in results])
    sigma = np.stack([p.true_sigma[t0 - 1:] for p in paths])
    if paths[0].innovations == "gaussian":
        population = GaussianTruth(np.stack([p.true_mean[t0 - 1:] for p in paths]), sigma)
    else:
        population = SkewedTTruth(sigma, paths[0].nu, paths[0].skew)
    # targets call the metric functions through this module's names, as the
    # rows below do, so that patching a name here reaches every call
    metrics = sys.modules[__name__]

    rows: list[tuple[str, str, str, float]] = []
    for name, _ in configs:
        est = np.stack([res["methods"][name] for res in results])
        tensor = ExperimentTensor(est, truths, realized)
        values = [("MAB", mab(tensor))]
        if n >= 2:
            values.append(("Var", mean_variance(tensor)))
        values.append(("MSE", mse(tensor)))
        values += target.metric_rows(tensor, population, metrics)
        values.append(("CL", cumulative_loss(tensor, target)))
        rows += [(name, scenario_label, metric, value) for metric, value in values]
    return MetricsReport(tuple(rows))


# ---------------------------------------------------------------------------
# CSV input/output (12 significant digits, UTF-8, plain decimal points)
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def load_price_csv(path, price_col: str | None = None, loss_col: str | None = None,
                   date_col: str | None = None) -> LossSeries:
    """Load losses from a CSV of (date, price), (date, loss), or (loss).

    Prices convert to losses as -log(P_t / P_{t-1}).  Column names are
    matched case-insensitively; explicit names override detection.  Bad
    numbers raise ``DataError`` with the offending row.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    lower = [h.lower() for h in header]

    def find(name: str | None, fallback: str) -> int | None:
        if name is not None:
            if name.lower() not in lower:
                raise ConfigError(f"{path}: column {name!r} not found in header {header}")
            return lower.index(name.lower())
        return lower.index(fallback) if fallback in lower else None

    price_idx = find(price_col, "price")
    loss_idx = find(loss_col, "loss")
    date_idx = find(date_col, "date")
    if loss_col is not None:
        price_idx = None
    if price_col is not None:
        loss_idx = None
    if price_idx is None and loss_idx is None:
        raise ConfigError(f"{path}: need a 'price' or 'loss' column (header: {header})")
    if price_idx is not None and loss_idx is not None:
        raise ConfigError(f"{path}: both price and loss columns present; "
                          "specify which one to use")

    col = price_idx if price_idx is not None else loss_idx
    values, dates = [], []
    for rownum, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if col >= len(row):
            raise DataError(f"{path}: row {rownum} has too few columns")
        text = row[col].strip()
        try:
            value = float(text)
        except ValueError:
            raise DataError(f"{path}: row {rownum}: bad number {text!r}") from None
        if not np.isfinite(value):
            raise DataError(f"{path}: row {rownum}: non-finite value {text!r}")
        if price_idx is not None and value <= 0.0:
            raise DataError(f"{path}: row {rownum}: price must be positive, got {text}")
        values.append(value)
        if date_idx is not None and date_idx < len(row):
            dates.append(row[date_idx].strip())

    if price_idx is not None:
        if len(values) < 2:
            raise DataError(f"{path}: need at least 2 price rows")
        prices = np.asarray(values)
        losses = -np.log(prices[1:] / prices[:-1])
        return LossSeries(losses, tuple(dates[1:]) if date_idx is not None else None)
    if not values:
        raise DataError(f"{path}: no loss rows")
    return LossSeries(np.asarray(values), tuple(dates) if date_idx is not None else None)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_results(obj, path, fmt: str = "wide",
                 target: ForecastTarget | None = None) -> None:
    """Write records, a metrics report, or a scenario path to CSV.

    Records are written wide (t, date?, k_hat, estimates, realized_loss,
    realized_score; one row per step) or long (series, t, value; one row
    per wide cell after t, without dates).
    """
    if isinstance(obj, MetricsReport):
        _write_csv(path, ["method", "scenario", "metric", "value"],
                   ([*row[:3], _fmt(row[3])] for row in obj.rows))
        return
    if isinstance(obj, ScenarioPath):
        var = obj.true_var
        _write_csv(path, ["t", "loss", "true_mean", "true_sigma", "true_var"], (
            [str(i + 1), _fmt(obj.losses[i]), _fmt(obj.true_mean[i]),
             _fmt(obj.true_sigma[i]), _fmt(var[i]) if var is not None else ""]
            for i in range(obj.losses.size)))
        return
    if target is None:
        raise ConfigError("emitting forecast records requires the target")
    if fmt not in ("wide", "long"):
        raise ConfigError(f"unknown format {fmt!r}")
    records = list(obj)
    dated = fmt == "wide" and any(r.date is not None for r in records)
    names = ["k_hat", *target.columns, "realized_loss", "realized_score"]
    rows = ([str(r.t), *([r.date or ""] if dated else []), str(r.k_hat),
             *map(_fmt, r.theta), _fmt(r.realized), _fmt(r.score)] for r in records)
    if fmt == "wide":
        _write_csv(path, ["t", *(["date"] if dated else []), *names], rows)
    else:
        _write_csv(path, ["series", "t", "value"],
                   ([name, row[0], value] for row in rows for name, value in zip(names, row[1:])))
