"""Benchmark workloads for ``baws``: inputs, the timed call, and output checks.

Every workload is a closed batch loop: one caller makes the next call only
after the previous one returns.  A run is a sequence of passes; pass ``p``
of a run with workload seed ``s`` draws its own inputs from
``SeedSequence([s, p])``, which gives both the scenario seed and the
``BacktestConfig.seed`` (or the ``run_experiment`` seed).  The same seed
therefore always gives the same inputs, and more passes average over more
paths instead of repeating one.

Paper parameters are fixed throughout: B = 500 resamples, beta = 0.9,
alpha = 0.95, the default candidate grid and per-comparison (pcer) error
control.  Only the public API of ``baws`` is called.

Why these workloads (shares measured on a 2-core Xeon VM):

var-iid-a1
    BAWS VaR with the iid bootstrap on an A1 path across its mean break
    (t = 1001..1400: the break is detected, then windows regrow under many
    exploration candidates).  The cheapest adaptive path: the Beta
    order-statistic shortcut builds no resample matrix, so selection,
    scoring and fixed per-step or per-call costs (dispatch, RNG derivation,
    tracing hooks) show here and nowhere else.
vares-block-garch
    BAWS joint VaR/ES with the moving-block bootstrap on GARCH, just after
    the t = 1000 persistence break.  Nearly all time is ``bootstrap_gaps``
    self time: the B x L block resample, the row sort and the profiled joint
    fit.
mean-iid-b1
    BAWS mean with the iid bootstrap on B1 around t = 1000.  The only
    workload on the iid resample-matrix path and the Mean target; most time
    is the memory-bound gather of B x k index and value matrices.
experiment-garch-var
    One ``run_experiment`` call over BAWS, SAWS, a 250-step rolling window
    and the full window on GARCH VaR, with two worker processes.  The only
    use of ``gen_garch``, SAWS, the rolling baselines, the process pool and
    the metrics, whose skewed-t ``cumulative_risk_var`` quadrature takes
    most of the time.
"""

from __future__ import annotations

import math
import os

import numpy as np

import baws

REPLICATIONS = 500
BETA = 0.9
ALPHA = 0.95
ERROR_CONTROL = "pcer"
RESUME_STEPS = 2  # tail steps re-run through start_t/initial_prev_k
EXPERIMENT_METHODS = ("baws", "saws", "fixed:250", "full")


def pass_seeds(seed: int, index: int) -> tuple[int, int]:
    """(scenario seed, method seed) of pass ``index`` of a run."""
    state = np.random.SeedSequence([seed, index]).generate_state(2, np.uint32)
    return int(state[0]), int(state[1])


class BacktestWorkload:
    """One ``run_backtest`` call per pass over steps t0 .. t0 + steps - 1."""

    kind = "backtest"

    def __init__(self, name, scenario, target, mode, t0, steps, T=2000):
        self.name = name
        self.scenario = scenario
        self.target = target
        self.mode = mode
        self.t0 = t0
        self.steps = steps
        self.T = T

    def inputs(self, seed: int, index: int):
        """Scenario path, the series the call sees, and its config."""
        path_seed, cfg_seed = pass_seeds(seed, index)
        alpha = None if isinstance(self.target, baws.Mean) else ALPHA
        path = baws.generate(self.scenario, T=self.T, seed=path_seed, alpha=alpha)
        cfg = baws.BacktestConfig(
            method="baws", target=self.target, t0=self.t0,
            bootstrap=baws.BootstrapConfig(beta=BETA, replications=REPLICATIONS,
                                           mode=self.mode),
            seed=cfg_seed, error_control=ERROR_CONTROL)
        return path, path.losses[: self.t0 + self.steps - 1], cfg

    def in_process(self, inp):
        """Backtests always run in this process."""
        return inp

    def warmup(self, inp) -> None:
        _, series, cfg = inp
        baws.run_backtest(series[: self.t0], cfg)

    def call(self, inp):
        _, series, cfg = inp
        return baws.run_backtest(series, cfg)

    def step_count(self, inp) -> int:
        return self.steps

    def operations(self, inp) -> int:
        return self.steps

    def check(self, inp, records, resume: bool) -> int:
        """Number of steps whose record breaks an output invariant; with
        ``resume``, the tail is also re-run from a checkpoint."""
        _, series, cfg = inp
        bad = set()
        expected_t = list(range(self.t0, series.size + 1))
        if [r.t for r in records] != expected_t:
            return self.steps
        prev_k = None
        for r in records:
            history = series[: r.t - 1]
            fit = baws.fit_target(history[history.size - r.k_hat:], self.target)
            score = float(baws.pointwise_score(r.realized, fit.theta, self.target))
            if (r.k_hat not in baws.candidate_windows(r.t - 1, prev_k, cfg.grid)
                    or r.theta != tuple(float(v) for v in fit.theta)
                    or r.score != score
                    or r.realized != float(series[r.t - 1])):
                bad.add(r.t)
            prev_k = r.k_hat
        tail = min(RESUME_STEPS, len(records) - 1) if resume else 0
        if tail > 0:
            resumed = baws.run_backtest(series, cfg, start_t=records[-tail].t,
                                        initial_prev_k=records[-tail - 1].k_hat)
            if resumed != records[-tail:]:
                bad.update(r.t for r in records[-tail:])
        return len(bad)

    def forecast_rmse(self, inp, records) -> float:
        path, _, _ = inp
        truth = path.true_mean if isinstance(self.target, baws.Mean) else path.true_var
        err = np.array([r.theta[0] - truth[r.t - 1] for r in records])
        return float(np.sqrt(np.mean(err * err)))

    def write_csv(self, records, out_path) -> None:
        baws.emit_results(records, out_path, fmt="wide", target=self.target)


class ExperimentWorkload:
    """One ``run_experiment`` call per pass."""

    kind = "experiment"

    def __init__(self, name, scenario, target, n, T, t0):
        self.name = name
        self.scenario = scenario
        self.target = target
        self.n = n
        self.T = T
        self.t0 = t0

    def inputs(self, seed: int, index: int):
        path_seed, _ = pass_seeds(seed, index)
        return {"scenario": self.scenario, "methods": list(EXPERIMENT_METHODS),
                "target": self.target, "n": self.n, "T": self.T, "t0": self.t0,
                "seed": path_seed, "beta": BETA, "replications": REPLICATIONS,
                "error_control": ERROR_CONTROL, "workers": min(2, os.cpu_count() or 1)}

    def in_process(self, inp):
        """The same call with replications run in this process (workers=1)."""
        return dict(inp, workers=1)

    def warmup(self, inp) -> None:
        baws.run_experiment(**dict(inp, n=1, T=self.t0, workers=1))

    def call(self, inp):
        return baws.run_experiment(**inp)

    def step_count(self, inp) -> int:
        """Forecast steps over all replications; one step runs every method."""
        return self.n * (self.T - self.t0 + 1)

    def operations(self, inp) -> int:
        return self.n

    def check(self, inp, report, resume: bool) -> int:
        """All replications fail when any metric row breaks an invariant.
        (``resume`` has no meaning for an experiment.)"""
        cr_tolerance = 1e-8 * (self.T - self.t0 + 1)  # quadrature tolerance per term
        values = {(method, metric): value for method, _, metric, value in report.rows}

        def holds(method):
            try:
                mab = values[(method, "MAB")]
                # MSE >= MAB^2 by Jensen; the two average in different orders
                return (values[(method, "MSE")] >= mab * mab * (1.0 - 1e-12)
                        and values[(method, "Var")] >= 0.0
                        and values[(method, "CR")] >= -cr_tolerance)
            except KeyError:
                return False

        ok = (all(math.isfinite(v) for v in values.values())
              and all(holds(method) for method in EXPERIMENT_METHODS))
        return 0 if ok else self.n

    def forecast_rmse(self, inp, report) -> float:
        mse = report.value("baws", "MSE")
        return math.sqrt(mse) if mse >= 0 else math.nan  # a negative MSE fails check()

    def write_csv(self, report, out_path) -> None:
        baws.emit_results(report, out_path)


WORKLOADS = {
    "var-iid-a1": BacktestWorkload("var-iid-a1", "A1", baws.VaR(ALPHA), "iid",
                                   t0=1001, steps=400),
    "vares-block-garch": BacktestWorkload("vares-block-garch", "GARCH",
                                          baws.VaRES(ALPHA), "block",
                                          t0=1001, steps=5),
    "mean-iid-b1": BacktestWorkload("mean-iid-b1", "B1", baws.Mean(), "iid",
                                    t0=976, steps=50),
    "experiment-garch-var": ExperimentWorkload("experiment-garch-var", "GARCH",
                                               baws.VaR(ALPHA), n=4, T=1015, t0=1001),
}

# same code paths at a size that runs in well under a second each
QUICK_WORKLOADS = {
    "var-iid-a1": BacktestWorkload("var-iid-a1", "A1", baws.VaR(ALPHA), "iid",
                                   t0=501, steps=20),
    "vares-block-garch": BacktestWorkload("vares-block-garch", "GARCH",
                                          baws.VaRES(ALPHA), "block",
                                          t0=101, steps=2),
    "mean-iid-b1": BacktestWorkload("mean-iid-b1", "B1", baws.Mean(), "iid",
                                    t0=201, steps=4),
    "experiment-garch-var": ExperimentWorkload("experiment-garch-var", "GARCH",
                                               baws.VaR(ALPHA), n=2, T=102, t0=101),
}
