"""Span tracing of ``baws`` layers from outside the package.

``Tracer.installed()`` replaces the module attributes through which one
layer calls the next (for example ``baws.pipeline.select_window`` or
``baws.selection.bootstrap_gaps``) with wrappers that record a span per
call: name, start, end and the enclosing span.  Spans live in flat arrays
in memory until the traced phase ends.  A span's self time is its duration
minus the durations of its direct children; calls are nested on one
thread, so children never overlap.

Spans do not cross process boundaries: replications that run in worker
processes are invisible, so traced experiments run them in-process.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

import baws

BYTES_PER_VALUE = 8  # float64 values and int64 indices

LAYER_UNITS = {
    "selection.select_window.self_ms_per_step": "ms",
    "selection.candidates_per_step": "count",
    "selection.pairs_per_step": "count",
    "selection.step_ms_p50": "ms",
    "selection.step_ms_p90": "ms",
    "selection.k_hat_mean": "count",
    "scoring.score_at.calls_per_step": "count",
    "scoring.score_at.ms_per_step": "ms",
    "scoring.window_stats.ms_per_step": "ms",
    "estimators.fit_from_stats.ms_per_step": "ms",
    "bootstrap.bootstrap_gaps.calls_per_step": "count",
    "bootstrap.bootstrap_gaps.self_ms_per_step": "ms",
    "bootstrap.bootstrap_gaps.ms_per_call_p50": "ms",
    "bootstrap.resample_mb_per_step": "MB",
    "bootstrap.empirical_quantile.ms_per_step": "ms",
    "baselines.rolling_forecast.ms_per_step": "ms",
    "pipeline.run_backtest.self_ms_per_step": "ms",
    "pipeline.replications_s": "s",
    "scenarios.generate_ms": "ms",
    "metrics.cumulative_risk_var.ms": "ms",
    "metrics.cumulative_risk_var.cells": "count",
    "metrics.other_ms": "ms",
    "trace.ms_per_step": "ms",
    "trace.overhead_ratio": "ratio",
}


def _select_window_counts(tracer, idx, args, kwargs, trace):
    tracer.count["candidates"] += trace.candidates.size
    tracer.count["pairs"] += trace.pair_reference.size
    tracer.count["k_hat"] += trace.k_hat
    tracer.count["selections"] += 1


def _resample_bytes(tracer, idx, args, kwargs, out):
    """Bytes of the B x L resample matrices, computed from the seed's algorithm:
    none on the iid VaR order-statistic shortcut, else a float64 value matrix
    plus the int64 indices (iid) or block starts (block) that fill it."""
    window, target, cfg = args[:3]
    n = len(window)
    B = cfg.replications
    if cfg.mode == "iid":
        cells = 0 if isinstance(target, baws.VaR) else 2 * B * n
    else:
        l, m = baws.block_length(n, cfg.block_c)
        cells = B * m * l + B * m
    tracer.count["resample_bytes"] += cells * BYTES_PER_VALUE


def _risk_cells(tracer, idx, args, kwargs, out):
    tracer.count["cr_cells"] += args[0].estimates.shape[0] * args[0].estimates.shape[1]


def _backtest_method(tracer, idx, args, kwargs, records):
    tracer.span_method[idx] = (args[1].method, len(records))


# (module, attribute, span name, hook run on the return value)
PATCHES = (
    ("baws", "run_backtest", "run_backtest", _backtest_method),
    ("baws", "run_experiment", "run_experiment", None),
    ("baws", "generate", "generate", None),
    ("baws.pipeline", "run_backtest", "run_backtest", _backtest_method),
    ("baws.pipeline", "generate", "generate", None),
    ("baws.pipeline", "select_window", "select_window", _select_window_counts),
    ("baws.pipeline", "rolling_forecast", "rolling_forecast", None),
    ("baws.pipeline", "cumulative_risk_var", "cumulative_risk_var", _risk_cells),
    ("baws.pipeline", "cumulative_risk_mean", "metrics_other", None),
    ("baws.pipeline", "cumulative_loss", "metrics_other", None),
    ("baws.pipeline", "mab", "metrics_other", None),
    ("baws.pipeline", "mean_variance", "metrics_other", None),
    ("baws.pipeline", "mse", "metrics_other", None),
    ("baws.selection", "window_stats", "window_stats", None),
    ("baws.selection", "score_at", "score_at", None),
    ("baws.selection", "fit_from_stats", "fit_from_stats", None),
    ("baws.selection", "bootstrap_gaps", "bootstrap_gaps", _resample_bytes),
    ("baws.selection", "empirical_quantile", "empirical_quantile", None),
    ("baws.bootstrap", "window_stats", "window_stats", None),
    ("baws.bootstrap", "fit_from_stats", "fit_from_stats", None),
    ("baws.bootstrap", "pinball_score_at", "score_at", None),
    ("baws.bootstrap", "joint_score_at", "score_at", None),
)


class Tracer:
    """In-memory span recorder with counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.count: dict[str, float] = defaultdict(float)
        self.span_method: dict[int, tuple[str, int]] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, idx, args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every boundary in ``PATCHES`` for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, hook in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def spans(self):
        """(name ids, durations, self times, parents) as arrays, times in ms."""
        ids = np.frombuffer(self.name_ids, dtype=np.intc)
        parents = np.frombuffer(self.parents, dtype=np.int_)
        dur = (np.frombuffer(self.ends) - np.frombuffer(self.starts)) * 1e3
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        return ids, dur, dur - child, parents

    def layer_metrics(self, steps: int, calls: int) -> dict[str, float]:
        """Per-layer metrics over ``steps`` forecast steps in ``calls`` timed calls."""
        ids, dur, self_ms, parents = self.spans()

        def mask(name):
            return ids == self.names.index(name) if name in self.names else np.zeros(ids.size, bool)

        def total(name, values=dur):
            return float(values[mask(name)].sum())

        def pct(name, q):
            sel = dur[mask(name)]
            return float(np.percentile(sel, q)) if sel.size else 0.0

        c = self.count
        selections = c["selections"]
        # replications are the run_backtest and generate calls nested inside
        # run_experiment; a backtest workload makes both at top level
        inner = (mask("run_backtest") | mask("generate")) & (parents >= 0)
        return {
            "selection.select_window.self_ms_per_step": total("select_window", self_ms) / steps,
            "selection.candidates_per_step": c["candidates"] / steps,
            "selection.pairs_per_step": c["pairs"] / steps,
            "selection.step_ms_p50": pct("select_window", 50),
            "selection.step_ms_p90": pct("select_window", 90),
            "selection.k_hat_mean": c["k_hat"] / selections if selections else 0.0,
            "scoring.score_at.calls_per_step": float(mask("score_at").sum()) / steps,
            "scoring.score_at.ms_per_step": total("score_at") / steps,
            "scoring.window_stats.ms_per_step": total("window_stats") / steps,
            "estimators.fit_from_stats.ms_per_step": total("fit_from_stats") / steps,
            "bootstrap.bootstrap_gaps.calls_per_step": float(mask("bootstrap_gaps").sum()) / steps,
            "bootstrap.bootstrap_gaps.self_ms_per_step": total("bootstrap_gaps", self_ms) / steps,
            "bootstrap.bootstrap_gaps.ms_per_call_p50": pct("bootstrap_gaps", 50),
            "bootstrap.resample_mb_per_step": c["resample_bytes"] / 1e6 / steps,
            "bootstrap.empirical_quantile.ms_per_step": total("empirical_quantile") / steps,
            "baselines.rolling_forecast.ms_per_step": total("rolling_forecast") / steps,
            "pipeline.run_backtest.self_ms_per_step": total("run_backtest", self_ms) / steps,
            "pipeline.replications_s": float(dur[inner].sum()) / 1e3 / calls,
            "scenarios.generate_ms": total("generate") / calls,
            "metrics.cumulative_risk_var.ms": total("cumulative_risk_var") / calls,
            "metrics.cumulative_risk_var.cells": c["cr_cells"] / calls,
            "metrics.other_ms": total("metrics_other") / calls,
        }

    def method_ms_per_step(self) -> dict[str, float]:
        """Wall ms per forecast step of each backtest method seen."""
        _, dur, _, _ = self.spans()
        ms, steps = defaultdict(float), defaultdict(int)
        for idx, (method, n) in self.span_method.items():
            ms[method] += dur[idx]
            steps[method] += n
        return {m: ms[m] / steps[m] for m in ms if steps[m]}
