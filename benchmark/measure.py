"""One benchmark run: timed passes, set-up time, output checks, result lines."""

from __future__ import annotations

import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import baws
from tracing import LAYER_UNITS, Tracer
from workloads import QUICK_WORKLOADS, WORKLOADS

END_TO_END_UNITS = {"setup_s": "s", "ms_per_step_normalized": "ms", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3
HERE = Path(__file__).resolve().parent
REFERENCE_MS = 4.0  # ms per reference unit, about its time on a 2-core Xeon VM
REFERENCE_BLOCK_S = 0.5
QUICK_REFERENCE_BLOCK_S = 0.02


class SpeedReference:
    """Probe of the machine's current speed, timed between passes.

    On a shared host the speed of the same code drifts by tens of percent
    over minutes, far more than a run can average out.  The probe is a fixed
    unit of work that shares no code with baws and mixes what the workloads
    do: an interpreter loop, a random gather and a row sort.  Dividing a
    pass's wall time by the probe's time around it removes most of the drift.
    """

    def __init__(self, block_s: float):
        self.block_s = block_s
        rng = np.random.default_rng(0)
        self.values = rng.random(2000)
        self.index = rng.integers(0, 2000, size=(200, 2000), dtype=np.int32)

    def unit(self) -> None:
        total = 0
        for i in range(10000):
            total += i % 7
        rows = self.values[self.index]
        rows.sort(axis=1)
        rows.mean(axis=1)

    def ms_per_unit(self) -> float:
        start, units = time.perf_counter(), 0
        while time.perf_counter() - start < self.block_s:
            self.unit()
            units += 1
        return 1e3 * (time.perf_counter() - start) / units


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def import_seconds() -> float:
    """Time of ``import baws`` in a fresh interpreter, as timed inside it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
            "import baws; print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code, str(Path(baws.__file__).parents[1])],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def setup_times(workload, seed: int, probe: SpeedReference, repeats: int) -> tuple[list, list]:
    """Set-up times in s, and the probe times before the first repeat and
    after each.  A repeat is a fresh import of baws, input generation and
    one warm-up call."""
    times, reference = [], [probe.ms_per_unit()]
    for _ in range(repeats):
        imported = import_seconds()
        start = time.perf_counter()
        workload.warmup(workload.inputs(seed, 0))
        times.append(imported + time.perf_counter() - start)
        reference.append(probe.ms_per_unit())
    return times, reference


def timed_call(workload, inp) -> tuple:
    start = time.perf_counter()
    out = workload.call(inp)
    return inp, out, time.perf_counter() - start


def timed_passes(workload, seed: int, seconds: float, probe: SpeedReference, *,
                 in_process: bool, tracer: Tracer | None = None) -> tuple[list, list, list]:
    """Closed loop of timed calls, one per pass, until ``seconds`` elapse.

    Returns (inputs, output, wall seconds) per pass; input generation is
    not part of the call's wall time.  With a tracer, each pass's inputs are
    also run traced right after the untraced call, so the tracing overhead
    is measured on the same inputs at nearly the same time; the traced
    passes are returned second.  Third come the speed-reference times
    before the first pass and after each pass.
    """
    untraced, traced, reference = [], [], [probe.ms_per_unit()]
    start = time.perf_counter()
    while True:
        with tracer.installed() if tracer else contextlib.nullcontext():
            inp = workload.inputs(seed, len(untraced))
        if in_process:
            inp = workload.in_process(inp)
        untraced.append(timed_call(workload, inp))
        if tracer is not None:
            with tracer.installed():
                traced.append(timed_call(workload, inp))
        reference.append(probe.ms_per_unit())
        if time.perf_counter() - start >= seconds:
            break
    return untraced, traced, reference


def ms_per_step(workload, passes) -> float:
    return statistics.median(1e3 * wall / workload.step_count(inp)
                             for inp, _, wall in passes)


def normalized(values: list, reference: list) -> float:
    """Median of ``values`` at the reference speed: each value is scaled by
    REFERENCE_MS over the mean probe time just before and after it."""
    return statistics.median(value * 2 * REFERENCE_MS / (before + after)
                             for value, before, after in zip(values, reference, reference[1:]))


def csv_sha256(workload, output) -> str:
    """Digest of the CSV that ``emit_results`` writes for ``output``."""
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as tmp:
        out_path = f"{tmp}/out.csv"
        workload.write_csv(output, out_path)
        with open(out_path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def run_once(args) -> int:
    table = QUICK_WORKLOADS if args.quick else WORKLOADS
    if args.workload not in table:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    wl = table[args.workload]
    seconds = 0.0 if args.quick else args.seconds

    probe = SpeedReference(QUICK_REFERENCE_BLOCK_S if args.quick else REFERENCE_BLOCK_S)
    wl.warmup(wl.inputs(args.seed, 0))
    # spans do not cross process boundaries, so a traced run keeps every
    # call in this process, the untraced ones it is compared against too
    tracer = Tracer() if args.trace else None
    untraced, traced, reference = timed_passes(wl, args.seed, seconds, probe,
                                               in_process=bool(args.trace), tracer=tracer)
    rss = peak_rss_mb()
    # set-up is timed last, so that its import children do not count in
    # peak_rss_mb; a traced run reports no set-up time
    setup, setup_reference = ([], []) if args.trace else setup_times(
        wl, args.seed, probe, 1 if args.quick else SETUP_REPEATS)

    attempted = sum(wl.operations(inp) for inp, _, _ in untraced + traced)
    failed = sum(wl.check(inp, out, resume=(i == 0))
                 for i, (inp, out, _) in enumerate(untraced))
    # a traced call must return exactly what the untraced call returned
    failed += sum(wl.operations(inp) for (inp, out, _), (_, again, _) in zip(untraced, traced)
                  if again != out)
    first_inp, first_out, _ = untraced[0]
    pass_ms = [1e3 * wall / wl.step_count(inp) for inp, _, wall in untraced]
    e2e = {} if args.trace else {
        "setup_s": normalized(setup, setup_reference),
        "ms_per_step_normalized": normalized(pass_ms, reference),
        "peak_rss_mb": rss}
    detail = {
        "workload": wl.name, "kind": wl.kind, "seed": args.seed, "trace": args.trace,
        "quick": args.quick, "passes": len(untraced),
        "steps": sum(wl.step_count(inp) for inp, _, _ in untraced),
        "wall_ms_per_step": statistics.median(pass_ms),
        "pass_ms_per_step": pass_ms,
        "reference_ms": reference,
        "setup_repeat_s": setup,
        "setup_reference_ms": setup_reference,
        "error_rate": failed / attempted,
        "forecast_rmse": wl.forecast_rmse(first_inp, first_out),
        "csv_sha256": csv_sha256(wl, first_out),
        "in_process": bool(args.trace) or wl.kind == "backtest",
        "end_to_end": e2e,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "baws": baws.__version__},
    }
    if wl.kind == "experiment":
        detail["experiment_s"] = statistics.median(wall for _, _, wall in untraced)

    if args.trace:
        steps = sum(wl.step_count(inp) for inp, _, _ in traced)
        layers = tracer.layer_metrics(steps, len(traced))
        layers["trace.ms_per_step"] = ms_per_step(wl, traced)
        layers["trace.overhead_ratio"] = (sum(w for _, _, w in traced)
                                          / sum(w for _, _, w in untraced))
        detail["method_ms_per_step"] = tracer.method_ms_per_step()
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}

    print(f"{wl.name} seed {args.seed}: {len(untraced) + len(traced)} passes, "
          f"{attempted} operations, {failed} failed{' (traced)' if args.trace else ''}")
    shown = dict(e2e, wall_ms_per_step=detail["wall_ms_per_step"],
                 error_rate=detail["error_rate"], forecast_rmse=detail["forecast_rmse"])
    units = dict(END_TO_END_UNITS, wall_ms_per_step="ms", error_rate="1", forecast_rmse="loss")
    if "experiment_s" in detail:
        shown["experiment_s"], units["experiment_s"] = detail["experiment_s"], "s"
    if args.trace:
        shown.update(layers)
        units.update(LAYER_UNITS)
    for name, value in shown.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  {'csv_sha256':<44} {detail['csv_sha256']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1
