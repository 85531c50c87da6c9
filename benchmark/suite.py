"""Run every workload over several seeds and write one result file.

Each run is a fresh ``run.py`` process, as the single-run command would be
started, so set-up and memory are measured per process.  Per workload the
suite makes RUNS untraced runs (seeds 1..RUNS) and one traced run on seed 1;
``--quick`` makes the same runs on seed 1 only, at tiny sizes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # untraced runs per workload, on seeds 1..RUNS
PAPER_REPLICATIONS = 1000
PAPER_STEPS = 1500
PAPER_METHODS = 6
# BAWS ms/step and ms per GARCH CR cell from ROADMAP.md (T = 1000, steps 901..1000)
ROADMAP_REFERENCE = (
    ("BAWS VaR iid", 4.9, "var-iid-a1"),
    ("BAWS VaR block", 34.5, "experiment-garch-var"),
    ("BAWS Mean iid", 50.4, "mean-iid-b1"),
    ("BAWS VaR/ES block", 551.0, "vares-block-garch"),
    ("GARCH CR cell", 12.7, "experiment-garch-var"),
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_child(workload: str, seed: int, trace: int, seconds: float, quick: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, json.JSONDecodeError):
        return {"seed": seed, "trace": trace, "exit": proc.returncode,
                "error": proc.stderr[-2000:]}
    return {"seed": seed, "trace": trace, "exit": proc.returncode,
            "result": result, "detail": detail}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(runs: list[dict], spec: dict) -> dict:
    """Median, quartiles and spread (IQR / median) of each end-to-end metric."""
    ok = [r for r in runs if "result" in r]
    summary = {}
    for metric in spec["end_to_end"]:
        values = [r["detail"]["end_to_end"][metric["name"]] for r in ok]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        summary[metric["name"]] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values, "seeds": [r["seed"] for r in ok]}
    for name, unit in (("wall_ms_per_step", "ms"), ("forecast_rmse", "loss"),
                       ("error_rate", "1")):
        values = [r["detail"][name] for r in ok]
        if values:
            q1, med, q3 = quartiles(values)
            summary[name] = {"unit": unit, "better": "lower", "bound": None,
                             "median": med, "q1": q1, "q3": q3,
                             "values": values, "seeds": [r["seed"] for r in ok]}
    return summary


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def provenance(seeds: list[int], versions: dict) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = (_read(f"{base}/{f}") for f in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
        dirty = bool(subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30).stdout.strip())
    except OSError:
        commit, dirty = "unknown", None
    return {
        "nproc": os.cpu_count(), "cpu_model": model, "caches": caches,
        "platform": platform.platform(), **versions,
        "git_commit": commit, "src_dirty": dirty,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "workload_seeds": seeds,
    }


def derived(workloads: dict) -> dict:
    """Ungated projections to paper scale and the ROADMAP reference table."""
    ms = {name: w["summary"]["wall_ms_per_step"]["median"]
          for name, w in workloads.items() if "wall_ms_per_step" in w["summary"]}
    traced = workloads.get("experiment-garch-var", {}).get("traced", {})
    layers = {k: v["value"] for k, v in traced.get("result", {}).get("metrics", {}).items()}
    method_ms = traced.get("detail", {}).get("method_ms_per_step", {})
    cells = layers.get("metrics.cumulative_risk_var.cells")
    cell_ms = layers["metrics.cumulative_risk_var.ms"] / cells if cells else None
    scale = PAPER_REPLICATIONS * PAPER_STEPS / 3.6e6  # ms per step -> core-hours

    projection = {name: {"core_hours": value * scale,
                         "s_per_replication": value * PAPER_STEPS / 1e3}
                  for name, value in ms.items() if workloads[name]["kind"] == "backtest"}
    for method, value in method_ms.items():
        projection[f"experiment-garch-var:{method}"] = {
            "core_hours": value * scale, "s_per_replication": value * PAPER_STEPS / 1e3}
    if cell_ms is not None:
        projection["experiment-garch-var:cumulative_risk_var"] = {
            "core_hours": cell_ms * scale * PAPER_METHODS,
            "s_per_replication": cell_ms * PAPER_STEPS * PAPER_METHODS / 1e3}

    measured = {"BAWS VaR block": method_ms.get("baws"), "GARCH CR cell": cell_ms}
    table = []
    for label, reference, workload in ROADMAP_REFERENCE:
        value = measured[label] if label in measured else ms.get(workload)
        table.append({"label": label, "roadmap_ms": reference, "measured_ms": value,
                      "workload": workload})
    return {
        "paper_scale": {
            "basis": (f"{PAPER_REPLICATIONS} replications x {PAPER_STEPS} steps on one core; "
                      "experiment methods and CR cells from the traced in-process run; "
                      f"CR over {PAPER_METHODS} methods"),
            "projection": projection},
        "roadmap_table": {
            "note": ("ROADMAP measured steps 901..1000 of T = 1000 paths; these workloads "
                     "use other steps, so the rows are side by side, not like for like"),
            "rows": table},
    }


def print_workload(name: str, entry: dict) -> None:
    print(f"\n{name}")
    for metric, s in entry["summary"].items():
        bound = "" if s["bound"] is None else f"spread {s['spread']:.3f} bound {s['bound']}"
        print(f"  {metric:<16} {s['median']:>12.6g} {s['unit']:<6} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} {bound}")
    traced = entry["traced"]
    if "result" not in traced:
        print(f"  traced run failed: {traced.get('error', '')[-500:]}")
        return
    where = "in-process" if traced["detail"]["in_process"] else "worker processes"
    print(f"  traced run (seed {traced['seed']}, {where}):")
    for metric, m in traced["result"]["metrics"].items():
        print(f"    {metric:<44} {m['value']:>12.6g} {m['unit']}")


def run_suite(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seeds = [1] if args.quick else list(range(1, RUNS + 1))
    started = time.time()
    # traced runs first, then seeds round-robin over workloads, so a slow
    # spell of a shared machine spreads over all workloads instead of landing
    # on one; quick runs check code paths, not speed, so two may overlap
    jobs = [(name, seeds[0], 1) for name in names] + [
        (name, seed, 0) for seed in seeds for name in names]
    with ThreadPoolExecutor(max_workers=2 if args.quick else 1) as pool:
        done = list(pool.map(lambda job: run_child(*job, args.seconds, args.quick), jobs))
    traced = {name: r for (name, _, trace), r in zip(jobs, done) if trace}
    runs = {name: [r for (job_name, _, trace), r in zip(jobs, done)
                   if job_name == name and not trace] for name in names}

    out = {"settings": {"seconds": args.seconds, "runs": len(seeds),
                        "quick": args.quick, "wall_s": time.time() - started},
           "provenance": {}, "workloads": {}}
    correct, versions = True, {}
    for name in names:
        for r in runs[name] + [traced[name]]:
            if "result" not in r or not r["result"]["correct"]:
                correct = False
                print(f"{name} seed {r['seed']} trace {r['trace']}: FAILED "
                      f"(exit {r['exit']}) {r.get('error', '')[-500:]}", file=sys.stderr)
            else:
                versions = r["detail"]["versions"]
        kind = next((r["detail"]["kind"] for r in runs[name] if "detail" in r), None)
        entry = {"kind": kind, "runs": runs[name], "traced": traced[name],
                 "summary": summarize(runs[name], spec),
                 "csv_sha256": {r["seed"]: r["detail"]["csv_sha256"]
                                for r in runs[name] if "detail" in r}}
        if "result" in traced[name]:
            entry["trace_overhead_ratio"] = traced[name]["result"]["metrics"][
                "trace.overhead_ratio"]["value"]
        out["workloads"][name] = entry
        print_workload(name, entry)
    out["provenance"] = provenance(seeds, versions)
    out["derived"] = derived(out["workloads"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print("\nROADMAP reference (ms):")
    for row in out["derived"]["roadmap_table"]["rows"]:
        value = "n/a" if row["measured_ms"] is None else f"{row['measured_ms']:.4g}"
        print(f"  {row['label']:<20} roadmap {row['roadmap_ms']:<8} measured {value}")
    print(f"\nwrote {args.out}; all outputs correct: {correct}")
    return 0 if correct else 1
