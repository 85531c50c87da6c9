"""Smoke test of the benchmark's quick mode and its single-run contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def test_quick_suite_checks_outputs_and_reports_every_metric(tmp_path):
    out = tmp_path / "quick.json"
    proc = run([str(BENCH / "run.py"), "--suite", "--quick", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    results = json.loads(out.read_text())
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in SPEC["workloads"]:
        entry = results["workloads"][workload["name"]]
        traced = entry["traced"]["result"]
        assert traced["correct"] and traced["failed"] == 0 and traced["attempted"] >= 1
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == per_layer
        for metric in SPEC["end_to_end"]:
            assert entry["summary"][metric["name"]]["median"] > 0
    proc = run([str(BENCH / "compare.py"), str(out), str(out)])
    assert proc.returncode == 0, proc.stderr
    assert "identical" in proc.stdout
    # a less accurate forecast on the same seeds fails the comparison
    for entry in results["workloads"].values():
        rmse = entry["summary"]["forecast_rmse"]
        rmse["values"] = [1.05 * v for v in rmse["values"]]
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(results))
    proc = run([str(BENCH / "compare.py"), str(out), str(worse)])
    assert proc.returncode == 1, proc.stdout


def test_single_run_prints_end_to_end_metrics_last():
    proc = run([str(BENCH / "run.py"), "--workload", SPEC["workloads"][0]["name"],
                "--seed", "3", "--seconds", "1", "--trace", "0", "--quick"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp-*"))
    proc = run(["benchmark/run.py", "--workload", "var-iid-a1", "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
