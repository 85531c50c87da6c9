"""Benchmark of baws forecasting: end-to-end metrics, per-layer trace, output checks.

One run of one workload (run from the repository root):

    python3 benchmark/run.py --workload var-iid-a1 --seed 1 --seconds 20 --trace 0

It imports ``baws`` from ``src/`` of the checkout it sits in, makes one
warm-up call, then makes timed calls, each on a fresh pass of inputs derived
from the seed, until ``--seconds`` have elapsed.  Set-up is timed after
that: a fresh import of baws in a new interpreter, input generation and one
warm-up call, repeated.  A fixed speed probe runs between passes and between
set-up repeats; ``ms_per_step_normalized`` and ``setup_s`` are medians
scaled to the probe's reference speed, which removes most of a shared
machine's drift (the raw ``wall_ms_per_step`` is printed too).  Outputs are
checked last.  The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` the per-layer metrics of
traced calls, each made right after an untraced call on the same inputs,
so the tracing overhead is measured within the run.  The line before it
holds details that are not metrics (output CSV digest, forecast RMSE,
error rate, raw wall time).  The exit code is 1 when any output check
fails.

Every workload, ten seeds each, plus one traced run, with provenance,
written to a result file:

    python3 benchmark/run.py --suite --out bench_results.json [--quick]

``--quick`` runs the same code paths once at tiny sizes.  Compare two
result files with ``python3 benchmark/compare.py BASE.json NEW.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# single-threaded BLAS/OpenMP: load comes only from the benchmark's own processes
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]


def import_baws() -> None:
    """Import baws from the checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "baws" / "__init__.py").is_file():
        sys.exit(f"benchmark: no baws package under {src}")
    sys.path.insert(0, str(src))
    import baws  # noqa: F401


def parse_args(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes and a single pass (smoke test)")
    p.add_argument("--suite", action="store_true",
                   help="run every workload and write a result file")
    p.add_argument("--out", default="bench_results.json", help="result file (--suite)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.suite and args.workload is None:
        p.error("--workload is required unless --suite is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.suite:
        import suite
        return suite.run_suite(args)
    import_baws()
    import measure
    return measure.run_once(args)


if __name__ == "__main__":
    sys.exit(main())
