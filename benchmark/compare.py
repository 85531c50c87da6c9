"""Diff two benchmark result files, workload by workload and metric by metric.

    python3 benchmark/compare.py BASE.json NEW.json

Runs are paired by workload seed.  For each workload and end-to-end metric
the table gives each side's median and quartiles, the pairs NEW wins (ties
count for neither) and a verdict:

improved    NEW wins at least 9/10 of the pairs and the medians differ by
            more than BASE's interquartile range
worse       NEW's median is worse than BASE's by more than the metric's bound
unresolved  BASE's spread (IQR / median) exceeds the bound and not every
            NEW run beats every BASE run
no worse    otherwise

The forecast RMSE is deterministic for a given seed, so its spread across
seeds says nothing about noise; it is gated on pairs instead.  It reads
``identical`` when every pair matches exactly, ``worse`` when the median
relative change over the pairs is worse than FORECAST_RMSE_BOUND, else
``changed``.  A speed-up that approximates the bootstrap shows here.

Ungated figures (raw wall ms per step, error rate) have no bound: they read
``identical`` when every pair matches exactly, else ``changed`` unless the
9/10 rule calls them improved or worse.  The exit code is 1 when any gated
verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

WIN_SHARE = 0.9
FORECAST_RMSE_BOUND = 0.02


def _better(a: float, b: float, better: str) -> bool:
    """True when ``b`` is better than ``a``."""
    return b < a if better == "lower" else b > a


def verdict(base: dict, new: dict, paired_bound: float | None = None) -> tuple[str, int, int]:
    """(verdict, pairs NEW wins, pairs compared) for one metric summary;
    with ``paired_bound``, the metric is gated on its pairs alone."""
    better, bound = new["better"], new["bound"]
    base_by_seed = dict(zip(base["seeds"], base["values"]))
    pairs = [(base_by_seed[s], v) for s, v in zip(new["seeds"], new["values"])
             if s in base_by_seed]
    wins = sum(_better(a, b, better) for a, b in pairs)
    losses = sum(_better(b, a, better) for a, b in pairs)
    if paired_bound is not None:
        if not pairs:
            return "unresolved", wins, 0
        if all(a == b for a, b in pairs):
            return "identical", wins, len(pairs)
        worse_by = statistics.median((b - a) / a for a, b in pairs)
        if better == "higher":
            worse_by = -worse_by
        return ("worse" if worse_by > paired_bound else "changed"), wins, len(pairs)
    iqr = base["q3"] - base["q1"]
    gap = abs(new["median"] - base["median"])
    improved = (pairs and wins >= WIN_SHARE * len(pairs) and gap > iqr
                and _better(base["median"], new["median"], better))
    if bound is None:
        if all(a == b for a, b in pairs):
            return "identical", wins, len(pairs)
        if improved:
            return "improved", wins, len(pairs)
        if pairs and losses >= WIN_SHARE * len(pairs) and gap > iqr:
            return "worse", wins, len(pairs)
        return "changed", wins, len(pairs)
    spread = iqr / base["median"]
    all_better = all(_better(a, b, better) for a in base["values"] for b in new["values"])
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if improved:
        return "improved", wins, len(pairs)
    worse_by = (new["median"] - base["median"]) / base["median"]
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "worse", wins, len(pairs)
    return "no worse", wins, len(pairs)


def compare(base: dict, new: dict) -> int:
    worse = 0
    print(f"base {base['provenance']['git_commit'][:12]}  new {new['provenance']['git_commit'][:12]}")
    header = (f"{'workload':<22} {'metric':<22} {'unit':<5} {'base median [q1, q3]':<34} "
              f"{'new median [q1, q3]':<34} {'wins':>6}  verdict")
    print(header)
    for name, entry in new["workloads"].items():
        if name not in base["workloads"]:
            print(f"{name:<22} (not in base)")
            continue
        base_summary = base["workloads"][name]["summary"]
        for metric, s in entry["summary"].items():
            if metric not in base_summary:
                continue
            b = base_summary[metric]
            paired_bound = FORECAST_RMSE_BOUND if metric == "forecast_rmse" else None
            result, wins, pairs = verdict(b, s, paired_bound)
            worse += result == "worse" and (s["bound"] is not None or paired_bound is not None)
            base_col = f"{b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}]"
            new_col = f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"
            print(f"{name:<22} {metric:<22} {s['unit']:<5} {base_col:<34} {new_col:<34} "
                  f"{wins:>3}/{pairs:<3} {result}")
        shas = base["workloads"][name].get("csv_sha256", {})
        same = [seed for seed, sha in entry.get("csv_sha256", {}).items() if shas.get(seed) == sha]
        print(f"{name:<22} output CSV identical on {len(same)}/{len(shas)} seeds")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        base = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        new = json.load(fh)
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main())
