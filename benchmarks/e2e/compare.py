"""Compare two sets of end-to-end benchmark runs, workload by workload.

Usage::

    python3 benchmarks/e2e/compare.py A_DIR B_DIR

``A_DIR`` holds the base runs (the parent commit), ``B_DIR`` the
candidate's; both are ``--out`` directories of ``run.py``.  For every
workload and end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and quartiles over the untraced runs, the share of pairs B
won (runs paired by seed, ties counting for neither side), and a
verdict:

* ``unresolved`` — either side's quartile spread exceeds the metric's
  bound, unless every B run beats every A run (then ``better``);
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B wins at least nine tenths of the pairs and the medians
  differ by more than A's own quartile spread;
* ``within bound`` — anything else.

There is no combined score: each workload and metric stands alone.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(directory: Path) -> dict:
    """workload -> seed -> metric values, from untraced results files."""
    runs: dict = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        values = {key: entry["value"] for key, entry in record["metrics"].items()}
        runs.setdefault(record["workload"], {})[record["seed"]] = values
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def verdict(a, b, bound: float, lower_is_better: bool, pairs) -> tuple:
    """(verdict, share of pairs won by B) for one workload and metric."""
    def better(x, y):
        return x < y if lower_is_better else x > y

    a_low, a_median, a_high = quartiles(a)
    b_low, b_median, b_high = quartiles(b)
    won = sum(better(y, x) for x, y in pairs) / len(pairs) if pairs else 0.0
    every_run_better = all(better(y, x) for x in a for y in b)
    spread = max((a_high - a_low) / a_median, (b_high - b_low) / b_median)
    if spread > bound:
        return ("better" if every_run_better else "unresolved"), won
    worse_by = (b_median - a_median) / a_median
    if not lower_is_better:
        worse_by = -worse_by
    if worse_by > bound:
        return "worse", won
    if won >= 0.9 and abs(b_median - a_median) > a_high - a_low and worse_by < 0:
        return "better", won
    return "within bound", won


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    a_runs, b_runs = (load_runs(Path(arg)) for arg in argv)
    print(f"{'workload':<14} {'metric':<12} {'A median [q1, q3]':>30}"
          f" {'B median [q1, q3]':>30} {'change':>8} {'B won':>6}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        a_seeds, b_seeds = a_runs.get(name, {}), b_runs.get(name, {})
        if not a_seeds or not b_seeds:
            print(f"{name:<14} missing runs (A: {len(a_seeds)}, B: {len(b_seeds)})")
            continue
        shared = sorted(set(a_seeds) & set(b_seeds))
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a = [a_seeds[seed][key] for seed in sorted(a_seeds)]
            b = [b_seeds[seed][key] for seed in sorted(b_seeds)]
            pairs = ([(a_seeds[s][key], b_seeds[s][key]) for s in shared]
                     if shared else list(zip(a, b)))
            result, won = verdict(a, b, metric["bound"], metric["better"] == "lower", pairs)
            a_low, a_median, a_high = quartiles(a)
            b_low, b_median, b_high = quartiles(b)
            print(
                f"{name:<14} {key:<12}"
                f" {f'{a_median:.4g} [{a_low:.4g}, {a_high:.4g}]':>30}"
                f" {f'{b_median:.4g} [{b_low:.4g}, {b_high:.4g}]':>30}"
                f" {(b_median - a_median) / a_median:>+8.1%} {won:>6.0%}  {result}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
