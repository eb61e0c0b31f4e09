#!/usr/bin/env python
"""Benchmark regression gate.

Compares freshly produced benchmark reports (``BENCH_codec.json``,
``BENCH_sim.json`` — the uniform schema of :mod:`repro.util.bench`)
against the committed baselines in ``benchmarks/baselines/`` and fails
when any *throughput* metric regressed by more than the threshold.

Throughput metrics are recognized by suffix: ``*_mb_s`` and ``*_per_s``
(higher is better); ratios named ``*_speedup`` gate the same way.  Raw
sizes/counts are reported but never gate.

Usage (what the CI full lane runs after regenerating the benches)::

    python benchmarks/check_regression.py BENCH_codec.json BENCH_sim.json

Exit code 0 = within budget, 1 = regression, 2 = usage/schema error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: metric-name suffixes gated as higher-is-better throughput or ratio
GATED_SUFFIXES = ("_mb_s", "_per_s", "_speedup")

DEFAULT_THRESHOLD = 0.25


def _usage_error(message: str) -> "SystemExit":
    """Schema/usage failure: print and exit 2 (distinct from regression=1)."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def load_report(path: Path) -> dict:
    try:
        report = json.loads(path.read_text())
    except FileNotFoundError:
        raise _usage_error(f"report {path} not found") from None
    except json.JSONDecodeError as exc:
        raise _usage_error(f"{path} is not valid JSON: {exc}") from None
    if "metrics" not in report:
        raise _usage_error(f"{path} has no 'metrics' block")
    return report


def gated_metrics(metrics: dict) -> dict:
    return {
        key: value
        for key, value in metrics.items()
        if key.endswith(GATED_SUFFIXES) and isinstance(value, (int, float))
    }


def check_pair(fresh_path: Path, baseline_path: Path, threshold: float):
    """Compare one fresh report against its baseline.

    Returns ``(failures, rows)``: the failure list that decides the exit
    code, and one display row per gated metric — ``(report, metric,
    baseline, current, ratio, status)`` — feeding both the console log
    and the markdown step summary.
    """
    fresh = load_report(fresh_path)
    if not baseline_path.exists():
        # a silently skipped gate reads as "passed" — refuse instead, so a
        # renamed/forgotten baseline surfaces in CI as a schema error
        raise _usage_error(
            f"baseline {baseline_path} not found — commit a baseline for "
            f"{fresh_path.name} or drop it from the gated reports"
        )
    baseline = load_report(baseline_path)
    failures = []
    rows = []
    fresh_metrics = gated_metrics(fresh["metrics"])
    baseline_metrics = gated_metrics(baseline["metrics"])
    for key in sorted(baseline_metrics):
        base = baseline_metrics[key]
        if base <= 0:
            continue
        current = fresh_metrics.get(key)
        if current is None:
            failures.append((key, base, None, "metric disappeared"))
            rows.append((fresh_path.name, key, base, None, None, "FAIL"))
            print(f"  [FAIL] {key}: present in baseline, missing in fresh report")
            continue
        ratio = current / base
        status = "ok"
        if ratio < 1.0 - threshold:
            status = "FAIL"
            failures.append((key, base, current, f"{ratio:.2f}x of baseline"))
        rows.append((fresh_path.name, key, base, current, ratio, status))
        print(
            f"  [{status:>4}] {key}: {current:g} vs baseline {base:g}"
            f" ({ratio:.2f}x)"
        )
    return failures, rows


def render_markdown_summary(rows, failures, threshold: float) -> str:
    """GitHub-flavored markdown table of every gated metric comparison."""
    lines = [
        f"## Benchmark regression gate (threshold −{threshold:.0%})",
        "",
        "| Report | Metric | Baseline | Current | Ratio | Status |",
        "| --- | --- | ---: | ---: | ---: | :---: |",
    ]
    for report, key, base, current, ratio, status in rows:
        if current is None:
            lines.append(
                f"| {report} | `{key}` | {base:g} | *missing* | — | ❌ |"
            )
            continue
        mark = "❌" if status == "FAIL" else "✅"
        lines.append(
            f"| {report} | `{key}` | {base:g} | {current:g} "
            f"| {ratio:.2f}x | {mark} |"
        )
    lines.append("")
    if failures:
        lines.append(
            f"**REGRESSION: {len(failures)} throughput metric(s) fell more "
            f"than {threshold:.0%} below baseline.**"
        )
    else:
        lines.append("**All throughput metrics within budget.**")
    lines.append("")
    return "\n".join(lines)


def write_step_summary(markdown: str) -> None:
    """Append to ``$GITHUB_STEP_SUMMARY`` when running under Actions."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    with open(summary_path, "a", encoding="utf-8") as handle:
        handle.write(markdown)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "reports", nargs="+",
        help="fresh benchmark JSON files (e.g. BENCH_codec.json)",
    )
    parser.add_argument(
        "--baseline-dir",
        default=str(Path(__file__).parent / "baselines"),
        help="directory holding committed baseline reports (same filenames)",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="maximum tolerated fractional throughput drop (default 0.25)",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.threshold < 1.0:
        print("error: --threshold must be in (0, 1)", file=sys.stderr)
        return 2

    baseline_dir = Path(args.baseline_dir)
    all_failures = []
    all_rows = []
    for report in args.reports:
        fresh_path = Path(report)
        baseline_path = baseline_dir / fresh_path.name
        print(f"{fresh_path.name} (threshold: -{args.threshold:.0%}):")
        failures, rows = check_pair(fresh_path, baseline_path, args.threshold)
        all_failures.extend(failures)
        all_rows.extend(rows)
    write_step_summary(
        render_markdown_summary(all_rows, all_failures, args.threshold)
    )
    if all_failures:
        print(
            f"\nREGRESSION: {len(all_failures)} throughput metric(s) fell "
            f"more than {args.threshold:.0%} below baseline"
        )
        return 1
    print("\nall throughput metrics within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
