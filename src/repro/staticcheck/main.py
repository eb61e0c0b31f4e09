"""Argument surface shared by ``python -m repro.staticcheck`` and
``repro.cli staticcheck``.

Exit codes follow the lint convention the CI gate relies on: 0 = clean
against the baseline, 1 = new violations and/or stale suppressions,
2 = usage error (bad paths, unreadable baseline).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.staticcheck.baseline import (
    DEFAULT_BASELINE_NAME,
    Baseline,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.staticcheck.engine import run_check
from repro.staticcheck.report import render_json, render_sarif, render_text


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the staticcheck options on ``parser`` (shared surface)."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help=f"suppression file (default: ./{DEFAULT_BASELINE_NAME} if present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="report every violation, ignoring any baseline file",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="regenerate the baseline from current findings "
             "(keeps existing justifications) and exit 0",
    )
    parser.add_argument(
        "--json", default="", metavar="PATH",
        help="also write the canonical JSON report to PATH",
    )
    parser.add_argument(
        "--sarif", default="", metavar="PATH",
        help="also write a SARIF 2.1.0 report to PATH (GitHub code scanning)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="stdout format (default: text)",
    )


def run(args: argparse.Namespace) -> int:
    """Execute a staticcheck run from parsed arguments."""
    root = Path.cwd()
    for path in args.paths:
        if not (root / path).exists() and not Path(path).exists():
            print(f"error: path {path!r} does not exist", file=sys.stderr)
            return 2

    result = run_check(args.paths, root=root)

    baseline_path = Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE_NAME
    baseline = Baseline()
    if not args.no_baseline and baseline_path.is_file():
        try:
            baseline = load_baseline(baseline_path)
        except (ValueError, KeyError) as exc:
            print(f"error: unreadable baseline {baseline_path}: {exc}", file=sys.stderr)
            return 2
    elif args.baseline and not baseline_path.is_file() and not args.write_baseline:
        print(f"error: baseline {baseline_path} not found", file=sys.stderr)
        return 2

    if args.write_baseline:
        write_baseline(baseline_path, result.violations, baseline)
        print(
            f"existcheck: wrote {len(result.violations)} suppression(s) "
            f"to {baseline_path}"
        )
        return 0

    new, suppressed, stale = apply_baseline(
        result.violations, baseline, analyzed_paths=result.analyzed_paths
    )
    text = render_text(result, new, suppressed, stale)
    json_doc = render_json(result, new, suppressed, stale)
    print(json_doc if args.format == "json" else text)
    if args.json:
        Path(args.json).write_text(json_doc)
    if args.sarif:
        Path(args.sarif).write_text(render_sarif(result, new, suppressed))
    return 1 if (new or stale) else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="existcheck — determinism & simulation-purity analyzer",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))
