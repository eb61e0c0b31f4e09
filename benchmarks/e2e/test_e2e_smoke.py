"""Smoke test of the end-to-end benchmark at reduced input sizes.

Calls the workload functions directly (quick sizes, short windows), so
it checks the harness and the committed quick-size goldens in about a
minute.  Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from repro.parallel.workers import shutdown_process_pool  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: layers that must record calls during one traced iteration
EXPECTED_LAYERS = {
    "node_overhead": {"tracing", "kernel", "program", "hwtrace"},
    "fleet_chaos": {"cluster", "core", "kernel", "program", "hwtrace",
                    "streaming", "faults", "parallel", "analysis"},
    "trace_ingest": {"streaming", "hwtrace", "analysis"},
    "rpc_campaign": {"services", "parallel"},
}


def test_benchmark_json_names_what_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.ORDER)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("name", run.ORDER)
def test_run_prints_every_metric_and_matches_goldens(name, tmp_path, capsys):
    untraced = run.run_workload(name, 7, 0.1, trace=False, out_dir=tmp_path, quick=True)
    traced = run.run_workload(name, 7, 0.2, trace=True, out_dir=tmp_path, quick=True)
    printed = capsys.readouterr().out
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        line = rf"^{re.escape(metric['name'])} +\S+ {re.escape(metric['unit'])}$"
        assert re.search(line, printed, re.MULTILINE), metric["name"]
    assert untraced["correct"] and traced["correct"]
    assert set(untraced["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert traced["metrics"]["bench.unattributed_share"]["value"] < 0.10

    record = json.loads((tmp_path / f"{name}-seed7-trace1.json").read_text())
    layers = {key.split(".")[0] for key, calls in record["layer_calls"].items() if sum(calls)}
    assert EXPECTED_LAYERS[name] <= layers
    otlp = json.loads((tmp_path / f"{name}-seed7-trace1-spans.json").read_text())
    otlp_spans = otlp["resourceSpans"][0]["scopeSpans"][0]["spans"]
    ids = {span["spanId"] for span in otlp_spans}
    assert all(span["parentSpanId"] in ids for span in otlp_spans if "parentSpanId" in span)
    assert len({span["traceId"] for span in otlp_spans}) == len(record["traced_walls"])


def test_missing_operations_count_as_failed():
    checker = run.Checker(["a", "b", "c"])
    checker.check(Outcome(ops=["a"], work=0))
    assert (checker.attempted, checker.failed) == (3, 2)
    assert not checker.correct


@pytest.mark.parametrize("name", ["fleet_chaos", "rpc_campaign"])
def test_digests_do_not_depend_on_jobs(name):
    digests = {}
    for jobs in (1, 2):
        workload = WORKLOADS[name](7, quick=True, jobs=jobs)
        workload.setup()
        digests[jobs] = workload.iteration().ops
        shutdown_process_pool()
    assert digests[1] == digests[2] == run.expected_ops(name, 7, quick=True)


def test_refuses_to_run_without_program_source(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        BENCHMARK["command"] + ["--workload", "fleet_chaos", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout.strip() == ""
