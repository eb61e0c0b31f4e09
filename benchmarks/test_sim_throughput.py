"""Simulation hot-path and parallel-harness benchmark.

Two measurements, both recorded to ``BENCH_sim.json`` (uniform schema via
``repro.util.bench``):

* **single-thread event loop** — ``events_per_s``: ``Simulator.run_until``
  draining a deep queue of pre-posted trivial events, posted with
  ``Simulator.post`` (handle-free ``(time, seq, callable)`` heap entries,
  the path the scheduler's own events take).  Best of five;
  ``check_regression.py`` gates it against the committed baseline.
* **8-way scenario matrix** — the same (workload x scheme x seed) grid
  run with ``jobs=1`` and ``jobs=4``, each leg timed as the median of
  ``MATRIX_REPEATS`` runs (:func:`repro.util.bench.measure`).  Results
  must be byte-identical; the speedup (median serial over median
  parallel wall) is always recorded and gated, and the >= 3x bar is
  asserted only on machines that actually have >= 4 CPUs.  The serial
  leg's ``matrix_cells_per_s`` (cells over median serial wall) is the
  whole-node simulator's single-core speed — slice scheduling, syscall
  picks and run-to-completion — and ``check_regression.py`` gates it.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import emit
from repro.kernel.events import Simulator
from repro.parallel.matrix import grid, run_matrix, warmup_for
from repro.util.bench import measure, write_bench

REPO_ROOT = Path(__file__).resolve().parent.parent
LOOP_EVENTS = 200_000
MIN_MATRIX_SPEEDUP = 3.0
MATRIX_JOBS = 4
MATRIX_REPEATS = 3


def _dispatch_rate(n=LOOP_EVENTS):
    """Events/second draining ``n`` pre-posted trivial events."""
    sim = Simulator()
    callback = lambda: None  # noqa: E731 - measuring loop overhead only
    for i in range(n):
        sim.post(i, callback)
    start = time.perf_counter()
    fired = sim.run_until(n)
    elapsed = time.perf_counter() - start
    assert fired == n
    return n / elapsed


def _matrix_cells():
    """An 8-way grid: 2 workloads x 2 schemes x 2 seeds.

    ``work_seconds`` is sized so each cell costs ~0.5 s of wall clock —
    heavy enough that fork/dispatch overhead cannot mask real
    parallelism on a multi-core machine.
    """
    return grid(
        ["de", "ex"],
        ["Oracle", "EXIST"],
        seeds=(7, 11),
        overrides=(("work_seconds", 10.0),),
    )


def test_sim_throughput():
    # best-of to shake scheduling noise off the loop timing
    events_per_s = max(_dispatch_rate() for _ in range(5))

    cells = _matrix_cells()
    # populate the binary/path caches before timing either side, so the
    # serial run is not charged for one-time generation the forked
    # workers would inherit for free
    for warm in warmup_for(cells):
        warm()
    serial_timing = measure(lambda: run_matrix(cells, jobs=1), MATRIX_REPEATS)
    parallel_timing = measure(
        lambda: run_matrix(cells, jobs=MATRIX_JOBS), MATRIX_REPEATS
    )
    serial, t_serial = serial_timing.result, serial_timing.median
    parallel, t_parallel = parallel_timing.result, parallel_timing.median

    serial_json = json.dumps([r.to_dict() for r in serial], sort_keys=True)
    parallel_json = json.dumps([r.to_dict() for r in parallel], sort_keys=True)
    assert serial_json == parallel_json, (
        "jobs=1 and jobs=4 merged results diverged"
    )
    matrix_speedup = t_serial / t_parallel

    metrics = {
        "loop_events": LOOP_EVENTS,
        "events_per_s": round(events_per_s, 1),
        "matrix_cells": len(cells),
        "matrix_jobs": MATRIX_JOBS,
        "matrix_repeats": MATRIX_REPEATS,
        "matrix_serial_s": round(t_serial, 3),
        "matrix_serial_q1_s": round(serial_timing.q1, 3),
        "matrix_serial_q3_s": round(serial_timing.q3, 3),
        "matrix_cells_per_s": round(len(cells) / t_serial, 3),
        "matrix_parallel_s": round(t_parallel, 3),
        "matrix_parallel_q1_s": round(parallel_timing.q1, 3),
        "matrix_parallel_q3_s": round(parallel_timing.q3, 3),
        "matrix_speedup": round(matrix_speedup, 3),
        "matrix_identical": serial_json == parallel_json,
        "cpu_count": os.cpu_count(),
    }
    write_bench(REPO_ROOT / "BENCH_sim.json", "sim_throughput", metrics)

    emit("Simulation hot path")
    emit(f"event loop: {events_per_s:,.0f} ev/s")
    emit(f"serial matrix: {len(cells) / t_serial:.2f} cells/s")
    emit(
        f"8-way matrix: jobs=1 {t_serial:.2f}s -> jobs={MATRIX_JOBS} "
        f"{t_parallel:.2f}s ({matrix_speedup:.2f}x on "
        f"{os.cpu_count()} CPUs), byte-identical results"
    )

    cpus = os.cpu_count() or 1
    if cpus >= MATRIX_JOBS:
        assert matrix_speedup >= MIN_MATRIX_SPEEDUP, (
            f"matrix only {matrix_speedup:.2f}x at {MATRIX_JOBS} workers "
            f"on {cpus} CPUs; need >= {MIN_MATRIX_SPEEDUP}x"
        )
    else:
        emit(
            f"matrix speedup bar (>= {MIN_MATRIX_SPEEDUP}x) not asserted: "
            f"only {cpus} CPU(s) available"
        )
