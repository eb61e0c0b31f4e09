"""Persistent worker-pool benchmark.

Three measurements, recorded to ``BENCH_pool.json`` (uniform schema via
:mod:`repro.util.bench`):

* **startup amortization** — wall clock of forking the pool plus its
  first map, against the steady-state cost of the same map once the
  workers are warm.  The persistent pool pays the fork once per process;
  every later map should cost orders of magnitude less.
* **steady-state dispatch** — best-of-5 tasks/second pushing trivial
  tasks through the warm pool (pipe round-trips and steal bookkeeping,
  no real work).  This is the gated throughput metric.
* **scenario matrix parity** — the 8-way (workload × scheme × seed)
  grid with ``jobs=1`` in-process vs ``jobs=2`` on the pre-warmed
  persistent pool, each leg timed as the median of ``MATRIX_REPEATS``
  runs (:func:`repro.util.bench.measure`).  Results must be
  byte-identical; with the pool warm,
  parallel overhead must be gone (speedup >= 0.98 even on one CPU) and
  a real speedup is asserted only when the machine has the cores.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import emit
from repro.parallel.matrix import grid, run_matrix, warmup_for
from repro.parallel.pool import RunPool
from repro.parallel.workers import (
    WorkerPool,
    process_pool,
    shutdown_process_pool,
)
from repro.util.bench import measure, write_bench

REPO_ROOT = Path(__file__).resolve().parent.parent
POOL_WIDTH = 2
DISPATCH_TASKS = 2_000
MATRIX_JOBS = 2
MATRIX_REPEATS = 3
MIN_MATRIX_SPEEDUP = 0.98  # overhead bar: holds even on one CPU
MIN_PARALLEL_SPEEDUP = 1.2  # asserted only with >= MATRIX_JOBS cores


def _noop(x):
    return x


def _uneven(x):
    # first task per round is 30x heavier: forces the idle worker to steal
    time.sleep(0.003 if x % 16 == 0 else 0.0001)
    return x


def _matrix_cells():
    return grid(
        ["de", "ex"],
        ["Oracle", "EXIST"],
        seeds=(7, 11),
        overrides=(("work_seconds", 10.0),),
    )


def test_pool_throughput():
    shutdown_process_pool()

    # -- startup amortization ------------------------------------------------
    start = time.perf_counter()
    pool = WorkerPool(POOL_WIDTH)
    pool.map(_noop, range(64))
    startup_s = time.perf_counter() - start

    steady_best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        pool.map(_noop, range(64))
        steady_best = min(steady_best, time.perf_counter() - start)

    # -- steady-state dispatch throughput -------------------------------------
    dispatch_best = 0.0
    for _ in range(5):
        start = time.perf_counter()
        results = pool.map(_noop, range(DISPATCH_TASKS))
        elapsed = time.perf_counter() - start
        dispatch_best = max(dispatch_best, DISPATCH_TASKS / elapsed)
    assert results == list(range(DISPATCH_TASKS))

    # -- work stealing on uneven tasks ----------------------------------------
    pool.map(_uneven, range(256))
    steals = pool.stats.steals
    respawns = pool.stats.respawns
    pool.close()

    # -- matrix parity: jobs=1 vs jobs=2 on the persistent pool ---------------
    cells = _matrix_cells()
    for warm in warmup_for(cells):
        warm()
    # pre-warm the shared pool (fork + first config sync) outside the
    # timed region — that is the whole point of a persistent pool
    process_pool(MATRIX_JOBS).map(_noop, range(MATRIX_JOBS * 4))

    serial_timing = measure(lambda: run_matrix(cells, jobs=1), MATRIX_REPEATS)
    with RunPool(max_workers=MATRIX_JOBS) as shared:
        parallel_timing = measure(
            lambda: run_matrix(cells, pool=shared), MATRIX_REPEATS
        )
    serial, t_serial = serial_timing.result, serial_timing.median
    parallel, t_parallel = parallel_timing.result, parallel_timing.median

    serial_json = json.dumps([r.to_dict() for r in serial], sort_keys=True)
    parallel_json = json.dumps([r.to_dict() for r in parallel], sort_keys=True)
    assert serial_json == parallel_json, (
        "jobs=1 and pooled results diverged"
    )
    matrix_speedup = t_serial / t_parallel
    shutdown_process_pool()

    metrics = {
        "pool_width": POOL_WIDTH,
        "startup_s": round(startup_s, 4),
        "steady_map_s": round(steady_best, 4),
        "startup_amortization": round(startup_s / steady_best, 1),
        "dispatch_tasks_per_s": round(dispatch_best, 1),
        "steal_count": steals,
        "respawns": respawns,
        "matrix_cells": len(cells),
        "matrix_jobs": MATRIX_JOBS,
        "matrix_repeats": MATRIX_REPEATS,
        "matrix_serial_s": round(t_serial, 3),
        "matrix_serial_q1_s": round(serial_timing.q1, 3),
        "matrix_serial_q3_s": round(serial_timing.q3, 3),
        "matrix_parallel_s": round(t_parallel, 3),
        "matrix_parallel_q1_s": round(parallel_timing.q1, 3),
        "matrix_parallel_q3_s": round(parallel_timing.q3, 3),
        "matrix_speedup": round(matrix_speedup, 3),
        "matrix_identical": serial_json == parallel_json,
        "cpu_count": os.cpu_count(),
    }
    write_bench(REPO_ROOT / "BENCH_pool.json", "pool_throughput", metrics)

    emit("Persistent worker pool")
    emit(
        f"startup (fork + first map) {startup_s * 1e3:.1f} ms -> steady map "
        f"{steady_best * 1e3:.1f} ms ({startup_s / steady_best:.0f}x amortized)"
    )
    emit(
        f"dispatch: {dispatch_best:,.0f} tasks/s through {POOL_WIDTH} warm "
        f"workers; {steals} steals on uneven load, {respawns} respawns"
    )
    emit(
        f"8-way matrix: jobs=1 {t_serial:.2f}s -> pooled jobs={MATRIX_JOBS} "
        f"{t_parallel:.2f}s ({matrix_speedup:.2f}x on {os.cpu_count()} CPUs), "
        f"byte-identical results"
    )

    assert steals >= 1, "uneven load produced no steals"
    assert matrix_speedup >= MIN_MATRIX_SPEEDUP, (
        f"pooled matrix {matrix_speedup:.2f}x vs serial; the persistent "
        f"pool must not cost more than {1 - MIN_MATRIX_SPEEDUP:.0%} even "
        f"on one CPU"
    )
    cpus = os.cpu_count() or 1
    if cpus >= MATRIX_JOBS:
        assert matrix_speedup >= MIN_PARALLEL_SPEEDUP, (
            f"matrix only {matrix_speedup:.2f}x at {MATRIX_JOBS} workers "
            f"on {cpus} CPUs; need >= {MIN_PARALLEL_SPEEDUP}x"
        )
    else:
        emit(
            f"parallel speedup bar (>= {MIN_PARALLEL_SPEEDUP}x) not "
            f"asserted: only {cpus} CPU(s) available"
        )
