"""Simulation hot-path and parallel-harness benchmark.

Two measurements, both recorded to ``BENCH_sim.json`` (uniform schema via
``repro.util.bench``):

* **single-thread event loop** — the current tuple-heap batched
  ``Simulator.run_until`` against a faithful copy of the pre-PR
  object-heap peek/step loop, on a deep pre-scheduled dispatch workload.
  Must be >= 1.5x.
* **8-way scenario matrix** — the same (workload x scheme x seed) grid
  run with ``jobs=1`` and ``jobs=4``.  Results must be byte-identical;
  wall-clock speedup is always recorded, and the >= 3x bar is asserted
  only on machines that actually have >= 4 CPUs (a single-core container
  cannot exhibit process-level parallelism).  The serial leg's
  ``matrix_cells_per_s`` (cells over serial wall) is the whole-node
  simulator's single-core speed — slice scheduling, syscall picks and
  run-to-completion — and ``check_regression.py`` gates it.
"""

from __future__ import annotations

import heapq
import json
import os
import time
from pathlib import Path

from conftest import emit
from repro.kernel.events import Simulator
from repro.parallel.matrix import grid, run_matrix, warmup_for
from repro.util.bench import write_bench

REPO_ROOT = Path(__file__).resolve().parent.parent
LOOP_EVENTS = 200_000
MIN_LOOP_SPEEDUP = 1.5
MIN_MATRIX_SPEEDUP = 3.0
MATRIX_JOBS = 4


# -- faithful pre-PR event loop (object heap, peek/step round trips) --------


class _LegacyEvent:
    __slots__ = ("time", "seq", "callback", "cancelled", "fired")

    def __init__(self, time, seq, callback):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def __lt__(self, other):
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class _LegacySimulator:
    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0
        self._events_fired = 0

    def schedule(self, at, callback):
        self._seq += 1
        event = _LegacyEvent(at, self._seq, callback)
        heapq.heappush(self._heap, event)
        return event

    def peek_time(self):
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def step(self):
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time
            event.fired = True
            self._events_fired += 1
            event.callback()
            return True
        return False

    def run_until(self, deadline, max_events=None):
        fired = 0
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time > deadline:
                break
            if max_events is not None and fired >= max_events:
                break
            self.step()
            fired += 1
        if self.now < deadline:
            self.now = deadline
        return fired


def _dispatch_rate(sim_class, n=LOOP_EVENTS):
    """Events/second draining ``n`` pre-scheduled trivial events."""
    sim = sim_class()
    callback = lambda: None  # noqa: E731 - measuring loop overhead only
    for i in range(n):
        sim.schedule(i, callback)
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
    # interleave and take best-of to shake scheduling noise off both loops
    legacy_best, current_best = 0.0, 0.0
    for _ in range(5):
        legacy_best = max(legacy_best, _dispatch_rate(_LegacySimulator))
        current_best = max(current_best, _dispatch_rate(Simulator))
    loop_speedup = current_best / legacy_best

    cells = _matrix_cells()
    # populate the binary/path caches before timing either side, so the
    # serial run is not charged for one-time generation the forked
    # workers would inherit for free
    for warm in warmup_for(cells):
        warm()
    start = time.perf_counter()
    serial = run_matrix(cells, jobs=1)
    t_serial = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_matrix(cells, jobs=MATRIX_JOBS)
    t_parallel = time.perf_counter() - start

    serial_json = json.dumps([r.to_dict() for r in serial], sort_keys=True)
    parallel_json = json.dumps([r.to_dict() for r in parallel], sort_keys=True)
    assert serial_json == parallel_json, (
        "jobs=1 and jobs=4 merged results diverged"
    )
    matrix_speedup = t_serial / t_parallel

    metrics = {
        "loop_events": LOOP_EVENTS,
        "legacy_events_per_s": round(legacy_best, 1),
        "events_per_s": round(current_best, 1),
        "loop_speedup": round(loop_speedup, 3),
        "matrix_cells": len(cells),
        "matrix_jobs": MATRIX_JOBS,
        "matrix_serial_s": round(t_serial, 3),
        "matrix_cells_per_s": round(len(cells) / t_serial, 3),
        "matrix_parallel_s": round(t_parallel, 3),
        "matrix_speedup": round(matrix_speedup, 3),
        "matrix_identical": serial_json == parallel_json,
        "cpu_count": os.cpu_count(),
    }
    write_bench(REPO_ROOT / "BENCH_sim.json", "sim_throughput", metrics)

    emit("Simulation hot path")
    emit(
        f"event loop: legacy {legacy_best:,.0f} ev/s -> "
        f"current {current_best:,.0f} ev/s ({loop_speedup:.2f}x)"
    )
    emit(f"serial matrix: {len(cells) / t_serial:.2f} cells/s")
    emit(
        f"8-way matrix: jobs=1 {t_serial:.2f}s -> jobs={MATRIX_JOBS} "
        f"{t_parallel:.2f}s ({matrix_speedup:.2f}x on "
        f"{os.cpu_count()} CPUs), byte-identical results"
    )

    assert loop_speedup >= MIN_LOOP_SPEEDUP, (
        f"event loop only {loop_speedup:.2f}x over the pre-PR baseline; "
        f"need >= {MIN_LOOP_SPEEDUP}x"
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
