"""Parallel run harness: process pools and experiment fan-out.

Experiments and cluster campaigns are embarrassingly parallel across
(scenario, scheme, seed) cells and replicas — each cell builds a fresh
simulated node and shares nothing with its siblings.  :class:`RunPool`
provides fork-based process parallelism with deterministic fallback to
in-process execution, and :func:`run_matrix` fans a grid of cells out
over one, merging results in cell order regardless of completion order.
"""

from repro.parallel.matrix import CellResult, MatrixCell, grid, run_cell, run_matrix
from repro.parallel.pool import RunPool
from repro.parallel.workers import (
    WorkerPool,
    process_pool,
    process_pool_stats,
    shutdown_process_pool,
)

__all__ = [
    "RunPool",
    "WorkerPool",
    "process_pool",
    "process_pool_stats",
    "shutdown_process_pool",
    "MatrixCell",
    "CellResult",
    "grid",
    "run_cell",
    "run_matrix",
]
