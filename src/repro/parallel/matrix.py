"""(scenario × scheme × seed) grid fan-out with deterministic merge.

A :class:`MatrixCell` is a self-contained, picklable description of one
simulation run; :func:`run_cell` executes it on a fresh node and reduces
the outcome to a primitive-only :class:`CellResult` (simulators, kernel
systems, and execution engines never cross process boundaries).
:func:`run_matrix` fans a grid out over a :class:`~repro.parallel.pool.RunPool`
and returns results in cell order, so the merged output is byte-identical
whether it ran on one worker or many.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments import scenarios
from repro.parallel.pool import RunPool
from repro.program.workloads import get_workload, variant

#: override pairs canonical form: sorted tuple of (field, value)
Overrides = Tuple[Tuple[str, object], ...]


@dataclass(frozen=True)
class MatrixCell:
    """One (workload, scheme, seed) point of an experiment grid."""

    workload: str
    scheme: str
    seed: int = 7
    cpuset: Optional[Tuple[int, ...]] = None
    window_s: Optional[float] = None
    warmup_s: float = 0.1
    #: WorkloadProfile field overrides applied via workloads.variant()
    overrides: Overrides = ()


@dataclass(frozen=True)
class CellResult:
    """Primitive-only outcome of one cell (safe to pickle and merge)."""

    workload: str
    scheme: str
    seed: int
    completion_ns: Optional[int]
    throughput_rps: Optional[float]
    wrmsr_ops: int
    space_bytes: float
    sched_records: int
    events_fired: int

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form, the canonical shape for merge comparisons."""
        return asdict(self)

    @property
    def metric(self) -> float:
        """Completion-rate or throughput, whichever the workload has."""
        if self.throughput_rps is not None:
            return self.throughput_rps
        assert self.completion_ns is not None
        return 1e9 / self.completion_ns


def run_cell(cell: MatrixCell) -> CellResult:
    """Execute one cell on a fresh simulated node.

    This is the unit of work dispatched to pool workers; everything it
    needs arrives in the cell, everything it returns is primitive.
    """
    profile = get_workload(cell.workload)
    if cell.overrides:
        profile = variant(profile, **dict(cell.overrides))
    run = scenarios.run_traced_execution(
        profile,
        cell.scheme,
        cpuset=list(cell.cpuset) if cell.cpuset is not None else None,
        seed=cell.seed,
        window_s=cell.window_s,
        warmup_s=cell.warmup_s,
    )
    ledger = run.artifacts.ledger
    return CellResult(
        workload=cell.workload,
        scheme=run.scheme,
        seed=cell.seed,
        completion_ns=run.completion_ns,
        throughput_rps=run.throughput_rps,
        wrmsr_ops=ledger.count("wrmsr") if ledger is not None else 0,
        space_bytes=float(run.artifacts.space_bytes),
        sched_records=len(run.artifacts.sched_records),
        events_fired=run.system.sim.events_fired,
    )


def grid(
    workloads: Sequence[str],
    schemes: Sequence[str],
    seeds: Sequence[int] = (7,),
    **common,
) -> List[MatrixCell]:
    """Build the (workload × scheme × seed) cell grid, row-major."""
    return [
        MatrixCell(workload=w, scheme=s, seed=seed, **common)
        for w in workloads
        for s in schemes
        for seed in seeds
    ]


def warmup_for(cells: Iterable[MatrixCell]) -> List:
    """Parent-side warmup callables for a grid: materialize each distinct
    workload's generated binary and path model once, pre-fork, so workers
    inherit them instead of regenerating per cell."""
    distinct = {}
    for cell in cells:
        distinct.setdefault((cell.workload, cell.overrides), None)

    def make(workload: str, overrides: Overrides):
        def warm() -> None:
            profile = get_workload(workload)
            if overrides:
                profile = variant(profile, **dict(overrides))
            profile.path_model()  # also generates the binary

        return warm

    return [make(w, o) for (w, o) in distinct]


def run_matrix(
    cells: Sequence[MatrixCell],
    pool: Optional[RunPool] = None,
    jobs: Optional[int] = None,
) -> List[CellResult]:
    """Run every cell, in parallel when possible, merging in cell order.

    Pass an existing ``pool`` to amortize worker startup across several
    grids, or ``jobs`` to let the function manage a pool for this call
    (``jobs=None``/``1`` runs in-process).  The returned list is indexed
    like ``cells`` regardless of completion order.
    """
    cells = list(cells)
    if pool is not None:
        return pool.map(run_cell, cells)
    with RunPool(max_workers=jobs or 1, warmup=warmup_for(cells)) as owned:
        return owned.map(run_cell, cells)
