"""Processes and threads.

A :class:`Thread` owns an *execution engine* (built by
:mod:`repro.program.execution`) that models the program's forward progress:
given a CPU-time budget and an effective speed factor, the engine consumes
time, completes work, emits syscalls, and (when a hardware tracer is
listening) produces the symbolic branch-path chunk executed during the
slice.  The kernel side only depends on the small :class:`SliceResult`
contract, keeping the scheduler independent of the program model.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence, Tuple


class ThreadState(enum.Enum):
    """Lifecycle states, mirroring the usual kernel task states."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


#: outcome tags of one execution slice
SLICE_TIMESLICE = "timeslice"
SLICE_SYSCALL = "syscall"
SLICE_DONE = "done"


@dataclass(slots=True)
class SliceResult:
    """What happened while a thread ran on a core for one slice.

    ``ran_ns`` is CPU time consumed (wall time on the core).  ``work_done``
    is abstract program work (calibrated as instructions) completed, which
    can be less than ``ran_ns * nominal_rate`` under interference or
    tracing taxes.  ``branches`` is the *real-scale* number of retired
    branches in the slice, used for trace-volume accounting.
    ``event_range`` is the half-open range of symbolic path-event indices
    the slice executed (see :class:`repro.program.path.PathModel`); it is
    populated regardless of tracing so ground truth always exists.
    """

    ran_ns: int
    work_done: float
    branches: int
    outcome: str
    syscall: Optional[str] = None
    event_range: Optional[Tuple[int, int]] = None


class ExecutionEngine(Protocol):
    """The program-side contract the scheduler drives.

    Implemented by :class:`repro.program.execution.ProgramExecution`.
    """

    def advance(self, budget_ns: int, work_rate: float) -> SliceResult:
        """Run for at most ``budget_ns`` of CPU time at ``work_rate``."""
        ...  # pragma: no cover - protocol

    @property
    def finished(self) -> bool:  # pragma: no cover - protocol
        ...


_pid_counter = itertools.count(1000)
_tid_counter = itertools.count(5000)


@dataclass
class Process:
    """A traced or co-located process (the pod's unit of execution).

    ``cr3`` stands in for the page-table base the hardware tracer's CR3
    filter matches on; it only needs to be unique per process.
    """

    name: str
    binary: object = None
    llc_pressure: float = 0.3
    pid: int = field(default_factory=lambda: next(_pid_counter))
    cr3: int = 0
    threads: List["Thread"] = field(default_factory=list)
    #: pod this process belongs to (set by the cluster layer, optional)
    pod: Optional[object] = None

    def __post_init__(self) -> None:
        if self.cr3 == 0:
            self.cr3 = 0x1000_0000 + self.pid * 0x1000

    def new_thread(
        self,
        engine: ExecutionEngine,
        cpuset: Optional[Sequence[int]] = None,
        weight: int = 1024,
        tid: Optional[int] = None,
    ) -> "Thread":
        """Create a thread of this process with the given engine.

        ``tid`` pins the thread id instead of drawing the global counter —
        used when a cluster node is rebuilt from a placement spec in a
        pool worker, so the rebuilt threads (and hence trace bytes) match
        the originals byte for byte.
        """
        thread = Thread(
            process=self,
            engine=engine,
            cpuset=tuple(cpuset) if cpuset is not None else None,
            weight=weight,
            name=f"{self.name}/{len(self.threads)}",
            tid=tid,
        )
        self.threads.append(thread)
        return thread

class Thread:
    """A schedulable entity with CFS-style accounting."""

    def __init__(
        self,
        process: Process,
        engine: ExecutionEngine,
        cpuset: Optional[Tuple[int, ...]] = None,
        weight: int = 1024,
        name: str = "",
        tid: Optional[int] = None,
    ):
        self.tid: int = tid if tid is not None else next(_tid_counter)
        self.process = process
        self.engine = engine
        #: allowed logical core ids (None = all cores)
        self.cpuset = cpuset
        self.weight = weight
        self.name = name or f"{process.name}/t{self.tid}"
        self.state = ThreadState.READY
        self.vruntime: float = 0.0
        self.current_core: Optional[int] = None
        self.last_core: Optional[int] = None
        #: virtual time when the thread finished (None while alive)
        self.done_at: Optional[int] = None
        #: context-switch cost the next slice starts late by (set by the
        #: switch that brings the thread on-core, cleared by the slice)
        self.switch_penalty_ns: int = 0

        # -- accounting -----------------------------------------------------
        self.cpu_ns: int = 0
        self.kernel_ns: int = 0
        self.work_done: float = 0.0
        self.branches_retired: int = 0
        self.syscall_count: int = 0
        self.context_switches_in: int = 0
        self.migrations: int = 0
        self.wakeups: int = 0
        #: ns of overhead charged to this thread by tracing facilities
        self.tracing_overhead_ns: int = 0

    def allowed(self, core_id: int) -> bool:
        """Whether this thread may run on ``core_id``."""
        return self.cpuset is None or core_id in self.cpuset

    @property
    def pid(self) -> int:
        return self.process.pid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Thread({self.name}, tid={self.tid}, state={self.state.value})"
