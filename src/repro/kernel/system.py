"""A bootable simulated node: clock + CPUs + scheduler + tracepoints.

:class:`KernelSystem` wires the kernel substrate together and provides
the measurement utilities every experiment uses: run-to-completion for
compute jobs (execution-time slowdown), windowed measurement for server
loops (throughput, CPI, utilization), and counter snapshots for the
software/hardware event analyses of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.kernel.cpu import CpuTopology, InterferenceModel
from repro.kernel.events import Simulator
from repro.kernel.scheduler import Scheduler, SchedulerConfig
from repro.kernel.syscalls import SyscallTable
from repro.kernel.task import Process, Thread, ThreadState
from repro.kernel.tracepoints import TracepointRegistry
from repro.util.rng import RngFactory
from repro.util.units import MIB, SEC


@dataclass
class SystemConfig:
    """Node hardware shape and base parameters."""

    sockets: int = 1
    cores_per_socket: int = 4
    threads_per_core: int = 2
    memory_mb: int = 64 * 1024
    cpu_freq_ghz: float = 2.9
    seed: int = 42
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    interference: InterferenceModel = field(default_factory=InterferenceModel)

    @classmethod
    def small_node(cls, logical_cores: int = 8, seed: int = 42) -> "SystemConfig":
        """A reduced node for fast experiments (default 4 phys x 2 HT)."""
        if logical_cores % 2:
            raise ValueError("logical core count must be even (HT pairs)")
        return cls(
            sockets=1, cores_per_socket=logical_cores // 2,
            threads_per_core=2, memory_mb=64 * 1024, seed=seed,
        )


@dataclass
class CounterSnapshot:
    """Cumulative node counters at one instant (Figure 4's raw material)."""

    time_ns: int
    context_switches: int
    migrations: int
    kernel_ns: int
    busy_ns: int
    syscalls: int
    work_done: float
    requests: Dict[int, int]  # pid -> requests_completed

    def delta(self, later: "CounterSnapshot") -> "CounterDelta":
        """Counter differences between this snapshot and ``later``."""
        return CounterDelta(
            window_ns=later.time_ns - self.time_ns,
            context_switches=later.context_switches - self.context_switches,
            migrations=later.migrations - self.migrations,
            kernel_ns=later.kernel_ns - self.kernel_ns,
            busy_ns=later.busy_ns - self.busy_ns,
            syscalls=later.syscalls - self.syscalls,
            work_done=later.work_done - self.work_done,
            requests={
                pid: later.requests.get(pid, 0) - count
                for pid, count in self.requests.items()
            },
        )


@dataclass
class CounterDelta:
    """Counter differences over a measurement window."""

    window_ns: int
    context_switches: int
    migrations: int
    kernel_ns: int
    busy_ns: int
    syscalls: int
    work_done: float
    requests: Dict[int, int]

    @property
    def throughput_rps(self) -> float:
        """Total requests per second across all server processes."""
        if self.window_ns <= 0:
            return 0.0
        return sum(self.requests.values()) / (self.window_ns / SEC)


@dataclass
class RunSummary:
    """Per-process results of a run."""

    completion_ns: Dict[str, int]
    cpu_ns: Dict[str, int]
    work_done: Dict[str, float]
    cpi: Dict[str, float]
    utilization: float


class KernelSystem:
    """One simulated node, ready to spawn workloads onto."""

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config or SystemConfig()
        self.sim = Simulator()
        self.rng = RngFactory(self.config.seed)
        self.topology = CpuTopology(
            sockets=self.config.sockets,
            cores_per_socket=self.config.cores_per_socket,
            threads_per_core=self.config.threads_per_core,
            interference=self.config.interference,
        )
        self.tracepoints = TracepointRegistry()
        self.syscalls = SyscallTable()
        self.scheduler = Scheduler(
            sim=self.sim,
            topology=self.topology,
            tracepoints=self.tracepoints,
            syscalls=self.syscalls,
            rng=self.rng,
            config=self.config.scheduler,
        )
        self.processes: List[Process] = []
        #: memory occupied by tracing facilities (bytes), for Fig 11/17
        self.facility_memory_bytes: int = 0

    # -- process management ---------------------------------------------------

    def register_process(self, process: Process) -> None:
        """Track a spawned process for measurement and decoding."""
        self.processes.append(process)

    def process_by_name(self, name: str) -> Process:
        """Look up a registered process by name."""
        for process in self.processes:
            if process.name == name:
                return process
        raise KeyError(f"no process named {name!r}")

    # -- execution ---------------------------------------------------------------

    def run_for(self, duration_ns: int) -> None:
        """Advance virtual time by ``duration_ns``."""
        self.sim.run_until(self.sim.now + duration_ns)

    def run_until_done(
        self, processes: Iterable[Process], deadline_ns: int
    ) -> bool:
        """Run until all threads of ``processes`` finish (or deadline).

        Returns True if everything completed before the deadline.  The
        clock stops at the event in which the last target thread exits;
        on a miss it stays at the last event fired, short of the deadline.
        Targets are re-checked only when the first still-pending one
        exits, never per event.
        """
        targets = list(processes)

        def first_pending() -> Optional[Thread]:
            for process in targets:
                for thread in process.threads:
                    if thread.state is not ThreadState.DONE:
                        return thread
            return None

        pending = first_pending()
        if pending is None:
            return True

        def on_exit(thread: Thread) -> None:
            nonlocal pending
            if thread is pending:
                pending = first_pending()
                if pending is None:
                    self.sim.stop()

        self.scheduler.on_thread_exit = on_exit
        try:
            self.sim.run_until_stopped(deadline_ns)
        finally:
            self.scheduler.on_thread_exit = None
        return pending is None

    # -- measurement ---------------------------------------------------------------

    def snapshot(self) -> CounterSnapshot:
        """Capture cumulative counters now."""
        return CounterSnapshot(
            time_ns=self.sim.now,
            context_switches=self.scheduler.total_context_switches,
            migrations=self.scheduler.total_migrations,
            kernel_ns=sum(c.kernel_ns for c in self.topology.cores),
            busy_ns=sum(c.busy_ns for c in self.topology.cores),
            syscalls=sum(
                t.syscall_count for p in self.processes for t in p.threads
            ),
            work_done=sum(
                t.work_done for p in self.processes for t in p.threads
            ),
            requests={
                p.pid: sum(
                    getattr(t.engine, "requests_completed", 0) for t in p.threads
                )
                for p in self.processes
            },
        )

    def measure_window(self, window_ns: int, warmup_ns: int = 0) -> CounterDelta:
        """Run a warmup then a measurement window; return counter deltas."""
        if warmup_ns:
            self.run_for(warmup_ns)
        before = self.snapshot()
        self.run_for(window_ns)
        return before.delta(self.snapshot())

    def process_requests(self, process: Process) -> int:
        """Requests completed so far by a server-loop process."""
        return sum(
            getattr(t.engine, "requests_completed", 0) for t in process.threads
        )

    def process_cpi(self, process: Process) -> float:
        """Cycles per instruction over the process lifetime so far."""
        cpu_ns = sum(t.cpu_ns + t.kernel_ns for t in process.threads)
        work = sum(t.work_done for t in process.threads)
        if work <= 0:
            return 0.0
        cycles = cpu_ns * self.config.cpu_freq_ghz
        return cycles / work

    def summary(self) -> RunSummary:
        """Completion-oriented summary for compute runs."""
        completion: Dict[str, int] = {}
        cpu: Dict[str, int] = {}
        work: Dict[str, float] = {}
        cpi: Dict[str, float] = {}
        for process in self.processes:
            done_times = [
                getattr(t, "done_at", None)
                for t in process.threads
            ]
            if all(d is not None for d in done_times) and done_times:
                completion[process.name] = max(done_times)  # type: ignore[type-var]
            cpu[process.name] = sum(t.cpu_ns for t in process.threads)
            work[process.name] = sum(t.work_done for t in process.threads)
            cpi[process.name] = self.process_cpi(process)
        return RunSummary(
            completion_ns=completion,
            cpu_ns=cpu,
            work_done=work,
            cpi=cpi,
            utilization=self.topology.utilization(self.sim.now)
            if self.sim.now
            else 0.0,
        )

    # -- memory ledger (Fig 11 / facility budgeting) -----------------------------

    @property
    def memory_bytes(self) -> int:
        return self.config.memory_mb * MIB

    def reserve_facility_memory(self, n_bytes: int) -> None:
        """Account tracing-facility buffer memory against the node."""
        if self.facility_memory_bytes + n_bytes > self.memory_bytes:
            raise MemoryError(
                f"facility reservation of {n_bytes} bytes exceeds node memory"
            )
        self.facility_memory_bytes += n_bytes

    def release_facility_memory(self, n_bytes: int) -> None:
        """Return facility buffer memory to the node."""
        self.facility_memory_bytes = max(0, self.facility_memory_bytes - n_bytes)
