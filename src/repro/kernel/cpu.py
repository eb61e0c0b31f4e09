"""CPU topology and resource-interference model.

Models the machines from the paper's evaluation (dual-socket Xeons with
hyperthreading and a per-socket shared LLC).  The interference model
captures the three sharing effects the paper isolates in Figure 5:

* **HT sharing** — two busy hyperthreads of one physical core each run
  slower than alone (pipeline contention);
* **LLC sharing** — busy cores on the same socket depress each other's
  effective instruction rate in proportion to their cache pressure;
* **core (time) sharing** — handled naturally by the scheduler
  multiplexing threads, not by this module.

The model yields a per-slice *speed factor* in (0, 1] that scales how much
program work a thread completes per nanosecond of CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.task import Thread


@dataclass
class InterferenceModel:
    """Coefficients for shared-resource slowdowns.

    Defaults are calibrated so that the Figure 5 experiment reproduces the
    paper's finding: no single resource dominates; HT, core, and LLC
    sharing each contribute only ~1-1.5% of extra *tracing* overhead while
    the co-location itself costs roughly 10-15% throughput.
    """

    #: multiplicative slowdown when the HT sibling is busy
    ht_sibling_penalty: float = 0.82
    #: per-competitor LLC slowdown coefficient (scaled by workload pressure)
    llc_contention_coeff: float = 0.035
    #: floor so pathological over-subscription cannot stall progress
    min_speed_factor: float = 0.25


class LogicalCore:
    """One logical CPU (hardware thread).

    Tracks the currently running thread, cumulative busy time, and the
    per-core hardware tracer slot (installed by the tracing facility).
    """

    def __init__(self, core_id: int, physical_id: int, socket_id: int):
        self.core_id = core_id
        self.physical_id = physical_id
        self.socket_id = socket_id
        self.sibling: Optional[LogicalCore] = None
        self.running: Optional["Thread"] = None
        #: cumulative ns this core spent running any thread
        self.busy_ns: int = 0
        #: cumulative ns spent in kernel mode (context switches, probes...)
        self.kernel_ns: int = 0
        #: hardware tracer attached to this core (None until installed)
        self.tracer: Optional[object] = None
        #: context switches observed on this core
        self.context_switches: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        run = self.running.tid if self.running is not None else "-"
        return f"LogicalCore(id={self.core_id}, phys={self.physical_id}, run={run})"


class CpuTopology:
    """A node's logical cores grouped into physical cores and sockets.

    ``CpuTopology(sockets=2, cores_per_socket=32, threads_per_core=2)``
    models the paper's IceLake evaluation node (128 logical CPUs).
    Logical core ids are assigned socket-major with HT siblings offset by
    ``sockets * cores_per_socket``, matching Linux's usual enumeration.
    """

    def __init__(
        self,
        sockets: int = 1,
        cores_per_socket: int = 4,
        threads_per_core: int = 2,
        interference: Optional[InterferenceModel] = None,
    ):
        if sockets < 1 or cores_per_socket < 1 or threads_per_core not in (1, 2):
            raise ValueError("invalid topology shape")
        self.sockets = sockets
        self.cores_per_socket = cores_per_socket
        self.threads_per_core = threads_per_core
        self.interference = interference or InterferenceModel()

        n_phys = sockets * cores_per_socket
        self.cores: List[LogicalCore] = []
        for ht in range(threads_per_core):
            for socket in range(sockets):
                for phys_in_socket in range(cores_per_socket):
                    physical_id = socket * cores_per_socket + phys_in_socket
                    core_id = ht * n_phys + physical_id
                    self.cores.append(LogicalCore(core_id, physical_id, socket))
        self.cores.sort(key=lambda c: c.core_id)
        if threads_per_core == 2:
            for core in self.cores[:n_phys]:
                sibling = self.cores[core.core_id + n_phys]
                core.sibling = sibling
                sibling.sibling = core
        self._socket_members: Dict[int, List[LogicalCore]] = {}
        for core in self.cores:
            self._socket_members.setdefault(core.socket_id, []).append(core)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cores)

    def core(self, core_id: int) -> LogicalCore:
        """The logical core with id ``core_id``."""
        return self.cores[core_id]

    def speed_factor(self, core: LogicalCore, llc_pressure: float) -> float:
        """Effective execution speed of the thread about to run on ``core``.

        A busy HT sibling multiplies it by ``ht_sibling_penalty``; each
        *other* busy logical core of the same LLC domain depresses it in
        proportion to ``llc_pressure`` in [0, 1], how cache-sensitive the
        running workload is.  One frame, with the busy count as a plain
        loop: this runs once per slice.
        """
        model = self.interference
        factor = 1.0
        sibling = core.sibling
        if sibling is not None and sibling.running is not None:
            factor *= model.ht_sibling_penalty
        if llc_pressure > 0.0:
            competitors = 0
            for other in self._socket_members[core.socket_id]:
                if other.running is not None and other is not core:
                    competitors += 1
            if competitors:
                factor /= 1.0 + (
                    model.llc_contention_coeff * llc_pressure * competitors
                )
        return max(factor, model.min_speed_factor)

    def utilization(self, elapsed_ns: int) -> float:
        """Average core utilization over ``elapsed_ns`` (0..1)."""
        if elapsed_ns <= 0:
            return 0.0
        return sum(c.busy_ns for c in self.cores) / (elapsed_ns * len(self.cores))
