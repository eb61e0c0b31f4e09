"""The tracing-scheme contract.

A scheme is installed onto a :class:`~repro.kernel.system.KernelSystem`
with a set of target processes, integrates with the scheduler through the
``SchedulerHooks`` surface (continuous taxes, path requests, slice
delivery), may attach kernel tracepoint hooks, and finally yields
:class:`SchemeArtifacts` — whatever it captured plus its cost ledger and
space accounting.  Experiments always run one scheme per system instance
so measured slowdowns are attributable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.hwtrace.cost import CostLedger, CostModel
from repro.hwtrace.tracer import TraceSegment, VolumeModel
from repro.kernel.cpu import LogicalCore
from repro.kernel.system import KernelSystem
from repro.kernel.task import Process, SliceResult, Thread


@dataclass
class SchemeArtifacts:
    """Everything a scheme produced during a run."""

    scheme: str
    #: hardware-trace segments (empty for non-PT schemes)
    segments: List[TraceSegment] = field(default_factory=list)
    #: sampled function histogram: function_id -> samples (StaSam)
    sample_histogram: Dict[int, float] = field(default_factory=dict)
    #: syscall event log: (timestamp, pid, tid, name) (eBPF)
    syscall_log: List[tuple] = field(default_factory=list)
    #: context-switch five-tuples recorded by EXIST's kernel hooker
    sched_records: List[tuple] = field(default_factory=list)
    #: total trace storage consumed, in bytes
    space_bytes: float = 0.0
    #: control-operation accounting
    ledger: Optional[CostLedger] = None


class TracingScheme(abc.ABC):
    """Base class for all tracing schemes (including EXIST)."""

    name: str = "abstract"

    def __init__(self, cost_model: Optional[CostModel] = None):
        self.cost_model = cost_model or CostModel()
        self.ledger = CostLedger(self.cost_model)
        self.volume = VolumeModel()
        self.system: Optional[KernelSystem] = None
        self.target_pids: Set[int] = set()
        self._installed = False

    # -- lifecycle -----------------------------------------------------------

    def install(self, system: KernelSystem, targets: Sequence[Process]) -> None:
        """Attach to the system, targeting ``targets``."""
        if self._installed:
            raise RuntimeError(f"{self.name} already installed")
        self.system = system
        self.target_pids = {p.pid for p in targets}
        self._targets = list(targets)
        system.scheduler.add_hooks(self)
        self._installed = True
        self._on_install()

    def uninstall(self) -> None:
        """Detach from the system (idempotent)."""
        if not self._installed:
            return
        self._on_uninstall()
        assert self.system is not None
        self.system.scheduler.remove_hooks(self)
        self._installed = False

    def _on_install(self) -> None:
        """Subclass hook: attach tracepoints, install tracers..."""

    def _on_uninstall(self) -> None:
        """Subclass hook: detach everything attached in ``_on_install``."""

    def is_target(self, thread: Thread) -> bool:
        """Whether ``thread`` belongs to a traced process."""
        return thread.pid in self.target_pids

    # -- SchedulerHooks (default: no effect) --------------------------------------

    def slice_tax(self, thread: Thread, core: LogicalCore) -> float:
        """Continuous CPU fraction stolen while ``thread`` runs."""
        return 0.0

    def on_slice(
        self, core: LogicalCore, thread: Thread, start_ns: int, result: SliceResult
    ) -> None:
        """Delivery of each finished slice (no-op by default)."""
        pass

    # -- results --------------------------------------------------------------------

    @abc.abstractmethod
    def artifacts(self) -> SchemeArtifacts:
        """Collect what the scheme captured (call after the run)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(installed={self._installed})"
