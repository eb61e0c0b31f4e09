"""Custom Resource Definitions for the tracing control plane (paper §4).

User requests and tracing configurations are encapsulated as CRDs in the
(simulated) Kubernetes API server; a controller per CRD runs the
reconciliation loop.  :class:`TraceTask` is the central resource: its
spec is what a developer submits through the unified interface, its
status is what the controller maintains.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import TraceReason
from repro.faults.report import DegradationReport

_task_counter = itertools.count(1)


class TaskPhase(enum.Enum):
    """TraceTask reconciliation phases."""

    PENDING = "Pending"
    SCHEDULED = "Scheduled"
    TRACING = "Tracing"
    DECODING = "Decoding"
    COMPLETE = "Complete"
    #: completed with loss: partial coverage and/or dropped data, with a
    #: DegradationReport attached — never a silently-wrong merge
    DEGRADED = "Degraded"
    FAILED = "Failed"


@dataclass
class TraceTaskSpec:
    """What the user asks for (the CRD ``spec`` block)."""

    app: str
    reason: TraceReason = TraceReason.USER
    #: explicit period override in ns (None = RCO's temporal decider)
    period_ns: Optional[int] = None
    #: explicit repetition cap (None = RCO's spatial sampler)
    max_repetitions: Optional[int] = None
    requester: str = "oncall"

@dataclass
class TraceTaskStatus:
    """What the controller maintains (the CRD ``status`` block)."""

    phase: TaskPhase = TaskPhase.PENDING
    selected_pods: List[str] = field(default_factory=list)
    period_ns: int = 0
    sessions_completed: int = 0
    bytes_captured: float = 0.0
    #: object-store keys of uploaded raw traces
    trace_keys: List[str] = field(default_factory=list)
    message: str = ""
    #: spatial coverage the controller asked for vs delivered (§3.4)
    coverage_requested: int = 0
    coverage_achieved: int = 0
    #: loss accounting attached by the controller (always set after a
    #: reconcile reaches the tracing stage, even fault-free)
    degradation: Optional[DegradationReport] = None
    #: streaming-ingest accounting (set only by ``--streaming``
    #: reconciles; virtual-time figures, identical across jobs widths)
    stream: Optional[Dict] = None


@dataclass
class TraceTask:
    """The full CRD object."""

    spec: TraceTaskSpec
    name: str = field(default_factory=lambda: f"trace-task-{next(_task_counter):04d}")
    status: TraceTaskStatus = field(default_factory=TraceTaskStatus)

    @property
    def complete(self) -> bool:
        return self.status.phase is TaskPhase.COMPLETE

    @property
    def finished(self) -> bool:
        """Reconciled to a usable (possibly degraded) result."""
        return self.status.phase in (TaskPhase.COMPLETE, TaskPhase.DEGRADED)
