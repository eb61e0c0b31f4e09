"""The EXIST node facility: kernel module + per-node daemon.

Owns the per-core tracers (installed once, the paper's ``insmod`` step in
Figure 17), wires UMA's buffer plans into OTC's sessions, archives
completed sessions, and accounts its own CPU/memory footprint so
deployment-overhead experiments can measure the facility itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.config import ExistConfig, TracingRequest
from repro.core.otc import OperationAwareTracingController, TracingSession
from repro.core.rco import TemporalDecider
from repro.core.uma import CoresetPlan, UsageAwareMemoryAllocator
from repro.hwtrace.cost import CostLedger, CostModel
from repro.hwtrace.etm import EtmCoreTracer, EtmVolumeModel
from repro.hwtrace.riscv import RiscvCoreTracer, RiscvVolumeModel
from repro.hwtrace.tracer import CoreTracer, VolumeModel
from repro.kernel.cpu import LogicalCore
from repro.kernel.system import KernelSystem
from repro.kernel.task import SliceResult, Thread
from repro.util.units import MSEC, SEC


class _FacilityHooks:
    """Scheduler integration of the node facility.

    Delivers execution slices to the per-core tracers (which CR3-filter
    and buffer them in hardware) and charges the PT packet-generation tax
    while a tracer is enabled for the running thread — the only
    continuous cost EXIST's design leaves standing.
    """

    def __init__(self, facility: "ExistFacility"):
        self._facility = facility
        self._tax_cache: Dict[int, float] = {}

    def _pt_tax(self, thread: Thread) -> float:
        tax = self._tax_cache.get(thread.tid)
        if tax is None:
            engine = thread.engine
            bpi = getattr(engine, "branch_per_instr", 0.13)
            ips = getattr(engine, "nominal_ips", 3.0)
            tax = self._facility.cost_model.pt_tax(bpi, ips)
            self._tax_cache[thread.tid] = tax
        return tax

    def slice_tax(self, thread: Thread, core: LogicalCore) -> float:
        tracer = self._facility.tracers.get(core.core_id)
        if (
            tracer is None
            or not tracer.enabled
            or tracer.msr.cr3_match not in (0, thread.process.cr3)
        ):
            return 0.0
        return self._pt_tax(thread)

    def on_slice(
        self, core: LogicalCore, thread: Thread, start_ns: int, result: SliceResult
    ) -> None:
        tracer = self._facility.tracers.get(core.core_id)
        if tracer is None or not tracer.enabled:
            return
        if result.event_range is None:
            return
        path = getattr(thread.engine, "path_model", None)
        if path is None:
            return
        e0, e1 = result.event_range
        tracer.observe_slice(
            thread.pid, thread.tid, thread.process.cr3,
            start_ns, self._facility.system.sim.now,
            e0, e1, result.branches, path,
        )


@dataclass
class CompletedSession:
    """Archive entry for one finished tracing period."""

    session: TracingSession
    plan: CoresetPlan
    bytes_captured: float
    truncated_segments: int

    @property
    def target_name(self) -> str:
        return self.session.target.name


class ExistFacility:
    """Node-level EXIST daemon."""

    #: module-load CPU burst (Fig 17 shows ~0.05 cores during startup)
    INSMOD_CPU_NS = int(0.05 * 0.5 * SEC)  # 0.05 cores for ~0.5 s

    #: available hardware-tracing backends (§6.2: IPT today, ETM for the
    #: ARM fleet; the facility design is backend-agnostic)
    BACKENDS = {
        "ipt": (CoreTracer, VolumeModel),
        "etm": (EtmCoreTracer, EtmVolumeModel),
        "riscv": (RiscvCoreTracer, RiscvVolumeModel),
    }

    def __init__(
        self,
        system: KernelSystem,
        config: Optional[ExistConfig] = None,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        backend: str = "ipt",
    ):
        if backend not in self.BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; known: {sorted(self.BACKENDS)}"
            )
        self.backend = backend
        tracer_cls, volume_cls = self.BACKENDS[backend]
        self._tracer_cls = tracer_cls
        self.system = system
        self.config = config or ExistConfig()
        self.cost_model = cost_model or CostModel()
        self.ledger = CostLedger(self.cost_model)
        self.volume = volume_cls()
        self.uma = UsageAwareMemoryAllocator(self.config, seed=seed)
        self.temporal = TemporalDecider(self.config)
        self.tracers: Dict[int, CoreTracer] = {}
        self.otc: Optional[OperationAwareTracingController] = None
        self.completed: List[CompletedSession] = []
        self._active_plans: Dict[int, CoresetPlan] = {}
        self._hooks: Optional[_FacilityHooks] = None
        self.installed = False
        self.startup_cpu_ns = 0

    # -- lifecycle -------------------------------------------------------------

    def install(self) -> None:
        """Load the kernel module: one tracer per logical core."""
        if self.installed:
            raise RuntimeError("facility already installed")
        for core in self.system.topology.cores:
            tracer = self._tracer_cls(core.core_id, self.ledger, self.volume)
            self.tracers[core.core_id] = tracer
            core.tracer = tracer
        self.otc = OperationAwareTracingController(
            self.system, self.tracers, self.ledger
        )
        self._hooks = _FacilityHooks(self)
        self.system.scheduler.add_hooks(self._hooks)
        self.startup_cpu_ns = self.INSMOD_CPU_NS
        self.installed = True

    def uninstall(self) -> None:
        """Stop active sessions and unload the tracers."""
        if not self.installed:
            return
        assert self.otc is not None
        for session in list(self.otc.active_sessions):
            self.otc.stop(session, "facility-uninstall")
        self.system.scheduler.remove_hooks(self._hooks)
        for core in self.system.topology.cores:
            if core.core_id in self.tracers:
                core.tracer = None
        self.tracers.clear()
        self.installed = False

    # -- request handling -----------------------------------------------------------

    def begin_tracing(
        self,
        request: TracingRequest,
        on_stop: Optional[Callable[[CompletedSession], None]] = None,
    ) -> TracingSession:
        """Start one bounded tracing session from a request."""
        if not self.installed or self.otc is None:
            raise RuntimeError("facility not installed")
        target = self.system.process_by_name(request.target)
        profile = getattr(target, "profile", None)
        if profile is not None:
            default_period = self.temporal.period_for(profile)
        else:
            default_period = 500 * MSEC
        period = request.resolved_period(self.config, default_period)

        plan, outputs = self.uma.plan_and_allocate(self.system, target, request)

        def _archive(session: TracingSession) -> None:
            completed = CompletedSession(
                session=session,
                plan=plan,
                bytes_captured=session.bytes_captured,
                truncated_segments=sum(1 for s in session.segments if s.truncated),
            )
            self.completed.append(completed)
            self.uma.release(self.system, plan)
            self._active_plans.pop(session.session_id, None)
            if on_stop is not None:
                on_stop(completed)

        session = self.otc.start(target, plan, outputs, period, on_stop=_archive)
        self._active_plans[session.session_id] = plan
        return session

    def stop_tracing(self, session: TracingSession, reason: str = "user") -> None:
        """End a session early (before its HRT expiry)."""
        assert self.otc is not None
        self.otc.stop(session, reason)

    # -- accounting (Fig 17) -----------------------------------------------------------

    @property
    def control_cpu_ns(self) -> int:
        """CPU the facility spent on tracing control (excl. hooks charged
        to application threads)."""
        return (self.otc.control_ns if self.otc is not None else 0)
