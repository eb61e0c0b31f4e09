"""OTC — Operation-aware Tracing Controller (paper §3.2).

The controller that makes per-mille overhead possible.  Conventional
controllers toggle the tracer at *every* context switch (O(#sched)
serializing MSR writes).  OTC instead:

1. initializes all traced-core tracers once, while disabled (the legal
   window for configuration) — O(#cores) operations;
2. injects a hook into the ``sched_switch`` tracepoint that enables a
   core's tracer only the **first** time the target is scheduled onto it,
   and *never* touches it at schedule-out — the hardware CR3 filter
   already suppresses packets from other processes;
3. bounds the period with a high-resolution timer whose expiry disables
   every enabled tracer — O(#enabled cores) operations — so a lost stop
   request can never leave tracing running (robustness, §3.2);
4. runs entirely in kernel mode: no user/kernel mode-switch cost is ever
   charged.

The hook also writes the 24-byte five-tuple record per target context
switch that the buffer manager's per-core (rather than per-thread) layout
needs for multi-thread attribution (§3.3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.core.uma import CoresetPlan
from repro.hwtrace.cost import CostLedger
from repro.hwtrace.msr import CtlBits
from repro.hwtrace.topa import ToPAOutput
from repro.hwtrace.tracer import CoreTracer, TraceSegment
from repro.kernel.system import KernelSystem
from repro.kernel.task import Process
from repro.kernel.timer import HighResolutionTimer
from repro.kernel.tracepoints import SCHED_SWITCH, SchedRecordLog, SchedSwitchRecord

_session_ids = itertools.count(1)


@dataclass
class TracingSession:
    """One bounded tracing period on one target."""

    session_id: int
    target: Process
    plan: CoresetPlan
    period_ns: int
    start_ns: int
    #: cores whose tracer the hook has enabled so far
    enabled_cores: Set[int] = field(default_factory=set)
    #: five-tuple context-switch records (§3.3), stored columnar — reads
    #: still see the classic (timestamp, cpu, pid, tid, op) tuples
    sched_records: SchedRecordLog = field(default_factory=SchedRecordLog)
    segments: List[TraceSegment] = field(default_factory=list)
    stopped: bool = False
    stop_reason: str = ""
    stop_ns: int = 0

    @property
    def active(self) -> bool:
        return not self.stopped

    @property
    def bytes_captured(self) -> float:
        return sum(s.bytes_accepted for s in self.segments)


class OperationAwareTracingController:
    """Lightweight tracing control over the per-core tracers."""

    #: the §4 configuration: COFI + cycle-accurate + CR3 filter + ToPA
    TRACE_FLAGS = (
        CtlBits.BRANCH_EN | CtlBits.CYC_EN | CtlBits.TSC_EN
        | CtlBits.CR3_FILTER | CtlBits.TOPA | CtlBits.USER | CtlBits.OS
    )

    def __init__(
        self,
        system: KernelSystem,
        tracers: Dict[int, CoreTracer],
        ledger: CostLedger,
    ):
        self.system = system
        self.tracers = tracers
        self.ledger = ledger
        self._sessions: Dict[int, TracingSession] = {}
        self._hooks: Dict[int, Callable] = {}
        self._timers: Dict[int, HighResolutionTimer] = {}
        self._cores_in_use: Set[int] = set()
        self._on_stop_callbacks: Dict[int, Callable[[TracingSession], None]] = {}
        #: kernel time the controller itself consumed (facility CPU, Fig 17)
        self.control_ns: int = 0
        #: fault-injection tap on the 24-byte sched-switch side channel:
        #: called with (session, five_tuple); returns the record to keep
        #: (possibly delayed) or None to drop it.  None = no fault.
        self.sched_fault: Optional[
            Callable[[TracingSession, tuple], Optional[tuple]]
        ] = None

    # -- session lifecycle -------------------------------------------------------

    def start(
        self,
        target: Process,
        plan: CoresetPlan,
        outputs: Dict[int, ToPAOutput],
        period_ns: int,
        on_stop: Optional[Callable[[TracingSession], None]] = None,
    ) -> TracingSession:
        """Initialize tracers and begin a bounded tracing period."""
        conflict = self._cores_in_use & set(plan.traced_cores)
        if conflict:
            raise RuntimeError(f"cores {sorted(conflict)} already being traced")
        session = TracingSession(
            session_id=next(_session_ids),
            target=target,
            plan=plan,
            period_ns=period_ns,
            start_ns=self.system.sim.now,
        )

        # (1) O(#cores) initialization, with tracing disabled
        for core_id in plan.traced_cores:
            tracer = self.tracers[core_id]
            if tracer.enabled:
                tracer.msr.disable()
            tracer.reset()
            tracer.attach_output(outputs[core_id])
            tracer.msr.configure(self.TRACE_FLAGS, cr3_match=target.cr3)
            self.control_ns += 4 * self.ledger.model.wrmsr_ns
        # tracer state flipped: cached slice_tax answers are stale
        self.system.scheduler.invalidate_hook_cache()

        # (2) hook: enable-on-first-schedule-in, nothing at schedule-out
        hook = self._make_hook(session)
        self.system.tracepoints.attach(SCHED_SWITCH, hook)
        self._hooks[session.session_id] = hook

        # targets already on-CPU when tracing starts won't context-switch
        # until they block; capture them now (still O(#cores))
        for thread in target.threads:
            core_id = thread.current_core
            if core_id is not None and core_id in outputs:
                self._enable_core(session, core_id)

        # (3) HRT bounds the period
        timer = HighResolutionTimer(
            self.system.sim, lambda: self.stop(session, "hrt-expired")
        )
        timer.arm_after(period_ns)
        self.ledger.charge_hrt()
        self.control_ns += self.ledger.model.hrt_ns
        self._timers[session.session_id] = timer

        self._cores_in_use.update(plan.traced_cores)
        self._sessions[session.session_id] = session
        if on_stop is not None:
            self._on_stop_callbacks[session.session_id] = on_stop
        return session

    def stop(self, session: TracingSession, reason: str = "user") -> None:
        """End the period: disable enabled tracers, detach the hook."""
        if session.stopped:
            return
        session.stopped = True
        session.stop_reason = reason
        session.stop_ns = self.system.sim.now

        timer = self._timers.pop(session.session_id, None)
        if timer is not None:
            timer.cancel()
        hook = self._hooks.pop(session.session_id, None)
        if hook is not None:
            self.system.tracepoints.detach(SCHED_SWITCH, hook)

        # O(#enabled cores) disables — prevents infinite tracing
        for core_id in sorted(session.enabled_cores):
            tracer = self.tracers[core_id]
            if tracer.enabled:
                tracer.msr.disable()
                self.control_ns += self.ledger.model.wrmsr_ns
        for core_id in session.plan.traced_cores:
            session.segments.extend(self.tracers[core_id].take_segments())
        session.segments.sort(key=lambda s: s.t_start)
        self.system.scheduler.invalidate_hook_cache()
        self._cores_in_use.difference_update(session.plan.traced_cores)
        self._sessions.pop(session.session_id, None)

        callback = self._on_stop_callbacks.pop(session.session_id, None)
        if callback is not None:
            callback(session)

    # -- the sched_switch hook ------------------------------------------------------

    def _make_hook(self, session: TracingSession) -> Callable[[object], int]:
        target_pid = session.target.pid
        traced = set(session.plan.traced_cores)

        def hook(record: object) -> int:
            assert isinstance(record, SchedSwitchRecord)
            cost = self.ledger.charge_hook()
            nxt = record.next
            prev = record.prev
            involves_target = (nxt is not None and nxt.pid == target_pid) or (
                prev is not None and prev.pid == target_pid
            )
            if involves_target:
                fault = self.sched_fault
                if fault is None:
                    # hot path: write the record's fields straight into
                    # the columnar log — no tuple is ever materialized
                    session.sched_records.append_switch(
                        record.timestamp,
                        record.cpu_id,
                        nxt.pid if nxt is not None else 0,
                        nxt.tid if nxt is not None else 0,
                        nxt is not None,
                    )
                    cost += self.ledger.charge_sidecar()
                else:
                    five_tuple = fault(session, record.five_tuple)
                    if five_tuple is not None:
                        session.sched_records.append(five_tuple)
                        cost += self.ledger.charge_sidecar()
            if (
                nxt is not None
                and nxt.pid == target_pid
                and record.cpu_id in traced
                and record.cpu_id not in session.enabled_cores
            ):
                cost += self._enable_core(session, record.cpu_id)
            # schedule-out: NO operation — the CR3 filter suppresses
            # other processes' packets in hardware
            return cost

        return hook

    def _enable_core(self, session: TracingSession, core_id: int) -> int:
        tracer = self.tracers[core_id]
        if not tracer.enabled:
            tracer.msr.enable()
            self.system.scheduler.invalidate_hook_cache()
        session.enabled_cores.add(core_id)
        return self.ledger.model.wrmsr_ns

    # -- queries ---------------------------------------------------------------------

    @property
    def active_sessions(self) -> List[TracingSession]:
        return list(self._sessions.values())

    def session_msr_operations(self, session: TracingSession) -> int:
        """MSR ops attributable to one session (the O-analysis of §3.2)."""
        init_ops = 4 * len(session.plan.traced_cores)
        enable_ops = len(session.enabled_cores)
        disable_ops = len(session.enabled_cores) if session.stopped else 0
        return init_ops + enable_ops + disable_ops
