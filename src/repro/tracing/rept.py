"""REPT-style abstraction: tiny per-thread rings for reverse debugging.

The first column of the paper's Figure 6 design space: REPT [OSDI'18]
keeps a small circular buffer (~64 KB) *per thread*, recording only the
microseconds of execution just before a failure.  Because the buffer is
per thread, the controller must reprogram the output base at **every
context switch** (configuration requires tracing disabled → a
disable/reconfigure/enable WRMSR triplet), and the tiny ring constantly
overwrites itself — minimal space, at the price of time overhead and
microsecond-scale coverage.

Implemented faithfully against the same substrate as EXIST so the
Figure 6 trade-off comparison is apples-to-apples.
"""

from __future__ import annotations

from typing import Dict

from repro.hwtrace.topa import OutputMode, ToPAOutput
from repro.hwtrace.tracer import CoreTracer
from repro.kernel.cpu import LogicalCore
from repro.kernel.task import SliceResult, Thread
from repro.kernel.tracepoints import SCHED_SWITCH, SchedSwitchRecord
from repro.tracing.base import SchemeArtifacts, TracingScheme
from repro.util.units import KIB


class ReptScheme(TracingScheme):
    """Per-thread 64 KB ring tracing (reverse-debugging abstraction)."""

    name = "REPT"

    def __init__(self, ring_bytes: int = 64 * KIB, **kwargs):
        super().__init__(**kwargs)
        self.ring_bytes = ring_bytes
        self._tracers: Dict[int, CoreTracer] = {}
        #: per-thread ring buffers (the defining design choice)
        self._rings: Dict[int, ToPAOutput] = {}
        self._tax_cache: Dict[int, float] = {}

    def _on_install(self) -> None:
        assert self.system is not None
        from repro.hwtrace.msr import CtlBits

        flags = CtlBits.BRANCH_EN | CtlBits.TSC_EN | CtlBits.TOPA
        for core in self.system.topology.cores:
            tracer = CoreTracer(core.core_id, self.ledger, self.volume)
            # placeholder output; swapped per thread at each switch
            tracer.attach_output(
                ToPAOutput.single_region(self.ring_bytes, OutputMode.RING)
            )
            tracer.msr.configure(flags)
            self._tracers[core.core_id] = tracer
        self.system.tracepoints.attach(SCHED_SWITCH, self._switch_hook)

    def _on_uninstall(self) -> None:
        assert self.system is not None
        self.system.tracepoints.detach(SCHED_SWITCH, self._switch_hook)
        for tracer in self._tracers.values():
            if tracer.enabled:
                tracer.msr.disable()

    def _ring_for(self, thread: Thread) -> ToPAOutput:
        ring = self._rings.get(thread.tid)
        if ring is None:
            ring = ToPAOutput.single_region(self.ring_bytes, OutputMode.RING)
            self._rings[thread.tid] = ring
        return ring

    def _switch_hook(self, record: object) -> int:
        """Per-thread buffers force the full disable/reconfigure/enable
        dance at every switch involving a target thread."""
        assert isinstance(record, SchedSwitchRecord)
        tracer = self._tracers[record.cpu_id]
        cost = 0
        prev_is_target = record.prev is not None and self.is_target(record.prev)
        next_is_target = record.next is not None and self.is_target(record.next)
        if prev_is_target and tracer.enabled:
            tracer.msr.disable()
            cost += self.cost_model.wrmsr_ns
        if next_is_target:
            if tracer.enabled:
                tracer.msr.disable()
                cost += self.cost_model.wrmsr_ns
            tracer.attach_output(self._ring_for(record.next))
            tracer.msr.enable()
            cost += 2 * self.cost_model.wrmsr_ns
            cost += self.ledger.charge_mode_switch()
        return cost

    def slice_tax(self, thread: Thread, core: LogicalCore) -> float:
        """Continuous CPU fraction stolen while ``thread`` runs."""
        if not self.is_target(thread):
            return 0.0
        tax = self._tax_cache.get(thread.tid)
        if tax is None:
            engine = thread.engine
            tax = self.cost_model.pt_tax(
                getattr(engine, "branch_per_instr", 0.13),
                getattr(engine, "nominal_ips", 3.0),
            )
            self._tax_cache[thread.tid] = tax
        return tax

    def on_slice(
        self, core: LogicalCore, thread: Thread, start_ns: int, result: SliceResult
    ) -> None:
        """Deliver a finished slice to the core's tracer."""
        if not self.is_target(thread) or result.event_range is None:
            return
        tracer = self._tracers.get(core.core_id)
        if tracer is None or not tracer.enabled:
            return
        path = getattr(thread.engine, "path_model", None)
        if path is None:
            return
        e0, e1 = result.event_range
        assert self.system is not None
        tracer.observe_slice(
            thread.pid, thread.tid, thread.process.cr3,
            start_ns, self.system.sim.now,
            e0, e1, result.branches, path,
        )

    def artifacts(self) -> SchemeArtifacts:
        """Only what survives in the rings: the most recent events per
        thread (post-mortem snapshot semantics)."""
        segments = []
        for tracer in self._tracers.values():
            segments.extend(tracer.segments)
        # ring semantics: retain per thread only the newest events whose
        # real-scale volume fits the thread's ring
        surviving = []
        by_tid: Dict[int, list] = {}
        for segment in sorted(segments, key=lambda s: -s.t_start):
            budget_used = by_tid.setdefault(segment.tid, [0.0])
            ring = self._rings.get(segment.tid)
            capacity = ring.capacity if ring is not None else self.ring_bytes
            if budget_used[0] >= capacity:
                continue
            room = capacity - budget_used[0]
            if segment.bytes_offered <= room:
                budget_used[0] += segment.bytes_offered
                surviving.append(segment)
            else:
                fraction = room / segment.bytes_offered
                events = segment.event_end - segment.event_start
                segment.event_start = segment.event_end - max(
                    1, int(events * fraction)
                )
                if segment.captured_event_end < segment.event_start:
                    continue
                segment.captured_event_end = max(
                    segment.captured_event_end, segment.event_start
                )
                budget_used[0] = capacity
                surviving.append(segment)
        surviving.sort(key=lambda s: s.t_start)
        space = sum(
            min(r.capacity, r.total_offered) for r in self._rings.values()
        )
        return SchemeArtifacts(
            scheme=self.name,
            segments=surviving,
            space_bytes=space,
            ledger=self.ledger,
        )
