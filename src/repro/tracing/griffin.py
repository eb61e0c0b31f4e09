"""Griffin-style abstraction: full-coverage CFI checking traces.

The second column of the paper's Figure 6 design space: Griffin
[ASPLOS'17] enforces control-flow integrity online, so it needs the
*complete* trace: per-thread buffers reprogrammed at every context
switch, and a dump (plus CFI check) every time the small buffer fills.
Time overhead is sacrificed (4.8% avg / 18% worst in its paper) for
constant full coverage at medium space.

Against our substrate: per-switch disable/reconfigure/enable WRMSRs
(like REPT), plus a continuous dump-and-check tax proportional to the
trace byte rate (like NHT's drain, with an extra checking component).
"""

from __future__ import annotations

from typing import Dict

from repro.hwtrace.topa import OutputMode, ToPAOutput
from repro.hwtrace.tracer import CoreTracer
from repro.kernel.cpu import LogicalCore
from repro.kernel.task import SliceResult, Thread
from repro.kernel.tracepoints import SCHED_SWITCH, SchedSwitchRecord
from repro.tracing.base import SchemeArtifacts, TracingScheme
from repro.util.units import MIB


class GriffinScheme(TracingScheme):
    """Per-thread buffers + dump-on-full + online checking."""

    name = "Griffin"

    #: CFI checking roughly doubles the per-byte processing cost
    CHECK_FACTOR = 1.6

    def __init__(self, buffer_bytes: int = 1 * MIB, **kwargs):
        super().__init__(**kwargs)
        self.buffer_bytes = buffer_bytes
        self._tracers: Dict[int, CoreTracer] = {}
        self._tax_cache: Dict[int, float] = {}
        self._cum_bytes = 0.0
        self.dumps = 0

    def _on_install(self) -> None:
        assert self.system is not None
        from repro.hwtrace.msr import CtlBits

        flags = CtlBits.BRANCH_EN | CtlBits.TSC_EN | CtlBits.TOPA
        for core in self.system.topology.cores:
            tracer = CoreTracer(core.core_id, self.ledger, self.volume)
            tracer.attach_output(
                ToPAOutput.single_region(self.buffer_bytes, OutputMode.RING)
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

    def _switch_hook(self, record: object) -> int:
        assert isinstance(record, SchedSwitchRecord)
        tracer = self._tracers[record.cpu_id]
        cost = 0
        if record.prev is not None and self.is_target(record.prev) and tracer.enabled:
            tracer.msr.disable()
            cost += self.cost_model.wrmsr_ns
        if record.next is not None and self.is_target(record.next):
            if tracer.enabled:
                tracer.msr.disable()
                cost += self.cost_model.wrmsr_ns
            tracer.msr.write(0x560, 0x3_0000_0000 + record.next.tid * (4 * MIB))
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
            bpi = getattr(engine, "branch_per_instr", 0.13)
            ips = getattr(engine, "nominal_ips", 3.0)
            path = getattr(engine, "path_model", None)
            indirect = path.indirect_fraction if path is not None else 0.05
            bytes_per_ns = self.volume.bytes_per_second(bpi, ips, indirect) / 1e9
            dump_per_byte = (
                self.cost_model.drain_per_mib_ns / MIB * self.CHECK_FACTOR
            )
            tax = self.cost_model.pt_tax(bpi, ips) + bytes_per_ns * dump_per_byte
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
        segment = tracer.observe_slice(
            thread.pid, thread.tid, thread.process.cr3,
            start_ns, self.system.sim.now,
            e0, e1, result.branches, path,
        )
        if segment is not None:
            # count buffer-full dump-and-check cycles
            self._cum_bytes += segment.bytes_offered
            self.dumps = int(self._cum_bytes // self.buffer_bytes)

    def artifacts(self) -> SchemeArtifacts:
        """Collect captured segments, space, and the cost ledger."""
        segments = []
        space = 0.0
        for tracer in self._tracers.values():
            segments.extend(tracer.segments)
            if tracer.output is not None:
                space += tracer.output.total_offered
        segments.sort(key=lambda s: s.t_start)
        return SchemeArtifacts(
            scheme=self.name,
            segments=segments,
            space_bytes=space,
            ledger=self.ledger,
        )
