"""NHT: native hardware tracing (``perf record -e intel_pt``).

The conventional abstraction over the hardware tracer (§2.3's third
column): full-coverage tracing with per-context-switch control and
continuous buffer draining.

* **Control**: a ``sched_switch`` hook disables the core's tracer when
  the target schedules out (one WRMSR) and reprograms + re-enables it
  when the target schedules in (two WRMSRs), plus user/kernel mode
  switches — ``O(#context switches)`` operations, the cost EXIST's OTC
  eliminates.
* **Data**: trace output is drained continuously to the perf ring/file,
  charging the traced core per MiB; nothing is lost, which also makes
  NHT the exhaustive accuracy reference (§5.3).
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

#: perf's AUX ring, effectively unbounded because perf drains continuously
RING_MIB = 64 * 1024


class NhtScheme(TracingScheme):
    """perf-intel_pt-style exhaustive hardware tracing."""

    name = "NHT"

    def __init__(self, hot_switching: bool = False, **kwargs):
        super().__init__(**kwargs)
        #: §6.1 what-if: configuration changes allowed while enabled
        self.hot_switching = hot_switching
        self._tracers: Dict[int, CoreTracer] = {}
        self._tax_cache: Dict[int, float] = {}

    # -- install -----------------------------------------------------------------

    def _on_install(self) -> None:
        assert self.system is not None
        from repro.hwtrace.msr import CtlBits  # local: avoid cycle at import

        flags = (
            CtlBits.BRANCH_EN | CtlBits.TSC_EN | CtlBits.TOPA
            | CtlBits.USER | CtlBits.OS
        )
        for core in self.system.topology.cores:
            tracer = CoreTracer(
                core.core_id, self.ledger, self.volume,
                hot_switching=self.hot_switching,
            )
            output = ToPAOutput.single_region(
                RING_MIB * MIB, mode=OutputMode.RING
            )
            tracer.attach_output(output)
            tracer.msr.configure(flags)
            core.tracer = tracer
            self._tracers[core.core_id] = tracer
        self.system.tracepoints.attach(SCHED_SWITCH, self._switch_hook)

    def _on_uninstall(self) -> None:
        assert self.system is not None
        self.system.tracepoints.detach(SCHED_SWITCH, self._switch_hook)
        for core in self.system.topology.cores:
            tracer = self._tracers.get(core.core_id)
            if tracer is not None and tracer.enabled:
                tracer.msr.disable()
            core.tracer = None

    # -- per-switch control (the O(#sched) cost) -----------------------------------

    def _switch_hook(self, record: object) -> int:
        assert isinstance(record, SchedSwitchRecord)
        tracer = self._tracers[record.cpu_id]
        cost = 0
        prev_is_target = record.prev is not None and self.is_target(record.prev)
        next_is_target = record.next is not None and self.is_target(record.next)
        if self.hot_switching:
            # §6.1 hardware what-if: retarget the cursor in one write,
            # tracing stays enabled across switches
            if next_is_target:
                if not tracer.enabled:
                    tracer.msr.enable()
                tracer.msr.write(0x561, 0)
                cost += self.cost_model.wrmsr_ns
            return cost
        if prev_is_target and tracer.enabled:
            tracer.msr.disable()  # 1 wrmsr (charged via ledger)
            cost += self.cost_model.wrmsr_ns
            cost += self.ledger.charge_mode_switch()
        if next_is_target and not tracer.enabled:
            # reprogram the per-task output base + cursor, then re-enable
            tracer.msr.write(0x560, tracer.output.entries[0].base)  # base
            tracer.msr.write(0x561, 0)  # OUTPUT_MASK_PTRS cursor
            tracer.msr.enable()
            cost += 3 * self.cost_model.wrmsr_ns
            cost += self.ledger.charge_mode_switch()
        return cost

    # -- continuous costs ----------------------------------------------------------

    def _drain_tax(self, thread: Thread) -> float:
        tax = self._tax_cache.get(thread.tid)
        if tax is None:
            engine = thread.engine
            bpi = getattr(engine, "branch_per_instr", 0.13)
            ips = getattr(engine, "nominal_ips", 3.0)
            path = getattr(engine, "path_model", None)
            indirect = path.indirect_fraction if path is not None else 0.05
            bytes_per_ns = self.volume.bytes_per_second(bpi, ips, indirect) / 1e9
            drain_per_byte = self.cost_model.drain_per_mib_ns / MIB
            tax = (
                self.cost_model.pt_tax(bpi, ips)
                + bytes_per_ns * drain_per_byte
            )
            self._tax_cache[thread.tid] = tax
        return tax

    def slice_tax(self, thread: Thread, core: LogicalCore) -> float:
        """Continuous CPU fraction stolen while ``thread`` runs."""
        if not self.is_target(thread):
            # perf's continuous draining moves hundreds of MB/s through
            # the memory hierarchy; co-located threads pay bandwidth/LLC
            # interference even though they are not traced (Figure 3a's
            # innocent-neighbour effect)
            return self.cost_model.drain_interference_tax
        return self._drain_tax(thread)

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

    # -- results ---------------------------------------------------------------------

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
