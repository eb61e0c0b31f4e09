"""eBPF baseline: ``bpftrace -e 'tracepoint:raw_syscalls:sys_enter ...'``.

Attaches a probe to the ``sys_enter`` tracepoint: every syscall on the
node pays the probe cost (map update + ring-buffer output), and while
bpftrace runs, its instrumentation machinery (trampolines, userspace map
polling) taxes every running thread by a small flat fraction — calibrated
against the paper's measured eBPF overhead on SPEC (Figure 13).

It captures only kernel-entry events: cheap, chronological, but blind to
user-level execution (Table 5's ``UserTrace = no``), which is why its
space column in Table 4 is tiny.
"""

from __future__ import annotations

from typing import List

from repro.kernel.cpu import LogicalCore
from repro.kernel.task import Thread
from repro.kernel.tracepoints import SYS_ENTER, SyscallRecord
from repro.tracing.base import SchemeArtifacts, TracingScheme

#: bytes per logged syscall event (bpftrace tuple output)
_BYTES_PER_EVENT = 24.0


class EbpfScheme(TracingScheme):
    """bpftrace-style syscall tracer."""

    name = "eBPF"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.events_seen = 0
        self._log: List[tuple] = []

    def _on_install(self) -> None:
        assert self.system is not None
        self.system.tracepoints.attach(SYS_ENTER, self._probe)

    def _on_uninstall(self) -> None:
        assert self.system is not None
        self.system.tracepoints.detach(SYS_ENTER, self._probe)

    def _probe(self, record: object) -> int:
        assert isinstance(record, SyscallRecord)
        self.events_seen += 1
        self._log.append(
            (record.timestamp, record.thread.pid, record.thread.tid, record.syscall)
        )
        return self.ledger.charge("ebpf_probe", self.cost_model.ebpf_probe_ns)

    def slice_tax(self, thread: Thread, core: LogicalCore) -> float:
        """bpftrace's machinery taxes everything while attached."""
        return self.cost_model.ebpf_flat_tax

    def artifacts(self) -> SchemeArtifacts:
        """The syscall event log (kernel-level events only)."""
        return SchemeArtifacts(
            scheme=self.name,
            syscall_log=list(self._log),
            space_bytes=self.events_seen * _BYTES_PER_EVENT,
            ledger=self.ledger,
        )
