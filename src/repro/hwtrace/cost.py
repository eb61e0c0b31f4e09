"""Cost model of tracing control operations.

The paper's core observation (§2.3) is that hardware tracing itself is
nearly free — the overhead of tracing *systems* comes from control
operations: serializing WRMSRs that must run with tracing disabled,
user/kernel mode switches, PMI-style interrupts for samplers, and the
memory/file traffic of draining trace buffers.  This module centralizes
those constants (calibrated against the paper's measured baseline
overheads; see EXPERIMENTS.md "Calibration") and provides the ledger the
tracing schemes charge them through, so every experiment can report *why*
a scheme was slow, not just that it was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class CostModel:
    """Nanosecond costs of the primitive operations."""

    #: one serializing WRMSR to an RTIT register
    wrmsr_ns: int = 1_200
    #: one user<->kernel mode switch (EXIST avoids these by staying in
    #: kernel mode; conventional controllers pay them per control action)
    mode_switch_ns: int = 400
    #: one sampling interrupt incl. register/stack capture (perf -F mode)
    pmi_ns: int = 8_000
    #: executing an injected tracepoint hook (EXIST's sched_switch hook)
    hook_ns: int = 150
    #: writing the 24-byte context-switch five-tuple record
    sidecar_record_ns: int = 60
    #: an eBPF probe on a tracepoint (map update + ring-buffer output)
    ebpf_probe_ns: int = 1_200
    #: bpftrace's always-on instrumentation machinery, as a CPU fraction
    #: charged while the traced workload runs (userspace map polling,
    #: kprobe trampolines) — calibrated to its measured SPEC overhead
    ebpf_flat_tax: float = 0.030
    #: draining one MiB of trace data out of the ToPA buffer to the perf
    #: ring / file (memcpy + I/O), charged to the traced core
    drain_per_mib_ns: int = 350_000
    #: per-real-branch slowdown while a PT tracer is enabled on the core
    pt_branch_penalty_ns: float = 0.02
    #: memory-bandwidth interference of perf's continuous trace draining
    #: on *co-located* threads (the cascaded degradation of Figure 3a's
    #: innocent neighbour); EXIST avoids it by not draining during tracing
    drain_interference_tax: float = 0.012
    #: arming/cancelling a high-resolution timer
    hrt_ns: int = 500

    def pt_tax(self, branch_per_instr: float, nominal_ips: float) -> float:
        """CPU fraction lost to packet generation while PT is enabled.

        Branch-density dependent: ``branches/ns * penalty`` — the source
        of EXIST's 0.4–1.5% per-workload spread in Figure 13.
        """
        return branch_per_instr * nominal_ips * self.pt_branch_penalty_ns


class CostLedger:
    """Counts and nanosecond totals per operation category.

    Schemes charge every control action here; benchmarks read the ledger
    to reproduce the paper's operation-count analyses (Figure 4, §3.2's
    O(#sched) vs O(#core) argument).
    """

    def __init__(self, model: CostModel):
        self.model = model
        self.counts: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}

    def charge(self, category: str, cost_ns: int, count: int = 1) -> int:
        """Record ``count`` operations totalling ``cost_ns``; returns cost."""
        self.counts[category] = self.counts.get(category, 0) + count
        self.total_ns[category] = self.total_ns.get(category, 0) + int(cost_ns)
        return int(cost_ns)

    def charge_wrmsr(self, n: int = 1) -> int:
        """Charge ``n`` serializing WRMSR operations."""
        return self.charge("wrmsr", self.model.wrmsr_ns * n, n)

    def charge_mode_switch(self) -> int:
        """Charge one user/kernel mode switch."""
        return self.charge("mode_switch", self.model.mode_switch_ns)

    def charge_hook(self) -> int:
        """Charge one tracepoint-hook execution."""
        return self.charge("hook", self.model.hook_ns)

    def charge_sidecar(self) -> int:
        """Charge one five-tuple sidecar record write."""
        return self.charge("sidecar_record", self.model.sidecar_record_ns)

    def charge_hrt(self) -> int:
        """Charge one high-resolution-timer arm/cancel."""
        return self.charge("hrt", self.model.hrt_ns)

    @property
    def grand_total_ns(self) -> int:
        return sum(self.total_ns.values())

    def count(self, category: str) -> int:
        """Operations charged under ``category`` so far."""
        return self.counts.get(category, 0)

    def snapshot(self) -> Dict[str, int]:
        """Copy of per-category counts (for before/after comparisons)."""
        return dict(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{k}={v}" for k, v in sorted(self.counts.items())
        )
        return f"CostLedger({parts}; total={self.grand_total_ns}ns)"
