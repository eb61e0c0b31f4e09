"""UMA — Usage-aware Memory Allocator (paper §3.3).

Two cooperating parts:

* :class:`CoresetSampler` (user level) decides the **Traced Core Set**
  from the target's **Mapped Core Set** using application metadata.  For
  CPU-set pods TCS = MCS and buffers split equally.  For CPU-share pods
  it picks the cores the target's threads currently occupy plus a random
  sample of the remaining MCS biased toward *low-utilization* cores
  (empirically the ones the scheduler will pick next), and sizes buffers
  inversely to utilization so likely-hot cores get the most space.
* :class:`BufferManager` (kernel level) materializes one cache-bypass
  compulsory (stop-on-full) ToPA buffer **per core** — not per thread —
  so no MSR operation is ever needed at context switches, and reserves
  the memory against the node's facility budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ExistConfig, TracingRequest
from repro.hwtrace.topa import OutputMode, ToPAOutput
from repro.kernel.system import KernelSystem
from repro.kernel.task import Process
from repro.program.workloads import ProvisioningMode
from repro.util.rng import derive_seed
from repro.util.units import MIB


@dataclass
class CoresetPlan:
    """The sampler's decision: which cores to trace, with what buffers.

    With ``unified`` set (the §6.1 hardware what-if), all traced cores
    share one buffer whose size is the plan total.
    """

    traced_cores: Tuple[int, ...]
    buffer_bytes: Dict[int, int]
    mapped_cores: Tuple[int, ...]
    provisioning: ProvisioningMode
    unified: bool = False

    @property
    def total_bytes(self) -> int:
        return sum(self.buffer_bytes.values())

def core_utilizations(system: KernelSystem) -> Dict[int, float]:
    """Current per-core utilization estimate (busy fraction since boot)."""
    now = max(system.sim.now, 1)
    return {
        core.core_id: min(1.0, core.busy_ns / now)
        for core in system.topology.cores
    }


class CoresetSampler:
    """Selects the traced core set from software metadata (§3.3)."""

    def __init__(self, config: ExistConfig, seed: int = 0):
        self.config = config
        self._rng = np.random.default_rng(derive_seed(seed, "coreset-sampler"))

    def plan(
        self,
        system: KernelSystem,
        target: Process,
        request: Optional[TracingRequest] = None,
    ) -> CoresetPlan:
        """Build the coreset plan for one target process."""
        provisioning = getattr(
            getattr(target, "profile", None), "provisioning", ProvisioningMode.CPU_SET
        )
        mapped = self._mapped_core_set(system, target)
        budget = (
            request.session_budget_bytes
            if request is not None and request.session_budget_bytes
            else self.config.session_budget_bytes
        )
        if request is not None and request.coreset is not None:
            traced = tuple(sorted(set(request.coreset) & set(mapped))) or tuple(
                sorted(request.coreset)
            )
            buffers = self._equal_buffers(traced, budget)
            return CoresetPlan(traced, buffers, mapped, provisioning)

        if provisioning is ProvisioningMode.CPU_SET:
            # MCS == TCS; node status (the budget) sets per-core size
            buffers = self._equal_buffers(mapped, budget)
            return CoresetPlan(
                mapped, buffers, mapped, provisioning,
                unified=self.config.unified_buffer,
            )

        plan = self._share_plan(system, target, mapped, budget, request)
        if self.config.unified_buffer:
            plan.unified = True
        return plan

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _mapped_core_set(system: KernelSystem, target: Process) -> Tuple[int, ...]:
        cpusets = [t.cpuset for t in target.threads if t.cpuset is not None]
        if cpusets:
            mapped = sorted({cid for cpuset in cpusets for cid in cpuset})
        else:
            mapped = [core.core_id for core in system.topology.cores]
        return tuple(mapped)

    def _equal_buffers(
        self, cores: Sequence[int], budget: int
    ) -> Dict[int, int]:
        if not cores:
            return {}
        per_core = self.config.clamp_buffer(budget // len(cores))
        return {cid: per_core for cid in cores}

    def _share_plan(
        self,
        system: KernelSystem,
        target: Process,
        mapped: Tuple[int, ...],
        budget: int,
        request: Optional[TracingRequest],
    ) -> CoresetPlan:
        """CPU-share: sample TCS from MCS, weight buffers by 1-utilization."""
        ratio = self.config.core_sampling_ratio
        if request is not None and request.core_sampling_ratio is not None:
            ratio = request.core_sampling_ratio
        utilization = core_utilizations(system)

        # compulsory members: cores the target's threads are on right now
        current = {
            t.current_core if t.current_core is not None else t.last_core
            for t in target.threads
        }
        current = {c for c in current if c is not None and c in mapped}

        n_traced = max(len(current), int(round(ratio * len(mapped))), 1)
        n_traced = min(n_traced, len(mapped))
        remaining = [c for c in mapped if c not in current]
        n_extra = n_traced - len(current)
        picked: List[int] = list(current)
        if n_extra > 0 and remaining:
            # bias toward low-utilization cores: weight = (1 - util) + eps
            weights = np.array(
                [1.0 - utilization.get(c, 0.0) + 0.05 for c in remaining]
            )
            weights /= weights.sum()
            extra = self._rng.choice(
                len(remaining), size=min(n_extra, len(remaining)),
                replace=False, p=weights,
            )
            picked.extend(remaining[int(i)] for i in extra)
        traced = tuple(sorted(picked))

        # buffer sizes inversely proportional to utilization
        raw = np.array([1.0 - utilization.get(c, 0.0) + 0.10 for c in traced])
        raw /= raw.sum()
        buffers: Dict[int, int] = {}
        for core_id, share in zip(traced, raw):
            buffers[core_id] = self.config.clamp_buffer(int(budget * share))
        # respect the budget after clamping (clamp can inflate tiny shares)
        overshoot = sum(buffers.values()) - budget
        if overshoot > 0:
            # shave the largest buffers first
            for core_id in sorted(buffers, key=buffers.get, reverse=True):
                if overshoot <= 0:
                    break
                reducible = buffers[core_id] - self.config.per_core_buffer_min
                cut = min(reducible, overshoot)
                buffers[core_id] -= cut
                overshoot -= cut
        return CoresetPlan(traced, buffers, mapped, ProvisioningMode.CPU_SHARE)


class BufferManager:
    """Kernel-level buffer lifecycle against the node facility budget."""

    def __init__(self, config: ExistConfig):
        self.config = config
        self._reserved: Dict[int, int] = {}

    def allocate(
        self, system: KernelSystem, plan: CoresetPlan
    ) -> Dict[int, ToPAOutput]:
        """Create the plan's ToPA buffers.

        Per-core compulsory buffers by default; one shared buffer of the
        plan total when the plan is unified (§6.1 what-if).
        """
        total = plan.total_bytes
        facility_used = sum(self._reserved.values())
        if facility_used + total > self.config.node_budget_bytes:
            raise MemoryError(
                f"session needs {total / MIB:.0f} MiB but only "
                f"{(self.config.node_budget_bytes - facility_used) / MIB:.0f} "
                "MiB of facility budget remains"
            )
        system.reserve_facility_memory(total)
        outputs: Dict[int, ToPAOutput] = {}
        if plan.unified:
            shared = ToPAOutput.single_region(
                total, mode=OutputMode.STOP_ON_FULL, base=0x2_0000_0000
            )
            for core_id in plan.traced_cores:
                outputs[core_id] = shared
                self._reserved[core_id] = (
                    self._reserved.get(core_id, 0)
                    + plan.buffer_bytes.get(core_id, 0)
                )
            return outputs
        for core_id, size in plan.buffer_bytes.items():
            outputs[core_id] = ToPAOutput.single_region(
                size, mode=OutputMode.STOP_ON_FULL,
                base=0x2_0000_0000 + core_id * (256 * MIB),
            )
            self._reserved[core_id] = self._reserved.get(core_id, 0) + size
        return outputs

    def release(self, system: KernelSystem, plan: CoresetPlan) -> None:
        """Free a plan's buffers back to the facility budget."""
        total = plan.total_bytes
        system.release_facility_memory(total)
        for core_id, size in plan.buffer_bytes.items():
            remaining = self._reserved.get(core_id, 0) - size
            if remaining <= 0:
                self._reserved.pop(core_id, None)
            else:
                self._reserved[core_id] = remaining

class UsageAwareMemoryAllocator:
    """Facade tying the sampler and buffer manager together."""

    def __init__(self, config: ExistConfig, seed: int = 0):
        self.config = config
        self.sampler = CoresetSampler(config, seed=seed)
        self.buffers = BufferManager(config)

    def plan_and_allocate(
        self,
        system: KernelSystem,
        target: Process,
        request: Optional[TracingRequest] = None,
    ) -> Tuple[CoresetPlan, Dict[int, ToPAOutput]]:
        """Plan the coreset and materialize its buffers in one step."""
        plan = self.sampler.plan(system, target, request)
        outputs = self.buffers.allocate(system, plan)
        return plan, outputs

    def release(self, system: KernelSystem, plan: CoresetPlan) -> None:
        """Free a previously allocated plan."""
        self.buffers.release(system, plan)
