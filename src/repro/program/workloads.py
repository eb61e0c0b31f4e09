"""Calibrated workload library (paper Table 1).

Each :class:`WorkloadProfile` is a synthetic stand-in for one of the
paper's evaluated applications: ten SPEC CPU 2017 integer benchmarks,
three online benchmarks (memcached / nginx / mysql), and the Alibaba
production services used in §5.3–§5.4 (Search1/Search2/Cache/Pred/Agent
plus the case-study Matching and Recommend apps).

Calibration targets (documented in EXPERIMENTS.md):

* instruction rates ~2–4 instr/ns and branch densities ~0.10–0.18 per
  instruction so a 0.5 s NHT trace lands in the paper's Table 4 volume
  band (tens of MB for single-threaded compute, ~1 GB for 4-thread xz);
* syscall rates low for compute apps and per-request for online apps, so
  the eBPF baseline's overhead ordering (compute < online) holds;
* Figure 21/22 category and access-width mixes baked into the generated
  binaries so case-study analyses can measure them back from traces.

Profiles are immutable descriptions; ``binary()`` / ``path_model()`` are
memoized per profile, and ``spawn()`` instantiates processes into a
:class:`~repro.kernel.system.KernelSystem`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.program.binary import Binary, FunctionCategory as FC
from repro.program.execution import ProgramExecution, ServerLoopExecution
from repro.program.generator import BinaryShape, generate_binary_cached
from repro.program.path import PathModel
from repro.util.rng import derive_seed
from repro.util.units import SEC


class WorkloadKind(enum.Enum):
    """Coarse workload class: batch compute, online server, cloud service."""

    COMPUTE = "compute"
    ONLINE = "online"
    SERVICE = "service"


class ProvisioningMode(enum.Enum):
    """Paper §3.3: CPU-set pins exclusively; CPU-share maps to a wide set."""

    CPU_SET = "cpu-set"
    CPU_SHARE = "cpu-share"


@dataclass(frozen=True)
class WorkloadProfile:
    """Static description of one application."""

    name: str
    kind: WorkloadKind
    description: str
    n_threads: int = 1
    nominal_ips: float = 3.0
    branch_per_instr: float = 0.13
    llc_pressure: float = 0.3
    provisioning: ProvisioningMode = ProvisioningMode.CPU_SET
    #: CFS weight (cgroup cpu.shares equivalent): latency-critical pods
    #: get more CPU than best-effort ones under contention (Figure 2)
    cpu_weight: int = 1024

    # compute-job parameters
    work_seconds: float = 1.0
    syscall_interval: float = 2.5e6
    syscall_mix: Optional[Dict[str, float]] = None

    # server-loop parameters
    request_instr_mean: float = 1.5e5
    request_instr_sigma: float = 0.35
    extra_syscalls: Optional[Dict[str, float]] = None
    recv_syscall: str = "recvfrom"

    # binary shape
    n_functions: int = 48
    indirect_branch_fraction: float = 0.04
    category_weights: Optional[Dict[FC, float]] = None
    width_mixes: Optional[Dict[str, Dict[int, float]]] = None

    # cluster/RCO metadata (paper §3.4 complexity factors)
    priority: int = 5
    binary_size_mb: float = 20.0
    stability_issues: int = 1
    typical_replicas: int = 4
    #: pod memory request (what the scheduler reserves) and the typical
    #: fraction actually used — Figure 11's allocation-vs-usage gap
    memory_request_mb: float = 4096.0
    memory_usage_fraction: float = 0.45

    # -- derived artifacts -------------------------------------------------------

    def shape(self) -> BinaryShape:
        """The generated binary's structural parameters."""
        return BinaryShape(
            n_functions=self.n_functions,
            indirect_branch_fraction=self.indirect_branch_fraction,
            category_weights=self.category_weights or {FC.APP: 1.0},
            width_mixes=self.width_mixes,
        )

    def binary(self) -> Binary:
        """This workload's synthetic binary (memoized per name)."""
        return _binary_cache(self)

    def path_model(self) -> PathModel:
        """This workload's deterministic path model (memoized)."""
        return _path_cache(self)

    @property
    def work_total(self) -> float:
        """Per-thread compute-job instruction budget (ns of work × rate).

        Threads run concurrently, so a job lasts ``work_seconds`` of wall
        time regardless of thread count (xz's four workers compress four
        streams in parallel, they do not split one stream).
        """
        return self.work_seconds * SEC * self.nominal_ips

    def make_engine(self, thread_index: int, seed: int = 0):
        """Build the execution engine for one thread of this workload.

        Long-running services start each (seed, thread) at a different
        phase of the behaviour cycle — replicas of a production service
        serve different requests, so their traces cover different parts
        of the same behaviour (the Figure 12/20 repetition premise).
        Compute jobs always start at phase 0 (a batch job's execution is
        the same run-to-run).
        """
        label = f"{self.name}/t{thread_index}"
        engine_seed = derive_seed(seed, self.name, thread_index)
        path = self.path_model()
        if self.kind is WorkloadKind.COMPUTE:
            return ProgramExecution(
                path_model=path,
                work_total=self.work_total,
                nominal_ips=self.nominal_ips,
                branch_per_instr=self.branch_per_instr,
                syscall_interval=self.syscall_interval,
                syscall_mix=self.syscall_mix,
                seed=engine_seed,
                label=label,
            )
        cycle_instr = path.length * path.stride / self.branch_per_instr
        offset_fraction = (derive_seed(engine_seed, "phase") % 10_000) / 10_000
        return ServerLoopExecution(
            path_model=path,
            request_instr_mean=self.request_instr_mean,
            request_instr_sigma=self.request_instr_sigma,
            recv_syscall=self.recv_syscall,
            extra_syscalls=self.extra_syscalls,
            nominal_ips=self.nominal_ips,
            branch_per_instr=self.branch_per_instr,
            seed=engine_seed,
            label=label,
            phase_offset_instr=offset_fraction * cycle_instr,
        )

    def spawn(
        self,
        system,
        cpuset: Optional[Sequence[int]] = None,
        seed: int = 0,
        pid: Optional[int] = None,
        tids: Optional[Sequence[int]] = None,
    ):
        """Create a process with this profile's threads inside ``system``.

        ``system`` is a :class:`repro.kernel.system.KernelSystem`; threads
        are admitted to its scheduler immediately.  ``pid``/``tids`` pin
        the process/thread identities instead of drawing the global
        counters — a node rebuilt from its placement spec (in a pool
        worker, or on restart) then produces byte-identical trace output,
        because the CR3 filter value derives from the pid.
        """
        from repro.kernel.task import Process  # local to avoid import cycles

        kwargs = {} if pid is None else {"pid": pid}
        process = Process(
            name=self.name,
            binary=self.binary(),
            llc_pressure=self.llc_pressure,
            **kwargs,
        )
        process.profile = self  # type: ignore[attr-defined]
        for index in range(self.n_threads):
            engine = self.make_engine(index, seed=seed)
            thread = process.new_thread(
                engine,
                cpuset=cpuset,
                weight=self.cpu_weight,
                tid=tids[index] if tids is not None else None,
            )
            system.scheduler.add_thread(thread)
        system.register_process(process)
        return process

    def complexity_score(self) -> float:
        """RCO temporal-decider input: weighted priority/size/stability."""
        return (
            0.5 * (self.priority / 10.0)
            + 0.3 * min(self.binary_size_mb / 200.0, 1.0)
            + 0.2 * min(self.stability_issues / 10.0, 1.0)
        )


def _binary_cache(profile: WorkloadProfile) -> Binary:
    # keyed by (name, shape, seed) in the generator's LRU, so variants
    # that change shape-affecting fields no longer collide on the name
    return generate_binary_cached(profile.name, profile.shape(), seed=1234)


def _path_cache(profile: WorkloadProfile) -> PathModel:
    return PathModel.cached(_binary_cache(profile), seed=1234)


# ---------------------------------------------------------------------------
# category and width mixes
# ---------------------------------------------------------------------------

#: traditional CPU-bound mix: mostly application logic
_COMPUTE_MIX = {
    FC.APP: 0.62,
    FC.MEM_ALLOC: 0.06,
    FC.MEM_FREE: 0.04,
    FC.MEM_COPY: 0.08,
    FC.MEM_CMP: 0.06,
    FC.SYNC_ATOMIC: 0.03,
    FC.KERNEL_SCHE: 0.06,
    FC.KERNEL_IRQ: 0.02,
    FC.KERNEL_NET: 0.03,
}

# §5.4 case-study mixes (approximating the paper's Figure 21 bars):
# Search is CPU-intensive, Cache memory-intensive; the three ML apps
# (Prediction, Matching, Recommend) show heavier KERNEL_IRQ + SYNC_MUTEX.
_SEARCH_MIX = {
    FC.APP: 0.36,
    FC.MEM_JE: 0.03, FC.MEM_TC: 0.02, FC.MEM_ALLOC: 0.07, FC.MEM_FREE: 0.04,
    FC.MEM_COPY: 0.06, FC.MEM_SET: 0.02, FC.MEM_CMP: 0.04, FC.MEM_MOVE: 0.02,
    FC.SYNC_ATOMIC: 0.04, FC.SYNC_SPINLOCK: 0.03, FC.SYNC_MUTEX: 0.05, FC.SYNC_CAS: 0.02,
    FC.KERNEL_SCHE: 0.08, FC.KERNEL_IRQ: 0.04, FC.KERNEL_NET: 0.08,
}
_CACHE_MIX = {
    FC.APP: 0.26,
    FC.MEM_JE: 0.06, FC.MEM_TC: 0.04, FC.MEM_ALLOC: 0.10, FC.MEM_FREE: 0.07,
    FC.MEM_COPY: 0.09, FC.MEM_SET: 0.04, FC.MEM_CMP: 0.05, FC.MEM_MOVE: 0.03,
    FC.SYNC_ATOMIC: 0.03, FC.SYNC_SPINLOCK: 0.02, FC.SYNC_MUTEX: 0.03, FC.SYNC_CAS: 0.02,
    FC.KERNEL_SCHE: 0.05, FC.KERNEL_IRQ: 0.03, FC.KERNEL_NET: 0.08,
}
_PREDICTION_MIX = {
    FC.APP: 0.30,
    FC.MEM_JE: 0.02, FC.MEM_TC: 0.05, FC.MEM_ALLOC: 0.08, FC.MEM_FREE: 0.05,
    FC.MEM_COPY: 0.10, FC.MEM_SET: 0.03, FC.MEM_CMP: 0.03, FC.MEM_MOVE: 0.02,
    FC.SYNC_ATOMIC: 0.02, FC.SYNC_SPINLOCK: 0.02, FC.SYNC_MUTEX: 0.06, FC.SYNC_CAS: 0.02,
    FC.KERNEL_SCHE: 0.06, FC.KERNEL_IRQ: 0.06, FC.KERNEL_NET: 0.08,
}
_MATCHING_MIX = {
    FC.APP: 0.32,
    FC.MEM_JE: 0.03, FC.MEM_TC: 0.04, FC.MEM_ALLOC: 0.07, FC.MEM_FREE: 0.04,
    FC.MEM_COPY: 0.08, FC.MEM_SET: 0.03, FC.MEM_CMP: 0.04, FC.MEM_MOVE: 0.02,
    FC.SYNC_ATOMIC: 0.03, FC.SYNC_SPINLOCK: 0.02, FC.SYNC_MUTEX: 0.07, FC.SYNC_CAS: 0.02,
    FC.KERNEL_SCHE: 0.05, FC.KERNEL_IRQ: 0.07, FC.KERNEL_NET: 0.07,
}
_RECOMMEND_MIX = {
    FC.APP: 0.27,
    FC.MEM_JE: 0.02, FC.MEM_TC: 0.04, FC.MEM_ALLOC: 0.06, FC.MEM_FREE: 0.04,
    FC.MEM_COPY: 0.07, FC.MEM_SET: 0.02, FC.MEM_CMP: 0.03, FC.MEM_MOVE: 0.02,
    FC.SYNC_ATOMIC: 0.03, FC.SYNC_SPINLOCK: 0.02, FC.SYNC_MUTEX: 0.10, FC.SYNC_CAS: 0.03,
    FC.KERNEL_SCHE: 0.06, FC.KERNEL_IRQ: 0.11, FC.KERNEL_NET: 0.08,
}

#: Figure 22: ML apps issue far more 4-byte ("quad-width") accesses,
#: a signature of reduced-precision inference serving
_ML_WIDTHS = {
    "read_only": {1: 0.05, 2: 0.08, 4: 0.62, 8: 0.25},
    "write_only": {1: 0.04, 2: 0.06, 4: 0.58, 8: 0.32},
    "read_write": {1: 0.03, 2: 0.05, 4: 0.55, 8: 0.37},
}
_TRADITIONAL_WIDTHS = {
    "read_only": {1: 0.12, 2: 0.12, 4: 0.28, 8: 0.48},
    "write_only": {1: 0.10, 2: 0.08, 4: 0.25, 8: 0.57},
    "read_write": {1: 0.06, 2: 0.10, 4: 0.30, 8: 0.54},
}


# ---------------------------------------------------------------------------
# profile definitions
# ---------------------------------------------------------------------------

def _spec(name: str, description: str, **overrides) -> WorkloadProfile:
    base = dict(
        kind=WorkloadKind.COMPUTE,
        n_threads=1,
        nominal_ips=3.0,
        branch_per_instr=0.13,
        llc_pressure=0.30,
        work_seconds=1.0,
        syscall_interval=2.5e6,
        n_functions=56,
        category_weights=_COMPUTE_MIX,
        width_mixes=_TRADITIONAL_WIDTHS,
        priority=3,
        binary_size_mb=12.0,
        stability_issues=0,
        typical_replicas=1,
    )
    base.update(overrides)
    return WorkloadProfile(name=name, description=description, **base)


_SPEC_PROFILES = [
    _spec("pb", "600.perlbench_s — Perl interpreter",
          nominal_ips=2.6, branch_per_instr=0.16, indirect_branch_fraction=0.06,
          llc_pressure=0.25, binary_size_mb=18.0),
    _spec("gcc", "602.gcc_s — GNU C compiler",
          nominal_ips=2.4, branch_per_instr=0.17, indirect_branch_fraction=0.05,
          llc_pressure=0.35, n_functions=96, binary_size_mb=65.0),
    _spec("mcf", "605.mcf_s — route planning",
          nominal_ips=1.8, branch_per_instr=0.14, llc_pressure=0.75,
          binary_size_mb=4.0),
    _spec("om", "620.omnetpp_s — discrete event simulation",
          nominal_ips=2.2, branch_per_instr=0.16, indirect_branch_fraction=0.07,
          llc_pressure=0.55, binary_size_mb=28.0),
    _spec("xa", "623.xalancbmk_s — XML to HTML conversion",
          nominal_ips=2.5, branch_per_instr=0.17, indirect_branch_fraction=0.08,
          llc_pressure=0.45, n_functions=80, binary_size_mb=42.0),
    _spec("x264", "625.x264_s — video compression",
          nominal_ips=3.6, branch_per_instr=0.09, llc_pressure=0.30,
          binary_size_mb=8.0),
    _spec("de", "631.deepsjeng_s — alpha-beta tree search",
          nominal_ips=3.0, branch_per_instr=0.15, llc_pressure=0.25,
          binary_size_mb=3.0),
    _spec("le", "641.leela_s — Monte Carlo tree search",
          nominal_ips=2.8, branch_per_instr=0.14, llc_pressure=0.35,
          binary_size_mb=5.0),
    _spec("ex", "648.exchange2_s — recursive solution generator",
          nominal_ips=3.4, branch_per_instr=0.13, llc_pressure=0.15,
          binary_size_mb=2.0),
    _spec("xz", "657.xz_s — general data compression (multi-threaded)",
          n_threads=4, nominal_ips=3.4, branch_per_instr=0.20,
          llc_pressure=0.50, work_seconds=1.0, binary_size_mb=1.5),
]


_ONLINE_PROFILES = [
    WorkloadProfile(
        name="mc", kind=WorkloadKind.ONLINE,
        description="Memcached under memtier (10 clients, 1:1 set/get)",
        n_threads=4, nominal_ips=2.6, branch_per_instr=0.14,
        llc_pressure=0.45, request_instr_mean=1.0e5, request_instr_sigma=0.30,
        recv_syscall="recv_ready",
        n_functions=44, indirect_branch_fraction=0.05,
        category_weights=_CACHE_MIX, width_mixes=_TRADITIONAL_WIDTHS,
        priority=7, binary_size_mb=1.2, stability_issues=2, typical_replicas=8,
        memory_request_mb=8 * 1024, memory_usage_fraction=0.62,
    ),
    WorkloadProfile(
        name="ng", kind=WorkloadKind.ONLINE,
        description="Nginx under ab (10 clients, 20K requests, 20B file)",
        n_threads=4, nominal_ips=2.8, branch_per_instr=0.13,
        llc_pressure=0.25, request_instr_mean=7.0e4, request_instr_sigma=0.25,
        recv_syscall="recv_ready",
        n_functions=40, indirect_branch_fraction=0.05,
        category_weights=_SEARCH_MIX, width_mixes=_TRADITIONAL_WIDTHS,
        priority=6, binary_size_mb=2.5, stability_issues=1, typical_replicas=8,
        memory_request_mb=2 * 1024, memory_usage_fraction=0.30,
    ),
    WorkloadProfile(
        name="ms", kind=WorkloadKind.ONLINE,
        description="Mysql under sysbench (read-write on ten 1M tables)",
        n_threads=4, nominal_ips=2.4, branch_per_instr=0.15,
        llc_pressure=0.55, request_instr_mean=3.5e5, request_instr_sigma=0.45,
        recv_syscall="recv_ready",
        extra_syscalls={"read": 0.25, "write": 0.8, "fsync": 0.05},
        n_functions=72, indirect_branch_fraction=0.06,
        category_weights=_CACHE_MIX, width_mixes=_TRADITIONAL_WIDTHS,
        priority=8, binary_size_mb=180.0, stability_issues=3, typical_replicas=4,
        memory_request_mb=16 * 1024, memory_usage_fraction=0.55,
    ),
]


_REALWORLD_PROFILES = [
    WorkloadProfile(
        name="Search1", kind=WorkloadKind.SERVICE,
        description="Latency-sensitive CPU-set Havenask search service",
        n_threads=4, provisioning=ProvisioningMode.CPU_SET, cpu_weight=4096,
        nominal_ips=2.7, branch_per_instr=0.15, llc_pressure=0.50,
        request_instr_mean=5.0e5, request_instr_sigma=0.40,
        n_functions=120, indirect_branch_fraction=0.06,
        category_weights=_SEARCH_MIX, width_mixes=_TRADITIONAL_WIDTHS,
        priority=9, binary_size_mb=220.0, stability_issues=4, typical_replicas=10,
        memory_request_mb=32 * 1024, memory_usage_fraction=0.48,
    ),
    WorkloadProfile(
        name="Search2", kind=WorkloadKind.SERVICE,
        description="Latency-sensitive CPU-share Havenask search service",
        n_threads=6, provisioning=ProvisioningMode.CPU_SHARE, cpu_weight=4096,
        nominal_ips=2.7, branch_per_instr=0.15, llc_pressure=0.50,
        request_instr_mean=5.0e5, request_instr_sigma=0.40,
        n_functions=120, indirect_branch_fraction=0.06,
        category_weights=_SEARCH_MIX, width_mixes=_TRADITIONAL_WIDTHS,
        priority=9, binary_size_mb=220.0, stability_issues=4, typical_replicas=10,
    ),
    WorkloadProfile(
        name="Cache", kind=WorkloadKind.SERVICE,
        description="Best-effort iGraph memory graph caching service",
        n_threads=4, provisioning=ProvisioningMode.CPU_SHARE, cpu_weight=256,
        nominal_ips=2.2, branch_per_instr=0.13, llc_pressure=0.70,
        request_instr_mean=1.2e5, request_instr_sigma=0.35,
        n_functions=64, indirect_branch_fraction=0.05,
        category_weights=_CACHE_MIX, width_mixes=_TRADITIONAL_WIDTHS,
        priority=4, binary_size_mb=95.0, stability_issues=2, typical_replicas=16,
        memory_request_mb=64 * 1024, memory_usage_fraction=0.58,
    ),
    WorkloadProfile(
        name="Pred", kind=WorkloadKind.SERVICE,
        description="ML-based RTP click-through-rate prediction service",
        n_threads=4, provisioning=ProvisioningMode.CPU_SHARE,
        nominal_ips=3.2, branch_per_instr=0.10, llc_pressure=0.60,
        request_instr_mean=8.0e5, request_instr_sigma=0.50,
        n_functions=88, indirect_branch_fraction=0.05,
        category_weights=_PREDICTION_MIX, width_mixes=_ML_WIDTHS,
        priority=8, binary_size_mb=310.0, stability_issues=5, typical_replicas=12,
        memory_request_mb=48 * 1024, memory_usage_fraction=0.40,
    ),
    WorkloadProfile(
        name="Agent", kind=WorkloadKind.SERVICE,
        description="Node-level SLO management daemon (periodic)",
        n_threads=2, provisioning=ProvisioningMode.CPU_SHARE,
        nominal_ips=2.5, branch_per_instr=0.12, llc_pressure=0.10,
        request_instr_mean=6.0e4, request_instr_sigma=0.60,
        recv_syscall="nanosleep",
        n_functions=36, indirect_branch_fraction=0.04,
        category_weights=_COMPUTE_MIX, width_mixes=_TRADITIONAL_WIDTHS,
        priority=6, binary_size_mb=30.0, stability_issues=1, typical_replicas=1,
        memory_request_mb=1024, memory_usage_fraction=0.35,
    ),
    # §5.4 case-study-only applications
    WorkloadProfile(
        name="Matching", kind=WorkloadKind.SERVICE,
        description="BE-engine product matching service (ML-based)",
        n_threads=4, provisioning=ProvisioningMode.CPU_SHARE,
        nominal_ips=3.0, branch_per_instr=0.11, llc_pressure=0.55,
        request_instr_mean=6.0e5, request_instr_sigma=0.45,
        n_functions=84, indirect_branch_fraction=0.05,
        category_weights=_MATCHING_MIX, width_mixes=_ML_WIDTHS,
        priority=7, binary_size_mb=260.0, stability_issues=3, typical_replicas=10,
        memory_request_mb=40 * 1024, memory_usage_fraction=0.42,
    ),
    WorkloadProfile(
        name="Recommend", kind=WorkloadKind.SERVICE,
        description="MVAP recommendation service (heavily multi-threaded ML)",
        n_threads=8, provisioning=ProvisioningMode.CPU_SHARE,
        nominal_ips=3.1, branch_per_instr=0.11, llc_pressure=0.60,
        request_instr_mean=7.0e5, request_instr_sigma=0.50,
        extra_syscalls={"futex_wait": 0.5, "file_write": 0.08},
        n_functions=96, indirect_branch_fraction=0.05,
        category_weights=_RECOMMEND_MIX, width_mixes=_ML_WIDTHS,
        priority=8, binary_size_mb=340.0, stability_issues=6, typical_replicas=12,
        memory_request_mb=56 * 1024, memory_usage_fraction=0.38,
    ),
]


WORKLOADS: Dict[str, WorkloadProfile] = {
    p.name: p for p in (_SPEC_PROFILES + _ONLINE_PROFILES + _REALWORLD_PROFILES)
}


def get_workload(name: str) -> WorkloadProfile:
    """Look up a profile by Table 1 short name (pb, gcc, ..., Search1)."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        ) from None


def realworld_workloads(include_case_study: bool = False) -> List[WorkloadProfile]:
    """The five evaluated cloud services (plus the §5.4-only apps)."""
    names = ["Search1", "Search2", "Cache", "Pred", "Agent"]
    if include_case_study:
        names += ["Matching", "Recommend"]
    return [WORKLOADS[n] for n in names]


def variant(profile: WorkloadProfile, **overrides) -> WorkloadProfile:
    """A copy of ``profile`` with fields overridden (kept out of WORKLOADS).

    Binary/path memoization keys on (name, shape, seed), so a variant
    shares the base profile's cached artifacts exactly when its shape is
    unchanged — shape-affecting overrides get their own cache entries.
    """
    return replace(profile, **overrides)
