"""Cluster worker node: a kernel system + EXIST facility + hosted pods.

Each node owns an independent simulated timeline.  The master advances
all nodes through the same virtual window; nodes do not interact directly
(inter-service effects are modeled by :mod:`repro.services`), which
matches how EXIST's node facilities operate independently under a
cluster-level orchestrator.

Event log: a node's state is a pure function of its :class:`NodeSpec` —
name, seed and an append-only log of pod placements and slot
entries.  A :class:`PodPlacement` carries the profile, cpuset, spawn
seed and the *pinned* pid/tids drawn from the global identity counters
at placement time, so replaying the log draws no counters and gives
byte-identical traces.  The node records how many entries it has
applied; reading ``system``, ``facility``, ``alive`` or ``now``, or
placing a pod, first applies the rest (:meth:`ClusterNode.catch_up`).
A node is therefore cheap until first use, and a copy rebuilt from its
spec (:meth:`ClusterNode.from_spec`, which is also how a node pickles
into a pool worker) catches up to exactly where the original is.

Fault surface: a node can *crash* (its clock halts, in-flight tracing
sessions are aborted and their in-memory trace data is lost) and later
*restart* (fresh kernel + facility, pods respawned — the kubelet's
``restartPolicy: Always``).  Individual pods can be *killed* mid-window;
the facility survives a pod kill, so partial trace data remains
salvageable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple, Union

from repro.cluster.pod import Pod, PodPhase
from repro.core.config import TracingRequest
from repro.core.facility import ExistFacility
from repro.core.otc import TracingSession
from repro.kernel import task as kernel_task
from repro.kernel.system import KernelSystem, SystemConfig
from repro.program.workloads import ProvisioningMode, WorkloadProfile
from repro.util.rng import derive_seed

#: session stop reasons attributed to injected faults
STOP_NODE_CRASH = "node-crash"
STOP_POD_KILLED = "pod-killed"


@dataclass(frozen=True)
class PodPlacement:
    """Everything needed to re-create one pod placement byte-identically.

    The pid/tids are *pinned* copies of the identity-counter values drawn
    when the pod was first placed; respawning from the placement (node
    restart, worker-side rebuild) re-uses them instead of drawing the
    counters again, so the CR3 filter value — and hence the raw trace
    bytes — are invariant across execution modes.
    """

    app: str
    profile: WorkloadProfile
    cpuset: Tuple[int, ...]
    spawn_seed: int
    pid: int
    tids: Tuple[int, ...]
    pod_uid: str


#: one event of a node's log: a pod placement, or a slot to run on the node
LogEntry = Union[PodPlacement, Callable[["ClusterNode"], object]]


@dataclass(frozen=True)
class NodeSpec:
    """Picklable recipe for one ClusterNode: identity, seed, event log."""

    name: str
    seed: int
    #: pod placements and slot entries (callables run on the node), in order
    log: Tuple[LogEntry, ...]


class ClusterNode:
    """One worker node with its own simulated kernel and facility."""

    def __init__(self, name: str, seed: int = 0):
        self.name = name
        self.seed = seed
        self._base_config = SystemConfig.small_node(8, seed=seed)
        self._system: Optional[KernelSystem] = None
        self._facility: Optional[ExistFacility] = None
        self.pods: List[Pod] = []
        #: append-only event log; the first ``applied`` entries are applied
        #: to this object
        self.log: List[LogEntry] = []
        self.applied = 0
        self._applying = False
        self._next_pin = 0
        self._alive = True
        self.crash_count = 0
        self.restart_count = 0

    # -- construction and the event log ----------------------------------------

    @property
    def core_count(self) -> int:
        """Logical core count, computable without building the system."""
        config = self._base_config
        return config.sockets * config.cores_per_socket * config.threads_per_core

    @property
    def materialized(self) -> bool:
        return self._system is not None

    def materialize(self) -> None:
        """Build the kernel system + facility and spawn placed pods.

        Idempotent; a node builds the first time its system or facility
        is read.  Pods spawn in placement order with their pinned
        pid/tids, so when the build happens never changes a trace byte.
        """
        if self._system is not None:
            return
        self._system = KernelSystem(self._base_config)
        self._facility = ExistFacility(self._system, seed=self.seed)
        self._facility.install()
        for placement, pod in zip(self._placements(), self.pods):
            self._spawn(placement, pod, placement.spawn_seed)

    def _placements(self) -> List[PodPlacement]:
        """The applied placements, one per pod, in pod order."""
        return [
            entry for entry in self.log[: self.applied]
            if isinstance(entry, PodPlacement)
        ]

    def _spawn(self, placement: PodPlacement, pod: Pod, seed: int) -> None:
        process = placement.profile.spawn(
            self._system,
            cpuset=pod.cpuset,
            seed=seed,
            pid=placement.pid,
            tids=placement.tids,
        )
        process.pod = pod
        pod.mark_running(process)

    def _place(self, placement: PodPlacement, pod: Pod) -> None:
        self.pods.append(pod)
        if placement.profile.provisioning is ProvisioningMode.CPU_SET:
            self._next_pin = max(self._next_pin, max(placement.cpuset) + 1)
        if self._system is not None:
            self._spawn(placement, pod, placement.spawn_seed)

    def catch_up(self, stop: Optional[int] = None):
        """Apply the log entries before ``stop`` (default: all) not yet applied.

        A placement adds its pod; a slot entry is called on the node, and
        what the last one returns is returned (None if no slot ran).
        Reads made while an entry applies start no nested catch-up, so
        every entry sees the node exactly as the entries before it left
        it — in whichever process, and from wherever this object stopped.
        """
        if self._applying:
            return None
        self._applying = True
        result = None
        try:
            for index in range(self.applied, len(self.log) if stop is None else stop):
                self.applied = index + 1
                entry = self.log[index]
                if isinstance(entry, PodPlacement):
                    self._place(entry, Pod(
                        app=entry.app,
                        node_name=self.name,
                        profile=entry.profile,
                        cpuset=entry.cpuset,
                        uid=entry.pod_uid,
                    ))
                else:
                    result = entry(self)
        finally:
            self._applying = False
        return result

    @property
    def system(self) -> KernelSystem:
        self.catch_up()
        self.materialize()
        assert self._system is not None
        return self._system

    @property
    def facility(self) -> ExistFacility:
        self.catch_up()
        self.materialize()
        assert self._facility is not None
        return self._facility

    def to_spec(self) -> NodeSpec:
        """The picklable recipe this node rebuilds from."""
        return NodeSpec(name=self.name, seed=self.seed, log=tuple(self.log))

    @classmethod
    def from_spec(cls, spec: NodeSpec) -> "ClusterNode":
        """Rebuild a node from its spec; it replays the log on first use."""
        node = cls(spec.name, seed=spec.seed)
        node.log = list(spec.log)
        return node

    def __reduce__(self):
        # a node pickles as its spec (e.g. into a pool worker)
        return (type(self).from_spec, (self.to_spec(),))

    @property
    def alive(self) -> bool:
        self.catch_up()
        return self._alive

    # -- pod placement -------------------------------------------------------

    def place_pod(self, profile: WorkloadProfile) -> Pod:
        """Place one replica of ``profile`` on this node.

        CPU-set pods get an exclusive pinned range sized to their thread
        count; CPU-share pods map to the node's full core set.  The pod's identities (uid, pid, tids)
        are drawn now, in the order a spawn would draw them, and pinned
        in the log; the process starts now if the node is built, else
        when it builds.
        """
        self.catch_up()
        n_cores = self.core_count
        if profile.provisioning is ProvisioningMode.CPU_SET:
            need = max(profile.n_threads, 1)
            if self._next_pin + need > n_cores:
                raise RuntimeError(f"node {self.name} out of pinnable cores")
            cpuset = tuple(range(self._next_pin, self._next_pin + need))
        else:
            cpuset = tuple(range(n_cores))
        pod = Pod(
            app=profile.name,
            node_name=self.name,
            profile=profile,
            cpuset=cpuset,
        )
        # same counter-draw order as Process()/new_thread() would use
        pid = next(kernel_task._pid_counter)
        tids = tuple(
            next(kernel_task._tid_counter) for _ in range(profile.n_threads)
        )
        placement = PodPlacement(
            app=profile.name,
            profile=profile,
            cpuset=pod.cpuset,
            spawn_seed=self.seed + len(self.pods),
            pid=pid,
            tids=tids,
            pod_uid=pod.uid,
        )
        self.log.append(placement)
        self.applied += 1
        self._place(placement, pod)
        return pod

    # -- tracing ----------------------------------------------------------------

    def trace_pod(
        self, pod: Pod, request: TracingRequest
    ) -> TracingSession:
        """Start one tracing session against a pod on this node."""
        if not self.alive:
            raise RuntimeError(f"node {self.name} is down")
        self.materialize()
        if pod.process is None or pod.phase is not PodPhase.RUNNING:
            raise RuntimeError(f"{pod} has no running process")
        return self.facility.begin_tracing(request)

    # -- faults ------------------------------------------------------------------

    def schedule_crash(self, at_ns: int) -> None:
        """Arrange for this node to crash at absolute virtual time ``at_ns``."""
        self.system.sim.schedule(max(at_ns, self.now), self.crash)

    def crash(self) -> None:
        """Crash the node now: clock halts, in-flight sessions are lost.

        Active sessions stop with reason ``node-crash``; the trace bytes
        they buffered lived in node DRAM, so the master must treat them
        as unrecoverable (it never gets to upload them).
        """
        if not self.alive:
            return
        self._alive = False
        self.crash_count += 1
        otc = self.facility.otc
        if otc is not None:
            for session in list(otc.active_sessions):
                otc.stop(session, STOP_NODE_CRASH)
        self.system.sim.halt()

    def restart(self) -> None:
        """Boot a replacement node: fresh kernel + facility, pods respawned.

        Pod objects (and their uids) survive; each gets a new process on
        the new system, keeping its original cpuset *and* its pinned
        pid/tids from the placement record, so the replacement traces
        with the same CR3 filter value.  Failed pods come back too
        (``restartPolicy: Always``).
        """
        if self.alive:
            return
        self.restart_count += 1
        seed = derive_seed(self.seed, "restart", self.restart_count) % (2**31)
        self._system = KernelSystem(replace(self._base_config, seed=seed))
        self._facility = ExistFacility(self._system, seed=seed)
        self._facility.install()
        self._alive = True
        for index, (placement, pod) in enumerate(
            zip(self._placements(), self.pods)
        ):
            self._spawn(placement, pod, seed + index)

    def schedule_pod_kill(
        self, pod: Pod, session: Optional[TracingSession], at_ns: int
    ) -> None:
        """Kill ``pod`` at virtual time ``at_ns`` (its session stops early).

        Unlike a node crash, the facility survives: the session's
        partial trace data remains in the (kernel-owned) buffers and can
        still be uploaded — degraded, not lost.
        """

        def _kill() -> None:
            if pod.phase is not PodPhase.RUNNING:
                return
            pod.mark_failed()
            otc = self.facility.otc
            if session is not None and not session.stopped and otc is not None:
                otc.stop(session, STOP_POD_KILLED)

        self.system.sim.schedule(max(at_ns, self.now), _kill)

    # -- time ------------------------------------------------------------------------

    def run_for(self, duration_ns: int) -> None:
        """Advance this node's virtual time (no-op while crashed)."""
        if not self.alive:
            return
        self.system.run_for(duration_ns)

    @property
    def now(self) -> int:
        self.catch_up()
        if self._system is None:
            return 0
        return self._system.sim.now

    def utilization(self) -> float:
        """Average core utilization since the node booted."""
        return self.system.topology.utilization(max(self.now, 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self._alive else "down"
        return f"ClusterNode({self.name}, pods={len(self.pods)}, {state})"
