"""Cluster worker node: a kernel system + EXIST facility + hosted pods.

Each node owns an independent simulated timeline.  The master advances
all nodes through the same virtual window; nodes do not interact directly
(inter-service effects are modeled by :mod:`repro.services`), which
matches how EXIST's node facilities operate independently under a
cluster-level orchestrator.

Placement specs and lazy nodes: every pod placement is recorded as a
:class:`PodPlacement` carrying the profile, cpuset, spawn seed and the
*pinned* pid/tids drawn from the global identity counters at placement
time.  A node is therefore a pure function of its :class:`NodeSpec`
(:meth:`ClusterNode.from_spec` rebuilds it byte-identically, e.g. inside
a pool worker running one reconcile slot), and a node constructed
with ``lazy=True`` defers the expensive kernel/facility build until a
reconcile actually traces it — which is what lets the fleet model scale
to thousands of nodes.

Worker replays: a slot that runs in a pool worker drives a rebuilt copy,
so the live node stays at its pre-dispatch state.  The master records
the slot on the node (:meth:`ClusterNode.defer_replay`), and the node
replays it in-process the next time its state is read or changed —
``alive``, ``system``, ``facility``, ``now`` or :meth:`place_pod` — so
later in-process use sees exactly what a ``jobs=1`` run would.

Fault surface: a node can *crash* (its clock halts, in-flight tracing
sessions are aborted and their in-memory trace data is lost) and later
*restart* (fresh kernel + facility, pods respawned — the kubelet's
``restartPolicy: Always``).  Individual pods can be *killed* mid-window;
the facility survives a pod kill, so partial trace data remains
salvageable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cluster.pod import Pod, PodPhase
from repro.core.config import ExistConfig, TracingRequest
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


@dataclass(frozen=True)
class NodeSpec:
    """Picklable recipe for rebuilding one ClusterNode in a pool worker."""

    name: str
    system_config: SystemConfig
    exist_config: Optional[ExistConfig]
    seed: int
    placements: Tuple[PodPlacement, ...]


class ClusterNode:
    """One worker node with its own simulated kernel and facility."""

    def __init__(
        self,
        name: str,
        system_config: Optional[SystemConfig] = None,
        exist_config: Optional[ExistConfig] = None,
        seed: int = 0,
        lazy: bool = False,
    ):
        self.name = name
        self.seed = seed
        self._base_config = system_config or SystemConfig.small_node(8, seed=seed)
        self._exist_config = exist_config
        self._system: Optional[KernelSystem] = None
        self._facility: Optional[ExistFacility] = None
        self.pods: List[Pod] = []
        self.placements: List[PodPlacement] = []
        self._next_pin = 0
        self._alive = True
        self.crash_count = 0
        self.restart_count = 0
        #: the slot a pool worker ran on a rebuild of this node, not yet
        #: replayed here (see :meth:`defer_replay`)
        self._replay: Optional[Callable[["ClusterNode"], object]] = None
        if not lazy:
            self.materialize()

    # -- lazy construction -------------------------------------------------------

    @property
    def core_count(self) -> int:
        """Logical core count, computable without building the system."""
        config = self._base_config
        return config.sockets * config.cores_per_socket * config.threads_per_core

    @property
    def materialized(self) -> bool:
        return self._system is not None

    def materialize(self) -> None:
        """Build the kernel system + facility and spawn recorded pods.

        Idempotent; lazy nodes call this the first time a reconcile
        actually traces them.  Pods spawn in placement order with their
        pinned pid/tids, so a late materialization is byte-identical to
        an eager one.
        """
        if self._system is not None:
            return
        self._system = KernelSystem(self._base_config)
        self._facility = ExistFacility(
            self._system, self._exist_config, seed=self.seed
        )
        self._facility.install()
        for placement, pod in zip(self.placements, self.pods):
            if pod.process is not None:
                continue
            process = placement.profile.spawn(
                self._system,
                cpuset=placement.cpuset,
                seed=placement.spawn_seed,
                pid=placement.pid,
                tids=placement.tids,
            )
            process.pod = pod
            pod.mark_running(process)

    @property
    def system(self) -> KernelSystem:
        self._replay_worker_slot()
        self.materialize()
        assert self._system is not None
        return self._system

    @property
    def facility(self) -> ExistFacility:
        self._replay_worker_slot()
        self.materialize()
        assert self._facility is not None
        return self._facility

    def to_spec(self) -> NodeSpec:
        """The picklable recipe a pool worker rebuilds this node from."""
        return NodeSpec(
            name=self.name,
            system_config=self._base_config,
            exist_config=self._exist_config,
            seed=self.seed,
            placements=tuple(self.placements),
        )

    @classmethod
    def from_spec(cls, spec: NodeSpec) -> "ClusterNode":
        """Rebuild a node from its spec (no identity counters drawn)."""
        node = cls(
            spec.name,
            system_config=spec.system_config,
            exist_config=spec.exist_config,
            seed=spec.seed,
            lazy=True,
        )
        next_pin = 0
        for placement in spec.placements:
            pod = Pod(
                app=placement.app,
                node_name=spec.name,
                profile=placement.profile,
                cpuset=placement.cpuset,
                uid=placement.pod_uid,
            )
            node.pods.append(pod)
            node.placements.append(placement)
            if placement.profile.provisioning is ProvisioningMode.CPU_SET:
                next_pin = max(next_pin, max(placement.cpuset) + 1)
        node._next_pin = next_pin
        node.materialize()
        return node

    @property
    def rebuildable(self) -> bool:
        """Whether a worker-side rebuild from spec matches this node.

        True only while the node is *pristine*: never crashed, restarted,
        advanced in time, or traced by a pool worker.  The master
        dispatches only rebuildable nodes to workers; anything else runs
        in-process on the live object.  Reads no replayable state, so
        asking never triggers a replay.
        """
        return (
            self._replay is None
            and self._alive
            and self.crash_count == 0
            and self.restart_count == 0
            and (self._system is None or self._system.sim.now == 0)
        )

    def defer_replay(self, replay: Callable[["ClusterNode"], object]) -> None:
        """Record the slot a pool worker ran on a rebuild of this node.

        Only a rebuildable node goes to a worker, and a pending replay
        makes it not rebuildable, so at most one is ever pending.
        ``replay(node)`` re-runs that slot on this (still pristine)
        node, in-process, right before the node's state is next read or
        changed.
        """
        assert self._replay is None
        self._replay = replay

    def _replay_worker_slot(self) -> None:
        replay, self._replay = self._replay, None
        if replay is not None:
            replay(self)

    @property
    def alive(self) -> bool:
        self._replay_worker_slot()
        return self._alive

    # -- pod placement -------------------------------------------------------

    def place_pod(
        self,
        profile: WorkloadProfile,
        cpuset: Optional[Sequence[int]] = None,
    ) -> Pod:
        """Place and start one replica of ``profile`` on this node.

        CPU-set pods get an exclusive pinned range sized to their thread
        count when no explicit ``cpuset`` is given; CPU-share pods map to
        the node's full core set.  On a lazy node the pod's identities
        (uid, pid, tids) are drawn immediately — in the exact order an
        eager spawn would draw them — but the process itself spawns at
        :meth:`materialize` time.
        """
        self._replay_worker_slot()
        n_cores = self.core_count
        if cpuset is None:
            if profile.provisioning is ProvisioningMode.CPU_SET:
                need = max(profile.n_threads, 1)
                if self._next_pin + need > n_cores:
                    raise RuntimeError(f"node {self.name} out of pinnable cores")
                cpuset = tuple(range(self._next_pin, self._next_pin + need))
                self._next_pin += need
            else:
                cpuset = tuple(range(n_cores))
        pod = Pod(
            app=profile.name,
            node_name=self.name,
            profile=profile,
            cpuset=tuple(cpuset),
        )
        spawn_seed = self.seed + len(self.pods)
        # same counter-draw order as Process()/new_thread() would use
        pid = next(kernel_task._pid_counter)
        tids = tuple(
            next(kernel_task._tid_counter) for _ in range(profile.n_threads)
        )
        placement = PodPlacement(
            app=profile.name,
            profile=profile,
            cpuset=pod.cpuset,
            spawn_seed=spawn_seed,
            pid=pid,
            tids=tids,
            pod_uid=pod.uid,
        )
        if self._system is not None:
            process = profile.spawn(
                self._system,
                cpuset=pod.cpuset,
                seed=spawn_seed,
                pid=pid,
                tids=tids,
            )
            process.pod = pod
            pod.mark_running(process)
        self.pods.append(pod)
        self.placements.append(placement)
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
        self._facility = ExistFacility(self._system, self._exist_config, seed=seed)
        self._facility.install()
        self._alive = True
        for index, (placement, pod) in enumerate(
            zip(self.placements, self.pods)
        ):
            process = placement.profile.spawn(
                self._system,
                cpuset=pod.cpuset,
                seed=seed + index,
                pid=placement.pid,
                tids=placement.tids,
            )
            process.pod = pod
            pod.mark_running(process)

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
        self._replay_worker_slot()
        if self._system is None:
            return 0
        return self._system.sim.now

    def utilization(self) -> float:
        """Average core utilization since the node booted."""
        return self.system.topology.utilization(max(self.now, 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self._alive else "down"
        return f"ClusterNode({self.name}, pods={len(self.pods)}, {state})"
