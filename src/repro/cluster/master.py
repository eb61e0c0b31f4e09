"""Cluster master: deployments, the TraceTask controller, and RCO wiring.

The control plane of the reproduction: applications are deployed as pod
replicas across worker nodes; a submitted :class:`TraceTask` CRD is
reconciled by (1) asking RCO which repetitions to trace and for how long,
(2) starting node-level EXIST sessions, (3) driving the nodes through the
tracing window, and (4) uploading raw traces to the object store and the
decoded, structured results to the analytical store — the paper's §4
control and data flows end to end.

Pooled reconcile: the per-node tracing work (session start, fault
arming, retries, salvage, decode) is packaged as node-disjoint *slots*,
each running as one task on the shared persistent worker pool, whose
work stealing balances the round.  A thin coordinator keeps all
cross-node decisions (RCO sampling, timed-fault victim choice, refill
rounds) and merges slot results in slot-index order, so
``jobs=1`` and ``jobs=N`` reconciles are byte-identical — including
fault injection, retry backoff, and coverage metrics.  Each slot is a
:class:`SlotEntry` appended to its node's event log before dispatch;
at ``jobs=1`` it runs on the master's own node, and a worker runs it on
a copy rebuilt from the node's spec and log, which the master's node
replays on its next use.  Per-pod coordinator bookkeeping lives in
numpy columns (:class:`~repro.cluster.fleet.FleetIndex`), which is what
lets one master drive thousands of nodes, each built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.reconstruct import coverage_by_thread, thread_labels
from repro.cluster.crd import TaskPhase, TraceTask, TraceTaskSpec
from repro.cluster.fleet import FleetIndex
from repro.cluster.node import (
    STOP_NODE_CRASH,
    STOP_POD_KILLED,
    ClusterNode,
)
from repro.cluster.pod import Pod
from repro.cluster.storage import BinaryRepository, ObjectStore, StructuredStore
from repro.core.config import ExistConfig, TraceReason, TracingRequest
from repro.core.rco import CoverageMetric, Repetition, RepetitionAwareCoverageOptimizer
from repro.faults.injector import FaultInjector, TimedAssignment
from repro.faults.plan import FaultPlan
from repro.faults.report import DegradationReport
from repro.hwtrace.decoder import encode_trace
from repro.parallel.pool import RunPool
from repro.program.workloads import WorkloadProfile, get_workload
from repro.streaming import StreamingIngestor
from repro.streaming.pipeline import upload_stats
from repro.util.units import MIB, MSEC


def _warm_worker_binary(app: str) -> None:
    """Regenerate ``app``'s memoized binary in this worker (warmup).

    Broadcast once per reconcile so the first pooled round doesn't pay
    code generation in every worker mid-wave.
    """
    get_workload(app).binary()


#: waves a reconcile runs: the initial attempt plus up to two retries
MAX_WAVES = 3
#: first exponential backoff step between waves
BACKOFF_BASE_MS = 25
#: ceiling for one exponential backoff step — keeps high attempt counts
#: from overflowing into absurd virtual-time jumps
MAX_BACKOFF_MS = 1000
#: virtual time a tracing window runs past the period before upload
SETTLE_MS = 50


def backoff_ns(wave: int) -> int:
    """Backoff granted before retry wave ``wave`` (overflow-safe)."""
    if wave <= 0:
        return 0
    exponent = min(wave - 1, 62)
    ms = min(BACKOFF_BASE_MS * (2 ** exponent), MAX_BACKOFF_MS)
    return int(ms) * MSEC


@dataclass(frozen=True)
class SlotTask:
    """One node-disjoint unit of reconcile work (picklable)."""

    slot: int
    app: str
    pod_uid: str
    node_name: str
    reason: TraceReason
    requester: str
    period_ns: int
    window_ns: int
    #: global wave index of this slot's first attempt (0 for the initial
    #: selection, the refill round number for replacements)
    start_wave: int
    #: virtual-time backoff the node serves before its first attempt
    #: (the backoff steps of the rounds it missed)
    initial_backoff_ns: int
    #: coordinator-chosen timed faults targeting this slot's node
    assignments: Tuple[TimedAssignment, ...] = ()


@dataclass
class SlotOutcome:
    """What one slot reports back to the coordinator (picklable)."""

    slot: int
    node_name: str
    pod_uid: str
    app: str
    label: str = ""
    attempts: int = 0
    start_wave: int = 0
    achieved: bool = False
    salvaged: bool = False
    completed: bool = False
    cr3: int = 0
    raw: bytes = b""
    dropped: int = 0
    bytes_captured: float = 0.0
    rejected_bytes: float = 0.0
    records: int = 0
    functions: int = 0
    resyncs: int = 0
    bytes_skipped: int = 0
    unresolved: int = 0
    #: int64 body length of every PSB chunk of a canonical upload, or
    #: None for anything else (what streaming ingest paces or dead-letters)
    chunk_lengths: Optional[np.ndarray] = None
    #: thread label -> merged coverage intervals
    coverage: Dict[str, list] = field(default_factory=dict)
    #: this slot's degradation deltas + chronological notes
    report: DegradationReport = field(default_factory=DegradationReport)


@dataclass(frozen=True)
class SlotEntry:
    """A slot in its node's event log: the triple that fully determines it."""

    task: SlotTask
    restart_crashed_nodes: bool
    plan: Optional[FaultPlan]

    def __call__(self, node: ClusterNode) -> SlotOutcome:
        return _run_slot(node, self.task, self.restart_crashed_nodes, self.plan)


def _run_slot(
    node: ClusterNode,
    slot_task: SlotTask,
    restart_crashed_nodes: bool,
    plan: Optional[FaultPlan],
) -> SlotOutcome:
    """Run one slot's attempt loop against a node.

    This is the former global wave body, scoped to a single node: start
    the session, arm faults, drive the window, classify, and retry in
    place after a crash when ``restart_crashed_nodes`` allows (the node
    restarts with its pinned pod identities, so retries stay
    byte-deterministic).  The slot's faults come from a fresh injector
    built from ``plan``; every slot-local fault stream is keyed by
    logical names, so the slot is the same wherever it runs.  All accounting goes to the outcome's
    scratch report; the coordinator merges scratch reports in slot order.
    """
    pod = next(p for p in node.pods if p.uid == slot_task.pod_uid)
    injector = FaultInjector(plan) if plan is not None else None
    outcome = SlotOutcome(
        slot=slot_task.slot,
        node_name=node.name,
        pod_uid=pod.uid,
        app=pod.app,
        start_wave=slot_task.start_wave,
    )
    report = outcome.report
    if slot_task.initial_backoff_ns:
        node.run_for(slot_task.initial_backoff_ns)

    session = None
    wave = slot_task.start_wave
    while wave < MAX_WAVES:
        outcome.attempts += 1
        label = f"{node.name}/{pod.app}#w{wave}"
        outcome.label = label
        # a crashed node reboots (kubelet restartPolicy) unless the
        # reconcile forbids it
        if not node.alive and restart_crashed_nodes:
            node.restart()
            report.nodes_restarted += 1
            report.note(f"restarted {node.name}")
        request = TracingRequest(
            target=pod.app,
            reason=slot_task.reason,
            period_ns=slot_task.period_ns,
            requester=slot_task.requester,
        )
        try:
            session = node.trace_pod(pod, request)
        except RuntimeError:
            cause = "node down" if not node.alive else "pod not running"
            report.note(f"session start failed on {label}: {cause}")
            session = None
            break
        outcome.cr3 = session.target.cr3
        if injector is not None:
            assignments = (
                slot_task.assignments if wave == slot_task.start_wave else ()
            )
            injector.arm_slot(
                node, pod, session, label, wave, slot_task.window_ns,
                assignments=assignments, report=report,
            )
        node.run_for(slot_task.window_ns)
        # the OTC timer stops the session at start + period, inside the
        # window, unless the node crashed first
        assert session.stopped or not node.alive
        if injector is not None:
            injector.disarm_slot(node)

        # timed faults arm on the first wave only, so a slot crashes once
        if not node.alive:
            report.nodes_crashed += 1
            report.note(f"{node.name} crashed mid-window")
        if session.stop_reason == STOP_NODE_CRASH:
            # trace bytes lived in node DRAM: unrecoverable, but the
            # replica itself comes back with the node reboot
            report.sessions_abandoned += 1
            report.note(f"abandoned {label}: node crash")
            session = None
            if restart_crashed_nodes:
                wave += 1
                continue
            break
        if session.stop_reason == STOP_POD_KILLED:
            # facility survived: salvage the partial window
            report.pods_killed += 1
            report.sessions_degraded += 1
            report.note(f"salvaged partial window of {label}")
            outcome.salvaged = True
            outcome.completed = True
            break
        outcome.achieved = True
        outcome.completed = True
        break

    if outcome.completed and session is not None:
        raw = encode_trace(session.segments)
        dropped = 0
        if injector is not None:
            raw, dropped = injector.mangle(raw, outcome.label, report=report)
        outcome.raw = raw
        outcome.dropped = dropped
        outcome.bytes_captured = session.bytes_captured
        outcome.rejected_bytes = float(
            sum(
                max(0.0, s.bytes_offered - s.bytes_accepted)
                for s in session.segments
            )
        )
        if pod.process is not None:
            outcome.coverage = coverage_by_thread(
                session.segments, thread_labels(pod.process)
            )
    return outcome


def _decode_outcome(outcome: SlotOutcome, binary) -> SlotOutcome:
    """Decode a completed slot's upload in place (:func:`upload_stats`)."""
    if outcome.completed:
        (
            outcome.records,
            outcome.functions,
            outcome.resyncs,
            outcome.bytes_skipped,
            outcome.unresolved,
            outcome.chunk_lengths,
        ) = upload_stats(outcome.cr3, outcome.raw, binary)
    return outcome


def _run_shard(payload) -> SlotOutcome:
    """Run the slot that ends ``node``'s log prefix ``stop``, and decode it.

    The node is the master's own at ``jobs=1``; in a pool worker it is a
    copy unpickled from its spec, so it first replays every earlier
    entry (pinned pid/tids: no identity counters are drawn, and the
    trace bytes match the master's node).  The upload decodes where the
    bytes are (:func:`upload_stats`: the upload's own CR3 only), against
    ``binary`` or, when that is None, the fork-inherited memoized one.
    """
    node, stop, binary = payload
    outcome = node.catch_up(stop)
    if binary is None:
        binary = get_workload(outcome.app).binary()
    return _decode_outcome(outcome, binary)


@dataclass
class Deployment:
    """An application's replica set across the cluster."""

    app: str
    profile: WorkloadProfile
    pods: List[Pod] = field(default_factory=list)

    @property
    def replicas(self) -> int:
        return len(self.pods)


@dataclass
class ManagementFootprint:
    """RCO management-pod resource usage (paper Figure 17, right side)."""

    cpu_cores: float = 0.0
    memory_bytes: int = 0

    @property
    def memory_mb(self) -> float:
        return self.memory_bytes / MIB


class ClusterMaster:
    """The Kubernetes-master stand-in hosting the EXIST control plane."""

    #: RCO management pod baseline (measured in the paper: <3e-3 cores,
    #: ~40 MB under high stress on a ten-node cluster; expanded to a
    #: thousand nodes the overhead stays below one permille)
    MGMT_BASE_MEMORY = 38 * MIB
    MGMT_CPU_PER_TASK = 2e-3
    MGMT_MEMORY_PER_TASK = int(0.2 * MIB)
    #: columnar fleet state: ~1.5 KiB/node and ~0.5 KiB/pod of arrays,
    #: watch caches, and heartbeat state — the terms that matter at
    #: multi-thousand-node scale
    MGMT_CPU_PER_NODE = 5e-8
    MGMT_MEMORY_PER_NODE = 1536
    MGMT_MEMORY_PER_POD = 512

    def __init__(self, seed: int = 0, decode_cache=True):
        # ``decode_cache`` is accepted for existing callers and ignored:
        # each slot's upload resolves in one pass (:func:`upload_stats`)
        self.nodes: Dict[str, ClusterNode] = {}
        self.deployments: Dict[str, Deployment] = {}
        self.rco = RepetitionAwareCoverageOptimizer(ExistConfig(), seed=seed)
        self.object_store = ObjectStore()
        self.structured_store = StructuredStore()
        self.binary_repository = BinaryRepository()
        self.structured_store.create_table("traces")
        self.tasks: List[TraceTask] = []
        self._active_tasks = 0
        #: next bulk-registration index per name prefix — monotone even
        #: across node removals, so churn replacements never reuse (and
        #: thereby resurrect) a drained node's name
        self._name_floor: Dict[str, int] = {}
        #: task name -> pod uid -> {thread label: coverage intervals},
        #: recorded at reconcile time (read this instead of reaching into
        #: node facilities, which may have run inside a pool worker)
        self.task_coverage: Dict[str, Dict[str, Dict[str, list]]] = {}

    # -- cluster assembly --------------------------------------------------------

    def add_node(self, node: ClusterNode) -> None:
        """Register a worker node with the master."""
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        prefix, _, suffix = node.name.rpartition("-")
        if prefix and suffix.isdigit():
            self._name_floor[prefix] = max(
                self._name_floor.get(prefix, 0), int(suffix) + 1
            )

    def add_nodes(self, count: int, base_seed: int = 0) -> List[ClusterNode]:
        """Bulk-register ``count`` nodes (the scale path).

        A node builds its kernel and facility only when first used, so
        registering thousands costs microseconds per node.  Names
        (``node-00000``, ...) continue after the highest index *ever
        used* (monotone across removals), which is what node churn
        relies on: a replacement never resurrects a drained node's name.
        """
        start = self._name_floor.get("node", 0)
        created = []
        for offset in range(count):
            index = start + offset
            node = ClusterNode(f"node-{index:05d}", seed=base_seed + index)
            self.add_node(node)
            created.append(node)
        return created

    def remove_node(self, name: str) -> ClusterNode:
        """Drain one node out of the cluster (churn / scale-in).

        Its pods are evicted from their deployments, and the replica
        controller immediately places fresh replacements on
        the least-loaded surviving nodes (name-ordered within a load
        tier), so a reconcile running after churn still finds its
        replica count and repeated churn doesn't pile replicas onto the
        first survivor.
        """
        node = self.nodes.pop(name)
        load: Dict[str, int] = {survivor: 0 for survivor in self.nodes}
        for deployment in self.deployments.values():
            for pod in deployment.pods:
                if pod.node_name in load:
                    load[pod.node_name] += 1
        for deployment in self.deployments.values():
            evicted = [pod for pod in deployment.pods if pod.node_name == name]
            if not evicted:
                continue
            deployment.pods = [
                pod for pod in deployment.pods if pod.node_name != name
            ]
            if self.nodes:
                for _ in evicted:
                    target = min(sorted(load), key=load.get)
                    load[target] += 1
                    deployment.pods.append(
                        self.nodes[target].place_pod(deployment.profile)
                    )
        return node

    def deploy(self, app: str, replicas: int) -> Deployment:
        """Deploy ``replicas`` pods of ``app`` round-robin across nodes."""
        profile = get_workload(app)
        targets = sorted(self.nodes)
        if not targets:
            raise RuntimeError("no nodes in the cluster")
        deployment = self.deployments.setdefault(
            app, Deployment(app=app, profile=profile)
        )
        # the decoder later fetches this binary keyed by the app (§4)
        if not self.binary_repository.has(app):
            self.binary_repository.register(app, profile.binary())
        for index in range(replicas):
            node = self.nodes[targets[index % len(targets)]]
            deployment.pods.append(node.place_pod(profile))
        return deployment

    # -- the TraceTask controller ---------------------------------------------------

    def submit(self, spec: TraceTaskSpec) -> TraceTask:
        """Accept a TraceTask CRD (reconcile separately)."""
        task = TraceTask(spec=spec)
        self.tasks.append(task)
        return task

    # -- pooled reconcile -------------------------------------------------------

    def _dispatch_round(
        self,
        slot_tasks: List[SlotTask],
        pool: RunPool,
        restart_crashed_nodes: bool,
        faults: Optional[FaultPlan],
        binary,
    ) -> List[SlotOutcome]:
        """Run one round's slots, one ``pool`` task per slot.

        Each slot is appended to its node's log first, then
        :func:`_run_shard` runs it on the node: the master's own object
        in an in-process pool, a copy rebuilt from spec and log in a
        worker.  Each completed slot decodes its own upload where the
        bytes are; a worker regenerates ``binary`` rather than receive
        it.  Outcomes come back in slot order.
        """
        payloads = []
        for slot_task in slot_tasks:
            node = self.nodes[slot_task.node_name]
            node.log.append(SlotEntry(slot_task, restart_crashed_nodes, faults))
            payloads.append(
                (node, len(node.log), None if pool.parallel else binary)
            )
        return pool.map(_run_shard, payloads)

    def reconcile(
        self,
        task: TraceTask,
        pool: Optional[RunPool] = None,
        faults: Optional[FaultPlan] = None,
        streaming: bool = False,
        restart_crashed_nodes: bool = True,
    ) -> TraceTask:
        """Run the full reconciliation loop for one task.

        Each node's tracing + decode work runs as one task of ``pool``
        (optional), or of an in-process pool when ``pool`` is None, is
        not parallel, or its workers could not regenerate the
        repository's binary; results are byte-identical either way.
        Every completed slot decodes its own upload
        (:func:`upload_stats`), streaming or not.
        ``faults`` (optional) arms a seeded :class:`FaultPlan`
        against the run; the reconcile then *degrades* instead of
        failing — retrying in waves, resampling replacement replicas,
        salvaging partial windows, and attaching a
        :class:`DegradationReport` with the honest loss accounting.
        A reconcile runs the initial attempt plus up to ``MAX_WAVES - 1``
        retries, backing off in virtual time between them
        (:func:`backoff_ns`).  A slot whose node crashes restarts the node
        and retries in place when ``restart_crashed_nodes`` is True;
        slots that still fall short are refilled on fresh nodes.

        ``streaming`` True only adds the online ingest accounting:
        completed slots' chunk lengths are paced through the bounded
        backpressured queue as rounds finish, non-canonical uploads
        count as dead letters, and the result lands on
        ``task.status.stream``.  Decode is the same either way, so
        coverage, degradation, and decode-loss end state is
        byte-identical to the batch path and across ``--jobs`` widths.
        """
        deployment = self.deployments.get(task.spec.app)
        if deployment is None or not deployment.pods:
            task.status.phase = TaskPhase.FAILED
            task.status.message = f"app {task.spec.app!r} not deployed"
            return task

        faults = faults or None
        injector = FaultInjector(faults) if faults is not None else None
        report = (
            injector.report if injector is not None else DegradationReport()
        )

        # (1) RCO decides repetitions and period
        repetitions = [
            Repetition(
                app=pod.app,
                node=pod.node_name,
                pod_uid=pod.uid,
                priority=pod.priority,
            )
            for pod in deployment.pods
        ]
        request = TracingRequest(
            target=task.spec.app,
            reason=task.spec.reason,
            period_ns=task.spec.period_ns,
            requester=task.spec.requester,
        )
        plan = self.rco.orchestrate(request, deployment.profile, repetitions)
        selected = plan.selected
        if task.spec.max_repetitions is not None:
            selected = selected[: task.spec.max_repetitions]

        # columnar fleet state: dedupe, refill exclusion and coverage
        # rollups are array ops from here on
        fleet = FleetIndex(
            uids=[pod.uid for pod in deployment.pods],
            node_names=[pod.node_name for pod in deployment.pods],
        )
        slot_rows = fleet.dedupe_first_per_node(
            fleet.rows_of([r.pod_uid for r in selected])
        )
        fleet.mark_selected(slot_rows)
        coverage_requested = int(len(slot_rows))
        task.status.period_ns = plan.period_ns
        task.status.selected_pods = [str(uid) for uid in fleet.uids[slot_rows]]
        task.status.phase = TaskPhase.SCHEDULED
        self._active_tasks += 1

        window = plan.period_ns + SETTLE_MS * MSEC
        pods_by_uid = {pod.uid: pod for pod in deployment.pods}
        binary = self.binary_repository.fetch(task.spec.app)
        # workers regenerate the binary from the fork-inherited workload
        # cache, so they can take slots only when the repository holds
        # that memoized binary
        if (
            pool is not None
            and pool.parallel
            and binary is get_workload(task.spec.app).binary()
        ):
            pool.broadcast(_warm_worker_binary, (task.spec.app,))
        else:
            pool = RunPool(max_workers=1)

        ingestor: Optional[StreamingIngestor] = None
        if streaming:
            ingestor = StreamingIngestor(app=task.spec.app, binary=binary)

        # (2+3) trace in rounds of node-disjoint slots: the initial
        # selection, then refill rounds with RCO-resampled replacements
        # on fresh nodes.  Crash retries happen *inside* a slot.
        outcomes: List[SlotOutcome] = []
        slot_counter = 0
        pending_rows = slot_rows
        round_index = 0
        while len(pending_rows) and round_index < MAX_WAVES:
            task.status.phase = TaskPhase.TRACING
            initial_backoff_ns = sum(
                backoff_ns(wave) for wave in range(1, round_index + 1)
            )
            round_tasks: List[SlotTask] = []
            previews: List[Tuple[str, str, str]] = []
            for row in pending_rows:
                pod = pods_by_uid[str(fleet.uids[row])]
                previews.append((
                    pod.node_name,
                    pod.uid,
                    f"{pod.node_name}/{pod.app}#w{round_index}",
                ))
            assignments: dict = {}
            if injector is not None:
                assignments = injector.assign_timed(previews, window)
            for row, (node_name, pod_uid, _label) in zip(
                pending_rows, previews
            ):
                round_tasks.append(SlotTask(
                    slot=slot_counter,
                    app=task.spec.app,
                    pod_uid=pod_uid,
                    node_name=node_name,
                    reason=task.spec.reason,
                    requester=task.spec.requester,
                    period_ns=plan.period_ns,
                    window_ns=window,
                    start_wave=round_index,
                    initial_backoff_ns=initial_backoff_ns,
                    assignments=tuple(assignments.get(node_name, ())),
                ))
                slot_counter += 1

            round_outcomes = self._dispatch_round(
                round_tasks, pool, restart_crashed_nodes, faults, binary
            )
            if ingestor is not None:
                # online ingestion: decoded uploads enter the streaming
                # pipeline as their round finishes, in slot order
                # (round_outcomes is slot-sorted)
                for outcome in round_outcomes:
                    if outcome.completed:
                        ingestor.ingest(outcome)
            # index-ordered merge: scratch reports fold in slot order, so
            # the merged accounting is independent of worker placement
            for outcome in round_outcomes:
                if outcome.achieved:
                    fleet.mark_achieved(fleet.row_of(outcome.pod_uid))
                report.merge(outcome.report)
            outcomes.extend(round_outcomes)

            round_index += 1
            need = coverage_requested - fleet.achieved()
            if need <= 0 or round_index >= MAX_WAVES:
                break
            # RCO resamples replacement replicas (§3.4) on fresh nodes,
            # avoiding pods already tried and nodes this task already
            # traced (slots stay node-disjoint)
            replacements = self.rco.spatial.resample(
                repetitions, need, exclude=fleet.exclude_uids()
            )
            pending_rows = fleet.dedupe_first_per_node(
                fleet.rows_of([r.pod_uid for r in replacements])
            )
            fleet.mark_selected(pending_rows)
            if len(pending_rows):
                report.note(
                    f"wave {round_index}: retrying"
                    f" {len(pending_rows)} replacements"
                )

        report.retry_waves = max(
            (o.start_wave + o.attempts - 1 for o in outcomes), default=0
        )

        # (4) upload raw traces (already mangled and decoded slot-side)
        # and persist structured rows
        task.status.phase = TaskPhase.DECODING
        if ingestor is not None:
            # close the streaming accounting
            task.status.stream = ingestor.finish().to_dict()
        completed = [outcome for outcome in outcomes if outcome.completed]
        pod_coverage: Dict[str, Dict[str, list]] = {}
        for outcome in completed:
            key = f"traces/{task.name}/{outcome.pod_uid}"
            self.object_store.put(key, outcome.raw)
            task.status.trace_keys.append(key)
            task.status.bytes_captured += outcome.bytes_captured
            task.status.sessions_completed += 1
            report.decode_resyncs += outcome.resyncs
            report.bytes_dropped += outcome.bytes_skipped
            degraded_row = bool(
                outcome.salvaged or outcome.dropped or outcome.bytes_skipped
            )
            if degraded_row:
                report.records_recovered += outcome.records
                if not outcome.salvaged:
                    report.sessions_degraded += 1
                    report.note(
                        f"recovered {outcome.records} records"
                        f" from {outcome.label}"
                    )
            if outcome.coverage:
                pod_coverage[outcome.pod_uid] = outcome.coverage
            self.structured_store.insert(
                "traces",
                [
                    {
                        "task": task.name,
                        "app": outcome.app,
                        "pod": outcome.pod_uid,
                        "node": outcome.node_name,
                        "records": outcome.records,
                        "functions": outcome.functions,
                        "bytes": len(outcome.raw),
                        "period_ns": plan.period_ns,
                        "degraded": degraded_row,
                    }
                ],
            )
        self.task_coverage[task.name] = pod_coverage
        if injector is not None and report.buffers_exhausted:
            report.buffer_bytes_rejected = int(
                sum(outcome.rejected_bytes for outcome in completed)
            )

        # (5) honest accounting: coverage + the degradation report
        metric = CoverageMetric(
            requested=coverage_requested, achieved=fleet.achieved()
        )
        report.sessions_completed = len(completed)
        report.coverage_requested = metric.requested
        report.coverage_achieved = metric.achieved
        task.status.coverage_requested = metric.requested
        task.status.coverage_achieved = metric.achieved
        task.status.degradation = report
        if report.degraded:
            task.status.phase = TaskPhase.DEGRADED
            task.status.message = report.summary()
        else:
            task.status.phase = TaskPhase.COMPLETE
        self._active_tasks -= 1
        return task

    # -- management accounting (Fig 17) -----------------------------------------------

    def management_footprint(self) -> ManagementFootprint:
        """Current RCO management-pod resource usage."""
        n_pods = sum(len(d.pods) for d in self.deployments.values())
        return ManagementFootprint(
            cpu_cores=self.MGMT_CPU_PER_TASK * max(1, self._active_tasks)
            + self.MGMT_CPU_PER_NODE * len(self.nodes),
            memory_bytes=self.MGMT_BASE_MEMORY
            + self.MGMT_MEMORY_PER_TASK * len(self.tasks)
            + self.MGMT_MEMORY_PER_NODE * len(self.nodes)
            + self.MGMT_MEMORY_PER_POD * n_pods,
        )

    def sessions_for(self, task: TraceTask) -> List[Dict]:
        """Structured-store rows produced by one task."""
        return self.structured_store.query(
            "traces", where=lambda r: r["task"] == task.name
        )
