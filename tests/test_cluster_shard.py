"""Tests for the pooled control plane: fleet index, lazy nodes, node
spec rebuilds, worker-slot replay, pool parity, and churn."""

import json
import os

import numpy as np
import pytest

from repro.cluster import master as master_module
from repro.cluster.autoscale import ChurnModel
from repro.cluster.crd import TraceTaskSpec
from repro.cluster.fleet import FleetIndex
from repro.cluster.master import (
    BACKOFF_BASE_MS,
    MAX_BACKOFF_MS,
    ClusterMaster,
    backoff_ns,
)
from repro.cluster.node import ClusterNode
from repro.core.config import TraceReason, TracingRequest
from repro.core.rco import augment_traces, merge_intervals
from repro.faults.plan import FaultPlan
from repro.parallel.pool import RunPool
from repro.parallel.workers import shutdown_process_pool
from repro.util.identity import reset_identity_counters
from repro.util.units import MSEC


class TestFleetIndex:
    def _fleet(self):
        return FleetIndex(
            uids=["p1", "p2", "p3", "p4", "p5"],
            node_names=["n-b", "n-a", "n-b", "n-c", "n-a"],
        )

    def test_dedupe_matches_sorted_first_per_node(self):
        fleet = self._fleet()
        rows = fleet.dedupe_first_per_node(np.array([0, 1, 2, 3, 4]))
        # node order n-a, n-b, n-c; first occurrence per node wins
        assert [str(u) for u in fleet.uids[rows]] == ["p2", "p1", "p4"]

    def test_mark_selected_claims_nodes(self):
        fleet = self._fleet()
        fleet.mark_selected(np.array([0]))
        assert fleet.attempted.tolist() == [True, False, False, False, False]
        # p3 shares n-b with p1, so both are now excluded from refills
        assert fleet.exclude_uids() == {"p1", "p3"}

    def test_rollups(self):
        fleet = self._fleet()
        assert fleet.achieved() == 0
        fleet.mark_achieved(0)
        fleet.mark_achieved(3)
        fleet.mark_achieved(3)  # idempotent: one pod counts once
        assert fleet.achieved() == 2
        # achieving a pod claims no node: refill exclusion is unchanged
        assert fleet.exclude_uids() == set()


class TestLazyNodes:
    def test_lazy_node_defers_materialization(self):
        node = ClusterNode("lazy-00")
        profile = __import__(
            "repro.program.workloads", fromlist=["get_workload"]
        ).get_workload("Search1")
        pod = node.place_pod(profile)
        assert node.now == 0
        assert pod.process is None
        request = TracingRequest(target="Search1", reason=TraceReason.ANOMALY,
                                 period_ns=50 * MSEC)
        session = node.trace_pod(pod, request)
        assert session is not None
        assert pod.process is not None  # materialized on demand

    def test_spec_rebuild_is_identity_exact(self):
        reset_identity_counters()
        master = ClusterMaster(seed=3)
        master.add_node(ClusterNode("spec-00", seed=3))
        master.deploy("Search1", replicas=1)
        task = master.submit(TraceTaskSpec(
            app="Search1", reason=TraceReason.ANOMALY, period_ns=40 * MSEC,
        ))
        # a crash mid-window: the slot restarts the node and retries
        master.reconcile(task, faults=FaultPlan.parse("crash@0.5", seed=0))
        master.deploy("Agent", replicas=1)  # a placement after the slot
        original = master.nodes["spec-00"]
        assert [type(entry).__name__ for entry in original.log] == [
            "PodPlacement", "SlotEntry", "PodPlacement",
        ]
        rebuilt = ClusterNode.from_spec(original.to_spec())
        assert rebuilt.now == original.now > 0  # reading `now` catches up
        assert rebuilt.crash_count == original.crash_count == 1
        assert rebuilt.restart_count == original.restart_count == 1
        assert len(rebuilt.facility.completed) == len(
            original.facility.completed
        )

        def identities(node):
            return [
                (pod.uid, pod.process.pid, pod.process.cr3,
                 [t.tid for t in pod.process.threads])
                for pod in node.pods
            ]

        assert len(original.pods) == 2
        assert identities(rebuilt) == identities(original)

    def test_add_nodes_continues_numbering(self):
        master = ClusterMaster()
        master.add_nodes(3)
        master.add_nodes(2)
        assert sorted(master.nodes) == [
            f"node-{i:05d}" for i in range(5)
        ]

    def test_remove_node_reschedules(self):
        master = ClusterMaster()
        master.add_nodes(4)
        deployment = master.deploy("Search1", replicas=4)
        victim = deployment.pods[0].node_name
        master.remove_node(victim)
        assert victim not in master.nodes
        assert deployment.replicas == 4
        assert all(p.node_name != victim for p in deployment.pods)


class TestShardedReconcileParity:
    def _run(self, jobs, faults=None):
        reset_identity_counters()
        master = ClusterMaster(seed=7)
        master.add_nodes(8, base_seed=50)
        master.deploy("Search1", replicas=6)
        task = master.submit(TraceTaskSpec(
            app="Search1",
            reason=TraceReason.ANOMALY,
            period_ns=40 * MSEC,
        ))
        plan = FaultPlan.parse(faults, seed=11) if faults else None
        if jobs > 1:
            with RunPool(max_workers=jobs) as pool:
                master.reconcile(task, faults=plan, pool=pool)
        else:
            master.reconcile(task, faults=plan)
        raws = {
            key: master.object_store.get(key).hex()
            for key in task.status.trace_keys
        }
        fingerprint = json.dumps({
            "phase": task.status.phase.value,
            "selected": task.status.selected_pods,
            "raws": raws,
            "rows": master.sessions_for(task),
            "sessions": task.status.sessions_completed,
            "bytes": task.status.bytes_captured,
            "events": list(task.status.degradation.events),
        }, sort_keys=True, default=str)
        return task, fingerprint

    @pytest.mark.slow
    def test_pool_parity_fault_free(self):
        _task, serial = self._run(jobs=1)
        shutdown_process_pool()
        _task, sharded = self._run(jobs=2)
        shutdown_process_pool()
        assert serial == sharded

    @pytest.mark.slow
    def test_pool_parity_under_chaos(self):
        _task, serial = self._run(jobs=1, faults="chaos")
        shutdown_process_pool()
        _task, sharded = self._run(jobs=2, faults="chaos")
        shutdown_process_pool()
        assert serial == sharded


class TestWorkerSlotReplay:
    """Every round goes through the pool: a worker rebuilds the node from
    its spec and replays the node's log, so later rounds pick up where
    earlier ones left off instead of re-tracing from t=0, and the
    master's node replays the same log when next used in-process."""

    @pytest.fixture
    def coordinator_slots(self, monkeypatch):
        """Counts the slots run in this (the coordinator's) process."""
        pid = os.getpid()
        ran = []
        run_slot = master_module._run_slot

        def counting(*args):
            if os.getpid() == pid:
                ran.append(args[1].slot)
            return run_slot(*args)

        monkeypatch.setattr(master_module, "_run_slot", counting)
        return ran

    def _campaign_coverage(self, pool, ran=None):
        """Four profiling rounds of one app; merged coverage after each,
        and per round the coordinator's slot runs and the slot count."""
        reset_identity_counters()
        master = ClusterMaster(seed=3)
        master.add_nodes(2, base_seed=30)
        master.deploy("Search1", replicas=2)
        cycle = master.deployments["Search1"].profile.path_model().length
        merged, coverage, runs = [], [], []
        for _ in range(4):
            task = master.submit(TraceTaskSpec(
                app="Search1",
                reason=TraceReason.PROFILING,
                period_ns=40 * MSEC,
                requester="profiling-campaign",
            ))
            before = len(ran) if ran is not None else 0
            master.reconcile(task, pool=pool)
            if ran is not None:
                runs.append((len(ran) - before, len(task.status.selected_pods)))
            for per_thread in master.task_coverage.get(task.name, {}).values():
                for intervals in per_thread.values():
                    merged.extend(intervals)
            merged = merge_intervals(merged)
            coverage.append(augment_traces([merged]).coverage_of_cycle(cycle))
        return coverage, runs

    def test_campaign_coverage_independent_of_jobs(self):
        shutdown_process_pool()
        serial, _ = self._campaign_coverage(None)
        with RunPool(max_workers=2) as pool:
            pooled, _ = self._campaign_coverage(pool)
        shutdown_process_pool()
        assert pooled == serial
        assert [round(c, 4) for c in serial] == [0.0613, 0.1115, 0.1655, 0.2115]
        # every round profiles new windows
        assert all(a < b for a, b in zip(serial, serial[1:]))

    def test_every_round_dispatches_to_the_pool(self, coordinator_slots):
        shutdown_process_pool()
        _, serial = self._campaign_coverage(None, coordinator_slots)
        with RunPool(max_workers=2) as pool:
            _, pooled = self._campaign_coverage(pool, coordinator_slots)
        shutdown_process_pool()
        # jobs=1: each slot runs once, on the master's own node
        assert all(slots > 0 for _, slots in serial)
        assert [ran for ran, _ in serial] == [slots for _, slots in serial]
        # jobs=2: no round runs a slot in the coordinator
        assert [ran for ran, _ in pooled] == [0, 0, 0, 0]

    def _placed_after_tracing(self, pool):
        """Trace a node, place a pod on it, trace that pod: the outputs."""
        reset_identity_counters()
        master = ClusterMaster(seed=3)
        master.add_nodes(1, base_seed=30)
        outputs = []
        for app in ("Search1", "Agent"):
            # the Agent pod lands on the node Search1's reconcile traced
            master.deploy(app, replicas=1)
            task = master.submit(TraceTaskSpec(
                app=app, reason=TraceReason.ANOMALY, period_ns=40 * MSEC,
            ))
            master.reconcile(task, pool=pool)
            outputs.append([
                [master.object_store.get(key).hex()
                 for key in task.status.trace_keys],
                master.sessions_for(task),
                master.task_coverage[task.name],
            ])
        node = master.nodes["node-00000"]
        outputs.append([node.now, len(node.facility.completed)])
        return outputs

    def test_placement_on_traced_node_then_pooled_reconcile(self):
        shutdown_process_pool()
        serial = self._placed_after_tracing(None)
        with RunPool(max_workers=2) as pool:
            pooled = self._placed_after_tracing(pool)
        shutdown_process_pool()
        assert serial[1][1], "the placed pod was traced"
        assert pooled == serial


class TestChaosDecodeParity:
    """Each upload decodes against its own CR3 only, so decoded counts
    cannot depend on the jobs width or on earlier reconciles in the same
    process (a chaos-flipped PIP byte must not find a sibling's binary)."""

    def _run(self, pool, streaming):
        reset_identity_counters()
        master = ClusterMaster(seed=11)
        master.add_nodes(8)
        master.deploy("Search1", replicas=8)
        task = master.submit(TraceTaskSpec(
            app="Search1", reason=TraceReason.ANOMALY, period_ns=100 * MSEC
        ))
        master.reconcile(
            task,
            pool=pool,
            faults=FaultPlan.parse("chaos", seed=0),
            streaming=streaming,
        )
        rows = [
            (row["pod"], row["records"], row["functions"])
            for row in master.sessions_for(task)
        ]
        return rows, task.status.degradation.records_recovered

    @pytest.mark.slow
    @pytest.mark.parametrize("streaming", [False, True], ids=["batch", "streaming"])
    def test_decoded_counts_independent_of_jobs_and_history(self, streaming):
        shutdown_process_pool()
        serial = self._run(None, streaming)
        with RunPool(max_workers=2) as pool:
            first = self._run(pool, streaming)
            second = self._run(pool, streaming)
        shutdown_process_pool()
        assert first == serial
        assert second == serial
        assert self._run(None, streaming) == serial


class TestRetryPolicyEdges:
    def test_backoff_overflow_capped(self):
        assert backoff_ns(1) == BACKOFF_BASE_MS * MSEC
        assert backoff_ns(2) == 2 * BACKOFF_BASE_MS * MSEC
        # astronomically high attempt counts neither overflow nor exceed
        # the ceiling
        assert backoff_ns(10_000) == MAX_BACKOFF_MS * MSEC
        assert backoff_ns(2 ** 40) == MAX_BACKOFF_MS * MSEC

    def test_backoff_nonpositive_wave_is_free(self):
        assert backoff_ns(0) == 0
        assert backoff_ns(-3) == 0


class TestManagementFootprintScale:
    def test_multi_thousand_node_footprint(self):
        master = ClusterMaster()
        master.add_nodes(5_000)
        footprint = master.management_footprint()
        # thousands of lazy nodes cost well under one core and stay in
        # the tens-of-MB range the paper reports for the management pod
        assert footprint.cpu_cores < 5e-3
        assert 38 <= footprint.memory_mb < 60

    def test_footprint_grows_with_pods(self):
        master = ClusterMaster()
        master.add_nodes(10)
        before = master.management_footprint().memory_bytes
        master.deploy("Search1", replicas=20)
        after = master.management_footprint().memory_bytes
        assert after > before


class TestChurnModel:
    def test_churn_is_seeded(self):
        def victims(seed):
            master = ClusterMaster()
            master.add_nodes(40)
            churn = ChurnModel(seed=seed, kill_fraction=0.1)
            return churn.step(master)

        assert victims(9) == victims(9)
        assert victims(9) != victims(10)

    def test_replacement_keeps_fleet_size(self):
        master = ClusterMaster()
        master.add_nodes(20)
        master.deploy("Search1", replicas=10)
        churn = ChurnModel(seed=3, kill_fraction=0.1)
        killed = churn.step(master)
        assert killed
        assert len(master.nodes) == 20
        assert master.deployments["Search1"].replicas == 10
        assert all(k not in master.nodes for k in killed)

    def test_reconcile_survives_churn(self):
        master = ClusterMaster(seed=5)
        master.add_nodes(10)
        master.deploy("Search1", replicas=6)
        churn = ChurnModel(seed=1, kill_fraction=0.2)
        churn.step(master)
        task = master.submit(TraceTaskSpec(
            app="Search1", reason=TraceReason.ANOMALY, period_ns=40 * MSEC,
            max_repetitions=2,
        ))
        master.reconcile(task)
        assert task.finished
        assert task.status.sessions_completed > 0
