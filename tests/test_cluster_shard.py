"""Tests for the sharded control plane: ring, fleet index, lazy nodes,
node spec rebuilds, pool parity, churn, and autoscaling."""

import json

import numpy as np
import pytest

from repro.cluster.autoscale import Autoscaler, AutoscalePolicy, ChurnModel
from repro.cluster.crd import TaskPhase, TraceTaskSpec
from repro.cluster.fleet import ABANDONED, ACHIEVED, SELECTED, FleetIndex
from repro.cluster.master import ClusterMaster, RetryPolicy
from repro.cluster.node import ClusterNode
from repro.cluster.shard import ShardRing
from repro.core.config import TraceReason, TracingRequest
from repro.faults.plan import FaultPlan
from repro.parallel.pool import RunPool
from repro.parallel.workers import shutdown_process_pool
from repro.util.identity import reset_identity_counters
from repro.util.units import MSEC


class TestShardRing:
    def test_stable_across_instances(self):
        a, b = ShardRing(4), ShardRing(4)
        keys = [f"node-{i:05d}" for i in range(200)]
        assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]

    def test_single_shard_fast_path(self):
        ring = ShardRing(1)
        assert {ring.shard_of(f"n{i}") for i in range(50)} == {0}

    def test_partition_preserves_index_order(self):
        ring = ShardRing(3)
        keys = [f"node-{i}" for i in range(100)]
        groups = ring.partition(keys)
        assert sorted(i for g in groups for i in g) == list(range(100))
        for group in groups:
            assert group == sorted(group)

    def test_roughly_balanced(self):
        ring = ShardRing(4)
        keys = [f"node-{i:05d}" for i in range(2000)]
        groups = ring.partition(keys)
        sizes = [len(g) for g in groups]
        assert min(sizes) > 0
        assert max(sizes) < 2000 * 0.6  # no shard owns a super-majority

    def test_consistency_under_width_change(self):
        keys = [f"node-{i:05d}" for i in range(1000)]
        small, large = ShardRing(4), ShardRing(5)
        moved = sum(
            1 for k in keys if small.shard_of(k) != large.shard_of(k)
        )
        # consistent hashing moves ~1/n of the keys, not most of them
        assert moved < 1000 * 0.5


class TestFleetIndex:
    def _fleet(self):
        return FleetIndex(
            uids=["p1", "p2", "p3", "p4", "p5"],
            node_names=["n-b", "n-a", "n-b", "n-c", "n-a"],
            priorities=[1, 2, 3, 4, 5],
        )

    def test_dedupe_matches_sorted_first_per_node(self):
        fleet = self._fleet()
        rows = fleet.dedupe_first_per_node(np.array([0, 1, 2, 3, 4]))
        # node order n-a, n-b, n-c; first occurrence per node wins
        assert [str(u) for u in fleet.uids[rows]] == ["p2", "p1", "p4"]

    def test_mark_selected_claims_nodes(self):
        fleet = self._fleet()
        fleet.mark_selected(np.array([0]))
        assert fleet.phase[0] == SELECTED
        # p3 shares n-b with p1, so both are now excluded from refills
        assert fleet.exclude_uids() == {"p1", "p3"}

    def test_quarantine_threshold(self):
        fleet = self._fleet()
        code = fleet.node_code("n-b")
        assert fleet.register_node_failures([code], threshold=2) == []
        assert fleet.register_node_failures([code], threshold=2) == [code]
        assert fleet.quarantined_nodes() == ["n-b"]

    def test_rollups(self):
        fleet = self._fleet()
        fleet.resolve(0, ACHIEVED, 1)
        fleet.resolve(1, ABANDONED, 2)
        assert fleet.achieved() == 1
        assert list(fleet.completed_rows()) == [0]
        histogram = fleet.phase_histogram()
        assert histogram["achieved"] == 1
        assert histogram["abandoned"] == 1
        assert histogram["unselected"] == 3


class TestLazyNodes:
    def test_lazy_node_defers_materialization(self):
        node = ClusterNode("lazy-00", lazy=True)
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
        original = ClusterNode("spec-00", seed=3)
        profile = __import__(
            "repro.program.workloads", fromlist=["get_workload"]
        ).get_workload("Search1")
        pod = original.place_pod(profile)
        rebuilt = ClusterNode.from_spec(original.to_spec())
        twin = next(p for p in rebuilt.pods if p.uid == pod.uid)
        assert twin.process.pid == pod.process.pid
        assert twin.process.cr3 == pod.process.cr3
        assert [t.tid for t in twin.process.threads] == [
            t.tid for t in pod.process.threads
        ]

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
    def _run(self, jobs, faults=None, shards=None):
        reset_identity_counters()
        master = ClusterMaster(seed=7, decode_cache=False)
        master.add_nodes(8, base_seed=50)
        master.deploy("Search1", replicas=6)
        task = master.submit(TraceTaskSpec(
            app="Search1",
            reason=TraceReason.ANOMALY,
            period_ns=40 * MSEC,
            shards=shards,
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
        task, sharded = self._run(jobs=2)
        shutdown_process_pool()
        assert serial == sharded
        assert task.status.shards == 2

    @pytest.mark.slow
    def test_pool_parity_under_chaos(self):
        _task, serial = self._run(jobs=1, faults="chaos")
        shutdown_process_pool()
        _task, sharded = self._run(jobs=2, faults="chaos")
        shutdown_process_pool()
        assert serial == sharded

    def test_explicit_shard_count_recorded(self):
        task, _ = self._run(jobs=1, shards=4)
        assert task.status.shards == 4
        assert task.finished

    def test_spec_shards_roundtrip_manifest(self):
        spec = TraceTaskSpec(app="Search1", shards=3)
        clone = TraceTaskSpec.from_manifest(spec.to_manifest())
        assert clone.shards == 3


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
    def test_zero_max_waves_degrades_without_crash(self):
        master = ClusterMaster(decode_cache=False)
        master.add_nodes(2)
        master.deploy("Search1", replicas=2)
        task = master.submit(TraceTaskSpec(
            app="Search1", reason=TraceReason.ANOMALY, period_ns=40 * MSEC,
        ))
        master.reconcile(task, retry_policy=RetryPolicy(max_waves=0))
        assert task.status.phase is TaskPhase.DEGRADED
        assert task.status.sessions_completed == 0
        assert task.status.coverage_achieved == 0
        assert task.status.coverage_requested > 0

    def test_backoff_overflow_capped(self):
        policy = RetryPolicy(backoff_base_ms=25, max_backoff_ms=1000)
        assert policy.backoff_ns(1) == 25 * MSEC
        assert policy.backoff_ns(2) == 50 * MSEC
        # astronomically high attempt counts neither overflow nor exceed
        # the configured ceiling
        assert policy.backoff_ns(10_000) == 1000 * MSEC
        assert policy.backoff_ns(2 ** 40) == 1000 * MSEC

    def test_backoff_nonpositive_wave_is_free(self):
        policy = RetryPolicy()
        assert policy.backoff_ns(0) == 0
        assert policy.backoff_ns(-3) == 0


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


class TestAutoscaler:
    def test_scale_out_under_pressure(self):
        master = ClusterMaster()
        master.add_nodes(2)
        master.deploy("Cache", replicas=40)
        scaler = Autoscaler(AutoscalePolicy(max_pods_per_node=8))
        delta = scaler.step(master)
        assert delta > 0
        assert len(master.nodes) == 2 + delta
        pressure = 40 / len(master.nodes)
        assert pressure <= 8

    def test_scale_in_when_idle(self):
        master = ClusterMaster()
        master.add_nodes(30)
        master.deploy("Cache", replicas=6)
        scaler = Autoscaler(
            AutoscalePolicy(min_pods_per_node=2.0, min_nodes=2)
        )
        delta = scaler.step(master)
        assert delta < 0
        assert len(master.nodes) >= 2
        # evicted replicas were rescheduled, not lost
        assert master.deployments["Cache"].replicas == 6

    def test_band_is_stable(self):
        master = ClusterMaster()
        master.add_nodes(10)
        master.deploy("Cache", replicas=40)
        scaler = Autoscaler(AutoscalePolicy(
            max_pods_per_node=8, min_pods_per_node=2
        ))
        assert scaler.desired_delta(master) == 0

    def test_max_step_clamps(self):
        master = ClusterMaster()
        master.add_nodes(1)
        master.deploy("Cache", replicas=10_000)
        scaler = Autoscaler(AutoscalePolicy(
            max_pods_per_node=2, max_step=16
        ))
        assert scaler.step(master) == 16


class TestChurnModel:
    def test_churn_is_seeded(self):
        def victims(seed):
            master = ClusterMaster()
            master.add_nodes(40)
            churn = ChurnModel(seed=seed, kill_fraction=0.1, replace=False)
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
        master = ClusterMaster(seed=5, decode_cache=False)
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
