"""Tests for the cluster layer: pods, nodes, CRDs, storage, master."""

import hashlib

import pytest

from repro.cluster.crd import TaskPhase, TraceTask, TraceTaskSpec
from repro.cluster.master import ClusterMaster
from repro.cluster.node import ClusterNode
from repro.cluster.pod import PodPhase
from repro.cluster.storage import ObjectStore, StructuredStore
from repro.core.config import TraceReason, TracingRequest
from repro.program.workloads import get_workload
from repro.util.identity import reset_identity_counters
from repro.util.units import MSEC


class TestObjectStore:
    def test_put_get(self):
        store = ObjectStore()
        store.put("a/b", b"data")
        assert store.get("a/b") == b"data"
        assert store.exists("a/b")

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            ObjectStore().get("nope")

    def test_accounting(self):
        store = ObjectStore()
        store.put("x", b"12345")
        store.put("x", b"67")  # overwrite
        assert store.upload_count == 2
        assert store.bytes_uploaded == 7
        assert store.total_bytes == 2

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            ObjectStore().put("", b"x")


class TestStructuredStore:
    def test_insert_and_query(self):
        store = StructuredStore()
        store.insert("t", [{"a": 1}, {"a": 2}, {"a": 3}])
        assert store.count("t") == 3
        assert store.query("t", where=lambda r: r["a"] > 1) == [{"a": 2}, {"a": 3}]

    def test_unknown_table_raises(self):
        with pytest.raises(KeyError):
            StructuredStore().query("ghost")


class TestCrd:

    def test_task_starts_pending(self):
        task = TraceTask(spec=TraceTaskSpec(app="x"))
        assert task.status.phase is TaskPhase.PENDING
        assert not task.complete


class TestClusterNode:
    def test_cpu_set_pods_get_exclusive_pins(self):
        node = ClusterNode("n0", seed=1)
        first = node.place_pod(get_workload("Search1"))  # 4 threads, CPU-set
        second = node.place_pod(get_workload("Agent"))  # CPU-share
        assert first.cpuset == (0, 1, 2, 3)
        assert second.cpuset == tuple(range(8))
        assert first.process is None  # spawns when the node is first used
        node.materialize()
        assert first.phase is PodPhase.RUNNING
        assert first.process is not None

    def test_out_of_pinnable_cores(self):
        node = ClusterNode("n0", seed=1)  # 8 cores: two 4-thread pins fit
        node.place_pod(get_workload("Search1"))
        node.place_pod(get_workload("Search1"))
        with pytest.raises(RuntimeError):
            node.place_pod(get_workload("Search1"))

    def test_trace_pod_session(self):
        node = ClusterNode("n0", seed=1)
        pod = node.place_pod(get_workload("Search1"))
        session = node.trace_pod(
            pod, TracingRequest(target="Search1", period_ns=100 * MSEC)
        )
        node.run_for(150 * MSEC)
        assert session.stopped
        assert session.segments

class TestClusterMaster:
    @pytest.fixture
    def cluster(self):
        master = ClusterMaster(seed=3)
        for index in range(3):
            master.add_node(ClusterNode(f"node-{index}", seed=index))
        return master

    def test_deploy_round_robin(self, cluster):
        deployment = cluster.deploy("Cache", replicas=5)
        assert deployment.replicas == 5
        nodes_used = {pod.node_name for pod in deployment.pods}
        assert nodes_used == {"node-0", "node-1", "node-2"}

    def test_duplicate_node_rejected(self, cluster):
        with pytest.raises(ValueError):
            cluster.add_node(ClusterNode("node-0"))

    def test_reconcile_full_pipeline(self, cluster):
        cluster.deploy("Search1", replicas=3)
        task = cluster.submit(
            TraceTaskSpec(
                app="Search1", reason=TraceReason.ANOMALY, period_ns=100 * MSEC
            )
        )
        cluster.reconcile(task)
        assert task.status.phase is TaskPhase.COMPLETE
        assert task.status.sessions_completed == 3
        assert task.status.bytes_captured > 0
        assert len(task.status.trace_keys) == 3
        for key in task.status.trace_keys:
            assert cluster.object_store.exists(key)
        rows = cluster.sessions_for(task)
        assert len(rows) == 3
        assert all(row["records"] > 0 for row in rows)

    def test_reconcile_uploads_are_pinned(self):
        # blake2b of every upload of a fault-free 2-node reconcile,
        # recorded with the per-segment encoder: the encoder, the node
        # simulation and the reconcile must all reproduce these bytes
        reset_identity_counters()
        master = ClusterMaster(seed=3)
        master.add_nodes(2, base_seed=20)
        master.deploy("Search1", replicas=2)
        task = master.submit(
            TraceTaskSpec(
                app="Search1", reason=TraceReason.ANOMALY, period_ns=40 * MSEC
            )
        )
        master.reconcile(task)
        assert task.status.phase is TaskPhase.COMPLETE
        uploads = {
            key: master.object_store.get(key) for key in task.status.trace_keys
        }
        assert {key: len(raw) for key, raw in uploads.items()} == {
            "traces/trace-task-0001/pod-00001": 144312,
            "traces/trace-task-0001/pod-00002": 145624,
        }
        assert {
            key: hashlib.blake2b(raw, digest_size=16).hexdigest()
            for key, raw in uploads.items()
        } == {
            "traces/trace-task-0001/pod-00001": "0e485eff7a75a592abb4c945c0001bde",
            "traces/trace-task-0001/pod-00002": "0956b01e22c85381cf93a5d50de35ec7",
        }

    def test_reconcile_undeployed_app_fails(self, cluster):
        task = cluster.submit(TraceTaskSpec(app="ghost"))
        cluster.reconcile(task)
        assert task.status.phase is TaskPhase.FAILED

    def test_profiling_samples_fewer_than_anomaly(self, cluster):
        cluster.deploy("Cache", replicas=3)  # priority 4, fewer sampled
        profiling = cluster.submit(
            TraceTaskSpec(
                app="Cache", reason=TraceReason.PROFILING, period_ns=100 * MSEC
            )
        )
        cluster.reconcile(profiling)
        assert profiling.status.sessions_completed < 3

    def test_max_repetitions_cap(self, cluster):
        cluster.deploy("Search1", replicas=3)
        task = cluster.submit(
            TraceTaskSpec(
                app="Search1", reason=TraceReason.ANOMALY,
                period_ns=100 * MSEC, max_repetitions=1,
            )
        )
        cluster.reconcile(task)
        assert task.status.sessions_completed == 1

    def test_management_footprint_small(self, cluster):
        """Fig 17: <3e-3 cores and ~40 MB for the management pod."""
        footprint = cluster.management_footprint()
        assert footprint.cpu_cores <= 3e-3
        assert footprint.memory_mb < 45


class TestBinaryRepository:
    def test_register_and_fetch_latest(self):
        from repro.cluster.storage import BinaryRepository

        repo = BinaryRepository()
        repo.register("app", "BIN1")
        repo.register("app", "BIN2")
        assert repo.fetch("app") == "BIN2"
        assert repo.apps() == ["app"]

    def test_missing_binary_raises(self):
        from repro.cluster.storage import BinaryRepository

        repo = BinaryRepository()
        with pytest.raises(KeyError):
            repo.fetch("ghost")
        assert not repo.has("ghost")

    def test_empty_app_rejected(self):
        from repro.cluster.storage import BinaryRepository

        with pytest.raises(ValueError):
            BinaryRepository().register("", "BIN")

    def test_master_registers_on_deploy(self):
        master = ClusterMaster(seed=1)
        master.add_node(ClusterNode("n0", seed=0))
        master.deploy("Agent", replicas=1)
        assert master.binary_repository.has("Agent")
        binary = master.binary_repository.fetch("Agent")
        assert binary.name == "Agent"
