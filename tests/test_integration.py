"""End-to-end integration tests across all layers."""

import pytest

from repro.analysis.accuracy import direct_path_accuracy
from repro.analysis.casestudy import find_blocking_anomalies
from repro.analysis.reconstruct import coverage_by_thread, reconstruct, thread_labels
from repro.cluster.crd import TaskPhase, TraceTaskSpec
from repro.cluster.master import ClusterMaster
from repro.cluster.node import ClusterNode
from repro.core.config import TraceReason
from repro.experiments.scenarios import run_traced_execution
from repro.parallel.pool import RunPool
from repro.parallel.workers import shutdown_process_pool
from repro.tracing.ebpf import EbpfScheme
from repro.util.units import MSEC


class TestAccuracyPipeline:
    """The §5.3 pipeline: identical executions, NHT as ground truth."""

    def test_exist_accuracy_on_compute_benchmark(self):
        ref = run_traced_execution("om", "NHT", cpuset=[0, 1, 2, 3], seed=11)
        exi = run_traced_execution("om", "EXIST", cpuset=[0, 1, 2, 3], seed=11)
        accuracy = direct_path_accuracy(
            coverage_by_thread(ref.artifacts.segments, thread_labels(ref.target)),
            coverage_by_thread(exi.artifacts.segments, thread_labels(exi.target)),
        )
        assert accuracy > 0.85  # paper: 87.4-95.1% for single-threaded

    def test_multithreaded_accuracy_lower(self):
        """Paper: xz drops to ~62% because per-core buffers saturate."""
        ref = run_traced_execution("xz", "NHT", cpuset=[0, 1, 2, 3], seed=11)
        exi = run_traced_execution("xz", "EXIST", cpuset=[0, 1, 2, 3], seed=11)
        accuracy = direct_path_accuracy(
            coverage_by_thread(ref.artifacts.segments, thread_labels(ref.target)),
            coverage_by_thread(exi.artifacts.segments, thread_labels(exi.target)),
        )
        assert 0.4 < accuracy < 0.85

    def test_decode_roundtrip_of_exist_capture(self):
        exi = run_traced_execution("de", "EXIST", cpuset=[0, 1], seed=11)
        result = reconstruct(exi.artifacts.segments, [exi.target])
        assert len(result.decoded) > 1000
        assert result.decoded.unresolved == 0


class TestClusterPipeline:
    @pytest.mark.slow
    def test_trace_task_to_structured_results(self):
        master = ClusterMaster(seed=5)
        for index in range(4):
            master.add_node(ClusterNode(f"node-{index}", seed=index))
        master.deploy("Cache", replicas=4)
        task = master.submit(
            TraceTaskSpec(
                app="Cache", reason=TraceReason.ANOMALY, period_ns=120 * MSEC
            )
        )
        master.reconcile(task)
        assert task.status.phase is TaskPhase.COMPLETE
        assert task.status.sessions_completed == 4
        rows = master.sessions_for(task)
        assert {row["node"] for row in rows} == {f"node-{i}" for i in range(4)}
        # raw traces downloadable and decodable sizes recorded
        for row in rows:
            assert row["bytes"] > 0
            assert row["records"] > 0

    def test_two_sequential_tasks_share_facilities(self):
        self._two_sequential_tasks(jobs=1)

    def test_two_sequential_tasks_share_facilities_pooled(self):
        # at jobs=2 the first task runs in a worker: the live node must
        # still carry that session when the second task traces it
        self._two_sequential_tasks(jobs=2)

    @staticmethod
    def _two_sequential_tasks(jobs):
        master = ClusterMaster(seed=5)
        master.add_node(ClusterNode("n0", seed=0))
        master.deploy("Agent", replicas=1)
        pool = RunPool(max_workers=jobs)
        for _ in range(2):
            task = master.submit(
                TraceTaskSpec(
                    app="Agent", reason=TraceReason.ANOMALY, period_ns=100 * MSEC
                )
            )
            master.reconcile(task, pool=pool)
            assert task.status.phase is TaskPhase.COMPLETE
        pool.close()
        shutdown_process_pool()
        node = master.nodes["n0"]
        assert len(node.facility.completed) == 2
        # two 100 ms periods plus 50 ms settle each, back to back
        assert node.now == 300 * MSEC
        # buffers fully released after both sessions
        assert node.system.facility_memory_bytes == 0


class TestCaseStudyDiagnosis:
    """§5.4: diagnose the Recommend app's blocking synchronous log write."""

    def test_blocking_file_write_found(self):
        run = run_traced_execution(
            "Recommend", "eBPF", seed=13, window_s=0.4,
        )
        artifacts = run.artifacts
        assert artifacts.syscall_log
        file_writes = [
            entry for entry in artifacts.syscall_log if entry[3] == "file_write"
        ]
        assert file_writes, "Recommend profile must issue file_write syscalls"

    def test_anomaly_detection_from_exist_records(self):
        """Join one run's syscall log with its own EXIST five-tuples."""
        from repro.core.exist import ExistScheme
        from repro.kernel.system import KernelSystem, SystemConfig
        from repro.program.workloads import get_workload

        system = KernelSystem(SystemConfig.small_node(8, seed=13))
        target = get_workload("Recommend").spawn(system, seed=13)
        exist = ExistScheme(period_ns=400 * MSEC, continuous=True)
        ebpf = EbpfScheme()
        exist.install(system, [target])
        ebpf.install(system, [target])
        system.run_for(400 * MSEC)
        exist_artifacts = exist.artifacts()
        ebpf_artifacts = ebpf.artifacts()
        anomalies = find_blocking_anomalies(
            ebpf_artifacts.syscall_log,
            exist_artifacts.sched_records,
            min_block_ns=300_000,
        )
        assert anomalies
        assert any(a.syscall in ("file_write", "futex_wait") for a in anomalies)


class TestSpaceAccountingConsistency:
    def test_exist_space_not_larger_than_nht(self):
        for workload in ("om", "de"):
            ref = run_traced_execution(workload, "NHT", cpuset=[0, 1], seed=3)
            exi = run_traced_execution(workload, "EXIST", cpuset=[0, 1], seed=3)
            assert exi.artifacts.space_bytes <= ref.artifacts.space_bytes * 1.02
