"""Unit tests for the usage-aware memory allocator (§3.3)."""

import pytest

from repro.core.config import ExistConfig, TracingRequest
from repro.core.uma import (
    BufferManager,
    CoresetSampler,
    UsageAwareMemoryAllocator,
    core_utilizations,
)
from repro.hwtrace.topa import OutputMode
from repro.kernel.system import KernelSystem, SystemConfig
from repro.program.workloads import get_workload
from repro.util.units import MIB, MSEC


@pytest.fixture
def system():
    return KernelSystem(SystemConfig.small_node(8, seed=4))


@pytest.fixture
def config():
    return ExistConfig()


class TestCoresetSamplerCpuSet:
    def test_tcs_equals_mcs(self, system, config):
        target = get_workload("Search1").spawn(system, cpuset=[0, 1, 2, 3])
        plan = CoresetSampler(config).plan(system, target)
        assert plan.traced_cores == (0, 1, 2, 3)
        assert plan.mapped_cores == (0, 1, 2, 3)

    def test_equal_buffers_from_budget(self, system, config):
        target = get_workload("Search1").spawn(system, cpuset=[0, 1, 2, 3])
        plan = CoresetSampler(config).plan(system, target)
        sizes = set(plan.buffer_bytes.values())
        assert len(sizes) == 1
        assert sizes.pop() == config.clamp_buffer(config.session_budget_bytes // 4)

    def test_buffer_max_cap(self, system, config):
        # one core -> budget/1 = 256 MB, clamped to the 128 MB max
        target = get_workload("Search1").spawn(system, cpuset=[0])
        plan = CoresetSampler(config).plan(system, target)
        assert plan.buffer_bytes[0] == config.per_core_buffer_max


class TestCoresetSamplerCpuShare:
    def test_samples_subset_of_mapped(self, system, config):
        target = get_workload("Search2").spawn(system)  # CPU-share, all cores
        system.run_for(50 * MSEC)  # let threads land on cores
        plan = CoresetSampler(config).plan(system, target)
        assert 0 < len(plan.traced_cores) <= len(system.topology)
        assert set(plan.traced_cores) <= set(plan.mapped_cores)
        # default ratio 0.5 over 8 cores -> around 4 cores
        assert 2 <= len(plan.traced_cores) <= 7

    def test_includes_currently_used_cores(self, system, config):
        target = get_workload("Search2").spawn(system)
        system.run_for(50 * MSEC)
        plan = CoresetSampler(config).plan(system, target)
        current = {
            t.current_core if t.current_core is not None else t.last_core
            for t in target.threads
        }
        current.discard(None)
        assert current <= set(plan.traced_cores)

    def test_ratio_override(self, system, config):
        target = get_workload("Search2").spawn(system)
        system.run_for(20 * MSEC)
        request = TracingRequest(target="Search2", core_sampling_ratio=1.0)
        plan = CoresetSampler(config).plan(system, target, request)
        assert len(plan.traced_cores) == len(plan.mapped_cores)

    def test_budget_respected_after_clamping(self, system, config):
        target = get_workload("Search2").spawn(system)
        system.run_for(20 * MSEC)
        plan = CoresetSampler(config).plan(system, target)
        assert plan.total_bytes <= config.session_budget_bytes + len(
            plan.traced_cores
        ) * config.per_core_buffer_min

    def test_explicit_coreset_request(self, system, config):
        target = get_workload("Search2").spawn(system)
        request = TracingRequest(target="Search2", coreset=[1, 3])
        plan = CoresetSampler(config).plan(system, target, request)
        assert plan.traced_cores == (1, 3)


class TestBufferManager:
    def test_allocation_reserves_node_memory(self, system, config):
        target = get_workload("Search1").spawn(system, cpuset=[0, 1, 2, 3])
        uma = UsageAwareMemoryAllocator(config)
        plan, outputs = uma.plan_and_allocate(system, target)
        assert set(outputs) == set(plan.traced_cores)
        assert system.facility_memory_bytes == plan.total_bytes
        for output in outputs.values():
            assert output.mode is OutputMode.STOP_ON_FULL
        uma.release(system, plan)
        assert system.facility_memory_bytes == 0

    def test_node_budget_enforced(self, system):
        config = ExistConfig(
            node_budget_bytes=128 * MIB, session_budget_bytes=128 * MIB
        )
        uma = UsageAwareMemoryAllocator(config)
        target = get_workload("Search1").spawn(system, cpuset=[0])
        plan1, _ = uma.plan_and_allocate(system, target)
        # second session would exceed the 128 MiB node budget
        with pytest.raises(MemoryError):
            uma.plan_and_allocate(system, target)
        uma.release(system, plan1)
        uma.plan_and_allocate(system, target)  # fits again

    def test_reserved_bytes_tracked(self, config, system):
        manager = BufferManager(config)
        target = get_workload("Search1").spawn(system, cpuset=[0, 1])
        plan = CoresetSampler(config).plan(system, target)
        manager.allocate(system, plan)
        assert system.facility_memory_bytes == plan.total_bytes


class TestCoreUtilizations:
    def test_utilizations_bounded(self, system):
        get_workload("mc").spawn(system, cpuset=[0, 1])
        system.run_for(50 * MSEC)
        utils = core_utilizations(system)
        assert set(utils) == {c.core_id for c in system.topology.cores}
        assert all(0.0 <= u <= 1.0 for u in utils.values())
        # the loaded cores are busier than unused ones
        assert utils[0] > utils[7]
