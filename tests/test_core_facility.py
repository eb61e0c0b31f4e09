"""Unit tests for the EXIST node facility."""

import pytest

from repro.core.config import ExistConfig, TracingRequest
from repro.core.facility import ExistFacility
from repro.kernel.system import KernelSystem, SystemConfig
from repro.program.workloads import get_workload
from repro.util.units import MSEC


@pytest.fixture
def system():
    return KernelSystem(SystemConfig.small_node(8, seed=6))


@pytest.fixture
def facility(system):
    facility = ExistFacility(system, ExistConfig())
    facility.install()
    return facility


class TestInstall:
    def test_tracer_per_core(self, system, facility):
        assert set(facility.tracers) == {c.core_id for c in system.topology.cores}
        assert all(c.tracer is not None for c in system.topology.cores)

    def test_double_install_rejected(self, system, facility):
        with pytest.raises(RuntimeError):
            facility.install()

    def test_insmod_startup_cost_recorded(self, facility):
        assert facility.startup_cpu_ns > 0

    def test_uninstall_cleans_cores(self, system, facility):
        facility.uninstall()
        assert all(c.tracer is None for c in system.topology.cores)
        assert not facility.installed


class TestRequestHandling:
    def test_begin_requires_install(self, system):
        facility = ExistFacility(system)
        with pytest.raises(RuntimeError):
            facility.begin_tracing(TracingRequest(target="x"))

    def test_unknown_target_rejected(self, system, facility):
        with pytest.raises(KeyError):
            facility.begin_tracing(TracingRequest(target="ghost"))

    def test_session_runs_and_archives(self, system, facility):
        get_workload("mc").spawn(system, cpuset=[0, 1], seed=6)
        session = facility.begin_tracing(
            TracingRequest(target="mc", period_ns=100 * MSEC)
        )
        system.run_for(150 * MSEC)
        assert session.stopped
        assert len(facility.completed) == 1
        completed = facility.completed[0]
        assert completed.target_name == "mc"
        assert completed.bytes_captured > 0

    def test_memory_released_after_session(self, system, facility):
        get_workload("mc").spawn(system, cpuset=[0, 1], seed=6)
        facility.begin_tracing(TracingRequest(target="mc", period_ns=100 * MSEC))
        assert system.facility_memory_bytes > 0
        system.run_for(150 * MSEC)
        assert system.facility_memory_bytes == 0

    def test_period_defaults_from_temporal_decider(self, system, facility):
        get_workload("Search1").spawn(system, cpuset=[0, 1, 2, 3], seed=6)
        session = facility.begin_tracing(TracingRequest(target="Search1"))
        expected = facility.temporal.period_for(get_workload("Search1"))
        assert session.period_ns == expected

    def test_on_stop_callback(self, system, facility):
        get_workload("mc").spawn(system, cpuset=[0, 1], seed=6)
        seen = []
        facility.begin_tracing(
            TracingRequest(target="mc", period_ns=100 * MSEC),
            on_stop=seen.append,
        )
        system.run_for(150 * MSEC)
        assert len(seen) == 1
        assert seen[0].target_name == "mc"

    def test_stop_tracing_early(self, system, facility):
        get_workload("mc").spawn(system, cpuset=[0, 1], seed=6)
        session = facility.begin_tracing(
            TracingRequest(target="mc", period_ns=1000 * MSEC)
        )
        system.run_for(50 * MSEC)
        facility.stop_tracing(session, "manual")
        assert session.stopped
        assert session.stop_reason == "manual"


class TestAccounting:
    def test_control_cpu_small(self, system, facility):
        """Facility control work is tiny (Fig 17: ~0.005 cores peak)."""
        get_workload("mc").spawn(system, cpuset=[0, 1], seed=6)
        facility.begin_tracing(TracingRequest(target="mc", period_ns=200 * MSEC))
        system.run_for(250 * MSEC)
        window = 250 * MSEC
        assert facility.control_cpu_ns / window < 0.005
