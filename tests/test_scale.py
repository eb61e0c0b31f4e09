"""Scale tests: EXIST on the paper's full-size node models.

The offline evaluation node is a 128-logical-core IceLake machine
(2x 32-core Xeon 8369B); these tests exercise the facility at that scale
— per-core tracer installation, CPU-share coreset sampling over a wide
MCS, and the UMA budget arithmetic when the per-core floor binds.
"""


from repro.core.config import ExistConfig, TracingRequest
from repro.core.facility import ExistFacility
from repro.kernel.system import KernelSystem, SystemConfig
from repro.program.workloads import get_workload, variant
from repro.util.units import MIB, MSEC

ICELAKE = dict(
    sockets=2, cores_per_socket=32, threads_per_core=2,
    memory_mb=1024 * 1024, cpu_freq_ghz=2.9, seed=1,
)


class TestFullSizeNodes:
    def test_icelake_facility_installs_128_tracers(self):
        system = KernelSystem(SystemConfig(**ICELAKE))
        facility = ExistFacility(system, ExistConfig())
        facility.install()
        assert len(facility.tracers) == 128
        assert all(core.tracer is not None for core in system.topology.cores)

    def test_cpu_share_session_on_icelake(self):
        """A CPU-share service on a 128-core node: the coreset sampler
        keeps the traced set near the occupied cores, and the session's
        MSR operations stay O(#traced cores), not O(128) x switches."""
        system = KernelSystem(SystemConfig(**ICELAKE))
        get_workload("Search2").spawn(system, seed=1)
        system.run_for(30 * MSEC)
        facility = ExistFacility(system, ExistConfig())
        facility.install()
        session = facility.begin_tracing(
            TracingRequest(target="Search2", period_ns=100 * MSEC)
        )
        system.run_for(160 * MSEC)
        assert session.stopped
        assert session.segments
        plan = facility.completed[0].plan
        assert len(plan.traced_cores) < 128  # sampled, not exhaustive
        ops = facility.otc.session_msr_operations(session)
        assert ops <= 6 * len(plan.traced_cores)

    def test_buffer_floor_binds_on_wide_cpuset(self):
        """Tracing a pod pinned across 64 cores: budget/64 falls below the
        4 MiB floor, so UMA clamps up and the spend exceeds the nominal
        budget only by the documented floor rule."""
        system = KernelSystem(SystemConfig(**ICELAKE))
        variant(
            get_workload("Search1"), n_threads=4
        ).spawn(system, cpuset=list(range(64)), seed=1)
        config = ExistConfig(session_budget_bytes=128 * MIB)
        facility = ExistFacility(system, config)
        facility.install()
        session = facility.begin_tracing(
            TracingRequest(target="Search1", period_ns=100 * MSEC)
        )
        plan = facility._active_plans[session.session_id]
        assert len(plan.traced_cores) == 64
        assert all(size == 4 * MIB for size in plan.buffer_bytes.values())
        system.run_for(160 * MSEC)
        assert session.stopped
