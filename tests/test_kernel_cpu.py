"""Unit tests for CPU topology and interference."""

import pytest

from repro.kernel.cpu import CpuTopology, InterferenceModel
from repro.kernel.task import Process


def _dummy_thread():
    process = Process(name="dummy")
    return process.new_thread(engine=None)


class TestTopologyShape:
    def test_logical_core_count(self):
        topo = CpuTopology(sockets=2, cores_per_socket=4, threads_per_core=2)
        assert len(topo) == 16

    def test_ht_siblings_paired(self):
        topo = CpuTopology(sockets=1, cores_per_socket=4, threads_per_core=2)
        for core in topo.cores:
            sibling = core.sibling
            assert sibling is not None
            assert sibling.sibling is core
            assert sibling.physical_id == core.physical_id
            assert sibling.core_id != core.core_id

    def test_sibling_offset_linux_style(self):
        topo = CpuTopology(sockets=1, cores_per_socket=4, threads_per_core=2)
        assert topo.core(0).sibling.core_id == 4

    def test_no_ht(self):
        topo = CpuTopology(sockets=1, cores_per_socket=4, threads_per_core=1)
        assert len(topo) == 4
        assert all(c.sibling is None for c in topo.cores)

    def test_invalid_shape_raises(self):
        with pytest.raises(ValueError):
            CpuTopology(sockets=0)
        with pytest.raises(ValueError):
            CpuTopology(threads_per_core=3)


class TestInterference:
    def test_idle_neighbourhood_full_speed(self):
        topo = CpuTopology(sockets=1, cores_per_socket=2, threads_per_core=2)
        assert topo.speed_factor(topo.core(0), llc_pressure=0.5) == pytest.approx(1.0)

    def test_busy_sibling_slows(self):
        topo = CpuTopology(sockets=1, cores_per_socket=2, threads_per_core=2)
        core = topo.core(0)
        core.sibling.running = _dummy_thread()
        factor = topo.speed_factor(core, llc_pressure=0.0)
        assert factor == pytest.approx(topo.interference.ht_sibling_penalty)

    def test_llc_contention_scales_with_competitors(self):
        topo = CpuTopology(sockets=1, cores_per_socket=4, threads_per_core=1)
        core = topo.core(0)
        none_busy = topo.speed_factor(core, llc_pressure=1.0)
        topo.core(1).running = _dummy_thread()
        one_busy = topo.speed_factor(core, llc_pressure=1.0)
        topo.core(2).running = _dummy_thread()
        two_busy = topo.speed_factor(core, llc_pressure=1.0)
        assert none_busy > one_busy > two_busy

    def test_zero_pressure_ignores_llc(self):
        topo = CpuTopology(sockets=1, cores_per_socket=4, threads_per_core=1)
        topo.core(1).running = _dummy_thread()
        assert topo.speed_factor(topo.core(0), llc_pressure=0.0) == pytest.approx(1.0)

    def test_other_socket_does_not_contend(self):
        topo = CpuTopology(sockets=2, cores_per_socket=2, threads_per_core=1)
        other_socket_core = next(c for c in topo.cores if c.socket_id == 1)
        other_socket_core.running = _dummy_thread()
        assert topo.speed_factor(topo.core(0), llc_pressure=1.0) == pytest.approx(1.0)

    def test_floor_enforced(self):
        model = InterferenceModel(min_speed_factor=0.5, llc_contention_coeff=10.0)
        topo = CpuTopology(
            sockets=1, cores_per_socket=8, threads_per_core=1, interference=model
        )
        for core in topo.cores[1:]:
            core.running = _dummy_thread()
        assert topo.speed_factor(topo.core(0), llc_pressure=1.0) == 0.5


class TestUtilization:
    def test_zero_elapsed(self):
        topo = CpuTopology()
        assert topo.utilization(0) == 0.0

    def test_fractional(self):
        topo = CpuTopology(sockets=1, cores_per_socket=1, threads_per_core=2)
        topo.core(0).busy_ns = 500
        topo.core(1).busy_ns = 500
        assert topo.utilization(1000) == pytest.approx(0.5)
