"""Unit tests for the assembled kernel system."""

import heapq

import pytest

from repro.kernel.events import Event
from repro.kernel.system import KernelSystem, SystemConfig
from repro.kernel.task import Process, ThreadState
from repro.program.execution import ProgramExecution
from repro.program.workloads import get_workload
from repro.util.units import MIB, MSEC, SEC


class TestSystemConfig:

    def test_small_node_validation(self):
        with pytest.raises(ValueError):
            SystemConfig.small_node(7)

    def test_small_node_core_count(self):
        system = KernelSystem(SystemConfig.small_node(8))
        assert len(system.topology) == 8


class TestMeasurement:
    def test_compute_run_and_summary(self):
        system = KernelSystem(SystemConfig.small_node(8, seed=1))
        process = get_workload("ex").spawn(system, cpuset=[0])
        assert system.run_until_done([process], deadline_ns=5 * SEC)
        summary = system.summary()
        assert summary.completion_ns["ex"] >= int(0.99 * SEC)
        assert summary.cpi["ex"] > 0
        assert 0 < summary.utilization <= 1

    def test_run_until_done_deadline_miss(self):
        system = KernelSystem(SystemConfig.small_node(8, seed=1))
        process = get_workload("ex").spawn(system, cpuset=[0])
        assert not system.run_until_done([process], deadline_ns=10 * MSEC)

    def test_window_measurement_on_server(self):
        system = KernelSystem(SystemConfig.small_node(8, seed=1))
        process = get_workload("mc").spawn(system, cpuset=[0, 1])
        delta = system.measure_window(100 * MSEC, warmup_ns=50 * MSEC)
        assert delta.window_ns == 100 * MSEC
        assert delta.requests[process.pid] > 0
        assert delta.throughput_rps > 0
        assert delta.syscalls > 0
        assert delta.context_switches > 0

    def test_cpi_reflects_nominal_rate(self):
        system = KernelSystem(SystemConfig.small_node(8, seed=1))
        workload = get_workload("ex")  # ips = 3.4
        process = workload.spawn(system, cpuset=[0])
        system.run_until_done([process], deadline_ns=5 * SEC)
        cpi = system.process_cpi(process)
        expected = system.config.cpu_freq_ghz / workload.nominal_ips
        assert cpi == pytest.approx(expected, rel=0.05)

    def test_process_by_name(self):
        system = KernelSystem(SystemConfig.small_node(8))
        process = get_workload("ex").spawn(system)
        assert system.process_by_name("ex") is process
        with pytest.raises(KeyError):
            system.process_by_name("nope")


class TestFacilityMemoryLedger:
    def test_reserve_and_release(self):
        system = KernelSystem(SystemConfig.small_node(8))
        system.reserve_facility_memory(100 * MIB)
        assert system.facility_memory_bytes == 100 * MIB
        system.release_facility_memory(40 * MIB)
        assert system.facility_memory_bytes == 60 * MIB

    def test_over_reservation_raises(self):
        system = KernelSystem(SystemConfig.small_node(8))
        with pytest.raises(MemoryError):
            system.reserve_facility_memory(system.memory_bytes + 1)

    def test_release_never_negative(self):
        system = KernelSystem(SystemConfig.small_node(8))
        system.release_facility_memory(5 * MIB)
        assert system.facility_memory_bytes == 0


# -- run-to-completion against a reference loop -------------------------------


def _reference_step(sim) -> bool:
    """The per-event ``Simulator.step`` the old loop drove.

    Heap entries are ``(at, seq, item)``: ``item`` is a cancellable
    :class:`Event` or a handle-free callable.  No batch is running here,
    so every ``Simulator.follow`` posts: this loop pops each event that
    the batched loop may fire inline.
    """
    if sim.halted:
        return False
    assert sim._until < 0, "the reference must run outside any batch"
    heap = sim._heap
    while heap:
        at, _, item = heapq.heappop(heap)
        if isinstance(item, Event):
            if item.cancelled:
                sim._tombstones -= 1
                continue
            item.fired = True
            item = item.callback
        sim.now = at
        sim._events_fired += 1
        item()
        return True
    return False


def _reference_run_until_done(system, processes, deadline_ns) -> bool:
    """The peek/step/done() loop ``run_until_done`` replaced.

    One correction: the old loop spun forever on a halted clock, because
    ``step`` refused to fire while ``peek_time`` still saw an event; here
    a refused step ends the loop.
    """
    targets = list(processes)

    def done() -> bool:
        return all(t.state is ThreadState.DONE for p in targets for t in p.threads)

    while not done():
        next_time = system.sim.peek_time()
        if next_time is None or next_time > deadline_ns:
            break
        if not _reference_step(system.sim):
            break
    return done()


def _job_system(tiny_path, works, seed=3):
    """A node running one target process (one thread per entry of
    ``works``) beside a longer-lived neighbour; ids are pinned so two
    builds are identical."""
    system = KernelSystem(SystemConfig.small_node(4, seed=seed))

    def spawn(name, pid, work_totals):
        process = Process(name=name, pid=pid)
        for index, work in enumerate(work_totals):
            engine = ProgramExecution(
                path_model=tiny_path,
                work_total=work,
                nominal_ips=1.0,
                branch_per_instr=0.2,
                syscall_interval=2e5,
                seed=seed + index,
                label=f"{name}/t{index}",
            )
            thread = process.new_thread(
                engine, cpuset=[index % 2], tid=pid * 10 + index
            )
            system.scheduler.add_thread(thread)
        system.register_process(process)
        return process

    target = spawn("target", 700, works)
    spawn("neighbour", 800, [4e6])
    return system, [target]


def _outcome(system, processes, finished):
    return (
        finished,
        system.sim.events_fired,
        system.sim.now,
        system.sim.pending_count,
        [t.done_at for p in processes for t in p.threads],
    )


class TestRunUntilDoneMatchesReference:
    def _both(self, build, deadline_ns, prepare=lambda system: None):
        outcomes = []
        for run in (_reference_run_until_done, KernelSystem.run_until_done):
            system, targets = build()
            prepare(system)
            finished = run(system, targets, deadline_ns)
            outcomes.append(_outcome(system, system.processes, finished))
        assert outcomes[0] == outcomes[1]
        return outcomes[1]

    def test_completion(self, tiny_path):
        finished, *_ = self._both(
            lambda: _job_system(tiny_path, [1e6]),
            deadline_ns=5 * SEC,
        )
        assert finished

    def test_deadline_miss(self):
        def build():
            system = KernelSystem(SystemConfig.small_node(8, seed=1))
            process = get_workload("ex").spawn(
                system, cpuset=[0], pid=900, tids=[9000]
            )
            return system, [process]

        finished, _, now, *_ = self._both(build, deadline_ns=10 * MSEC)
        assert not finished
        assert now <= 10 * MSEC

    def test_halt_from_callback(self, tiny_path):
        def halt_at_1ms(system):
            system.sim.schedule(1 * MSEC, system.sim.halt)

        finished, _, now, *_ = self._both(
            lambda: _job_system(tiny_path, [1e6]),
            deadline_ns=5 * SEC,
            prepare=halt_at_1ms,
        )
        assert not finished
        assert now == 1 * MSEC

    def test_cancelled_events_keep_pending_count_exact(self, tiny_path):
        def litter(system):
            sim = system.sim
            events = [
                sim.schedule(t * 7919 % (3 * MSEC), lambda: None) for t in range(200)
            ]
            # three in four cancelled up front, the rest from inside the run
            for index, event in enumerate(events):
                if index % 4:
                    event.cancel()
            sim.schedule(MSEC, lambda: [event.cancel() for event in events])
            # a few live events beyond completion stay pending
            for t in range(5):
                sim.schedule(10 * SEC + t, lambda: None)

        *_, pending, _ = self._both(
            lambda: _job_system(tiny_path, [1e6]),
            deadline_ns=5 * SEC,
            prepare=litter,
        )

        system, targets = _job_system(tiny_path, [1e6])
        litter(system)
        system.run_until_done(targets, deadline_ns=5 * SEC)
        live = sum(
            1 for entry in system.sim._heap
            if not (isinstance(entry[2], Event) and entry[2].cancelled)
        )
        assert system.sim.pending_count == live == pending

    @pytest.mark.parametrize("works", [(1e6, 3e5), (3e5, 1e6)])
    def test_multi_thread_target_either_order(self, tiny_path, works):
        finished, *_, done_at = self._both(
            lambda: _job_system(tiny_path, list(works)),
            deadline_ns=5 * SEC,
        )
        assert finished
        first, second = done_at[:2]
        assert (first > second) == (works[0] > works[1])
