"""Scheduler behaviour tests, using a controllable fake engine."""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from repro.kernel.cpu import CpuTopology
from repro.kernel.events import Simulator
from repro.kernel.scheduler import HOOK_KEY_CORE_BITS, Scheduler
from repro.kernel.syscalls import SyscallTable
from repro.kernel.system import KernelSystem, SystemConfig
from repro.kernel.task import (
    SLICE_DONE,
    SLICE_SYSCALL,
    SLICE_TIMESLICE,
    Process,
    SliceResult,
    Thread,
    ThreadState,
)
from repro.kernel.tracepoints import SCHED_SWITCH, TracepointRegistry
from repro.util.rng import RngFactory
from repro.util.units import MSEC


class FakeEngine:
    """Runs at 1 work unit per ns; emits scripted syscalls."""

    def __init__(self, work_total: float, syscalls: Optional[List[Tuple[float, str]]] = None):
        self.work_total = work_total
        self.done_work = 0.0
        # (at_work_units, name), ascending
        self.syscalls = sorted(syscalls or [])
        self.nominal_ips = 1.0
        self.branch_per_instr = 0.1

    @property
    def finished(self) -> bool:
        return self.done_work >= self.work_total

    def advance(self, budget_ns: int, work_rate: float) -> SliceResult:
        rate = max(work_rate, 1e-9)
        budget_work = budget_ns * rate
        next_syscall = next(
            ((at, name) for at, name in self.syscalls if at > self.done_work), None
        )
        limit = self.work_total - self.done_work
        outcome = SLICE_TIMESLICE
        syscall = None
        if next_syscall is not None and next_syscall[0] - self.done_work <= min(budget_work, limit):
            take = next_syscall[0] - self.done_work
            outcome = SLICE_SYSCALL
            syscall = next_syscall[1]
            self.syscalls.remove(next_syscall)
        elif limit <= budget_work:
            take = limit
            outcome = SLICE_DONE
        else:
            take = budget_work
        self.done_work += take
        ran = int(round(take / rate))
        return SliceResult(
            ran_ns=ran,
            work_done=take,
            branches=int(take * self.branch_per_instr),
            outcome=outcome,
            syscall=syscall,
            event_range=(0, 0),
        )


def spawn(system: KernelSystem, name: str, engine: FakeEngine, cpuset=None) -> Thread:
    process = Process(name=name)
    thread = process.new_thread(engine, cpuset=cpuset)
    system.register_process(process)
    system.scheduler.add_thread(thread)
    return thread


@pytest.fixture
def system() -> KernelSystem:
    return KernelSystem(SystemConfig.small_node(4, seed=2))


class TestBasicExecution:
    def test_single_thread_runs_to_completion(self, system):
        thread = spawn(system, "job", FakeEngine(5 * MSEC))
        system.run_for(20 * MSEC)
        assert thread.state is ThreadState.DONE
        assert thread.done_at is not None
        assert thread.done_at >= 5 * MSEC
        assert thread.work_done == pytest.approx(5 * MSEC)

    def test_two_threads_share_one_core(self, system):
        a = spawn(system, "a", FakeEngine(4 * MSEC), cpuset=[0])
        b = spawn(system, "b", FakeEngine(4 * MSEC), cpuset=[0])
        system.run_for(30 * MSEC)
        assert a.state is ThreadState.DONE
        assert b.state is ThreadState.DONE
        # serialized on one core: combined wall time ~8ms, not ~4ms
        assert max(a.done_at, b.done_at) >= 8 * MSEC

    def test_threads_spread_across_cores(self, system):
        threads = [spawn(system, f"t{i}", FakeEngine(2 * MSEC)) for i in range(4)]
        system.run_for(10 * MSEC)
        cores_used = {t.last_core for t in threads}
        assert len(cores_used) == 4

    def test_cpuset_respected(self, system):
        thread = spawn(system, "pinned", FakeEngine(6 * MSEC), cpuset=[2])
        system.run_for(20 * MSEC)
        assert thread.last_core == 2

    def test_empty_cpuset_rejected(self, system):
        with pytest.raises(ValueError):
            spawn(system, "bad", FakeEngine(1 * MSEC), cpuset=[99])


class TestContextSwitches:
    def test_time_sharing_counts_switches(self, system):
        spawn(system, "a", FakeEngine(10 * MSEC), cpuset=[0])
        spawn(system, "b", FakeEngine(10 * MSEC), cpuset=[0])
        system.run_for(25 * MSEC)
        # 2ms timeslices over 20ms of shared execution: ~10 switches
        assert system.scheduler.total_context_switches >= 8

    def test_switch_log(self, system):
        system.scheduler.enable_switch_log()
        thread = spawn(system, "a", FakeEngine(3 * MSEC), cpuset=[1])
        system.run_for(10 * MSEC)
        assert system.scheduler.switch_log
        timestamps = [entry[0] for entry in system.scheduler.switch_log]
        assert timestamps == sorted(timestamps)
        tids = {entry[3] for entry in system.scheduler.switch_log}
        assert thread.tid in tids

    def test_hook_cost_charged_to_incoming_thread(self, system):
        cost_ns = 50_000

        system.tracepoints.attach(SCHED_SWITCH, lambda record: cost_ns)
        thread = spawn(system, "a", FakeEngine(1 * MSEC), cpuset=[0])
        system.run_for(10 * MSEC)
        assert thread.tracing_overhead_ns >= cost_ns

    def test_hook_cost_delays_completion(self, system):
        baseline = KernelSystem(SystemConfig.small_node(4, seed=2))
        t0 = spawn(baseline, "a", FakeEngine(5 * MSEC), cpuset=[0])
        baseline.run_for(20 * MSEC)

        system.tracepoints.attach(SCHED_SWITCH, lambda record: 500_000)
        t1 = spawn(system, "a", FakeEngine(5 * MSEC), cpuset=[0])
        system.run_for(20 * MSEC)
        assert t1.done_at > t0.done_at


class TestSyscalls:
    def test_nonblocking_syscall_continues(self, system):
        engine = FakeEngine(3 * MSEC, syscalls=[(1 * MSEC, "getpid")])
        thread = spawn(system, "a", engine, cpuset=[0])
        system.run_for(20 * MSEC)
        assert thread.state is ThreadState.DONE
        assert thread.syscall_count == 1
        assert thread.kernel_ns > 0

    def test_blocking_syscall_blocks_then_wakes(self, system):
        engine = FakeEngine(2 * MSEC, syscalls=[(1 * MSEC, "nanosleep")])
        thread = spawn(system, "a", engine, cpuset=[0])
        system.run_for(1500_000)  # 1.5ms: mid-block
        assert thread.state is ThreadState.BLOCKED
        system.run_for(30 * MSEC)
        assert thread.state is ThreadState.DONE
        assert thread.wakeups == 1

    def test_block_lets_other_thread_run(self, system):
        blocker = FakeEngine(2 * MSEC, syscalls=[(100_000, "nanosleep")])
        a = spawn(system, "a", blocker, cpuset=[0])
        b = spawn(system, "b", FakeEngine(2 * MSEC), cpuset=[0])
        system.run_for(30 * MSEC)
        assert a.state is ThreadState.DONE
        assert b.state is ThreadState.DONE
        # b should have run during a's block: b finishes before a
        assert b.done_at < a.done_at


class TestAccounting:
    def test_work_conservation_under_sharing(self, system):
        a = spawn(system, "a", FakeEngine(3 * MSEC), cpuset=[0])
        b = spawn(system, "b", FakeEngine(3 * MSEC), cpuset=[0])
        system.run_for(30 * MSEC)
        assert a.work_done + b.work_done == pytest.approx(6 * MSEC)

    def test_core_busy_time_tracked(self, system):
        spawn(system, "a", FakeEngine(4 * MSEC), cpuset=[0])
        system.run_for(20 * MSEC)
        assert system.topology.core(0).busy_ns >= 4 * MSEC

def scheduler_with_cores(n_cores: int) -> Scheduler:
    return Scheduler(
        sim=Simulator(),
        topology=CpuTopology(cores_per_socket=n_cores, threads_per_core=1),
        tracepoints=TracepointRegistry(),
        syscalls=SyscallTable(),
        rng=RngFactory(0),
    )


def test_core_id_past_the_hook_key_slot_is_rejected():
    """Core ids share one packed int with the tid in the hook-cache key,
    so a topology with a core id of 1024 must fail at construction
    rather than alias another core's cached decisions."""
    slot = 1 << HOOK_KEY_CORE_BITS
    with pytest.raises(ValueError, match="core id 1024"):
        scheduler_with_cores(slot + 1)
    assert len(scheduler_with_cores(slot).topology) == slot
