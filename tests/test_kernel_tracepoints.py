"""Unit tests for the tracepoint registry."""

import pytest

import repro.kernel.scheduler as scheduler_module
from repro.kernel.system import KernelSystem, SystemConfig
from repro.kernel.task import Process
from repro.kernel.tracepoints import (
    SCHED_SWITCH,
    SYS_ENTER,
    SchedSwitchRecord,
    SyscallRecord,
    TracepointRegistry,
)
from repro.program.execution import ProgramExecution
from repro.util.units import MSEC


class TestRegistry:
    def test_fire_without_hooks_is_free(self):
        registry = TracepointRegistry()
        assert registry.fire(SCHED_SWITCH, object()) == 0

    def test_hook_costs_summed(self):
        registry = TracepointRegistry()
        registry.attach(SCHED_SWITCH, lambda record: 100)
        registry.attach(SCHED_SWITCH, lambda record: 250)
        assert registry.fire(SCHED_SWITCH, object()) == 350

    def test_hooks_receive_record(self):
        registry = TracepointRegistry()
        seen = []
        registry.attach(SYS_ENTER, lambda record: seen.append(record) or 0)
        payload = {"x": 1}
        registry.fire(SYS_ENTER, payload)
        assert seen == [payload]

    def test_detach(self):
        registry = TracepointRegistry()
        hook = lambda record: 10  # noqa: E731
        registry.attach(SCHED_SWITCH, hook)
        registry.detach(SCHED_SWITCH, hook)
        assert registry.fire(SCHED_SWITCH, object()) == 0

    def test_detach_missing_raises(self):
        registry = TracepointRegistry()
        registry.attach(SCHED_SWITCH, lambda r: 0)
        with pytest.raises(ValueError):
            registry.detach(SCHED_SWITCH, lambda r: 0)

    def test_hook_order_preserved(self):
        registry = TracepointRegistry()
        calls = []
        registry.attach(SCHED_SWITCH, lambda r: calls.append("first") or 0)
        registry.attach(SCHED_SWITCH, lambda r: calls.append("second") or 0)
        registry.fire(SCHED_SWITCH, object())
        assert calls == ["first", "second"]


class TestSysEnterHookOnLiveSystem:
    """A ``sys_enter`` probe attached to and detached from a built node."""

    PROBE_NS = 700

    def test_probe_charged_only_while_attached(self, tiny_path, monkeypatch):
        built = []

        def counting_record(*args):
            built.append(args)
            return SyscallRecord(*args)

        monkeypatch.setattr(scheduler_module, "SyscallRecord", counting_record)
        system = KernelSystem(SystemConfig.small_node(2, seed=3))
        process = Process(name="job")
        engine = ProgramExecution(
            tiny_path, work_total=1e9, nominal_ips=1.0, syscall_interval=2e4,
            syscall_mix={"brk": 1.0}, seed=5,
        )
        thread = process.new_thread(engine)
        system.register_process(process)
        system.scheduler.add_thread(thread)

        system.run_for(2 * MSEC)
        unhooked = thread.syscall_count
        assert unhooked > 0
        assert built == []
        assert thread.tracing_overhead_ns == 0

        seen = []

        def probe(record):
            seen.append(record)
            return self.PROBE_NS

        system.tracepoints.attach(SYS_ENTER, probe)
        system.run_for(2 * MSEC)
        hooked = thread.syscall_count - unhooked
        assert hooked > 0
        assert len(seen) == len(built) == hooked
        assert {record.syscall for record in seen} == {"brk"}
        assert thread.tracing_overhead_ns == hooked * self.PROBE_NS

        system.tracepoints.detach(SYS_ENTER, probe)
        before = thread.syscall_count
        system.run_for(2 * MSEC)
        assert thread.syscall_count > before
        assert len(seen) == len(built) == hooked
        assert thread.tracing_overhead_ns == hooked * self.PROBE_NS


class TestSchedSwitchRecord:
    def test_five_tuple_for_sched_in(self):
        process = Process(name="app")
        thread = process.new_thread(engine=None)
        record = SchedSwitchRecord(timestamp=123, cpu_id=4, prev=None, next=thread)
        timestamp, cpu, pid, tid, operation = record.five_tuple
        assert (timestamp, cpu) == (123, 4)
        assert pid == process.pid
        assert tid == thread.tid
        assert operation == "sched_in"

    def test_five_tuple_for_idle(self):
        record = SchedSwitchRecord(timestamp=5, cpu_id=0, prev=None, next=None)
        assert record.five_tuple == (5, 0, 0, 0, "idle")
