"""Unit tests for the tracepoint registry."""

import pytest

from repro.kernel.task import Process
from repro.kernel.tracepoints import SCHED_SWITCH, SYS_ENTER, SchedSwitchRecord, TracepointRegistry


class TestRegistry:
    def test_fire_without_hooks_is_free(self):
        registry = TracepointRegistry()
        assert registry.fire(SCHED_SWITCH, object()) == 0

    def test_fire_counts_tracked(self):
        registry = TracepointRegistry()
        registry.fire(SCHED_SWITCH, object())
        registry.fire(SCHED_SWITCH, object())
        registry.fire(SYS_ENTER, object())
        assert registry.fire_counts[SCHED_SWITCH] == 2
        assert registry.fire_counts[SYS_ENTER] == 1

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
