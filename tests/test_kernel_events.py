"""Unit tests for the discrete-event core."""

import pytest

from repro.kernel.events import Simulator


class TestScheduling:
    def test_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30, lambda: fired.append(30))
        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(20, lambda: fired.append(20))
        sim.run_until_idle()
        assert fired == [10, 20, 30]

    def test_same_time_fifo(self):
        sim = Simulator()
        fired = []
        for index in range(5):
            sim.schedule(100, lambda i=index: fired.append(i))
        sim.run_until_idle()
        assert fired == [0, 1, 2, 3, 4]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run_until_idle()
        with pytest.raises(ValueError):
            sim.schedule(5, lambda: None)

    def test_schedule_after_negative_raises(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_after(-1, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule_after(5, lambda: fired.append("second"))

        sim.schedule(10, first)
        sim.run_until_idle()
        assert fired == ["first", "second"]
        assert sim.now == 15


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, lambda: fired.append(1))
        event.cancel()
        sim.run_until_idle()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        event = sim.schedule(1, lambda: None)
        sim.run_until_idle()
        event.cancel()  # must not raise

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(5, lambda: None)
        sim.schedule(10, lambda: None)
        first.cancel()
        assert sim.peek_time() == 10


class TestTombstones:
    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        events = [sim.schedule(t, lambda: None) for t in range(10)]
        assert sim.pending_count == 10
        for event in events[:4]:
            event.cancel()
        assert sim.pending_count == 6
        sim.run_until_idle()
        assert sim.pending_count == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        event.cancel()
        event.cancel()  # second cancel must not double-count the tombstone
        assert sim.pending_count == 1
        sim.run_until_idle()
        assert sim.events_fired == 1

    def test_compaction_drops_majority_tombstones(self):
        sim = Simulator()
        events = [sim.schedule(t, lambda: None) for t in range(128)]
        for event in events[:100]:
            event.cancel()
        # once tombstones outnumber live entries the heap is rebuilt in
        # place, so it cannot still hold all 100 cancelled events.
        assert len(sim._heap) < 100
        assert sim.pending_count == 28
        fired = sim.run_until_idle()
        assert fired == 28

    def test_small_heaps_are_not_compacted(self):
        sim = Simulator()
        events = [sim.schedule(t, lambda: None) for t in range(10)]
        for event in events[:9]:
            event.cancel()
        # below the 64-entry floor compaction never runs; lazy deletion
        # still yields the right answer.
        assert len(sim._heap) == 10
        assert sim.pending_count == 1
        assert sim.run_until_idle() == 1

    def test_order_preserved_after_compaction(self):
        sim = Simulator()
        fired = []
        keep = []
        for t in range(200):
            event = sim.schedule(t, lambda t=t: fired.append(t))
            if t % 3:
                keep.append(t)
            else:
                event.cancel()
        sim.run_until_idle()
        assert fired == keep


class TestRunUntil:
    def test_advances_clock_to_deadline(self):
        sim = Simulator()
        sim.run_until(1000)
        assert sim.now == 1000

    def test_does_not_fire_beyond_deadline(self):
        sim = Simulator()
        fired = []
        sim.schedule(500, lambda: fired.append("early"))
        sim.schedule(1500, lambda: fired.append("late"))
        sim.run_until(1000)
        assert fired == ["early"]
        assert sim.now == 1000
        sim.run_until(2000)
        assert fired == ["early", "late"]

    def test_fires_events_exactly_at_deadline(self):
        sim = Simulator()
        fired = []
        sim.schedule(1000, lambda: fired.append("edge"))
        sim.run_until(1000)
        assert fired == ["edge"]

    def test_returns_fired_count(self):
        sim = Simulator()
        for t in (1, 2, 3):
            sim.schedule(t, lambda: None)
        assert sim.run_until(10) == 3

    def test_livelock_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule_after(0, rearm)

        sim.schedule(0, rearm)
        with pytest.raises(RuntimeError):
            sim.run_until_idle(max_events=100)

    def test_events_fired_counter(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        sim.run_until_idle()
        assert sim.events_fired == 2


class TestHalt:
    def test_halted_clock_does_not_advance(self):
        sim = Simulator()
        fired = []
        sim.schedule(500, lambda: fired.append("a"))
        sim.halt()
        sim.run_until(1000)
        assert fired == []
        assert sim.now == 0

    def test_halt_from_inside_callback(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, sim.halt)
        sim.schedule(200, lambda: fired.append("late"))
        sim.run_until(1000)
        assert fired == []
        assert sim.now == 100

    def test_resume_releases_queued_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, sim.halt)
        sim.schedule(200, lambda: fired.append("late"))
        sim.run_until(1000)
        sim.resume()
        sim.run_until(1000)
        assert fired == ["late"]
        assert sim.now == 1000


class TestStop:
    def test_stop_keeps_remaining_ready_events(self):
        sim = Simulator()
        seen = []

        def record_and_stop():
            seen.append(sim.now)
            sim.stop()

        sim.schedule(10, record_and_stop)
        sim.schedule(20, lambda: seen.append(sim.now))
        sim.schedule(30, lambda: seen.append(sim.now))
        assert sim.run_until(100) == 1
        # stopped short: the clock must not jump past the queued events
        assert sim.now == 10
        assert sim.run_until(200) == 2
        assert seen == [10, 20, 30]
        assert sim.now == 200

    def test_run_until_stopped_leaves_clock_at_last_event(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule(40, sim.stop)
        sim.schedule(50, lambda: None)
        assert sim.run_until_stopped(100) == 2
        assert sim.now == 40
        assert sim.pending_count == 1

    def test_run_until_stopped_miss_does_not_reach_deadline(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule(500, lambda: None)
        assert sim.run_until_stopped(100) == 1
        assert sim.now == 10
        assert sim.events_fired == 1

    def test_stop_is_one_shot(self):
        sim = Simulator()
        sim.schedule(10, sim.stop)
        sim.schedule(20, lambda: None)
        sim.run_until(15)
        assert sim.run_until(30) == 1
        assert sim.now == 30
