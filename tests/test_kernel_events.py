"""Unit tests for the discrete-event core."""

import heapq
import math

import numpy as np
import pytest

from repro.kernel.events import Event, Simulator
from repro.util.rng import derive_seed


class TestScheduling:
    def test_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30, lambda: fired.append(30))
        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(20, lambda: fired.append(20))
        sim.run_until_stopped(math.inf)
        assert fired == [10, 20, 30]

    def test_same_time_fifo(self):
        sim = Simulator()
        fired = []
        for index in range(5):
            sim.schedule(100, lambda i=index: fired.append(i))
        sim.run_until_stopped(math.inf)
        assert fired == [0, 1, 2, 3, 4]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run_until_stopped(math.inf)
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
        sim.run_until_stopped(math.inf)
        assert fired == ["first", "second"]
        assert sim.now == 15


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, lambda: fired.append(1))
        event.cancel()
        sim.run_until_stopped(math.inf)
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        event = sim.schedule(1, lambda: None)
        sim.run_until_stopped(math.inf)
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
        sim.run_until_stopped(math.inf)
        assert sim.pending_count == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        event.cancel()
        event.cancel()  # second cancel must not double-count the tombstone
        assert sim.pending_count == 1
        sim.run_until_stopped(math.inf)
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
        fired = sim.run_until_stopped(math.inf)
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
        assert sim.run_until_stopped(math.inf) == 1

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
        sim.run_until_stopped(math.inf)
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

    def test_events_fired_counter(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        sim.run_until_stopped(math.inf)
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


class TestFollow:
    """``follow`` fires a callback's last act inline only when posting it
    would make it the batch's very next event."""

    @staticmethod
    def _chain(sim, seen, times):
        """Post a callback at ``times[0]`` whose last act follows up at
        ``times[1]``, and so on; ``seen`` records ``(now, inline)``, where
        inline means the follow-up ran inside its parent's call."""
        depth = [0]

        def at(index):
            def callback():
                seen.append((sim.now, depth[0] > 0))
                if index + 1 < len(times):
                    depth[0] += 1
                    sim.follow(times[index + 1], at(index + 1))
                    depth[0] -= 1

            return callback

        sim.post(times[0], at(0))

    def test_fires_inline_within_deadline(self):
        sim = Simulator()
        seen = []
        self._chain(sim, seen, [10, 20, 30])
        assert sim.run_until(30) == 3
        assert seen == [(10, False), (20, True), (30, True)]
        assert sim.now == 30
        assert sim.events_fired == 3
        assert sim.pending_count == 0 and not sim._heap

    def test_past_deadline_is_queued_not_fired(self):
        sim = Simulator()
        seen = []
        self._chain(sim, seen, [100, 150])
        assert sim.run_until(120) == 1
        assert seen == [(100, False)]
        assert sim.now == 120
        assert sim.pending_count == 1
        assert sim.run_until(200) == 1
        assert seen == [(100, False), (150, False)]
        assert sim.events_fired == 2

    @pytest.mark.parametrize("end", ["stop", "halt"])
    def test_nothing_fires_inline_after_stop_or_halt(self, end):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            getattr(sim, end)()
            sim.follow(110, lambda: seen.append(sim.now))

        sim.post(100, first)
        assert sim.run_until(1000) == 1
        assert seen == [100]
        assert sim.now == 100
        assert sim.pending_count == 1
        sim.halted = False
        assert sim.run_until(1000) == 1
        assert seen == [100, 110]
        assert sim.now == 1000

    def test_entry_at_same_nanosecond_fires_first(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.follow(110, lambda: order.append("follow-up"))

        sim.post(100, first)
        sim.post(110, lambda: order.append("queued"))
        assert sim.run_until_stopped(math.inf) == 3
        assert order == ["first", "queued", "follow-up"]

    def test_cancelled_timer_between_is_skipped(self):
        sim = Simulator()
        order = []

        def first():
            order.append(("first", sim.now))
            sim.follow(110, lambda: order.append(("follow-up", sim.now)))

        sim.post(100, first)
        timer = sim.schedule(105, lambda: order.append(("timer", sim.now)))
        timer.cancel()
        assert sim.pending_count == 1
        assert sim.run_until_stopped(math.inf) == 2
        assert order == [("first", 100), ("follow-up", 110)]
        assert not timer.fired
        assert sim.pending_count == 0 and not sim._heap

    @pytest.mark.parametrize("run", ["run_until", "run_until_stopped"])
    def test_counts_include_inline_fires(self, run):
        sim = Simulator()
        seen = []
        self._chain(sim, seen, [10, 20, 30, 40])
        sim.post(500, lambda: None)
        fired = getattr(sim, run)(100)
        assert [inline for _, inline in seen] == [False, True, True, True]
        assert fired == sim.events_fired == 4
        assert sim.pending_count == 1

    def test_follow_in_the_past_raises(self):
        sim = Simulator()
        errors = []

        def first():
            try:
                sim.follow(50, lambda: None)
            except ValueError as exc:
                errors.append(exc)

        sim.post(100, first)
        sim.run_until_stopped(math.inf)
        assert len(errors) == 1

    def test_follow_outside_a_batch_is_posted(self):
        sim = Simulator()
        seen = []
        sim.follow(10, lambda: seen.append(sim.now))
        assert seen == [] and sim.pending_count == 1
        assert sim.run_until_stopped(math.inf) == 1
        assert seen == [10]


# -- randomized property: batched loop == one-pop-per-event reference ----------


def _reference_run_until(sim, deadline):
    """The pre-batching ``run_until``: peek, pop one entry, fire it.

    Outside a batch every ``follow`` posts, so this pops each follow-up
    that the batched loop may fire inline.
    """
    if sim.halted:
        return 0
    sim._stop = False
    fired = 0
    while True:
        at = sim.peek_time()
        if at is None or at > deadline:
            break
        at, _, item = heapq.heappop(sim._heap)
        if isinstance(item, Event):
            item.fired = True
            item = item.callback
        sim.now = at
        sim._events_fired += 1
        fired += 1
        item()
        if sim._stop:
            return fired
    if sim.now < deadline:
        sim.now = deadline
    return fired


def _scenario(sim, seed, log, inline):
    """Seed a simulator with a random tree of events.

    Each callback's behaviour depends only on its label, so both loops
    build the same tree: it may post children, arm timers, cancel armed
    timers, stop or halt the batch, and end with a ``follow``.
    ``inline[0]`` counts follow-ups that ran inside their parent's call.
    """
    timers = {}
    following = [False]

    def make(label):
        def callback():
            log.append((label, sim.now))
            if following[0]:
                inline[0] += 1
                following[0] = False
            rng = np.random.default_rng(derive_seed(seed, "follow", label))

            def pick(options):
                return options[int(rng.integers(len(options)))]

            if len(label) > 12:
                return
            for k in range(int(rng.integers(3))):
                sim.post(sim.now + pick((0, 1, 5, 40)), make(f"{label}p{k}"))
            if rng.random() < 0.3:
                timers[label] = sim.schedule(
                    sim.now + int(rng.integers(1, 60)), make(f"{label}t")
                )
            if timers and rng.random() < 0.4:
                timers.pop(pick(sorted(timers))).cancel()
            roll = rng.random()
            if roll < 0.05:
                sim.stop()
            elif roll < 0.07:
                sim.halt()
            if rng.random() < 0.6:
                following[0] = True
                sim.follow(sim.now + pick((0, 1, 3, 30)), make(f"{label}f"))
                following[0] = False

        return callback

    root = np.random.default_rng(derive_seed(seed, "follow"))
    for k in range(6):
        sim.post(int(root.integers(50)), make(f"r{k}"))


@pytest.mark.parametrize("seed", range(40))
def test_batched_loop_matches_reference(seed):
    outcomes = []
    inline = []
    for run in (Simulator.run_until, _reference_run_until):
        sim = Simulator()
        log = []
        inline.append([0])
        _scenario(sim, seed, log, inline[-1])
        returns = []
        for deadline in (20, 45, 45, 90, 200, 10_000):
            sim.halted = False
            returns.append(run(sim, deadline))
            returns.append((sim.now, sim.events_fired, sim.pending_count))
        outcomes.append((log, returns))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0], "the scenario fired nothing"
    assert inline[1] == [0], "the reference must post every follow-up"


def test_randomized_scenarios_fire_inline():
    """The seeds above exercise both outcomes of ``follow``."""
    fired_inline = []
    for seed in range(40):
        sim = Simulator()
        inline = [0]
        _scenario(sim, seed, [], inline)
        for deadline in (20, 45, 45, 90, 200, 10_000):
            sim.halted = False
            sim.run_until(deadline)
        fired_inline.append(inline[0])
    assert sum(fired_inline) > 100
    assert min(fired_inline) < max(fired_inline)
