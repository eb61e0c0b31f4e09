"""Discrete-event simulation core.

A minimal, fast event loop over integer-nanosecond virtual time.  Events
are callbacks ordered by (time, sequence); the sequence number makes
ordering fully deterministic when events share a timestamp.  Events can be
cancelled in O(1) (lazy deletion on pop).

Two structural choices make this the fastest loop Python allows:

* the heap holds plain ``(time, seq, event)`` tuples, so every sift
  comparison heapq performs is a C-level int compare instead of a Python
  ``Event.__lt__`` call — pushes and pops on deep queues cost a fraction
  of an object heap;
* every run method (:meth:`Simulator.run_until`,
  :meth:`Simulator.run_until_stopped`, :meth:`Simulator.run_until_idle`)
  drives one shared loop that pops ready events in a batched pass,
  skipping tombstones inline without re-heapifying and deferring the
  fired-event counter to the end of the batch, so driving a node costs
  one Python frame per *run*, not two method calls per *event*.

Cancelled entries are counted and the heap is compacted in place once
tombstones outnumber live events, bounding memory for workloads that
cancel heavily (re-armed timers).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Tuple

#: compaction threshold: never compact heaps smaller than this (the
#: rebuild would cost more than the garbage it reclaims)
_COMPACT_MIN_SIZE = 64

#: event cap of a batch that only a deadline, halt or stop may end
_NO_LIMIT = 1 << 63


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Cancelling an event is cheap: the heap entry is tombstoned and skipped
    when popped.  An event fires at most once.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[[], None],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_tombstone()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time}, seq={self.seq}, {state})"


_HeapEntry = Tuple[int, int, Event]


class Simulator:
    """The virtual clock and event queue for one simulated node.

    All simulated components (scheduler, timers, tracers, load generators)
    share one :class:`Simulator`.  Time never moves backwards; scheduling
    an event in the past raises ``ValueError``.
    """

    def __init__(self, start_time: int = 0):
        self.now: int = start_time
        self._heap: List[_HeapEntry] = []
        self._seq = 0
        self._events_fired = 0
        self._tombstones = 0
        #: a halted clock fires nothing and never advances (crashed node)
        self.halted = False
        #: set by :meth:`halt` or :meth:`stop` to end the running batch
        self._stop = False

    # -- scheduling -------------------------------------------------------

    def schedule(self, at: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run at absolute virtual time ``at``."""
        if at < self.now:
            raise ValueError(f"cannot schedule at {at} < now {self.now}")
        self._seq += 1
        event = Event(at, self._seq, callback, self)
        heapq.heappush(self._heap, (at, self._seq, event))
        return event

    def schedule_after(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule(self.now + delay, callback)

    # -- tombstone accounting ----------------------------------------------

    @property
    def pending_count(self) -> int:
        """Live (non-cancelled, unfired) events currently scheduled."""
        return len(self._heap) - self._tombstones

    def _note_tombstone(self) -> None:
        """One heap entry turned into a tombstone; compact if they win."""
        self._tombstones += 1
        heap = self._heap
        if len(heap) >= _COMPACT_MIN_SIZE and self._tombstones * 2 > len(heap):
            # in-place rebuild so aliases held by running loops stay valid
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            self._tombstones = 0

    # -- halting (fault injection) ----------------------------------------

    def halt(self) -> None:
        """Freeze the clock: pending events stay queued but never fire.

        Models a node crash — from the outside the machine simply stops
        responding, with ``now`` frozen at the instant of the crash.  A
        halt can be issued from inside a running event callback; the
        batched run loop observes it after that callback returns.
        """
        self.halted = True
        self._stop = True

    def resume(self) -> None:
        """Lift a halt (a repaired node); queued events become runnable."""
        self.halted = False

    def stop(self) -> None:
        """End the running batch once the current callback returns.

        Unlike :meth:`halt` this is one-shot: ``now`` stays at the
        stopping event and the next run call carries on normally.  This is
        how run-to-completion ends the instant its last target finishes.
        """
        self._stop = True

    # -- execution --------------------------------------------------------

    def peek_time(self) -> Optional[int]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._tombstones -= 1
        return heap[0][0] if heap else None

    def _run(self, deadline: float, limit: int = _NO_LIMIT) -> Tuple[int, bool]:
        """The one batched pop loop behind every run method.

        Fires ready events up to and including ``deadline`` straight off
        the heap, skipping tombstones inline and adding to
        :attr:`events_fired` once per batch.  A :meth:`halt` or
        :meth:`stop` issued by a callback ends the batch after that
        callback returns; so does firing ``limit`` events.  Returns
        ``(fired, drained)``, where ``drained`` means the batch ended
        because no event at or before ``deadline`` was left.
        """
        if self.halted:
            return 0, False
        self._stop = False
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        while heap:
            head = heap[0]
            if head[0] > deadline:
                break
            pop(heap)
            event = head[2]
            if event.cancelled:
                self._tombstones -= 1
                continue
            self.now = head[0]
            event.fired = True
            fired += 1
            event.callback()
            if self._stop or fired >= limit:
                self._events_fired += fired
                return fired, False
        self._events_fired += fired
        return fired, True

    def run_until(self, deadline: int) -> int:
        """Run events up to and including ``deadline``.

        Returns the number of events fired.  Advances ``now`` to
        ``deadline`` once the queue holds nothing earlier, so measurement
        windows have well-defined ends.  A halt issued by a fired callback
        (node crash) stops the batch and freezes ``now`` at the crash
        instant; so does :meth:`stop`, leaving the remaining ready events
        for the next call.
        """
        fired, drained = self._run(deadline)
        if drained and self.now < deadline:
            self.now = deadline
        return fired

    def run_until_stopped(self, deadline: int) -> int:
        """Run events up to ``deadline`` or until a callback calls :meth:`stop`.

        The run-to-completion loop: unlike :meth:`run_until`, ``now`` is
        left at the last fired event whether the batch was stopped or ran
        dry, so a completion time is the instant the work finished.
        Returns the number of events fired.
        """
        return self._run(deadline)[0]

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Run until no events remain.  Guards against runaway loops."""
        fired, _ = self._run(math.inf, max_events)
        if fired >= max_events and self.pending_count:
            raise RuntimeError(
                f"simulation exceeded {max_events} events; likely a livelock"
            )
        return fired

    @property
    def events_fired(self) -> int:
        """Total events fired since construction (for sanity checks)."""
        return self._events_fired
