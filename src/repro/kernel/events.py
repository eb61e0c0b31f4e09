"""Discrete-event simulation core.

A minimal, fast event loop over integer-nanosecond virtual time.  Events
are callbacks ordered by (time, sequence); the sequence number makes
ordering fully deterministic when events share a timestamp.

The heap holds plain ``(time, seq, item)`` tuples, so every sift
comparison is a C-level int compare.  ``item`` is one of two kinds:

* a bare callable, posted by :meth:`Simulator.post`.  The scheduler's
  own events (slice end, wake, dispatch, syscall return) are never
  cancelled, so they carry no handle;
* an :class:`Event`, returned by :meth:`Simulator.schedule` to callers
  that may cancel it (timers, crash schedules).  Cancelling is O(1):
  the entry is tombstoned and skipped when popped.

Both run methods (:meth:`Simulator.run_until` and
:meth:`Simulator.run_until_stopped`) drive one shared loop that pops
ready entries in a batched pass, tells the two kinds apart by class,
skips tombstones inline and adds to the fired counter once per batch.

:meth:`Simulator.follow` posts a callback's last act, and fires it at
once instead when posting it would make it the very next event of the
running batch: its time is within the batch's deadline, no
:meth:`~Simulator.stop` or :meth:`~Simulator.halt` is pending, and the
heap head is strictly later (an entry at the same nanosecond has the
smaller sequence number, so it would fire first).  The outcome, ``now``
and every count are then exactly those of the posted event; only the
push and pop are saved.

Cancelled entries are counted and the heap is compacted in place once
tombstones outnumber live events, bounding memory for workloads that
cancel heavily (re-armed timers).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple, Union

#: compaction threshold: never compact heaps smaller than this (the
#: rebuild would cost more than the garbage it reclaims)
_COMPACT_MIN_SIZE = 64


class Event:
    """A cancellable scheduled callback.  Returned by :meth:`Simulator.schedule`.

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time}, seq={self.seq}, {state})"


#: a heap entry: ``(time, seq, callable or Event)``
_HeapEntry = Tuple[int, int, Union[Callable[[], None], Event]]


def _is_tombstone(entry: _HeapEntry) -> bool:
    """Whether a heap entry is a cancelled :class:`Event`."""
    item = entry[2]
    return item.__class__ is Event and item.cancelled


class Simulator:
    """The virtual clock and event queue for one simulated node.

    All simulated components (scheduler, timers, tracers, load generators)
    share one :class:`Simulator`.  Time never moves backwards; scheduling
    an event in the past raises ``ValueError``.
    """

    def __init__(self):
        self.now: int = 0
        self._heap: List[_HeapEntry] = []
        self._seq = 0
        self._events_fired = 0
        self._tombstones = 0
        #: a halted clock fires nothing and never advances (crashed node)
        self.halted = False
        #: set by :meth:`halt` or :meth:`stop` to end the running batch
        self._stop = False
        #: deadline of the running batch, -1 between batches: only a
        #: follow-up at or before it may fire inline
        self._until: float = -1

    # -- scheduling -------------------------------------------------------

    def schedule(self, at: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute virtual time ``at``; return
        its handle (use :meth:`post` when nobody will cancel it)."""
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

    def post(self, at: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at ``at`` with no handle: it cannot be
        cancelled, and no :class:`Event` is built for it."""
        if at < self.now:
            raise ValueError(f"cannot schedule at {at} < now {self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, callback))

    def follow(self, at: int, callback: Callable[[], None]) -> None:
        """Post ``callback`` at ``at`` as the running callback's last act.

        Fires it at once, with ``now = at``, when it would be the next
        event of the running batch anyway: ``at`` is within the batch's
        deadline, no stop or halt is pending, and the heap head is
        strictly later than ``at``.  Otherwise it is posted.  Either way
        it counts as one fired event.  The caller must do nothing after
        this call, as it would not have run before a posted event.
        """
        heap = self._heap
        if (
            self.now <= at <= self._until
            and not self._stop
            and (not heap or heap[0][0] > at)
        ):
            self.now = at
            self._events_fired += 1
            callback()
        else:
            self.post(at, callback)

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
            heap[:] = [entry for entry in heap if not _is_tombstone(entry)]
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
        while heap and _is_tombstone(heap[0]):
            heapq.heappop(heap)
            self._tombstones -= 1
        return heap[0][0] if heap else None

    def _run(self, deadline: float) -> Tuple[int, bool]:
        """The one batched pop loop behind every run method.

        Fires ready entries up to and including ``deadline`` straight off
        the heap, skipping tombstones inline and adding the popped count
        to :attr:`events_fired` once per batch (inline follow-ups add
        their own).  A :meth:`halt` or :meth:`stop` issued by a callback
        ends the batch after that callback returns.  Returns ``(fired,
        drained)``: ``fired`` counts popped and inline fires, and
        ``drained`` means the batch ended because no event at or before
        ``deadline`` was left.
        """
        if self.halted:
            return 0, False
        self._stop = False
        self._until = deadline
        heap = self._heap
        pop = heapq.heappop
        event_class = Event
        start = self._events_fired
        popped = 0
        drained = True
        try:
            while heap:
                at, _, item = heap[0]
                if at > deadline:
                    break
                pop(heap)
                if item.__class__ is event_class:
                    if item.cancelled:
                        self._tombstones -= 1
                        continue
                    item.fired = True
                    item = item.callback
                self.now = at
                popped += 1
                item()
                if self._stop:
                    drained = False
                    break
        finally:
            self._until = -1
            self._events_fired += popped
        return self._events_fired - start, drained

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

    @property
    def events_fired(self) -> int:
        """Total events fired since construction (for sanity checks)."""
        return self._events_fired
