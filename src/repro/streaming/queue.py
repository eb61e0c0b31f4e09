"""Bounded decode queue with credit-based backpressure, in virtual time.

The queue models ``consumers`` identical decode workers draining a FIFO
of chunk-decode jobs, fed by one producer that enqueues a job every
``gap_ns`` unless backpressure holds it back:

* **Credits.**  The producer holds one credit per enqueued-but-undecoded
  chunk; when ``capacity`` jobs are in flight it stops until the oldest
  in-flight decode completes (a hard wait).
* **Watermark hysteresis.**  Before that point, crossing
  ``high_watermark`` engages backpressure — each later enqueue is delayed
  by ``stall_ns`` — which disengages only once the queue drains to
  ``low_watermark``; the gap prevents engage/disengage flapping around a
  single threshold.

All arithmetic is integer virtual nanoseconds — no wall clock anywhere —
so queue depth, per-chunk lag, and makespan are pure functions of the
service-time sequence and therefore identical across ``--jobs`` widths
and across repeated runs.  The *real* decode work runs separately,
inside each tracing slot; this simulation is what gives the streaming
pipeline deterministic lag and occupancy figures to throttle against.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush, heapreplace
from typing import Iterable, List


class VirtualDecodeQueue:
    """c-server FIFO queueing simulation with a credit-paced producer.

    :meth:`enqueue` runs one upload's chunks through the producer's
    pacing and the consumers' FIFO in a single loop.  State carries over
    from one call to the next, so a sequence of uploads behaves exactly
    like one long upload.
    """

    def __init__(
        self,
        consumers: int,
        capacity: int,
        high_watermark: int,
        low_watermark: int,
        stall_ns: int,
        gap_ns: int,
    ):
        if consumers < 1:
            raise ValueError(f"need at least one consumer, got {consumers}")
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not (0 <= low_watermark < high_watermark <= capacity):
            raise ValueError(
                "watermarks must satisfy 0 <= low < high <= capacity, got "
                f"low={low_watermark} high={high_watermark} capacity={capacity}"
            )
        if stall_ns < 0:
            raise ValueError(f"stall_ns must be non-negative, got {stall_ns}")
        if gap_ns < 0:
            raise ValueError(f"gap_ns must be non-negative, got {gap_ns}")
        self.consumers = consumers
        self.capacity = capacity
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.stall_ns = stall_ns
        self.gap_ns = gap_ns
        #: arrival time of the last job enqueued (the producer's clock)
        self.clock = 0
        #: per-consumer next-free virtual times (min-heap)
        self._free: List[int] = [0] * consumers
        #: completion times of admitted-but-unfinished jobs (min-heap)
        self._in_flight: List[int] = []
        #: per-job queue lag, ``start - arrival``, in admission order
        #: (int64 array: one ingest can admit millions of jobs)
        self.lags = array("q")
        #: highwater of the in-flight count ever observed
        self.max_depth = 0
        #: completion time of the last job to finish (virtual makespan)
        self.makespan_ns = 0
        #: True while backpressure is engaged (between the watermarks)
        self.engaged = False
        #: distinct low->high watermark crossings
        self.engagements = 0
        #: enqueues that hit the hard credit limit (queue full)
        self.credit_waits = 0
        #: total virtual time the producer spent throttled (stalls + waits)
        self.throttled_ns = 0

    def enqueue(self, services: Iterable[int]) -> None:
        """Pace and admit one job per service time, in order.

        Each job arrives ``gap_ns`` after the previous one, then the
        producer applies, in order: the hard credit limit (wait for a
        completion while ``capacity`` jobs are in flight), watermark
        hysteresis (engage / disengage), and the engaged-state stall.
        The job then starts on the earliest-free consumer, no sooner
        than its arrival.
        """
        free = self._free
        in_flight = self._in_flight
        record_lag = self.lags.append
        capacity = self.capacity
        high = self.high_watermark
        low = self.low_watermark
        stall = self.stall_ns
        gap = self.gap_ns
        clock = self.clock
        max_depth = self.max_depth
        makespan = self.makespan_ns
        engaged = self.engaged
        engagements = self.engagements
        credit_waits = self.credit_waits
        throttled = self.throttled_ns
        depth = len(in_flight)
        for service in services:
            arrival = clock + gap
            while depth and in_flight[0] <= arrival:
                heappop(in_flight)
                depth -= 1
            if depth >= capacity:
                # full (depth never exceeds capacity): wait for the oldest
                # completion, which frees at least one credit
                credit_waits += 1
                throttled += in_flight[0] - arrival
                arrival = in_flight[0]
                while depth and in_flight[0] <= arrival:
                    heappop(in_flight)
                    depth -= 1
            if engaged:
                if depth <= low:
                    engaged = False
            elif depth >= high:
                engaged = True
                engagements += 1
            if engaged and stall:
                arrival += stall
                throttled += stall
                while depth and in_flight[0] <= arrival:
                    heappop(in_flight)
                    depth -= 1
            start = free[0]
            if start < arrival:
                start = arrival
            completion = start + service
            heapreplace(free, completion)
            heappush(in_flight, completion)
            depth += 1
            if depth > max_depth:
                max_depth = depth
            if completion > makespan:
                makespan = completion
            record_lag(start - arrival)
            clock = arrival
        self.clock = clock
        self.max_depth = max_depth
        self.makespan_ns = makespan
        self.engaged = engaged
        self.engagements = engagements
        self.credit_waits = credit_waits
        self.throttled_ns = throttled
