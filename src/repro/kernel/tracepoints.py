"""Kernel tracepoints and hook registry.

EXIST's operation-aware tracing controller works by injecting a hook into
the ``sched_switch`` tracepoint (paper §3.2); the eBPF baseline attaches to
``sys_enter``.  This module provides the registry those hooks attach to.
A hook receives the event record and returns the number of nanoseconds of
kernel time its execution cost — the scheduler charges that cost to the
core (and to the incoming thread), which is exactly how tracing control
operations slow traced applications down on real machines.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.task import Thread


#: well-known tracepoint names
SCHED_SWITCH = "sched_switch"
SYS_ENTER = "sys_enter"
SYS_EXIT = "sys_exit"


@dataclass
class SchedSwitchRecord:
    """Payload delivered to ``sched_switch`` hooks.

    Matches the five-tuple EXIST's buffer manager records for
    multi-thread attribution: [Timestamp, CPUID, ProcessID, ThreadID,
    Operation] (paper §3.3), plus the outgoing thread for convenience.
    """

    timestamp: int
    cpu_id: int
    prev: Optional["Thread"]
    next: Optional["Thread"]

    @property
    def five_tuple(self) -> tuple:
        """The 24-byte record EXIST persists per context switch."""
        nxt = self.next
        return (
            self.timestamp,
            self.cpu_id,
            nxt.pid if nxt is not None else 0,
            nxt.tid if nxt is not None else 0,
            "sched_in" if nxt is not None else "idle",
        )


#: wire layout of one persisted sched-switch record: the paper's 24-byte
#: [Timestamp, CPUID, ProcessID, ThreadID, Operation] five-tuple (§3.3)
SCHED_RECORD_DTYPE = np.dtype(
    [
        ("timestamp", "<i8"),
        ("cpu", "<u4"),
        ("pid", "<u4"),
        ("tid", "<u4"),
        ("op", "<u4"),
    ]
)

_OP_IDLE = 0
_OP_SCHED_IN = 1
_OP_NAMES = ("idle", "sched_in")
_OP_CODES = {"idle": _OP_IDLE, "sched_in": _OP_SCHED_IN}


class SchedRecordLog:
    """Columnar store of sched-switch five-tuples.

    The OTC hook fires on *every* context switch involving the target, so
    the record sink is on the simulation's hottest tracing path.  Storing
    one Python tuple (with an interned op string) per switch costs an
    allocation and five boxed fields per event; this log instead appends
    into five primitive columns (``array`` module — no per-append numpy
    overhead) and materializes tuples only when someone reads them.

    The reading surface is a Sequence of the classic five-tuples —
    ``log[0]``, ``log[-1]``, iteration, ``len``, equality against plain
    lists — so existing analysis code and tests are none the wiser.
    ``to_structured()`` / ``to_bytes()`` expose the bulk 24-byte wire
    encoding (one vectorized pass) that per-record packing used to build.
    """

    __slots__ = ("_timestamps", "_cpus", "_pids", "_tids", "_ops")

    def __init__(self) -> None:
        self._timestamps = array("q")
        self._cpus = array("I")
        self._pids = array("I")
        self._tids = array("I")
        self._ops = array("I")

    # -- writing -----------------------------------------------------------

    def append_switch(
        self, timestamp: int, cpu_id: int, pid: int, tid: int, sched_in: bool
    ) -> None:
        """Fast-path append from raw switch fields (no tuple built)."""
        self._timestamps.append(timestamp)
        self._cpus.append(cpu_id)
        self._pids.append(pid)
        self._tids.append(tid)
        self._ops.append(_OP_SCHED_IN if sched_in else _OP_IDLE)

    def append(self, record: tuple) -> None:
        """Append one ``(timestamp, cpu, pid, tid, op)`` five-tuple.

        The compatibility path for producers that hold a materialized
        tuple (e.g. the fault injector's delayed/replayed records).
        """
        timestamp, cpu_id, pid, tid, operation = record
        self._timestamps.append(int(timestamp))
        self._cpus.append(int(cpu_id))
        self._pids.append(int(pid))
        self._tids.append(int(tid))
        self._ops.append(_OP_CODES[operation])

    def extend(self, records) -> None:
        """Append every five-tuple (or log) in ``records``."""
        if isinstance(records, SchedRecordLog):
            self._timestamps.extend(records._timestamps)
            self._cpus.extend(records._cpus)
            self._pids.extend(records._pids)
            self._tids.extend(records._tids)
            self._ops.extend(records._ops)
            return
        for record in records:
            self.append(record)

    # -- sequence protocol (five-tuple view) --------------------------------

    def __len__(self) -> int:
        return len(self._timestamps)

    def _tuple_at(self, index: int) -> tuple:
        return (
            self._timestamps[index],
            self._cpus[index],
            self._pids[index],
            self._tids[index],
            _OP_NAMES[self._ops[index]],
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._tuple_at(i) for i in range(*index.indices(len(self)))]
        return self._tuple_at(index)

    def __iter__(self) -> Iterator[tuple]:
        names = _OP_NAMES
        return (
            (t, c, p, d, names[o])
            for t, c, p, d, o in zip(
                self._timestamps, self._cpus, self._pids, self._tids, self._ops
            )
        )

    def __bool__(self) -> bool:
        return bool(self._timestamps)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SchedRecordLog):
            return list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SchedRecordLog(n={len(self)})"

    # -- bulk wire encoding --------------------------------------------------

    def to_structured(self) -> np.ndarray:
        """The whole log as one structured array (24 bytes per record)."""
        out = np.empty(len(self), dtype=SCHED_RECORD_DTYPE)
        out["timestamp"] = np.frombuffer(bytes(self._timestamps), dtype=np.int64)
        out["cpu"] = np.frombuffer(bytes(self._cpus), dtype=np.uint32)
        out["pid"] = np.frombuffer(bytes(self._pids), dtype=np.uint32)
        out["tid"] = np.frombuffer(bytes(self._tids), dtype=np.uint32)
        out["op"] = np.frombuffer(bytes(self._ops), dtype=np.uint32)
        return out

    def to_bytes(self) -> bytes:
        """Serialize as the packed 24-byte wire records, in one pass."""
        return self.to_structured().tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "SchedRecordLog":
        """Bulk-decode a :meth:`to_bytes` buffer (vectorized, no loops)."""
        parsed = np.frombuffer(data, dtype=SCHED_RECORD_DTYPE)
        log = cls()
        log._timestamps.frombytes(
            np.ascontiguousarray(parsed["timestamp"]).tobytes()
        )
        log._cpus.frombytes(np.ascontiguousarray(parsed["cpu"]).tobytes())
        log._pids.frombytes(np.ascontiguousarray(parsed["pid"]).tobytes())
        log._tids.frombytes(np.ascontiguousarray(parsed["tid"]).tobytes())
        log._ops.frombytes(np.ascontiguousarray(parsed["op"]).tobytes())
        return log


@dataclass(slots=True)
class SyscallRecord:
    """Payload delivered to ``sys_enter`` / ``sys_exit`` hooks."""

    timestamp: int
    cpu_id: int
    thread: "Thread"
    syscall: str


Hook = Callable[[object], int]


class TracepointRegistry:
    """Named tracepoints with ordered hook lists.

    ``fire`` returns the summed kernel-time cost of all hooks so callers
    can charge it; hooks that cost nothing return 0.
    """

    def __init__(self) -> None:
        self._hooks: Dict[str, List[Hook]] = {}

    def attach(self, tracepoint: str, hook: Hook) -> None:
        """Attach ``hook`` to ``tracepoint`` (appended after existing hooks)."""
        self._hooks.setdefault(tracepoint, []).append(hook)

    def detach(self, tracepoint: str, hook: Hook) -> None:
        """Remove a previously attached hook; raises if absent."""
        self._hooks[tracepoint].remove(hook)

    def hooks(self, tracepoint: str) -> List[Hook]:
        """Copy of the hooks attached to ``tracepoint``."""
        return list(self._hooks.get(tracepoint, ()))

    def live_hooks(self, tracepoint: str) -> List[Hook]:
        """The list ``attach``/``detach`` mutate for ``tracepoint``.

        A caller may hold it and skip building a record (and calling
        :meth:`fire`) while it is empty; do not mutate it.
        """
        return self._hooks.setdefault(tracepoint, [])

    def fire(self, tracepoint: str, record: object) -> int:
        """Invoke all hooks of ``tracepoint``; return total cost in ns."""
        hooks = self._hooks.get(tracepoint)
        if not hooks:
            return 0
        total = 0
        for hook in hooks:
            cost = hook(record)
            if cost:
                total += int(cost)
        return total
