"""Table of Physical Addresses (ToPA) output buffers.

ToPA lets the tracer scatter its output across variable-sized memory
regions described by a table of entries; the STOP bit on the final entry
gives the *compulsory* semantics EXIST chooses (drop new data when full,
keeping the trace closest to the anomaly and the memory bound firm, §3.3),
while clearing it yields the conventional ring used by REPT-style
designs (wrap and overwrite the oldest data).

Byte accounting here is the *real-scale* trace volume (the analytic
branches × bytes/branch of :class:`repro.hwtrace.tracer.VolumeModel`), so
buffer-full behaviour happens at the same points it would on hardware.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.util.units import MIB


class OutputMode(enum.Enum):
    """STOP-bit semantics of the final ToPA entry."""

    STOP_ON_FULL = "stop"  # compulsory tracing (EXIST)
    RING = "ring"  # circular overwrite (conventional)


@dataclass(frozen=True)
class ToPAEntry:
    """One output region: physical base and size (power-of-two pages)."""

    base: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0 or self.size % 4096:
            raise ValueError("ToPA region size must be a positive page multiple")


class ToPAOutput:
    """Cursor over a ToPA table with stop/ring semantics.

    ``write`` returns the number of bytes accepted.  In STOP mode, once
    capacity is exhausted the output is *stopped*: further writes accept
    0 bytes and :attr:`overflowed` latches (the tracer emits one OVF
    packet).  In RING mode all bytes are accepted but only the last
    ``capacity`` bytes are retained; :attr:`wrapped_bytes` counts the
    overwritten volume.
    """

    def __init__(self, entries: List[ToPAEntry], mode: OutputMode):
        if not entries:
            raise ValueError("ToPA table needs at least one entry")
        self.entries = list(entries)
        self.mode = mode
        self.capacity = sum(e.size for e in entries)
        self.written = 0  # bytes currently retained
        self.total_offered = 0  # all bytes the tracer produced
        self.wrapped_bytes = 0
        self.stopped = False
        self.overflowed = False

    @classmethod
    def single_region(
        cls, size_bytes: int, mode: OutputMode = OutputMode.STOP_ON_FULL,
        base: int = 0x1_0000_0000,
    ) -> "ToPAOutput":
        """The common case: one contiguous region with the STOP bit set."""
        size = max(4096, (int(size_bytes) // 4096) * 4096)
        return cls([ToPAEntry(base=base, size=size)], mode)

    def write(self, n_bytes: float) -> int:
        """Offer ``n_bytes`` of trace output; return bytes accepted."""
        n = int(n_bytes)
        if n < 0:
            raise ValueError("negative write")
        self.total_offered += n
        if self.mode is OutputMode.STOP_ON_FULL:
            if self.stopped:
                self.overflowed = True
                return 0
            room = self.capacity - self.written
            accepted = min(room, n)
            self.written += accepted
            if accepted < n:
                self.stopped = True
                self.overflowed = True
            return accepted
        # ring mode: everything is accepted, oldest data overwritten
        overflow = max(0, self.written + n - self.capacity)
        self.wrapped_bytes += overflow
        self.written = min(self.capacity, self.written + n)
        return n

    def constrain(self, fraction: float) -> int:
        """Shrink capacity by ``fraction`` under memory pressure.

        Models a stressed node reclaiming facility pages mid-period: the
        table loses its tail entries, so an output that already consumed
        the surviving capacity latches stopped (STOP mode) exactly as if
        it had filled naturally.  Bytes already written stay written —
        shrinking affects future writes only.  Returns the capacity
        removed in bytes.
        """
        if not 0.0 <= fraction < 1.0:
            raise ValueError("constrain fraction must be in [0, 1)")
        new_capacity = max(4096, (int(self.capacity * (1.0 - fraction)) // 4096) * 4096)
        removed = self.capacity - new_capacity
        if removed <= 0:
            return 0
        self.capacity = new_capacity
        if self.written >= self.capacity:
            self.written = self.capacity
            if self.mode is OutputMode.STOP_ON_FULL:
                self.stopped = True
                self.overflowed = True
        return removed

    def reset(self) -> None:
        """Rearm for a new tracing period (after a dump)."""
        self.written = 0
        self.total_offered = 0
        self.wrapped_bytes = 0
        self.stopped = False
        self.overflowed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ToPAOutput({self.written / MIB:.1f}/{self.capacity / MIB:.1f} MiB, "
            f"mode={self.mode.value}, stopped={self.stopped})"
        )
