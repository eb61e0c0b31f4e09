"""Per-core hardware tracer.

One :class:`CoreTracer` sits on each logical core (installed by the
tracing facility).  While its MSR file has TraceEn set, every execution
slice the scheduler delivers is considered for capture: the CR3 filter
drops non-matching processes in hardware (no software cost — this is how
EXIST avoids schedule-out control operations, §3.3), matching slices are
measured through the :class:`VolumeModel` and written to the ToPA output,
truncating the captured symbolic-event range when the buffer fills.

The tracer never calls back into the scheduler; cost charging for control
operations happens in the controlling scheme via the MSR file's ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.hwtrace.cost import CostLedger
from repro.hwtrace.msr import CR3_FILTER_MASK, TRACE_EN_MASK, RtitMsrFile
from repro.hwtrace.topa import ToPAOutput
from repro.program.path import PathModel


@dataclass(frozen=True)
class VolumeModel:
    """Real-scale trace volume per retired branch.

    Conditional branches cost one TNT bit (~1/6 byte); indirect branches
    cost one compressed TIP packet (~3 bytes on average with IP
    compression).  PSBs every 4 KiB add a small sync overhead, and each
    captured slice restarts the stream with a PSB+TSC+PIP header.
    """

    tnt_bytes_per_branch: float = 1.0 / 6.0
    tip_bytes: float = 3.0
    psb_interval_bytes: int = 4096
    segment_header_bytes: int = 32

    def slice_bytes(self, branches: int, indirect_fraction: float) -> float:
        """Real-scale trace bytes one slice of ``branches`` produces."""
        if branches <= 0:
            return float(self.segment_header_bytes)
        payload = branches * (
            (1.0 - indirect_fraction) * self.tnt_bytes_per_branch
            + indirect_fraction * self.tip_bytes
        )
        sync = payload / self.psb_interval_bytes * 16.0
        return payload + sync + self.segment_header_bytes

    def bytes_per_second(
        self, branch_per_instr: float, nominal_ips: float, indirect_fraction: float
    ) -> float:
        """Steady-state trace bandwidth of a workload (bytes/s)."""
        branches_per_s = branch_per_instr * nominal_ips * 1e9
        return branches_per_s * (
            (1.0 - indirect_fraction) * self.tnt_bytes_per_branch
            + indirect_fraction * self.tip_bytes
        )


@dataclass
class TraceSegment:
    """One captured (possibly truncated) execution slice."""

    core_id: int
    pid: int
    tid: int
    cr3: int
    t_start: int
    t_end: int
    #: symbolic events the thread executed during the slice
    event_start: int
    event_end: int
    #: events actually retained after buffer truncation
    captured_event_end: int
    bytes_offered: float
    bytes_accepted: float
    path_model: PathModel

    @property
    def truncated(self) -> bool:
        return self.captured_event_end < self.event_end

    @property
    def captured_events(self) -> int:
        return self.captured_event_end - self.event_start


class CoreTracer:
    """The hardware tracing engine of one logical core."""

    def __init__(
        self,
        core_id: int,
        ledger: CostLedger,
        volume: Optional[VolumeModel] = None,
        hot_switching: bool = False,
    ):
        self.core_id = core_id
        self.msr = RtitMsrFile(core_id, ledger, hot_switching=hot_switching)
        self.volume = volume or VolumeModel()
        self.output: Optional[ToPAOutput] = None
        self.segments: List[TraceSegment] = []
        #: slices dropped by the CR3 filter (hardware-side, zero cost)
        self.filtered_slices = 0
        #: slices dropped because the buffer was already stopped
        self.overflow_slices = 0

    # -- configuration (driver-side; costs charged through the MSR file) ------

    def attach_output(self, output: ToPAOutput) -> None:
        """Point the tracer at a ToPA table (requires tracing disabled)."""
        self.output = output
        self.msr.write(0x560, output.entries[0].base)  # RTIT_OUTPUT_BASE

    @property
    def enabled(self) -> bool:
        return self.msr.trace_enabled

    @property
    def cr3_filtering(self) -> bool:
        return bool(self.msr.ctl_value & CR3_FILTER_MASK)

    # -- capture path (hardware-side; free of software cost) -------------------

    def observe_slice(
        self,
        pid: int,
        tid: int,
        cr3: int,
        t_start: int,
        t_end: int,
        event_start: int,
        event_end: int,
        branches: int,
        path_model: PathModel,
    ) -> Optional[TraceSegment]:
        """Consider one executed slice for capture.

        Returns the stored segment, or ``None`` if the slice was filtered
        or entirely lost to overflow.
        """
        msr = self.msr
        ctl = msr.ctl_value
        if not ctl & TRACE_EN_MASK:
            return None
        if ctl & CR3_FILTER_MASK and msr.cr3_match not in (0, cr3):
            self.filtered_slices += 1
            return None
        if self.output is None:
            raise RuntimeError(f"tracer {self.core_id} enabled without output")

        offered = float(
            math.ceil(self.volume.slice_bytes(branches, path_model.indirect_fraction))
        )
        accepted = self.output.write(offered)
        n_events = event_end - event_start
        if accepted <= 0:
            self.overflow_slices += 1
            return None
        if accepted >= offered:
            captured_end = event_end
        else:
            fraction = accepted / offered
            captured_end = event_start + int(n_events * fraction)
        segment = TraceSegment(
            self.core_id, pid, tid, cr3, t_start, t_end, event_start,
            event_end, captured_end, offered, accepted, path_model,
        )
        self.segments.append(segment)
        return segment

    # -- lifecycle ----------------------------------------------------------------

    def take_segments(self) -> List[TraceSegment]:
        """Remove and return all captured segments (trace dump)."""
        segments, self.segments = self.segments, []
        return segments

    def reset(self) -> None:
        """Clear capture state for a new tracing period."""
        self.segments.clear()
        self.filtered_slices = 0
        self.overflow_slices = 0
        if self.output is not None:
            self.output.reset()

    @property
    def bytes_captured(self) -> float:
        return sum(s.bytes_accepted for s in self.segments)
