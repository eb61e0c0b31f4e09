"""Runtime metrics derived from traces: IPC timelines and overhead reports.

EXIST sets CYCEn for cycle-accurate tracing specifically to support IPC
computation (§4).  :func:`ipc_timeline` rebuilds instructions-per-cycle
over time from captured segments — the architectural indicator of
Figure 2 that statistical observability sees only as "abnormal at t0"
and traces can localize precisely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.hwtrace.tracer import TraceSegment
from repro.util.units import MSEC

#: core clock the cycle counts assume (``SystemConfig``'s default)
CPU_FREQ_GHZ = 2.9
#: width of one IPC timeline bucket
IPC_BUCKET_NS = 10 * MSEC
#: relative IPC drop below the median that marks a bucket anomalous
IPC_DROP_FRACTION = 0.3


@dataclass(frozen=True)
class IpcSample:
    """IPC over one time bucket."""

    t_start: int
    t_end: int
    instructions: float
    cycles: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles > 0 else 0.0


def ipc_timeline(
    segments: Sequence[TraceSegment],
    branch_per_instr: float,
) -> List[IpcSample]:
    """Bucketed IPC from captured segments (the CYC-packet product).

    Each segment contributes its retired instructions (symbolic events ×
    stride / branch density) and its wall cycles to the buckets its time
    range spans.
    """
    if branch_per_instr <= 0:
        raise ValueError("branch density must be positive")
    if not segments:
        return []
    t_min = min(s.t_start for s in segments)
    t_max = max(s.t_end for s in segments)
    n_buckets = max(1, (t_max - t_min + IPC_BUCKET_NS - 1) // IPC_BUCKET_NS)
    instructions = [0.0] * n_buckets
    cycles = [0.0] * n_buckets

    for segment in segments:
        events = segment.captured_events
        if events <= 0:
            continue
        instr = events * segment.path_model.stride / branch_per_instr
        duration = max(segment.t_end - segment.t_start, 1)
        first = (segment.t_start - t_min) // IPC_BUCKET_NS
        last = min((segment.t_end - 1 - t_min) // IPC_BUCKET_NS, n_buckets - 1)
        for bucket in range(first, last + 1):
            bucket_lo = t_min + bucket * IPC_BUCKET_NS
            bucket_hi = bucket_lo + IPC_BUCKET_NS
            overlap = min(segment.t_end, bucket_hi) - max(segment.t_start, bucket_lo)
            if overlap <= 0:
                continue
            share = overlap / duration
            instructions[bucket] += instr * share
            cycles[bucket] += overlap * CPU_FREQ_GHZ

    samples = []
    for bucket in range(n_buckets):
        if cycles[bucket] <= 0:
            continue
        samples.append(IpcSample(
            t_start=t_min + bucket * IPC_BUCKET_NS,
            t_end=t_min + (bucket + 1) * IPC_BUCKET_NS,
            instructions=instructions[bucket],
            cycles=cycles[bucket],
        ))
    return samples


def detect_ipc_anomalies(samples: Sequence[IpcSample]) -> List[IpcSample]:
    """Buckets whose IPC drops :data:`IPC_DROP_FRACTION` below the median.

    The trace-level version of "abnormal architectural indicator at t0":
    localizes interference/stall periods to their time buckets.
    """
    if not samples:
        return []
    values = sorted(s.ipc for s in samples)
    median = values[len(values) // 2]
    threshold = median * (1.0 - IPC_DROP_FRACTION)
    return [s for s in samples if s.ipc < threshold]
