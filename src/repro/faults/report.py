"""Honest accounting of degraded tracing results.

EXIST never pretends a partial trace is a full one: stop-on-full buffers
drop tails by design, replica sampling merges whatever delivered, and the
resilient decoder resyncs past corruption.  The
:class:`DegradationReport` rolls all of that loss into one structure the
master attaches to every reconciled task, so a consumer can tell a clean
result from a degraded one without re-deriving anything.

Only *logical* labels (``node/app#ordinal``) appear in the report —
never pod uids or session ids, whose process-global counters differ
between two masters in one interpreter.  That keeps reports byte-identical
across ``jobs=1`` vs ``jobs=N`` runs and across repeated runs under the
same fault seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Dict, List


@dataclass
class DegradationReport:
    """Loss accounting for one reconciled TraceTask."""

    #: normalized fault-plan spec string ("" when fault-free)
    faults: str = ""
    fault_seed: int = 0

    #: replicas RCO wanted traced vs replicas that delivered a window
    coverage_requested: int = 0
    coverage_achieved: int = 0

    #: infrastructure faults that actually fired
    nodes_crashed: int = 0
    nodes_restarted: int = 0
    pods_killed: int = 0
    #: ToPA outputs the injector squeezed into premature stop-on-full
    buffers_exhausted: int = 0

    #: data-path loss
    bytes_dropped: int = 0  # mangled away pre-decode + skipped by resync
    buffer_bytes_rejected: int = 0  # offered to a full/stopped ToPA output
    records_recovered: int = 0  # records decoded out of degraded sessions
    sched_records_dropped: int = 0
    sched_records_delayed: int = 0
    decode_resyncs: int = 0

    #: control-plane outcome
    sessions_completed: int = 0
    sessions_degraded: int = 0
    sessions_abandoned: int = 0
    retry_waves: int = 0

    #: chronological fault log, logical labels only
    events: List[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Whether the task lost anything at all."""
        return (
            self.coverage_achieved < self.coverage_requested
            or self.nodes_crashed > 0
            or self.pods_killed > 0
            or self.buffers_exhausted > 0
            or self.bytes_dropped > 0
            or self.sched_records_dropped > 0
            or self.sessions_abandoned > 0
            or self.sessions_degraded > 0
        )

    @property
    def coverage_fraction(self) -> float:
        if self.coverage_requested <= 0:
            return 1.0
        return self.coverage_achieved / self.coverage_requested

    def note(self, event: str) -> None:
        """Append one chronological fault-log line."""
        self.events.append(event)

    def merge(self, scratch: "DegradationReport") -> None:
        """Fold one slot's scratch report in: every int counter except
        ``fault_seed`` is summed, and its events are appended."""
        for spec in fields(self):
            value = getattr(scratch, spec.name)
            if spec.name != "fault_seed" and type(value) is int:
                setattr(self, spec.name, getattr(self, spec.name) + value)
        self.events.extend(scratch.events)

    def to_dict(self) -> Dict:
        """Plain-dict form (stable key order via sort in to_json)."""
        return {
            "faults": self.faults,
            "fault_seed": self.fault_seed,
            "coverage_requested": self.coverage_requested,
            "coverage_achieved": self.coverage_achieved,
            "coverage_fraction": round(self.coverage_fraction, 6),
            "degraded": self.degraded,
            "nodes_crashed": self.nodes_crashed,
            "nodes_restarted": self.nodes_restarted,
            "pods_killed": self.pods_killed,
            "buffers_exhausted": self.buffers_exhausted,
            "bytes_dropped": self.bytes_dropped,
            "buffer_bytes_rejected": self.buffer_bytes_rejected,
            "records_recovered": self.records_recovered,
            "sched_records_dropped": self.sched_records_dropped,
            "sched_records_delayed": self.sched_records_delayed,
            "decode_resyncs": self.decode_resyncs,
            "sessions_completed": self.sessions_completed,
            "sessions_degraded": self.sessions_degraded,
            "sessions_abandoned": self.sessions_abandoned,
            "retry_waves": self.retry_waves,
            "quarantined_nodes": [],  # always empty; kept so recorded digests hold
            "events": list(self.events),
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys) — byte-comparable across runs."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        """One-line human summary for CLI output."""
        return (
            f"coverage {self.coverage_achieved}/{self.coverage_requested}"
            f" ({self.coverage_fraction:.0%}),"
            f" crashed={self.nodes_crashed} killed={self.pods_killed}"
            f" exhausted={self.buffers_exhausted}"
            f" bytes_dropped={self.bytes_dropped}"
            f" sched_dropped={self.sched_records_dropped}"
            f" abandoned={self.sessions_abandoned}"
            f" waves={self.retry_waves}"
        )
