"""Zipkin-style inter-service trace collection.

The paper's Figure 1/2 story has two levels: RPC-level tracing (Zipkin /
Dapper) finds the *culprit service*; intra-service tracing (EXIST) then
explains it.  This module provides the first level over the queueing
simulator's spans: a collector aggregating request traces into
per-service latency statistics and before/after comparisons, so the
examples can run the full two-level diagnosis.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.services.rpc import RequestTrace
from repro.util.stats import percentile


@dataclass
class ServiceStats:
    """Aggregated span statistics for one service."""

    service: str
    span_count: int
    total_ns: int
    mean_ns: float
    p50_ns: float
    p99_ns: float

def service_stats_from_log(span_log) -> Dict[str, ServiceStats]:
    """Columnar :class:`ServiceStats` straight from a ``SpanLog``.

    Computes the same statistics as
    :meth:`ZipkinCollector.service_stats` without materializing a
    single :class:`~repro.services.rpc.Span` object: the SpanLog's
    ``service_id``/``self_ns`` columns are grouped with numpy masks.
    """
    cols = span_log.columns()
    names = span_log.programs[0].service_names
    sids = cols["service_id"]
    selfs = cols["self_ns"]
    stats: Dict[str, ServiceStats] = {}
    for i, name in enumerate(names):
        values = selfs[sids == i]
        if len(values) == 0:
            continue
        stats[name] = ServiceStats(
            service=name,
            span_count=int(len(values)),
            total_ns=int(values.sum()),
            mean_ns=float(np.mean(values)),
            p50_ns=percentile(values.tolist(), 50),
            p99_ns=percentile(values.tolist(), 99),
        )
    return stats


class ZipkinCollector:
    """Collects request traces and answers RPC-level questions."""

    def __init__(self) -> None:
        self.traces: List[RequestTrace] = []

    def collect(self, traces: Sequence[RequestTrace]) -> None:
        """Ingest a batch of request traces."""
        self.traces.extend(traces)

    def __len__(self) -> int:
        return len(self.traces)

    # -- aggregation ---------------------------------------------------------

    def service_stats(self) -> Dict[str, ServiceStats]:
        """Per-service span statistics across all collected traces."""
        durations: Dict[str, List[int]] = defaultdict(list)
        for trace in self.traces:
            for span in trace.spans:
                durations[span.service].append(span.self_time_ns)
        stats = {}
        for service, values in durations.items():
            stats[service] = ServiceStats(
                service=service,
                span_count=len(values),
                total_ns=sum(values),
                mean_ns=float(np.mean(values)),
                p50_ns=percentile(values, 50),
                p99_ns=percentile(values, 99),
            )
        return stats

    def compare(self, other: "ZipkinCollector") -> Dict[str, float]:
        """Per-service mean-latency ratio vs another collection.

        Ratio > 1 means this collection's service got slower — the view
        an on-call engineer uses to spot which tier regressed.
        """
        mine = self.service_stats()
        theirs = other.service_stats()
        return {
            service: mine[service].mean_ns / theirs[service].mean_ns
            for service in mine
            if service in theirs and theirs[service].mean_ns > 0
        }

