"""RPC spans: the inter-service tracing half of Figure 1.

Zipkin-style span records produced by the queueing simulator.  They give
the RPC-level view (which service is slow) that intra-service tracing
then digs into — the paper's motivating two-level observability story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


def span_id_for(request_id: int, call_index: int) -> str:
    """Deterministic span id for the ``call_index``-th call (DFS
    preorder) of request ``request_id``.

    A pure function of request identity, so span ids are byte-identical
    across runs, jobs widths, and worker placements.
    """
    return f"span-r{request_id:08d}c{call_index:04d}"


@dataclass
class Span:
    """One service-side span of a request.

    ``duration_ns`` is inclusive (own processing + downstream calls);
    ``self_ns``, when the producer knows it, is the service's own
    processing time — what culprit analyses should rank by.
    """

    service: str
    start_ns: int
    end_ns: int
    parent: Optional[str] = None
    self_ns: Optional[int] = None
    span_id: str = ""

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_time_ns(self) -> int:
        """Own processing time (falls back to the inclusive duration)."""
        return self.self_ns if self.self_ns is not None else self.duration_ns


@dataclass
class RequestTrace:
    """All spans of one end-to-end request (a Zipkin trace)."""

    request_id: int
    spans: List[Span] = field(default_factory=list)
