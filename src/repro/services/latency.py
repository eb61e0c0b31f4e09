"""Open-loop latency runs over a service graph.

Each service is a ``workers``-server queue; a request visits the root,
and after a service's own processing it issues its outgoing calls
*sequentially* (synchronous RPC), returning when the last child returns.
The discipline itself lives in :func:`repro.services.engine.run_vectorized`;
:class:`QueueingSimulator` is the capacity and rate helper in front of
it.  Installing a tracing scheme multiplies one service's service time
by its measured node-level inflation — the run then shows how that
single-digit (or per-mille) overhead compounds through queueing into
the tail (Figures 3b and 16).

This simulator is intentionally independent of the kernel simulator:
service-time inflations are *measured* there (a real EXIST/baseline run
on a node), then amplified here, composing the two levels the same way
the paper's testbed composes node overhead and cluster queueing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.services.engine import run_vectorized
from repro.services.graph import ServiceGraph
from repro.services.loadgen import PoissonArrivals
from repro.services.rpc import RequestTrace
from repro.util.units import SEC

#: share of an open-loop run's requests that only warm the queues up
WARMUP_FRACTION = 0.1


@dataclass
class LatencyReport:
    """Results of one load run."""

    response_times_ns: np.ndarray
    completed: int
    duration_ns: int
    service_busy_ns: Dict[str, int]
    service_workers: Dict[str, int]
    #: columnar spans of the ``keep_traces`` requests after warmup
    span_log: Optional[object] = None
    #: total RPC calls simulated, including warmup
    spans_simulated: int = 0

    @property
    def sample_traces(self) -> List[RequestTrace]:
        """The kept requests as :class:`RequestTrace` objects (built on read)."""
        return self.span_log.traces() if self.span_log is not None else []

    def percentile(self, pct: float) -> float:
        """The ``pct``-th percentile of response times (ns)."""
        return float(np.percentile(self.response_times_ns, pct))

    @property
    def throughput_rps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.completed / (self.duration_ns / SEC)

    def utilization(self, service: str) -> float:
        """Measured worker utilization of one service (0..1)."""
        busy = self.service_busy_ns.get(service, 0)
        workers = self.service_workers.get(service, 1)
        if self.duration_ns <= 0:
            return 0.0
        return busy / (workers * self.duration_ns)


class QueueingSimulator:
    """Event-driven simulation of a :class:`ServiceGraph` under load.

    Runs go through the columnar engine of :mod:`repro.services.engine`;
    this class adds the bottleneck-capacity and utilization-to-rate
    arithmetic that load sweeps need.
    """

    def __init__(self, graph: ServiceGraph, seed: int = 0):
        self.graph = graph
        self.seed = seed

    # -- public API ---------------------------------------------------------

    def run_open_loop(
        self,
        arrivals: PoissonArrivals,
        n_requests: int,
        keep_traces: int = 0,
    ) -> LatencyReport:
        """Drive ``n_requests`` Poisson arrivals through the graph.

        The first :data:`WARMUP_FRACTION` of requests warm the queues
        up and are left out of the report.
        """
        return run_vectorized(
            self.graph, arrivals.arrival_times(n_requests), self.seed,
            warmup_fraction=WARMUP_FRACTION,
            keep_traces=keep_traces,
        )

    def bottleneck_capacity_rps(self) -> float:
        """Highest sustainable arrival rate (calls-per-request aware)."""
        multiplicity = self._call_multiplicity()
        capacity = math.inf
        for name, spec in self.graph.services.items():
            calls = multiplicity.get(name, 0.0)
            if calls <= 0:
                continue
            per_call = spec.inflated_mean()
            service_capacity = spec.workers * SEC / per_call / calls
            capacity = min(capacity, service_capacity)
        return capacity

    def rate_for_utilization(self, utilization: float) -> float:
        """Arrival rate putting the bottleneck at ``utilization``."""
        if not 0.0 < utilization < 1.05:
            raise ValueError("utilization must be in (0, 1.05)")
        return utilization * self.bottleneck_capacity_rps()

    # -- internals -------------------------------------------------------------

    def _call_multiplicity(self) -> Dict[str, float]:
        """Expected calls per request reaching each service."""
        counts: Dict[str, float] = {self.graph.root: 1.0}
        for name in self.graph.call_order():
            base = counts.get(name, 0.0)
            for edge in self.graph.callees(name):
                counts[edge.callee] = counts.get(edge.callee, 0.0) + (
                    base * edge.calls_per_request
                )
        return counts
