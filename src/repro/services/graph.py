"""Service dependency graphs.

A :class:`ServiceGraph` is a DAG of services: each request enters at the
root and fans out along :class:`CallEdge`s — ``calls_per_request`` models
the paper's observation that one request can issue tens of RPCs between a
pod pair (Figure 5 ③), which is exactly what amplifies a single traced
service's overhead end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.util.units import USEC


@dataclass
class ServiceSpec:
    """One service tier."""

    name: str
    #: concurrent workers (threads across the service's replicas)
    workers: int = 8
    #: mean on-CPU service time per call, ns
    service_time_ns: int = 200 * USEC
    #: lognormal sigma of the service time
    service_time_sigma: float = 0.4
    #: multiplicative service-time inflation from an installed tracer
    #: (1.0 = untraced; set from a measured node-level overhead)
    tracing_inflation: float = 1.0

    def __post_init__(self) -> None:
        for field, ok, rule in (
            ("workers", self.workers >= 1, ">= 1"),
            ("service_time_ns", self.service_time_ns > 0, "> 0"),
            ("tracing_inflation", self.tracing_inflation > 0, "> 0"),
            ("service_time_sigma", 0 <= self.service_time_sigma < math.inf, "finite and >= 0"),
        ):
            if not ok:
                raise ValueError(
                    f"service {self.name!r}: {field} must be {rule}, "
                    f"got {getattr(self, field)!r}"
                )

    def inflated_mean(self) -> float:
        """Mean service time including any tracing inflation (ns)."""
        return self.service_time_ns * self.tracing_inflation


@dataclass(frozen=True)
class CallEdge:
    """caller -> callee with per-request call multiplicity."""

    caller: str
    callee: str
    calls_per_request: int = 1
    #: network round-trip per call, ns
    network_ns: int = 50 * USEC


class ServiceGraph:
    """A rooted service DAG with call multiplicities."""

    def __init__(self, root: str):
        self.root = root
        self.services: Dict[str, ServiceSpec] = {}
        self.edges: List[CallEdge] = []

    def add_service(self, spec: ServiceSpec) -> "ServiceGraph":
        """Add a service tier (chainable)."""
        if spec.name in self.services:
            raise ValueError(f"duplicate service {spec.name!r}")
        self.services[spec.name] = spec
        return self

    def add_edge(
        self,
        caller: str,
        callee: str,
        calls_per_request: int = 1,
        network_ns: int = 50 * USEC,
    ) -> "ServiceGraph":
        """Add a caller→callee edge with multiplicity (chainable)."""
        if caller not in self.services or callee not in self.services:
            raise KeyError("both endpoints must be added before the edge")
        self.edges.append(CallEdge(caller, callee, calls_per_request, network_ns))
        return self

    def callees(self, caller: str) -> List[CallEdge]:
        """Outgoing call edges of ``caller``."""
        return [e for e in self.edges if e.caller == caller]

    def service(self, name: str) -> ServiceSpec:
        """Look up one service's spec."""
        return self.services[name]

    def set_tracing_inflation(self, service: str, inflation: float) -> None:
        """Install a tracer's measured overhead on one service."""
        if inflation < 1.0:
            raise ValueError("inflation below 1.0 would model a speedup")
        self.services[service].tracing_inflation = inflation

    def call_order(self) -> List[str]:
        """Services in request-flow (topological) order from the root."""
        order: List[str] = []
        seen = set()

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            order.append(name)
            for edge in self.callees(name):
                visit(edge.callee)

        visit(self.root)
        return order

    @classmethod
    def social_network_chain(cls) -> "ServiceGraph":
        """A DeathStarBench-flavored compose-post chain (Figure 3b).

        frontend → compose-post → {user-service, media, post-storage} with
        multi-call fan-out to storage, mirroring the benchmark's shape.
        """
        graph = cls(root="frontend")
        graph.add_service(ServiceSpec("frontend", workers=16, service_time_ns=80 * USEC))
        graph.add_service(ServiceSpec("compose-post", workers=12, service_time_ns=150 * USEC))
        graph.add_service(ServiceSpec("user-service", workers=16, service_time_ns=90 * USEC))
        graph.add_service(ServiceSpec("media", workers=12, service_time_ns=120 * USEC))
        graph.add_service(ServiceSpec("post-storage", workers=28, service_time_ns=110 * USEC))
        graph.add_edge("frontend", "compose-post", calls_per_request=1)
        graph.add_edge("compose-post", "user-service", calls_per_request=2)
        graph.add_edge("compose-post", "media", calls_per_request=1)
        graph.add_edge("compose-post", "post-storage", calls_per_request=3)
        # compose-post (the paper's traced service) is the bottleneck tier
        # at ~80k calls/s; every other tier has ≥5% headroom beyond it
        return graph

    @classmethod
    def search_pipeline(cls) -> "ServiceGraph":
        """The Search1 request chain of Figure 16: proxy → search → ranker."""
        graph = cls(root="proxy")
        graph.add_service(ServiceSpec("proxy", workers=16, service_time_ns=60 * USEC))
        graph.add_service(ServiceSpec("Search1", workers=12, service_time_ns=400 * USEC,
                                      service_time_sigma=0.5))
        graph.add_service(ServiceSpec("ranker", workers=16, service_time_ns=180 * USEC))
        graph.add_edge("proxy", "Search1", calls_per_request=2)
        graph.add_edge("Search1", "ranker", calls_per_request=2)
        # Search1 is the bottleneck tier: 12 workers / 400us / 2 calls
        # ≈ 15k rps vs ranker's ≈ 22k and proxy's ≈ 266k
        return graph
