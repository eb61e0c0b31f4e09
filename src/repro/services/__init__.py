"""Microservice layer: service graphs, RPC spans, and latency simulation.

The paper's end-to-end experiments (Figures 3b and 16) measure how a
single traced service's overhead amplifies through a request chain under
load.  This package provides the substrate: a service dependency graph
with per-service worker pools (:mod:`repro.services.graph`), open-loop
load generation (:mod:`repro.services.loadgen`), a
discrete-event queueing simulator producing per-request spans and
latency percentiles (:mod:`repro.services.latency`), Zipkin-style
span records for the inter-service side of Figure 1
(:mod:`repro.services.rpc`), the vectorized columnar engine behind the
simulator's hot path (:mod:`repro.services.engine`), and the workload
library plus sharded campaign runner scaling it to million-RPC runs
(:mod:`repro.services.workloads`).
"""

from repro.services.collector import (
    ServiceStats,
    ZipkinCollector,
    service_stats_from_log,
)
from repro.services.engine import CallProgram, SpanLog, run_vectorized
from repro.services.graph import CallEdge, ServiceGraph, ServiceSpec
from repro.services.latency import LatencyReport, QueueingSimulator
from repro.services.loadgen import PoissonArrivals
from repro.services.rpc import RequestTrace, Span, span_id_for
from repro.services.workloads import (
    SCENARIO_PRESETS,
    SERVICE_WORKLOADS,
    CampaignSpec,
    ScenarioSpec,
    ServiceWorkload,
    campaign_report_json,
    deep_chain,
    diurnal_arrival_times,
    ecommerce_pipeline,
    fanout_fanin,
    get_service_workload,
    run_campaign,
)

__all__ = [
    "ServiceGraph",
    "ServiceSpec",
    "CallEdge",
    "PoissonArrivals",
    "QueueingSimulator",
    "LatencyReport",
    "Span",
    "RequestTrace",
    "span_id_for",
    "ZipkinCollector",
    "ServiceStats",
    "service_stats_from_log",
    "CallProgram",
    "SpanLog",
    "run_vectorized",
    "ServiceWorkload",
    "ScenarioSpec",
    "CampaignSpec",
    "SERVICE_WORKLOADS",
    "SCENARIO_PRESETS",
    "ecommerce_pipeline",
    "fanout_fanin",
    "deep_chain",
    "get_service_workload",
    "diurnal_arrival_times",
    "run_campaign",
    "campaign_report_json",
]
