"""Service-engine throughput benchmark (million-RPC campaign).

Measurements recorded to ``BENCH_services.json`` (uniform schema via
:mod:`repro.util.bench`):

* **vector_spans_per_s** — a one-million-request e-commerce campaign
  through the columnar engine (``jobs=1``, single core); the regression
  gate tracks it per box.
* **engine_exact / campaign_exact / parity_identical** — the
  correctness side riding along: a small e-commerce run reproduces its
  golden digest (sorted responses, busy accounting, completed count,
  window and span forests with ids and parents), the million-request
  campaign report reproduces its golden digest (every one of its 14M
  service times feeds it), and a chaos-preset campaign merges
  byte-identically for ``jobs=1`` vs ``jobs=2``.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from conftest import emit
from repro.parallel.workers import shutdown_process_pool
from repro.services.engine import run_vectorized
from repro.services.latency import QueueingSimulator
from repro.services.loadgen import PoissonArrivals
from repro.services.workloads import (
    CampaignSpec,
    campaign_report_json,
    ecommerce_pipeline,
    run_campaign,
)
from repro.util.bench import write_bench

REPO_ROOT = Path(__file__).resolve().parent.parent

#: the headline campaign: one million requests, 14 RPCs each
CAMPAIGN_REQUESTS = 1_000_000
#: fleet-cell size
PARTITION_REQUESTS = 62_500
SEED = 7
UTILIZATION = 0.7
#: blake2b of ``_report_digest`` over the 2,000-request exactness run
SMALL_RUN_DIGEST = "afc534de57cb4a8072002ac1778b98d0"
#: blake2b (8 bytes) of ``campaign_report_json`` of the headline campaign
CAMPAIGN_DIGEST = "355c0b80de0818d9"


def _report_digest(report) -> str:
    forest = {
        str(trace.request_id): sorted(
            [s.service, s.start_ns, s.end_ns, s.self_ns, s.span_id, s.parent]
            for s in trace.spans
        )
        for trace in report.sample_traces
    }
    canonical = json.dumps(
        {
            "response_times_ns": np.sort(report.response_times_ns).tolist(),
            "service_busy_ns": report.service_busy_ns,
            "completed": report.completed,
            "duration_ns": report.duration_ns,
            "span_forest": forest,
        },
        sort_keys=True,
    ).encode()
    return hashlib.blake2b(canonical, digest_size=16).hexdigest()


def test_services_throughput():
    shutdown_process_pool()
    graph = ecommerce_pipeline()
    rate = QueueingSimulator(graph).rate_for_utilization(UTILIZATION)
    arrivals = PoissonArrivals(rate, seed=SEED)

    # -- exactness: the small run against its golden digest --------------------
    small = run_vectorized(
        graph, arrivals.arrival_times(2_000), SEED, keep_traces=2_000
    )
    engine_exact = _report_digest(small) == SMALL_RUN_DIGEST
    assert engine_exact, "service engine diverged from its golden digest"
    emit("exactness: engine == golden digest (responses, busy time, span forests)")

    # -- million-RPC campaign --------------------------------------------------
    spec = CampaignSpec(
        workload="ecommerce",
        n_requests=CAMPAIGN_REQUESTS,
        utilization=UTILIZATION,
        seed=SEED,
        partition_requests=PARTITION_REQUESTS,
    )
    start = time.perf_counter()
    campaign = run_campaign(spec, jobs=1)
    campaign_s = time.perf_counter() - start
    vector_spans = campaign["spans_simulated"]
    vector_spans_per_s = vector_spans / campaign_s
    emit(
        f"engine: {vector_spans:>10,} spans in {campaign_s:6.2f}s"
        f" = {vector_spans_per_s:>9,.0f} spans/s"
        f"  ({campaign['partitions']} partitions)"
    )
    campaign_exact = hashlib.blake2b(
        campaign_report_json(campaign).encode(), digest_size=8
    ).hexdigest() == CAMPAIGN_DIGEST
    assert campaign_exact, "million-request campaign diverged from its golden digest"
    emit("exactness: campaign report == golden digest (14M service times)")

    # -- jobs parity under the chaos preset ------------------------------------
    parity_spec = CampaignSpec(
        workload="ecommerce", n_requests=6_000, partition_requests=1_024,
        scenario="chaos", inflation=1.06, seed=SEED,
    )
    serial = campaign_report_json(run_campaign(parity_spec, jobs=1))
    sharded = campaign_report_json(run_campaign(parity_spec, jobs=2))
    shutdown_process_pool()
    parity = serial == sharded
    assert parity, "campaign jobs=1 and jobs=2 reports diverged"
    emit("parity: campaign jobs=1 == jobs=2 (chaos preset, byte-identical)")

    baseline = campaign["schemes"]["baseline"]
    metrics = {
        "campaign_requests": CAMPAIGN_REQUESTS,
        "campaign_partitions": campaign["partitions"],
        "campaign_spans": vector_spans,
        "vector_spans_per_s": round(vector_spans_per_s, 0),
        "campaign_p50_ms": round(baseline["p50_ms"], 3),
        "campaign_p99_ms": round(baseline["p99_ms"], 3),
        "campaign_rps": round(baseline["throughput_rps"], 0),
        "engine_exact": engine_exact,
        "campaign_exact": campaign_exact,
        "parity_identical": parity,
    }
    write_bench(REPO_ROOT / "BENCH_services.json", "services_campaign", metrics)
