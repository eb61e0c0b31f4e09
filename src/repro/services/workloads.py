"""Service-graph workload library and million-RPC campaign runner.

The ROADMAP's "datacenter-scale microservice traffic" item: realistic
service graphs (e-commerce pipeline, fan-out/fan-in, DeathStarBench
deep chain) driven open-loop at millions of requests per campaign,
with diurnal load curves, retry storms, and hot-key skew layered on
top — all through the vectorized engine of
:mod:`repro.services.engine`.

Campaigns shard over the persistent worker pool
(:class:`~repro.parallel.pool.RunPool`): the request space splits into
fixed-size *partitions* — independent fleet cells, each a full
replication of the service deployment with its own derived seed and
diurnal phase — and partition results merge in index order.  Partition
count is a function of the spec alone (never of ``--jobs``), so
``jobs=1`` and ``jobs=N`` campaign reports are byte-identical
(:func:`campaign_report_json` is the canonical serialization the
parity tests compare).

The CRN (common-random-numbers) contract carries through: within a
partition, the baseline and traced schemes share one arrival stream
and one noise table, so their percentile gap isolates the tracing
inflation; scenario randomness (retry classes, hot keys) derives from
the partition seed, never from the scheme.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.services.engine import CallProgram, run_vectorized
from repro.services.graph import CallEdge, ServiceGraph, ServiceSpec
from repro.services.latency import QueueingSimulator
from repro.services.loadgen import PoissonArrivals
from repro.util.rng import derive_seed
from repro.util.units import SEC, USEC


# ---------------------------------------------------------------------------
# service-graph builders
# ---------------------------------------------------------------------------

def ecommerce_pipeline() -> ServiceGraph:
    """An e-commerce request pipeline (14 RPC calls per request).

    gateway → {catalog×2, cart, checkout}; catalog and cart hit the
    shared product-db tier, checkout fans into payment / inventory /
    shipping.  payment (8 workers × 250µs) is the bottleneck at ~32k
    rps; product-db absorbs 6 calls per request — the hot-key tier.
    """
    g = ServiceGraph(root="gateway")
    g.add_service(ServiceSpec("gateway", workers=24, service_time_ns=70 * USEC))
    g.add_service(ServiceSpec("catalog", workers=16, service_time_ns=180 * USEC))
    g.add_service(ServiceSpec("cart", workers=12, service_time_ns=150 * USEC))
    g.add_service(ServiceSpec("checkout", workers=12, service_time_ns=220 * USEC))
    g.add_service(ServiceSpec("payment", workers=8, service_time_ns=250 * USEC,
                              service_time_sigma=0.5))
    g.add_service(ServiceSpec("inventory", workers=12, service_time_ns=160 * USEC))
    g.add_service(ServiceSpec("shipping", workers=8, service_time_ns=140 * USEC))
    g.add_service(ServiceSpec("product-db", workers=32, service_time_ns=90 * USEC,
                              service_time_sigma=0.3))
    g.add_edge("gateway", "catalog", calls_per_request=2)
    g.add_edge("gateway", "cart")
    g.add_edge("gateway", "checkout")
    g.add_edge("catalog", "product-db", calls_per_request=2, network_ns=30 * USEC)
    g.add_edge("cart", "product-db", network_ns=30 * USEC)
    g.add_edge("checkout", "payment")
    g.add_edge("checkout", "inventory")
    g.add_edge("checkout", "shipping")
    g.add_edge("inventory", "product-db", network_ns=30 * USEC)
    return g


def fanout_fanin() -> ServiceGraph:
    """Scatter-gather: an aggregator fans 8 calls to a shard tier (each
    hitting a store), then gathers — a search/feed shape.

    Calls are issued sequentially (synchronous RPC), matching the
    simulator's discipline; the shard tier is the bottleneck.
    """
    g = ServiceGraph(root="aggregator")
    g.add_service(ServiceSpec("aggregator", workers=16, service_time_ns=100 * USEC))
    g.add_service(ServiceSpec("shard", workers=24, service_time_ns=120 * USEC))
    g.add_service(ServiceSpec("store", workers=24, service_time_ns=80 * USEC,
                              service_time_sigma=0.3))
    g.add_edge("aggregator", "shard", calls_per_request=8, network_ns=30 * USEC)
    g.add_edge("shard", "store", network_ns=20 * USEC)
    return g


def deep_chain() -> ServiceGraph:
    """A DeathStarBench-style chain: tier-00 → … → tier-11 (one call
    per hop), where a single slow tier drags the whole request."""
    depth = 12
    g = ServiceGraph(root="tier-00")
    for i in range(depth):
        g.add_service(ServiceSpec(
            f"tier-{i:02d}", workers=10, service_time_ns=150 * USEC,
        ))
    for i in range(depth - 1):
        g.add_edge(f"tier-{i:02d}", f"tier-{i + 1:02d}", network_ns=40 * USEC)
    return g


@dataclass(frozen=True)
class ServiceWorkload:
    """One entry of the campaign workload registry."""

    name: str
    description: str
    build: Callable[[], ServiceGraph]
    #: the tier an EXIST tracer is installed on (inflation target)
    traced_service: str
    #: tiers whose service time a hot key inflates (storage/shard tiers)
    hot_services: Tuple[str, ...]
    #: the edge retried during a retry storm (caller, callee)
    retry_edge: Tuple[str, str]


SERVICE_WORKLOADS: Dict[str, ServiceWorkload] = {
    w.name: w
    for w in (
        ServiceWorkload(
            name="ecommerce",
            description="gateway/catalog/checkout pipeline, shared product-db",
            build=ecommerce_pipeline,
            traced_service="checkout",
            hot_services=("product-db",),
            retry_edge=("checkout", "payment"),
        ),
        ServiceWorkload(
            name="fanout",
            description="scatter-gather aggregator over a shard tier",
            build=fanout_fanin,
            traced_service="aggregator",
            hot_services=("store",),
            retry_edge=("shard", "store"),
        ),
        ServiceWorkload(
            name="deep-chain",
            description="12-tier DeathStarBench-style synchronous chain",
            build=deep_chain,
            traced_service="tier-05",
            hot_services=("tier-11",),
            retry_edge=("tier-10", "tier-11"),
        ),
        ServiceWorkload(
            name="social",
            description="compose-post chain of Figure 3b",
            build=ServiceGraph.social_network_chain,
            traced_service="compose-post",
            hot_services=("post-storage",),
            retry_edge=("compose-post", "post-storage"),
        ),
        ServiceWorkload(
            name="search",
            description="proxy → Search1 → ranker pipeline of Figure 16",
            build=ServiceGraph.search_pipeline,
            traced_service="Search1",
            hot_services=("ranker",),
            retry_edge=("proxy", "Search1"),
        ),
    )
}


def get_service_workload(name: str) -> ServiceWorkload:
    """Look up a campaign workload by name."""
    try:
        return SERVICE_WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown service workload {name!r} "
            f"(have: {', '.join(sorted(SERVICE_WORKLOADS))})"
        ) from None


# ---------------------------------------------------------------------------
# scenarios: diurnal load, retry storms, hot-key skew
# ---------------------------------------------------------------------------

#: period of the diurnal curve in *simulated* seconds
DIURNAL_PERIOD_S = 2.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Deterministic, seed-derived load perturbations for a campaign.

    All scenario randomness derives from the partition seed — never
    from the scheme under test — so baseline and traced runs see the
    identical storm (the CRN contract extends to scenarios).
    """

    name: str = "steady"
    #: sinusoidal arrival-rate modulation over DIURNAL_PERIOD_S:
    #: rate(t) = r·(1 + a·sin(·))
    diurnal_amplitude: float = 0.0
    #: fraction of in-window requests that retry the workload's
    #: retry_edge (one extra downstream call per retry)
    retry_fraction: float = 0.0
    #: storm window as fractions of the campaign's time span
    retry_window: Tuple[float, float] = (0.0, 1.0)
    #: fraction of requests hitting a hot key (slow storage row)
    hot_key_fraction: float = 0.0
    #: service-time multiplier on the workload's hot tiers for hot keys
    hot_key_multiplier: float = 4.0


SCENARIO_PRESETS: Dict[str, ScenarioSpec] = {
    "steady": ScenarioSpec(),
    "diurnal": ScenarioSpec(name="diurnal", diurnal_amplitude=0.5),
    "retry-storm": ScenarioSpec(
        name="retry-storm", retry_fraction=0.4, retry_window=(0.35, 0.65),
    ),
    "hot-key": ScenarioSpec(name="hot-key", hot_key_fraction=0.04),
    # everything at once: the parity/chaos preset
    "chaos": ScenarioSpec(
        name="chaos",
        diurnal_amplitude=0.4,
        retry_fraction=0.3,
        retry_window=(0.4, 0.7),
        hot_key_fraction=0.03,
        hot_key_multiplier=3.0,
    ),
}


def diurnal_arrival_times(
    n_requests: int,
    rate_rps: float,
    seed: int,
    amplitude: float,
    period_s: float,
    phase: float = 0.0,
) -> np.ndarray:
    """Arrival times (ns) of a non-homogeneous Poisson process whose
    rate follows ``rate·(1 + amplitude·sin(2πt/period + phase))``.

    Generated by thinning a homogeneous process at the peak rate; with
    ``amplitude == 0`` this *is* :class:`PoissonArrivals` (same stream).
    """
    if amplitude <= 0.0:
        return PoissonArrivals(rate_rps, seed=seed).arrival_times(n_requests)
    if amplitude >= 1.0:
        raise ValueError("diurnal amplitude must be < 1 (rate stays positive)")
    rate = float(rate_rps)
    rng = np.random.default_rng(derive_seed(
        seed, "diurnal", rate, float(amplitude), float(period_s), float(phase)
    ))
    peak = rate * (1.0 + amplitude)
    period_ns = period_s * SEC
    accepted: List[np.ndarray] = []
    collected = 0
    last = 0.0
    while collected < n_requests:
        batch = int((n_requests - collected) * (1.0 + amplitude) * 1.25) + 64
        gaps = rng.exponential(SEC / peak, size=batch)
        cand = last + np.cumsum(gaps)
        local = rate * (
            1.0 + amplitude * np.sin(2.0 * np.pi * cand / period_ns + phase)
        )
        keep = cand[rng.random(batch) * peak < local]
        accepted.append(keep)
        collected += len(keep)
        last = float(cand[-1])
    return np.concatenate(accepted)[:n_requests].astype(np.int64)


def _retry_variant(graph: ServiceGraph, edge: Tuple[str, str]) -> ServiceGraph:
    """The graph a retrying request executes: the retried edge carries
    one more call per request (same services, same specs)."""
    caller, callee = edge
    variant = ServiceGraph(root=graph.root)
    for spec in graph.services.values():
        variant.add_service(replace(spec))
    found = False
    for e in graph.edges:
        calls = e.calls_per_request
        if e.caller == caller and e.callee == callee:
            calls += 1
            found = True
        variant.edges.append(CallEdge(e.caller, e.callee, calls, e.network_ns))
    if not found:
        raise KeyError(f"retry edge {caller}->{callee} not in graph")
    return variant


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

#: share of each partition's requests that only warm the queues up
CAMPAIGN_WARMUP_FRACTION = 0.05
#: requests whose spans partition 0 keeps for the RPC-level culprit view
CAMPAIGN_KEEP_TRACES = 64


@dataclass(frozen=True)
class CampaignSpec:
    """A sharded million-RPC campaign over one workload."""

    workload: str = "ecommerce"
    n_requests: int = 100_000
    utilization: float = 0.7
    seed: int = 7
    scenario: str = "steady"
    #: tracing inflation of the traced scheme; 1.0 runs baseline only
    inflation: float = 1.0
    traced_service: Optional[str] = None
    #: requests per partition (fleet cell) — a function of the spec
    #: only, never of --jobs, which is what makes reports jobs-invariant
    partition_requests: int = 8192


@dataclass(frozen=True)
class _PartitionTask:
    """Picklable work unit: one fleet cell of a campaign."""

    spec: CampaignSpec
    index: int
    n_requests: int
    n_partitions: int


def campaign_partitions(spec: CampaignSpec) -> List[_PartitionTask]:
    """Split the request space into balanced fixed-size partitions."""
    if spec.n_requests < 1:
        raise ValueError("campaign needs at least one request")
    n_parts = max(1, math.ceil(spec.n_requests / spec.partition_requests))
    base, rem = divmod(spec.n_requests, n_parts)
    sizes = [base + 1] * rem + [base] * (n_parts - rem)
    return [
        _PartitionTask(spec=spec, index=i, n_requests=sz, n_partitions=n_parts)
        for i, sz in enumerate(sizes)
    ]


def _run_partition(task: _PartitionTask) -> Dict[str, object]:
    """Simulate one fleet cell: both schemes, shared arrivals + noise."""
    spec = task.spec
    workload = get_service_workload(spec.workload)
    scenario = SCENARIO_PRESETS[spec.scenario]
    pseed = derive_seed(spec.seed, "campaign", task.index)
    n = task.n_requests

    base_graph = workload.build()
    # the load point comes from the *uninflated* graph so both schemes
    # face the same arrival stream (CRN over arrivals)
    rate = QueueingSimulator(base_graph).rate_for_utilization(spec.utilization)
    phase = 2.0 * math.pi * task.index / task.n_partitions
    arrivals = diurnal_arrival_times(
        n, rate, pseed,
        amplitude=scenario.diurnal_amplitude,
        period_s=DIURNAL_PERIOD_S,
        phase=phase,
    )

    # request classes: 0 = normal, 1 = retrying (storm window only)
    programs = [CallProgram.compile(base_graph)]
    classes = None
    if scenario.retry_fraction > 0.0:
        programs.append(CallProgram.compile(
            _retry_variant(base_graph, workload.retry_edge)
        ))
        lo, hi = scenario.retry_window
        span = int(arrivals[-1]) or 1
        in_window = (arrivals >= lo * span) & (arrivals < hi * span)
        crng = np.random.default_rng(derive_seed(pseed, "scenario", "retry"))
        classes = (
            in_window & (crng.random(n) < scenario.retry_fraction)
        ).astype(np.int64)

    transform = None
    if scenario.hot_key_fraction > 0.0:
        hrng = np.random.default_rng(derive_seed(pseed, "scenario", "hotkey"))
        hot = hrng.random(n) < scenario.hot_key_fraction
        mult = scenario.hot_key_multiplier
        hot_names = set(workload.hot_services)

        def transform(svc: np.ndarray) -> np.ndarray:
            for ci, prog in enumerate(programs):
                rows = hot if classes is None else (hot & (classes == ci))
                cols = [
                    j for j in range(prog.n_slots)
                    if prog.service_names[prog.sid[j]] in hot_names
                ]
                if not cols or not rows.any():
                    continue
                ix = np.ix_(np.flatnonzero(rows), cols)
                svc[ix] = np.maximum(
                    1, (svc[ix].astype(np.float64) * mult).astype(np.int64)
                )
            return svc

    traced = spec.traced_service or workload.traced_service
    schemes: List[Tuple[str, ServiceGraph]] = [("baseline", base_graph)]
    if spec.inflation > 1.0:
        traced_graph = workload.build()
        traced_graph.set_tracing_inflation(traced, spec.inflation)
        schemes.append(("traced", traced_graph))

    keep = CAMPAIGN_KEEP_TRACES if task.index == 0 else 0
    out: Dict[str, object] = {"index": task.index, "requests": n}
    if classes is not None:
        out["retry_requests"] = int(classes.sum())
    for scheme_name, graph in schemes:
        report = run_vectorized(
            graph, arrivals, pseed,
            warmup_fraction=CAMPAIGN_WARMUP_FRACTION,
            keep_traces=keep,
            programs=programs,
            classes=classes,
            transform=transform,
        )
        entry: Dict[str, object] = {
            "responses": np.sort(report.response_times_ns),
            "completed": report.completed,
            "duration_ns": report.duration_ns,
            "busy_ns": report.service_busy_ns,
            "workers": report.service_workers,
            "spans": report.spans_simulated,
        }
        if keep and report.span_log is not None:
            from repro.services.collector import service_stats_from_log

            stats = service_stats_from_log(report.span_log)
            entry["sampled_culprit"] = max(
                stats, key=lambda s: stats[s].total_ns
            )
            entry["sampled_spans"] = len(report.span_log)
        out[scheme_name] = entry
    return out


def _merge_scheme(
    parts: Sequence[Dict[str, object]], scheme: str
) -> Dict[str, object]:
    """Merge one scheme's partition results (index order) into a report."""
    entries = [p[scheme] for p in parts]
    responses = np.concatenate([e["responses"] for e in entries])
    throughput = sum(
        e["completed"] / (e["duration_ns"] / SEC) for e in entries
    )
    busy: Dict[str, int] = {}
    for e in entries:
        for name, ns in e["busy_ns"].items():
            busy[name] = busy.get(name, 0) + ns
    total_duration = sum(e["duration_ns"] for e in entries)
    workers = entries[0]["workers"]
    merged: Dict[str, object] = {
        "completed": int(sum(e["completed"] for e in entries)),
        "spans": int(sum(e["spans"] for e in entries)),
        "throughput_rps": float(throughput),
        "mean_ms": float(responses.mean() / 1e6),
        "p50_ms": float(np.percentile(responses, 50) / 1e6),
        "p90_ms": float(np.percentile(responses, 90) / 1e6),
        "p99_ms": float(np.percentile(responses, 99) / 1e6),
        "p999_ms": float(np.percentile(responses, 99.9) / 1e6),
        "service_utilization": {
            name: busy[name] / (workers[name] * total_duration)
            for name in sorted(busy)
        },
    }
    if "sampled_culprit" in entries[0]:
        merged["sampled_culprit"] = entries[0]["sampled_culprit"]
        merged["sampled_spans"] = entries[0]["sampled_spans"]
    return merged


def run_campaign(spec: CampaignSpec, jobs: int = 1) -> Dict[str, object]:
    """Run a sharded campaign; returns the merged JSON-able report.

    The report is a pure function of ``spec`` — partition count, per-
    partition seeds, and the index-ordered merge never depend on
    ``jobs`` — so any two jobs widths produce byte-identical
    :func:`campaign_report_json` output.
    """
    tasks = campaign_partitions(spec)
    if jobs and jobs > 1 and len(tasks) > 1:
        from repro.parallel.pool import RunPool

        with RunPool(max_workers=jobs, base_seed=spec.seed) as pool:
            parts = pool.map(_run_partition, tasks)
    else:
        parts = [_run_partition(t) for t in tasks]

    report: Dict[str, object] = {
        "workload": spec.workload,
        "scenario": spec.scenario,
        "n_requests": spec.n_requests,
        "partitions": len(tasks),
        "utilization": spec.utilization,
        "seed": spec.seed,
        "inflation": spec.inflation,
        "traced_service": (
            spec.traced_service
            or get_service_workload(spec.workload).traced_service
        ),
        "retry_requests": int(sum(
            p.get("retry_requests", 0) for p in parts
        )),
        "schemes": {},
    }
    for scheme in ("baseline", "traced"):
        if scheme in parts[0]:
            report["schemes"][scheme] = _merge_scheme(parts, scheme)
    report["spans_simulated"] = int(sum(
        s["spans"] for s in report["schemes"].values()
    ))
    if "traced" in report["schemes"]:
        base = report["schemes"]["baseline"]
        traced = report["schemes"]["traced"]
        report["degradation"] = {
            pct: traced[pct] / base[pct] - 1.0
            for pct in ("p50_ms", "p99_ms", "p999_ms")
            if base[pct] > 0
        }
    return report


def campaign_report_json(report: Dict[str, object]) -> str:
    """Canonical serialization used by the jobs-parity checks."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
