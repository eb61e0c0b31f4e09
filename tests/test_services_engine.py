"""Tests for the service engine and campaign runner.

The core property here is that the engine's output is pinned exactly —
sorted response times, busy accounting, completed count, measured
window and span forests (ids and parents included) — across graphs,
seeds, utilizations (including overload), and tracing inflation.  The
digests in ``GOLDEN`` were recorded from runs in which the retired
closure-per-call engine produced the identical report, so each
``test_matches_legacy_*`` case still checks what the oracle checked.
On top sit the campaign-level properties: partition merges are
byte-identical for any ``--jobs`` width, and every scenario
perturbation is a pure function of the spec.
"""

import hashlib
import json
import math
import zlib

import numpy as np
import pytest

from repro.services.collector import service_stats_from_log
from repro.services.engine import (
    CallProgram,
    _lognormal_ns,
    normal_table_for,
    run_vectorized,
    service_time_matrix,
)
from repro.services.graph import ServiceGraph, ServiceSpec
from repro.services.latency import QueueingSimulator
from repro.services.loadgen import PoissonArrivals
from repro.services.rpc import span_id_for
from repro.services.workloads import (
    SCENARIO_PRESETS,
    SERVICE_WORKLOADS,
    CampaignSpec,
    _retry_variant,
    campaign_report_json,
    deep_chain,
    diurnal_arrival_times,
    ecommerce_pipeline,
    fanout_fanin,
    run_campaign,
)
from repro.util.units import USEC

#: blake2b digests of ``_digest(report)`` over the equivalence grid
GOLDEN = {
    "two_tier_graph-0": "5cde47aa87f5f5cd3804d785a876c4df",
    "two_tier_graph-7": "771e4c6699b93f4a936009b82cfdb848",
    "two_tier_graph-123": "a04caddfdbcd3000f984f13d24ab2bf6",
    "social_network_chain-0": "c369079170ca10b6b3a0f904ce74ee3f",
    "social_network_chain-7": "b310e78b92a5ef7167c6f5125f24bebb",
    "social_network_chain-123": "30a35127568dab09a2e8533f5d872d27",
    "search_pipeline-0": "7c5f114bd817399203aa0f36bd43b9d1",
    "search_pipeline-7": "3b4e536f876cc0bda410908cc07d9760",
    "search_pipeline-123": "ea0a9752379d681dbbd7ea171098ae75",
    "ecommerce_pipeline": "5ca2754a217ede8989aa1a0edf0afbbc",
    "fanout_fanin": "8bceee49dd1fd860bd2674fa493794ec",
    "deep_chain": "bef2638931fc402603ba4a37fad8dcb5",
    "overload": "ebe2737263ef205eca07ca99f8c09fde",
    "inflation": "c5da71e4527c4aea40f2635a618deafc",
}


def two_tier_graph(workers=4, service_us=100):
    graph = ServiceGraph(root="front")
    graph.add_service(
        ServiceSpec("front", workers=workers, service_time_ns=service_us * USEC)
    )
    graph.add_service(
        ServiceSpec("back", workers=workers, service_time_ns=service_us * USEC)
    )
    graph.add_edge("front", "back", calls_per_request=1, network_ns=10 * USEC)
    return graph


def run(graph, seed, utilization, n=600, keep=600, inflate=None):
    sim = QueueingSimulator(graph, seed=seed)
    rate = sim.rate_for_utilization(utilization)
    if inflate:
        graph.set_tracing_inflation(*inflate)
    arrivals = PoissonArrivals(rate, seed=seed)
    return QueueingSimulator(graph, seed=seed).run_open_loop(
        arrivals, n, keep_traces=keep
    )


def _digest(report):
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


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize(
        "build",
        [
            two_tier_graph,
            ServiceGraph.social_network_chain,
            ServiceGraph.search_pipeline,
        ],
    )
    def test_matches_legacy_engine(self, build, seed):
        report = run(build(), seed, 0.8)
        assert _digest(report) == GOLDEN[f"{build.__name__}-{seed}"]

    @pytest.mark.parametrize(
        "build", [ecommerce_pipeline, fanout_fanin, deep_chain]
    )
    def test_matches_legacy_on_campaign_workloads(self, build):
        report = run(build(), 11, 0.7, n=400, keep=400)
        assert _digest(report) == GOLDEN[build.__name__]

    def test_matches_legacy_in_overload(self):
        # utilization > 1: queues grow without bound, the regime where
        # event-ordering bugs surface
        report = run(
            ServiceGraph.social_network_chain(), 5, 1.02, n=400, keep=400
        )
        assert _digest(report) == GOLDEN["overload"]

    def test_matches_legacy_under_inflation(self):
        report = run(
            ServiceGraph.search_pipeline(), 3, 0.85,
            inflate=("Search1", 1.08),
        )
        assert _digest(report) == GOLDEN["inflation"]

    def test_crn_contract_inflation_only_changes_traced_rows(self):
        # common random numbers: the inflated run must see the identical
        # noise stream — untraced services' busy time is unchanged
        graph = ServiceGraph.social_network_chain()
        sim = QueueingSimulator(graph, seed=9)
        arrivals = PoissonArrivals(sim.rate_for_utilization(0.5), seed=9)
        base = sim.run_open_loop(arrivals, 300)
        graph.set_tracing_inflation("compose-post", 1.10)
        traced = QueueingSimulator(graph, seed=9).run_open_loop(arrivals, 300)
        for name in graph.services:
            if name == "compose-post":
                assert traced.service_busy_ns[name] > base.service_busy_ns[name]
            else:
                assert traced.service_busy_ns[name] == base.service_busy_ns[name]


class TestCallProgram:
    def test_slots_are_dfs_preorder(self):
        prog = CallProgram.compile(ServiceGraph.search_pipeline())
        names = [prog.service_names[s] for s in prog.sid]
        # proxy, then two Search1 subtrees each with two ranker leaves
        assert names == [
            "proxy", "Search1", "ranker", "ranker", "Search1", "ranker", "ranker",
        ]
        assert prog.parent[0] == -1
        assert prog.parent[2] == 1 and prog.parent[3] == 1

    def test_leaf_walk_closes_last_child_ancestors(self):
        prog = CallProgram.compile(ServiceGraph.search_pipeline())
        # slot 6 (last ranker of the last Search1) closes itself, its
        # Search1 parent, and the proxy root
        _, is_leaf, next_slot, _, ends, _ = prog.table[6]
        assert is_leaf and next_slot == -1
        assert [slot for slot, _ in ends] == [6, 4, 0]

    def test_service_time_matrix_matches_point_samples(self):
        graph = two_tier_graph()
        programs = (CallProgram.compile(graph),)
        assert np.array_equal(
            service_time_matrix(graph, programs, None, 7, 50),
            scalar_service_times(graph, programs, None, 7, 50),
        )
        # the retry-storm's two request classes, with an inflated service
        workload = SERVICE_WORKLOADS["ecommerce"]
        base = workload.build()
        retry = _retry_variant(base, workload.retry_edge)
        programs = (CallProgram.compile(base), CallProgram.compile(retry))
        classes = (np.random.default_rng(3).random(400) < 0.4).astype(np.int64)
        base.set_tracing_inflation(workload.traced_service, 1.07)
        assert np.array_equal(
            service_time_matrix(base, programs, classes, 11, 400),
            scalar_service_times(base, programs, classes, 11, 400),
        )

    def test_sigma_zero_column_is_exact(self):
        # exp(log(mean)) lands on or next to the integer mean: with a
        # 92us mean a SIMD np.exp can truncate to 91999 where math.exp
        # gives 92000
        graph = two_tier_graph(service_us=92)
        graph.services["back"].service_time_sigma = 0.0
        graph.set_tracing_inflation("front", 1.05)
        programs = (CallProgram.compile(graph),)
        svc = service_time_matrix(graph, programs, None, 5, 300)
        assert np.array_equal(svc, scalar_service_times(graph, programs, None, 5, 300))
        assert set(svc[:, 1].tolist()) == {92_000}

    def test_tiny_means_clamp_to_one(self):
        graph = ServiceGraph(root="a")
        graph.add_service(ServiceSpec("a", service_time_ns=1, service_time_sigma=0.8))
        graph.add_service(ServiceSpec("b", service_time_ns=2, tracing_inflation=0.3))
        graph.add_edge("a", "b", calls_per_request=3)
        programs = (CallProgram.compile(graph),)
        svc = service_time_matrix(graph, programs, None, 2, 500)
        assert np.array_equal(svc, scalar_service_times(graph, programs, None, 2, 500))
        assert svc.min() == 1 and (svc == 1).mean() > 0.5


def scalar_service_times(graph, programs, classes, seed, n):
    """The service-time definition, one ``math.exp`` per call."""
    table = normal_table_for(seed)
    want = np.ones((n, max(p.n_slots for p in programs)), dtype=np.int64)
    for rid in range(n):
        prog = programs[0 if classes is None else int(classes[rid])]
        for j in range(prog.n_slots):
            name = prog.service_names[prog.sid[j]]
            spec = graph.services[name]
            sigma = spec.service_time_sigma
            mu = math.log(spec.inflated_mean()) - 0.5 * sigma * sigma
            idx = (rid * 2654435761 + zlib.crc32(name.encode()) * 97 + j * 7919) & 0xFFFF
            want[rid, j] = max(1, int(math.exp(mu + sigma * table[idx])))
    return want


class TestLognormalNs:
    def test_integer_boundaries(self):
        # exp(log(k)) sits on the truncation boundary of every integer k
        x = np.log(np.arange(1, 2_000_000, 7, dtype=np.float64))
        want = [max(1, int(math.exp(v))) for v in x.tolist()]
        assert _lognormal_ns(x).tolist() == want

    def test_clamps_small_values_to_one(self):
        x = np.array([-800.0, -5.0, -1e-12, 0.0, 1e-12, math.log(1.5)])
        assert _lognormal_ns(x).tolist() == [1, 1, 1, 1, 1, 1]

    def test_overflow_raises_like_math_exp(self):
        with pytest.raises(OverflowError):
            _lognormal_ns(np.array([1.0, 800.0]))


class TestSpanLog:
    def test_deterministic_span_ids(self):
        assert span_id_for(12, 3) == "span-r00000012c0003"
        trace = run(two_tier_graph(), 2, 0.5, n=200, keep=10).sample_traces[0]
        rid = trace.request_id
        assert [s.span_id for s in trace.spans] == [
            span_id_for(rid, j) for j in range(len(trace.spans))
        ]
        # parent linkage is structural: the back span points at the root
        assert trace.spans[1].parent == span_id_for(rid, 0)

    def test_columns_and_collector_integration(self):
        graph = ServiceGraph.social_network_chain()
        sim = QueueingSimulator(graph, seed=4)
        arrivals = PoissonArrivals(sim.rate_for_utilization(0.6), seed=4)
        report = sim.run_open_loop(arrivals, 300, keep_traces=50)
        cols = report.span_log.columns()
        assert len(cols["request_id"]) == len(report.span_log) == 50 * 8
        assert np.all(cols["end_ns"] >= cols["start_ns"])
        stats = service_stats_from_log(report.span_log)
        # columnar stats equal the object-path stats over the same spans
        from repro.services.collector import ZipkinCollector

        zipkin = ZipkinCollector()
        zipkin.collect(report.span_log.traces())
        object_stats = zipkin.service_stats()
        assert set(stats) == set(object_stats)
        for name in stats:
            assert stats[name].span_count == object_stats[name].span_count
            assert stats[name].total_ns == object_stats[name].total_ns
            assert stats[name].p99_ns == object_stats[name].p99_ns

    def test_record_modes(self):
        # spans are recorded for exactly the kept requests after warmup
        graph = two_tier_graph()
        sim = QueueingSimulator(graph, seed=1)
        arrivals = PoissonArrivals(sim.rate_for_utilization(0.5), seed=1)
        none = sim.run_open_loop(arrivals, 200)
        assert none.span_log is None and none.sample_traces == []
        full = sim.run_open_loop(arrivals, 200, keep_traces=200)
        assert len(full.span_log) == 180 * 2
        assert [t.request_id for t in full.sample_traces] == list(range(20, 200))
        assert full.spans_simulated == 200 * 2


class TestWarmupFraction:
    @pytest.mark.parametrize("fraction", [-0.5, 1.0, 1.5])
    def test_out_of_range_rejected_by_engine(self, fraction):
        times = PoissonArrivals(1000.0, seed=1).arrival_times(10)
        with pytest.raises(ValueError, match="warmup_fraction"):
            run_vectorized(two_tier_graph(), times, 1, warmup_fraction=fraction)

    def test_zero_warmup_measures_every_request(self):
        times = PoissonArrivals(1000.0, seed=1).arrival_times(10)
        report = run_vectorized(two_tier_graph(), times, 1, warmup_fraction=0.0)
        assert report.completed == len(report.response_times_ns) == 10


class TestUnfinishedRequests:
    def test_stranded_request_raises(self):
        # a worker count zeroed after validation strands every request in
        # the root's queue; it must not be reported as completed
        graph = ServiceGraph(root="a")
        graph.add_service(ServiceSpec("a", workers=1))
        graph.services["a"].workers = 0
        times = np.arange(10, dtype=np.int64) * 1_000_000
        with pytest.raises(RuntimeError, match="unfinished.*a"):
            run_vectorized(graph, times, 1, warmup_fraction=0.0)


class TestLoadgen:
    def test_rate_seed_canonicalization(self):
        # int and float rates must select the same arrival stream:
        # derive_seed stringifies labels, so 40000 vs 40000.0 would
        # otherwise diverge
        a = PoissonArrivals(40000, seed=3).arrival_times(100)
        b = PoissonArrivals(40000.0, seed=3).arrival_times(100)
        c = PoissonArrivals(np.float64(40000), seed=3).arrival_times(100)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_diurnal_reduces_to_poisson_at_zero_amplitude(self):
        a = diurnal_arrival_times(500, 30000.0, 5, 0.0, 2.0)
        b = PoissonArrivals(30000.0, seed=5).arrival_times(500)
        assert np.array_equal(a, b)

    def test_diurnal_is_deterministic_and_monotone(self):
        a = diurnal_arrival_times(2000, 30000.0, 5, 0.5, 1.0)
        b = diurnal_arrival_times(2000, 30000.0, 5, 0.5, 1.0)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0)
        with pytest.raises(ValueError):
            diurnal_arrival_times(10, 1000.0, 0, 1.5, 1.0)


class TestCampaigns:
    def test_workload_registry_consistent(self):
        for name, workload in SERVICE_WORKLOADS.items():
            graph = workload.build()
            assert workload.traced_service in graph.services, name
            for hot in workload.hot_services:
                assert hot in graph.services, name
            caller, callee = workload.retry_edge
            assert any(
                e.caller == caller and e.callee == callee for e in graph.edges
            ), name

    def test_campaign_is_deterministic(self):
        spec = CampaignSpec(
            workload="fanout", n_requests=4000, partition_requests=1024,
            scenario="hot-key", inflation=1.05,
        )
        assert campaign_report_json(run_campaign(spec)) == campaign_report_json(
            run_campaign(spec)
        )

    @pytest.mark.chaos
    def test_jobs_parity_under_chaos(self):
        # the headline invariant: partition count and merge order are a
        # function of the spec alone, so jobs=1 and jobs=2 reports are
        # byte-identical even with every scenario perturbation active
        spec = CampaignSpec(
            workload="ecommerce", n_requests=6000, partition_requests=1024,
            scenario="chaos", inflation=1.06,
        )
        serial = campaign_report_json(run_campaign(spec, jobs=1))
        sharded = campaign_report_json(run_campaign(spec, jobs=2))
        assert serial == sharded

    def test_scenarios_perturb_the_baseline(self):
        base = run_campaign(CampaignSpec(
            workload="ecommerce", n_requests=3000, partition_requests=1024,
        ))
        chaos = run_campaign(CampaignSpec(
            workload="ecommerce", n_requests=3000, partition_requests=1024,
            scenario="chaos",
        ))
        assert base["retry_requests"] == 0
        assert chaos["retry_requests"] > 0
        # retries add spans; hot keys + diurnal bursts raise the tail
        assert chaos["schemes"]["baseline"]["spans"] > base["schemes"]["baseline"]["spans"]
        assert chaos["schemes"]["baseline"]["p99_ms"] > base["schemes"]["baseline"]["p99_ms"]

    def test_campaign_report_shape(self):
        report = run_campaign(CampaignSpec(
            workload="deep-chain", n_requests=2000, partition_requests=1024,
            inflation=1.1,
        ))
        assert report["partitions"] == 2
        assert set(report["schemes"]) == {"baseline", "traced"}
        assert report["traced_service"] == "tier-05"
        assert report["degradation"]["p99_ms"] == pytest.approx(
            report["schemes"]["traced"]["p99_ms"]
            / report["schemes"]["baseline"]["p99_ms"] - 1.0
        )
        assert report["schemes"]["baseline"]["sampled_culprit"]
        # canonical JSON round-trips
        assert json.loads(campaign_report_json(report)) == report

    def test_scenario_presets_complete(self):
        assert set(SCENARIO_PRESETS) == {
            "steady", "diurnal", "retry-storm", "hot-key", "chaos",
        }
