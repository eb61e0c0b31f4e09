"""Tests for the microservice queueing layer."""

import pytest

from repro.services.graph import CallEdge, ServiceGraph, ServiceSpec
from repro.services.latency import QueueingSimulator
from repro.services.loadgen import PoissonArrivals
from repro.services.rpc import Span
from repro.util.units import USEC


def two_tier_graph(workers=4, service_us=100):
    graph = ServiceGraph(root="front")
    graph.add_service(ServiceSpec("front", workers=workers, service_time_ns=service_us * USEC))
    graph.add_service(ServiceSpec("back", workers=workers, service_time_ns=service_us * USEC))
    graph.add_edge("front", "back", calls_per_request=1, network_ns=10 * USEC)
    return graph


class TestGraph:
    def test_duplicate_service_rejected(self):
        graph = ServiceGraph(root="a")
        graph.add_service(ServiceSpec("a"))
        with pytest.raises(ValueError):
            graph.add_service(ServiceSpec("a"))

    def test_edge_requires_both_endpoints(self):
        graph = ServiceGraph(root="a")
        graph.add_service(ServiceSpec("a"))
        with pytest.raises(KeyError):
            graph.add_edge("a", "missing")

    def test_call_order_topological(self):
        graph = ServiceGraph.social_network_chain()
        order = graph.call_order()
        assert order[0] == "frontend"
        assert order.index("compose-post") < order.index("post-storage")

    def test_tracing_inflation_validation(self):
        graph = two_tier_graph()
        graph.set_tracing_inflation("back", 1.05)
        assert graph.service("back").inflated_mean() == pytest.approx(
            1.05 * graph.service("back").service_time_ns
        )
        with pytest.raises(ValueError):
            graph.set_tracing_inflation("back", 0.9)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="'root'.*workers"):
            ServiceSpec("root", workers=0)

    @pytest.mark.parametrize("field", ["service_time_ns", "tracing_inflation"])
    def test_nonpositive_mean_rejected(self, field):
        with pytest.raises(ValueError, match=f"'svc'.*{field}"):
            ServiceSpec("svc", **{field: 0})

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="'svc'.*service_time_sigma"):
            ServiceSpec("svc", service_time_sigma=sigma)

    def test_prebuilt_graphs(self):
        assert "Search1" in ServiceGraph.search_pipeline().services
        assert "compose-post" in ServiceGraph.social_network_chain().services


class TestLoadgen:
    def test_poisson_mean_rate(self):
        arrivals = PoissonArrivals(rate_rps=10_000, seed=1)
        times = arrivals.arrival_times(20_000)
        measured = 20_000 / (times[-1] / 1e9)
        assert measured == pytest.approx(10_000, rel=0.05)

    def test_arrival_times_monotone(self):
        times = PoissonArrivals(rate_rps=1000, seed=2).arrival_times(100)
        assert (times[1:] >= times[:-1]).all()

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate_rps=0).arrival_times(10)


class TestQueueingSimulator:
    def test_capacity_accounts_for_multiplicity(self):
        graph = two_tier_graph(workers=4, service_us=100)
        sim = QueueingSimulator(graph)
        # each tier: 4 workers / 100us = 40k calls/s; 1 call each -> 40k rps
        assert sim.bottleneck_capacity_rps() == pytest.approx(40_000, rel=0.01)
        graph.edges[0] = CallEdge("front", "back", calls_per_request=4)
        assert QueueingSimulator(graph).bottleneck_capacity_rps() == pytest.approx(
            10_000, rel=0.01
        )

    def test_latency_grows_with_utilization(self):
        graph = two_tier_graph()
        sim = QueueingSimulator(graph, seed=7)
        low = sim.run_open_loop(
            PoissonArrivals(sim.rate_for_utilization(0.3), seed=1), 4000
        )
        high = sim.run_open_loop(
            PoissonArrivals(sim.rate_for_utilization(0.9), seed=1), 4000
        )
        assert high.percentile(99) > low.percentile(99)
        assert high.percentile(50) >= low.percentile(50)

    def test_tracing_inflation_amplified_at_high_load(self):
        """The Figure 3b mechanism: a few % service inflation produces a
        much larger tail degradation near saturation."""
        graph = two_tier_graph()
        sim = QueueingSimulator(graph, seed=7)
        rate = sim.rate_for_utilization(0.92)
        base = sim.run_open_loop(PoissonArrivals(rate, seed=1), 6000)
        graph.set_tracing_inflation("back", 1.05)
        traced = QueueingSimulator(graph, seed=7).run_open_loop(
            PoissonArrivals(rate, seed=1), 6000
        )
        p99_degradation = traced.percentile(99) / base.percentile(99) - 1
        assert p99_degradation > 0.05  # amplified beyond the 5% input

    def test_utilization_report(self):
        graph = two_tier_graph()
        sim = QueueingSimulator(graph, seed=7)
        rate = sim.rate_for_utilization(0.5)
        report = sim.run_open_loop(PoissonArrivals(rate, seed=1), 4000)
        assert 0.3 < report.utilization("front") < 0.75
        assert report.throughput_rps == pytest.approx(rate, rel=0.15)

    def test_traces_collected(self):
        graph = two_tier_graph()
        sim = QueueingSimulator(graph, seed=7)
        report = sim.run_open_loop(
            PoissonArrivals(5000, seed=1), 500, keep_traces=5
        )
        assert len(report.sample_traces) == 5
        trace = report.sample_traces[0]
        services = {span.service for span in trace.spans}
        assert services == {"front", "back"}

    def test_percentile_ordering(self):
        graph = two_tier_graph()
        sim = QueueingSimulator(graph, seed=7)
        report = sim.run_open_loop(PoissonArrivals(5000, seed=1), 3000)
        tails = [report.percentile(pct) for pct in (50, 90, 99, 99.9)]
        assert tails == sorted(tails)


class TestRpc:

    def test_equal_spans_compare_equal(self):
        # span identity comes from the producer (span_id_for), never from
        # a process-global stream: two spans built alike are equal
        assert Span("a", 0, 10, self_ns=5) == Span("a", 0, 10, self_ns=5)
        assert Span("a", 0, 10).span_id == ""
