"""Tests for the Zipkin-style inter-service collector."""

import pytest

from repro.services.collector import ZipkinCollector
from repro.services.graph import ServiceGraph
from repro.services.latency import QueueingSimulator
from repro.services.loadgen import PoissonArrivals
from repro.services.rpc import RequestTrace, Span


def make_trace(request_id, spans):
    trace = RequestTrace(request_id=request_id)
    for service, start, end in spans:
        trace.spans.append(Span(service=service, start_ns=start, end_ns=end))
    return trace


class TestAggregation:
    def test_service_stats(self):
        collector = ZipkinCollector()
        collector.collect([
            make_trace(1, [("a", 0, 100), ("b", 10, 40)]),
            make_trace(2, [("a", 0, 300), ("b", 10, 50)]),
        ])
        stats = collector.service_stats()
        assert stats["a"].span_count == 2
        assert stats["a"].mean_ns == pytest.approx(200)
        assert stats["b"].total_ns == 70

    def test_compare_ratios(self):
        before = ZipkinCollector()
        before.collect([make_trace(1, [("a", 0, 100)])])
        after = ZipkinCollector()
        after.collect([make_trace(2, [("a", 0, 150)])])
        ratios = after.compare(before)
        assert ratios["a"] == pytest.approx(1.5)


class TestEndToEnd:
    """The two-level story: Zipkin finds the culprit *service*."""

    def test_culprit_service_located_from_queueing_spans(self):
        graph = ServiceGraph.search_pipeline()
        sim = QueueingSimulator(graph, seed=3)
        rate = sim.rate_for_utilization(0.6)
        report = sim.run_open_loop(
            PoissonArrivals(rate, seed=1), 2000, keep_traces=200
        )
        collector = ZipkinCollector()
        collector.collect(report.sample_traces)
        assert len(collector) == 200
        # Search1 dominates the chain's span time (2 calls x 400us)
        stats = collector.service_stats()
        assert max(stats, key=lambda s: stats[s].total_ns) == "Search1"

    def test_regression_visible_in_comparison(self):
        graph = ServiceGraph.search_pipeline()
        rate = QueueingSimulator(graph, seed=3).rate_for_utilization(0.5)

        baseline = ZipkinCollector()
        report = QueueingSimulator(graph, seed=3).run_open_loop(
            PoissonArrivals(rate, seed=1), 2000, keep_traces=150
        )
        baseline.collect(report.sample_traces)

        graph.set_tracing_inflation("Search1", 1.15)  # a regressed tier
        regressed = ZipkinCollector()
        report = QueueingSimulator(graph, seed=3).run_open_loop(
            PoissonArrivals(rate, seed=1), 2000, keep_traces=150
        )
        regressed.collect(report.sample_traces)

        ratios = regressed.compare(baseline)
        # the regressed tier stands out the most
        assert max(ratios, key=lambda s: ratios[s]) == "Search1"
        assert ratios["Search1"] > 1.05
