"""Unit tests for the repetition-aware coverage optimizer (§3.4)."""

import pytest

from repro.core.config import ExistConfig, TraceReason, TracingRequest
from repro.core.rco import (
    CoverageMetric,
    Repetition,
    RepetitionAwareCoverageOptimizer,
    SpatialSampler,
    TemporalDecider,
    augment_traces,
    interval_intersection,
    interval_length,
    merge_intervals,
)
from repro.program.workloads import get_workload
from repro.util.units import MSEC, SEC


class TestIntervalAlgebra:
    def test_merge_overlapping(self):
        assert merge_intervals([(0, 10), (5, 15), (20, 30)]) == [(0, 15), (20, 30)]

    def test_merge_adjacent(self):
        assert merge_intervals([(0, 10), (10, 20)]) == [(0, 20)]

    def test_merge_drops_empty(self):
        assert merge_intervals([(5, 5), (7, 6)]) == []

    def test_merge_unsorted_input(self):
        assert merge_intervals([(20, 30), (0, 10)]) == [(0, 10), (20, 30)]

    def test_length(self):
        assert interval_length([(0, 10), (5, 15)]) == 15

    def test_intersection(self):
        left = [(0, 10), (20, 30)]
        right = [(5, 25)]
        assert interval_intersection(left, right) == [(5, 10), (20, 25)]

    def test_intersection_disjoint(self):
        assert interval_intersection([(0, 5)], [(10, 20)]) == []


class TestTemporalDecider:
    def test_complex_apps_get_longer_periods(self):
        decider = TemporalDecider(ExistConfig())
        simple = decider.period_for(get_workload("ex"))
        complex_ = decider.period_for(get_workload("Search1"))
        assert complex_ > simple

    def test_periods_within_paper_bounds(self):
        decider = TemporalDecider(ExistConfig())
        for name in ("ex", "gcc", "Search1", "Pred", "Agent"):
            period = decider.period_for(get_workload(name))
            assert 100 * MSEC <= period <= 2 * SEC

def make_reps(n, priority=5):
    return [
        Repetition(app="app", node=f"node-{i}", pod_uid=f"pod-{i}", priority=priority)
        for i in range(n)
    ]


class TestSpatialSampler:
    def test_anomaly_traces_everything(self):
        sampler = SpatialSampler(seed=1)
        reps = make_reps(10)
        assert sampler.select(reps, TraceReason.ANOMALY) == reps

    def test_profiling_samples_fraction(self):
        sampler = SpatialSampler(base_fraction=0.3, seed=1)
        selected = sampler.select(make_reps(20), TraceReason.PROFILING)
        assert 1 <= len(selected) < 20

    def test_higher_priority_traced_more(self):
        low = SpatialSampler(base_fraction=0.3, seed=1).select(
            make_reps(20, priority=1), TraceReason.PROFILING
        )
        high = SpatialSampler(base_fraction=0.3, seed=1).select(
            make_reps(20, priority=10), TraceReason.PROFILING
        )
        assert len(high) > len(low)

    def test_deployment_threshold_guarantees_observation(self):
        sampler = SpatialSampler(base_fraction=0.1, deployment_threshold=1, seed=1)
        assert len(sampler.select(make_reps(1), TraceReason.PROFILING)) == 1

    def test_empty_repetitions(self):
        assert SpatialSampler(seed=1).select([], TraceReason.PROFILING) == []

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            SpatialSampler(base_fraction=0.0)

    def test_deterministic(self):
        a = SpatialSampler(seed=4).select(make_reps(20), TraceReason.PROFILING)
        b = SpatialSampler(seed=4).select(make_reps(20), TraceReason.PROFILING)
        assert [r.pod_uid for r in a] == [r.pod_uid for r in b]


class TestAugmentation:
    def test_union_and_redundancy(self):
        result = augment_traces([[(0, 100)], [(50, 150)], [(200, 250)]])
        assert result.union_events == 200
        assert result.redundant_events == 50
        assert result.workers == 3
        assert result.merged == [(0, 150), (200, 250)]

    def test_more_workers_more_coverage(self):
        one = augment_traces([[(0, 100)]])
        three = augment_traces([[(0, 100)], [(80, 200)], [(300, 350)]])
        assert three.union_events > one.union_events

    def test_coverage_of_cycle(self):
        result = augment_traces([[(0, 500)]])
        assert result.coverage_of_cycle(1000) == pytest.approx(0.5)

    def test_coverage_wraps_modulo_cycle(self):
        result = augment_traces([[(900, 1100)]])
        assert result.coverage_of_cycle(1000) == pytest.approx(0.2)

    def test_coverage_saturates_at_one(self):
        result = augment_traces([[(0, 5000)]])
        assert result.coverage_of_cycle(1000) == 1.0

    def test_invalid_cycle(self):
        with pytest.raises(ValueError):
            augment_traces([]).coverage_of_cycle(0)

    def test_empty_coverage_is_zero(self):
        assert augment_traces([]).coverage_of_cycle(1000) == 0.0

    def test_coverage_matches_bool_array_reference(self):
        import numpy as np

        rng = np.random.default_rng(5)
        for _ in range(50):
            cycle = int(rng.integers(1, 60))
            n = int(rng.integers(0, 6))
            starts = rng.integers(0, 120, size=n)
            spans = rng.integers(1, 90, size=n)
            merged = merge_intervals(
                [(int(s), int(s + w)) for s, w in zip(starts, spans)]
            )
            covered = np.zeros(cycle, dtype=bool)
            saturated = False
            for a, b in merged:
                if b - a >= cycle:
                    saturated = True
                    break
                lo, hi = a % cycle, b % cycle
                if lo < hi:
                    covered[lo:hi] = True
                else:
                    covered[lo:] = True
                    covered[:hi] = True
            expected = 1.0 if saturated else float(covered.mean())
            result = augment_traces([merged])
            assert result.coverage_of_cycle(cycle) == pytest.approx(expected)

    def test_per_worker_unique_contribution(self):
        # worker 0 alone covers [0,50); [50,100) is shared; worker 2
        # alone covers [200,250)
        result = augment_traces([[(0, 100)], [(50, 150)], [(200, 250)]])
        assert result.per_worker_unique == [50, 50, 50]
        assert sum(result.per_worker_unique) == (
            result.union_events
            - (sum(result.per_worker_events) - result.union_events)
        )

    def test_per_worker_unique_fully_redundant(self):
        result = augment_traces([[(0, 100)], [(0, 100)]])
        assert result.per_worker_unique == [0, 0]
        assert result.redundant_events == 100

    def test_per_worker_unique_empty_worker(self):
        result = augment_traces([[(0, 10)], []])
        assert result.per_worker_unique == [10, 0]


class TestOrchestration:
    def test_plan_shape(self):
        rco = RepetitionAwareCoverageOptimizer(seed=2)
        request = TracingRequest(target="Search1", reason=TraceReason.PROFILING)
        plan = rco.orchestrate(request, get_workload("Search1"), make_reps(10, priority=9))
        assert plan.selected
        assert 100 * MSEC <= plan.period_ns <= 2 * SEC
        assert plan.estimated_cost > 0

    def test_cost_scales_with_selection(self):
        rco = RepetitionAwareCoverageOptimizer(seed=2)
        profile = get_workload("Search1")
        anomaly = rco.orchestrate(
            TracingRequest(target="Search1", reason=TraceReason.ANOMALY),
            profile, make_reps(10),
        )
        profiling = rco.orchestrate(
            TracingRequest(target="Search1", reason=TraceReason.PROFILING),
            profile, make_reps(10),
        )
        assert anomaly.estimated_cost > profiling.estimated_cost


class TestResample:
    def test_replacements_avoid_excluded_uids(self):
        sampler = SpatialSampler(seed=2)
        reps = make_reps(6)
        exclude = {"pod-0", "pod-1"}
        picked = sampler.resample(reps, 2, exclude=exclude)
        assert len(picked) == 2
        assert not {r.pod_uid for r in picked} & exclude

    def test_capped_by_pool_size(self):
        sampler = SpatialSampler(seed=2)
        reps = make_reps(3)
        picked = sampler.resample(reps, 10, exclude={"pod-0"})
        assert {r.pod_uid for r in picked} == {"pod-1", "pod-2"}

    def test_empty_pool_or_zero_count(self):
        sampler = SpatialSampler(seed=2)
        assert sampler.resample(make_reps(2), 0) == []
        assert sampler.resample(make_reps(2), 1, exclude={"pod-0", "pod-1"}) == []


class TestCoverageMetric:
    def test_full_coverage_not_degraded(self):
        metric = CoverageMetric(requested=3, achieved=3)
        assert metric.fraction == 1.0
        assert not metric.degraded

    def test_shortfall_is_degraded(self):
        metric = CoverageMetric(requested=4, achieved=1)
        assert metric.fraction == 0.25
        assert metric.degraded

    def test_zero_requested_counts_as_full(self):
        assert CoverageMetric(requested=0, achieved=0).fraction == 1.0
