"""Unit tests for statistics helpers."""

import math

import pytest

from repro.util.stats import (
    OnlineStats,
    geometric_mean,
    normalized_l1_distance,
    percentile,
)


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_extremes(self):
        data = list(range(100))
        assert percentile(data, 0) == 0
        assert percentile(data, 100) == 99

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

class TestGeometricMean:
    def test_identity(self):
        assert geometric_mean([2.0, 2.0]) == pytest.approx(2.0)

    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])


class TestNormalizedL1:
    def test_identical_histograms(self):
        h = {"a": 2.0, "b": 3.0}
        assert normalized_l1_distance(h, h) == pytest.approx(0.0)

    def test_disjoint_is_max_two(self):
        assert normalized_l1_distance({"a": 1.0}, {"b": 1.0}) == pytest.approx(2.0)

    def test_scale_invariant(self):
        a = {"x": 1.0, "y": 1.0}
        b = {"x": 10.0, "y": 10.0}
        assert normalized_l1_distance(a, b) == pytest.approx(0.0)

    def test_empty_both(self):
        assert normalized_l1_distance({}, {}) == 0.0

    def test_symmetric(self):
        a = {"x": 1.0, "y": 2.0}
        b = {"x": 2.0, "z": 1.0}
        assert normalized_l1_distance(a, b) == pytest.approx(
            normalized_l1_distance(b, a)
        )


class TestOnlineStats:
    def test_mean_and_std(self):
        stats = OnlineStats()
        for value in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            stats.add(value)
        assert stats.mean == pytest.approx(5.0)
        assert stats.stddev == pytest.approx(2.0)

    def test_min_max(self):
        stats = OnlineStats()
        for value in [3.0, -1.0, 10.0]:
            stats.add(value)
        assert stats.minimum == -1.0
        assert stats.maximum == 10.0

    def test_empty(self):
        stats = OnlineStats()
        assert stats.mean == 0.0
        assert stats.variance == 0.0

    def test_merge_equals_combined(self):
        left, right, combined = OnlineStats(), OnlineStats(), OnlineStats()
        for index in range(20):
            value = math.sin(index) * index
            (left if index % 2 else right).add(value)
            combined.add(value)
        merged = left.merge(right)
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean)
        assert merged.variance == pytest.approx(combined.variance)
        assert merged.minimum == combined.minimum
        assert merged.maximum == combined.maximum

    def test_merge_with_empty(self):
        stats = OnlineStats()
        stats.add(1.0)
        merged = stats.merge(OnlineStats())
        assert merged.count == 1
        assert merged.mean == 1.0
