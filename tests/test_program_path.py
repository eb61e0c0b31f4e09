"""Unit tests for the deterministic path model."""

import numpy as np
import pytest

from repro.program.path import PathModel


class TestWalkDeterminism:
    def test_same_seed_same_walk(self, tiny_binary):
        a = PathModel(tiny_binary, seed=5, length=2048)
        b = PathModel(tiny_binary, seed=5, length=2048)
        assert (a.walk == b.walk).all()

    def test_different_seed_different_walk(self, tiny_binary):
        a = PathModel(tiny_binary, seed=5, length=2048)
        b = PathModel(tiny_binary, seed=6, length=2048)
        assert not (a.walk == b.walk).all()

    def test_walk_visits_many_blocks(self, tiny_path, tiny_binary):
        unique = len(np.unique(tiny_path.walk))
        assert unique > tiny_binary.n_blocks * 0.3

    def test_too_short_length_rejected(self, tiny_binary):
        with pytest.raises(ValueError):
            PathModel(tiny_binary, length=4)


class TestRangeQueries:
    def test_events_simple_range(self, tiny_path):
        events = tiny_path.events(10, 20)
        assert (events == tiny_path.walk[10:20]).all()

    def test_events_wraparound(self, tiny_path):
        length = tiny_path.length
        events = tiny_path.events(length - 5, length + 5)
        expected = np.concatenate([tiny_path.walk[-5:], tiny_path.walk[:5]])
        assert (events == expected).all()

    def test_events_absolute_indices_beyond_length(self, tiny_path):
        length = tiny_path.length
        assert (
            tiny_path.events(3 * length + 7, 3 * length + 17)
            == tiny_path.walk[7:17]
        ).all()

    def test_events_invalid_range(self, tiny_path):
        with pytest.raises(ValueError):
            tiny_path.events(10, 5)

    def test_range_events_concatenates_events(self, tiny_path):
        length = tiny_path.length
        ranges = [
            (0, 0), (5, 17), (length - 3, length + 4), (7, 7),
            (3 * length + 11, 3 * length + 12), (2, 2 + length),
            (9, 9 + 2 * length + 5), (length - 1, length),
        ]
        starts, ends = (np.array(column) for column in zip(*ranges))
        block_ids, counts = tiny_path.range_events(starts, ends)
        expected = [tiny_path.events(start, end) for start, end in ranges]
        assert counts.tolist() == [part.size for part in expected]
        assert np.array_equal(block_ids, np.concatenate(expected))

    def test_range_events_empty_and_invalid(self, tiny_path):
        block_ids, counts = tiny_path.range_events(np.array([]), np.array([]))
        assert block_ids.size == 0 and counts.size == 0
        with pytest.raises(ValueError):
            tiny_path.range_events(np.array([0, 10]), np.array([4, 5]))

    def test_visit_counts_match_events(self, tiny_path, tiny_binary):
        counts = tiny_path.visit_counts(100, 400)
        manual = np.bincount(
            tiny_path.events(100, 400), minlength=tiny_binary.n_blocks
        )
        assert (counts == manual).all()

    def test_visit_counts_full_cycles(self, tiny_path):
        one_cycle = tiny_path.visit_counts(0, tiny_path.length)
        two_cycles = tiny_path.visit_counts(0, 2 * tiny_path.length)
        assert (two_cycles == 2 * one_cycle).all()

    def test_visit_counts_empty(self, tiny_path):
        assert tiny_path.visit_counts(5, 5).sum() == 0

    def test_sample_block_wraps(self, tiny_path):
        assert tiny_path.sample_block(tiny_path.length + 3) == tiny_path.walk[3]


class TestHistograms:
    def test_function_histogram_weights_positive(self, tiny_path):
        histogram = tiny_path.function_histogram(0, 1000)
        assert histogram
        assert all(weight > 0 for weight in histogram.values())

    def test_function_histogram_additive(self, tiny_path):
        full = tiny_path.function_histogram(0, 500)
        left = tiny_path.function_histogram(0, 250)
        right = tiny_path.function_histogram(250, 500)
        for fid in full:
            assert full[fid] == pytest.approx(
                left.get(fid, 0) + right.get(fid, 0)
            )


class TestVolumeModel:
    def test_indirect_fraction_in_range(self, tiny_path):
        assert 0.0 <= tiny_path.indirect_fraction < 0.5
