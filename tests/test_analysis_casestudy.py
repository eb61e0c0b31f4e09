"""Tests for the §5.4 case-study analyses."""

import pytest

from repro.analysis.casestudy import (
    find_blocking_anomalies,
    function_category_report,
    memory_width_report,
)
from repro.analysis.reconstruct import reconstruct
from repro.hwtrace.tracer import TraceSegment
from repro.kernel.task import Process
from repro.program.binary import FunctionCategory as FC
from repro.program.workloads import get_workload
from repro.util.units import MSEC, SEC


def decoded_for(profile_name, n_events=4000):
    profile = get_workload(profile_name)
    path = profile.path_model()
    process = Process(name=profile.name, binary=profile.binary(), cr3=0x1000)
    segment = TraceSegment(
        core_id=0, pid=1, tid=1, cr3=0x1000, t_start=0, t_end=1,
        event_start=0, event_end=n_events, captured_event_end=n_events,
        bytes_offered=1.0, bytes_accepted=1.0, path_model=path,
    )
    return reconstruct([segment], [process]).decoded, profile.binary()


class TestCategoryReport:
    def test_shares_sum_to_one(self):
        decoded, binary = decoded_for("Search1")
        report = function_category_report("Search1", decoded, binary)
        assert sum(report.family_shares.values()) == pytest.approx(1.0)
        for mix in report.within_family.values():
            assert sum(mix.values()) == pytest.approx(1.0)

    def test_recommend_is_irq_and_mutex_heavy(self):
        """The paper's Fig 21 observation about the ML Recommend app."""
        rec_decoded, rec_binary = decoded_for("Recommend")
        search_decoded, search_binary = decoded_for("Search1")
        recommend = function_category_report("Recommend", rec_decoded, rec_binary)
        search = function_category_report("Search", search_decoded, search_binary)
        assert recommend.category_share(FC.KERNEL_IRQ) > search.category_share(
            FC.KERNEL_IRQ
        )
        assert recommend.category_share(FC.SYNC_MUTEX) > search.category_share(
            FC.SYNC_MUTEX
        )

    def test_cache_is_memory_heavy(self):
        cache_decoded, cache_binary = decoded_for("Cache")
        report = function_category_report("Cache", cache_decoded, cache_binary)
        assert report.family_share("memory") > 0.25

    def test_empty_trace(self):
        decoded, binary = decoded_for("Search1", n_events=0)
        report = function_category_report("Search1", decoded, binary)
        assert report.family_shares == {}


class TestWidthReport:
    def test_mixes_sum_to_one(self):
        decoded, binary = decoded_for("Pred")
        report = memory_width_report("Pred", decoded, binary)
        for mix in report.mixes.values():
            assert sum(mix.values()) == pytest.approx(1.0)

    def test_ml_apps_quad_width_signature(self):
        """Fig 22: ML apps show far more 4-byte accesses."""
        pred_decoded, pred_binary = decoded_for("Pred")
        cache_decoded, cache_binary = decoded_for("Cache")
        pred = memory_width_report("Pred", pred_decoded, pred_binary)
        cache = memory_width_report("Cache", cache_decoded, cache_binary)
        assert pred.share("read_only", 4) > 0.4
        assert pred.share("read_only", 4) > cache.share("read_only", 4) + 0.15


class TestBlockingAnomalies:
    def test_detects_long_block(self):
        syscall_log = [
            (1 * SEC, 10, 100, "file_write"),
            (5 * SEC, 10, 100, "sendto"),
        ]
        sched_records = [
            (1 * SEC + int(3.7 * SEC), 0, 10, 100, "sched_in"),  # back after 3.7s
            (5 * SEC + 1 * MSEC, 0, 10, 100, "sched_in"),
        ]
        anomalies = find_blocking_anomalies(
            syscall_log, sched_records, min_block_ns=1 * SEC
        )
        assert len(anomalies) == 1
        culprit = anomalies[0]
        assert culprit.syscall == "file_write"
        assert culprit.blocked_ns == pytest.approx(3.7 * SEC, rel=0.01)

    def test_short_blocks_ignored(self):
        syscall_log = [(100, 1, 1, "read")]
        sched_records = [(200, 0, 1, 1, "sched_in")]
        assert (
            find_blocking_anomalies(syscall_log, sched_records, min_block_ns=1000)
            == []
        )

    def test_sorted_by_severity(self):
        syscall_log = [(0, 1, 1, "a"), (0, 1, 2, "b")]
        sched_records = [
            (5_000, 0, 1, 1, "sched_in"),
            (9_000, 0, 1, 2, "sched_in"),
        ]
        anomalies = find_blocking_anomalies(syscall_log, sched_records, 1_000)
        assert [a.syscall for a in anomalies] == ["b", "a"]

    def test_never_rescheduled_not_flagged(self):
        """A thread that never returns inside the window is not misattributed."""
        anomalies = find_blocking_anomalies(
            [(100, 1, 1, "x")], [(50, 0, 1, 1, "sched_in")], 10
        )
        assert anomalies == []
