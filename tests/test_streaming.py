"""Tests for the streaming ingestion pipeline (``repro.streaming``).

The load-bearing property is end-state parity: a ``--streaming``
reconcile must produce byte-identical coverage, degradation, and
decode-loss accounting to batch reconcile, and to itself across jobs
widths — including under the chaos fault preset, where corrupt uploads
flow through the dead-letter quarantine instead of the in-band decoder.
"""

import json

import numpy as np
import pytest

from repro.experiments.scenarios import run_chaos_scenario
from repro.hwtrace.decoder import (
    SoftwareDecoder,
    encode_trace,
    split_canonical_stream,
)
from repro.hwtrace.tracer import TraceSegment
from repro.streaming import (
    CreditController,
    DeadLetterQueue,
    StreamingIngestor,
    VirtualDecodeQueue,
)
from repro.streaming.pipeline import QUEUE_CAPACITY


def make_segment(path, *, cr3=0x1000, e0=0, e1=50, t0=100, truncate=None):
    captured = truncate if truncate is not None else e1
    return TraceSegment(
        core_id=0, pid=1, tid=2, cr3=cr3,
        t_start=t0, t_end=t0 + 100,
        event_start=e0, event_end=e1, captured_event_end=captured,
        bytes_offered=1000.0, bytes_accepted=1000.0,
        path_model=path,
    )


def canonical_fingerprint(run):
    """JSON fingerprint with the deliberately-varying jobs field zeroed."""
    run = dict(run)
    run["jobs"] = 0
    return json.dumps(run, sort_keys=True)


class TestVirtualDecodeQueue:
    def test_single_consumer_is_fifo_with_lag(self):
        queue = VirtualDecodeQueue(consumers=1)
        start_a, done_a = queue.admit(0, 100)
        assert (start_a, done_a) == (0, 100)
        # arrives while the consumer is busy: starts late, lag visible
        start_b, done_b = queue.admit(10, 100)
        assert start_b == 100 and done_b == 200
        assert queue.makespan_ns == 200
        assert queue.max_depth == 2

    def test_consumers_drain_in_parallel(self):
        queue = VirtualDecodeQueue(consumers=2)
        queue.admit(0, 100)
        start_b, _ = queue.admit(10, 100)
        assert start_b == 10  # second consumer was free

    def test_drain_until_retires_completions(self):
        queue = VirtualDecodeQueue(consumers=2)
        queue.admit(0, 50)
        queue.admit(0, 500)
        queue.drain_until(100)
        assert queue.depth() == 1
        assert queue.oldest_completion() == 500

    def test_rejects_zero_consumers(self):
        with pytest.raises(ValueError):
            VirtualDecodeQueue(consumers=0)


class TestCreditController:
    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            CreditController(capacity=4, high_watermark=5, low_watermark=1,
                             stall_ns=0)
        with pytest.raises(ValueError):
            CreditController(capacity=4, high_watermark=2, low_watermark=2,
                             stall_ns=0)
        with pytest.raises(ValueError):
            CreditController(capacity=0, high_watermark=1, low_watermark=0,
                             stall_ns=0)

    def test_hard_credit_wait_when_queue_full(self):
        queue = VirtualDecodeQueue(consumers=1)
        controller = CreditController(
            capacity=2, high_watermark=2, low_watermark=0, stall_ns=0
        )
        clock = 0
        for _ in range(2):
            clock = controller.pace(queue, clock)
            _, _ = queue.admit(clock, 1000)
        # third enqueue finds both credits spent: waits for a completion
        paced = controller.pace(queue, clock)
        assert controller.credit_waits == 1
        assert paced >= queue.makespan_ns - 1000  # oldest completion
        assert controller.throttled_ns > 0

    def test_hysteresis_engages_once_between_watermarks(self):
        queue = VirtualDecodeQueue(consumers=1)
        controller = CreditController(
            capacity=100, high_watermark=3, low_watermark=1, stall_ns=7
        )
        clock = 0
        for _ in range(6):
            clock = controller.pace(queue, clock)
            _, _ = queue.admit(clock, 10_000)
        # depth climbed through high once; no dip to low in between
        assert controller.engagements == 1
        assert controller.engaged
        assert controller.throttled_ns >= 7


class TestDeadLetterQueue:
    def test_quarantine_and_replay_roundtrip(self):
        queue = DeadLetterQueue()
        queue.quarantine("a", b"payload-a", "corrupt header")
        queue.quarantine("b", b"payload-b", "truncated")
        assert len(queue) == 2 and queue.quarantined_total == 2

        # first replay accepts only "b": "a" stays with history
        accepted = queue.replay(
            lambda e: "ok" if e.key == "b" else None
        )
        assert [(e.key, r) for e, r in accepted] == [("b", "ok")]
        assert len(queue) == 1 and queue.replayed_total == 1
        (remaining,) = queue.entries
        assert remaining.key == "a"
        assert remaining.attempts == 1
        assert "replay attempt 1 rejected" in remaining.history

        # second replay drains it
        accepted = queue.replay(lambda e: "fixed")
        assert [(e.key, r) for e, r in accepted] == [("a", "fixed")]
        assert len(queue) == 0 and queue.replayed_total == 2


class TestSplitCanonicalStream:
    def test_split_matches_whole_stream_decode(self, tiny_path, tiny_binary):
        raw = encode_trace([
            make_segment(tiny_path, t0=100),
            make_segment(tiny_path, e0=10, e1=40, t0=200, truncate=30),
            make_segment(tiny_path, cr3=0x9999000, e0=0, e1=10, t0=300),
        ])
        units = split_canonical_stream(raw)
        assert units is not None and len(units) == 3
        decoder = SoftwareDecoder({0x1000: tiny_binary})
        whole = decoder.decode(raw, resilient=True)
        kept = 0
        functions = set()
        for cr3, body in units:
            entry = decoder.decode_chunk(cr3, body)
            kept += entry.block_ids.size
            functions.update(np.unique(entry.function_ids).tolist())
        # chunk-wise aggregation reproduces the batch session stats
        assert kept == len(whole)
        assert functions == set(whole.function_histogram())
        assert whole.resyncs == 0 and whole.bytes_skipped == 0

    def test_decode_chunk_uses_attached_cache(self, tiny_path, tiny_binary):
        from repro.hwtrace.cache import DecodeCache

        raw = encode_trace([make_segment(tiny_path)])
        ((cr3, body),) = split_canonical_stream(raw)
        decoder = SoftwareDecoder({0x1000: tiny_binary}, cache=DecodeCache())
        first = decoder.decode_chunk(cr3, body)
        hits_before = decoder.cache.hits
        second = decoder.decode_chunk(cr3, body)
        assert decoder.cache.hits == hits_before + 1
        assert np.array_equal(first.block_ids, second.block_ids)

    def test_non_canonical_returns_none(self, tiny_path):
        raw = encode_trace([make_segment(tiny_path)])
        assert split_canonical_stream(b"") is None
        assert split_canonical_stream(b"garbage bytes") is None
        # corrupting the body breaks record framing -> None, never junk
        corrupt = raw[:40] + b"\xff" + raw[41:]
        units = split_canonical_stream(corrupt)
        assert units is None


class TestStreamingReconcileParity:
    def test_fault_free_parity_with_batch(self):
        batch = run_chaos_scenario(faults="none", fault_seed=0)
        stream = run_chaos_scenario(faults="none", fault_seed=0, streaming=True)
        assert canonical_fingerprint(batch) == canonical_fingerprint(stream)

    def test_chaos_parity_with_batch(self):
        batch = run_chaos_scenario(faults="chaos", fault_seed=3)
        stream = run_chaos_scenario(faults="chaos", fault_seed=3, streaming=True)
        assert canonical_fingerprint(batch) == canonical_fingerprint(stream)

    def test_chaos_parity_across_jobs_widths(self):
        one = run_chaos_scenario(faults="chaos", fault_seed=0, streaming=True,
                                 jobs=1)
        two = run_chaos_scenario(faults="chaos", fault_seed=0, streaming=True,
                                 jobs=2)
        assert canonical_fingerprint(one) == canonical_fingerprint(two)


class TestStreamingStatus:
    def _reconcile(self, faults=None, streaming=True, nodes=2):
        from repro.cluster.crd import TraceTaskSpec
        from repro.cluster.master import ClusterMaster, RetryPolicy
        from repro.cluster.node import ClusterNode
        from repro.core.config import TraceReason
        from repro.faults import FaultPlan
        from repro.util.identity import reset_identity_counters

        reset_identity_counters()
        master = ClusterMaster(seed=11)
        for index in range(nodes):
            master.add_node(ClusterNode(f"node-{index:02d}", seed=1100 + index))
        master.deploy("Search1", replicas=nodes)
        task = master.submit(
            TraceTaskSpec(app="Search1", reason=TraceReason.ANOMALY)
        )
        plan = FaultPlan.parse(faults, seed=0) if faults else None
        master.reconcile(
            task,
            faults=plan or None,
            retry_policy=RetryPolicy(restart_crashed_nodes=False),
            streaming=streaming,
        )
        return task

    def test_batch_reconcile_leaves_stream_unset(self):
        task = self._reconcile(streaming=False)
        assert task.status.stream is None

    def test_stream_accounting_on_status(self):
        task = self._reconcile()
        stream = task.status.stream
        assert stream is not None
        assert stream["uploads"] == task.status.sessions_completed
        assert stream["chunks"] > 0
        assert stream["dead_letters"] == 0
        assert stream["makespan_ns"] > 0
        # the default queue fills past its high watermark on this load
        assert stream["backpressure_engagements"] > 0
        assert stream["max_queue_depth"] <= QUEUE_CAPACITY

    def test_chaos_uploads_quarantine_and_replay(self):
        task = self._reconcile(faults="chaos")
        stream = task.status.stream
        assert stream is not None
        # the chaos preset corrupts uploads: they quarantine, replay
        # through the resilient decoder, and still account their loss
        assert stream["dead_letters"] > 0
        assert stream["dead_letters_replayed"] == stream["dead_letters"]
        assert stream["dead_letter_rate"] > 0
        report = task.status.degradation
        assert report is not None and report.decode_resyncs > 0


class TestIngestorContract:
    def test_duplicate_slot_rejected(self, tiny_binary):
        ingestor = StreamingIngestor(app="Search1", binary=tiny_binary)

        class Outcome:
            slot = 0
            cr3 = 0x1000
            label = "n/a"
            raw = b""
            records = functions = resyncs = bytes_skipped = 0

        ingestor.submit(Outcome())
        with pytest.raises(ValueError):
            ingestor.submit(Outcome())

    def test_submit_after_finish_rejected(self, tiny_binary):
        ingestor = StreamingIngestor(app="Search1", binary=tiny_binary)
        stats = ingestor.finish()
        assert stats.uploads == 0
        assert ingestor.finish() is stats  # idempotent
        with pytest.raises(RuntimeError):
            ingestor.submit(object())
