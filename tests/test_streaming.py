"""Tests for the streaming ingestion pipeline (``repro.streaming``).

The load-bearing property is end-state parity: a ``--streaming``
reconcile must produce byte-identical coverage, degradation, and
decode-loss accounting to batch reconcile, and to itself across jobs
widths — including under the chaos fault preset, where corrupt uploads
take the resilient decode and are counted as dead letters.
"""

import hashlib
import heapq
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.crd import TaskPhase, TraceTaskSpec
from repro.cluster.master import ClusterMaster
from repro.core.config import TraceReason
from repro.experiments.scenarios import run_chaos_scenario
from repro.hwtrace.decoder import (
    SoftwareDecoder,
    encode_trace,
    split_canonical_stream,
)
from repro.hwtrace.tracer import TraceSegment
from repro.program.workloads import get_workload
from repro.streaming import StreamingIngestor, VirtualDecodeQueue
from repro.streaming.pipeline import upload_stats
from repro.util.identity import reset_identity_counters
from repro.util.units import MSEC


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


def make_queue(consumers=1, capacity=100, high_watermark=99, low_watermark=0,
               stall_ns=0, gap_ns=0):
    return VirtualDecodeQueue(
        consumers=consumers, capacity=capacity, high_watermark=high_watermark,
        low_watermark=low_watermark, stall_ns=stall_ns, gap_ns=gap_ns,
    )


class TestVirtualDecodeQueue:
    def test_single_consumer_is_fifo_with_lag(self):
        queue = make_queue(consumers=1, gap_ns=10)
        queue.enqueue([100, 100])
        # the second job arrives at 20 while the consumer is busy until
        # 110: it starts late, and the lag is visible
        assert queue.lags.tolist() == [0, 90]
        assert queue.clock == 20
        assert queue.makespan_ns == 210
        assert queue.max_depth == 2

    def test_consumers_drain_in_parallel(self):
        queue = make_queue(consumers=2, gap_ns=10)
        queue.enqueue([100, 100])
        assert queue.lags.tolist() == [0, 0]  # second consumer was free

    def test_completed_jobs_leave_the_queue(self):
        queue = make_queue(consumers=2, gap_ns=100)
        queue.enqueue([50, 500])
        # the first job finished at 150, before the second arrived at 200
        assert queue.max_depth == 1
        queue.enqueue([10])
        # the second job is still running at 300; state carries over
        assert queue.max_depth == 2
        assert queue.makespan_ns == 700

    def test_rejects_zero_consumers(self):
        with pytest.raises(ValueError):
            make_queue(consumers=0)


class TestCreditController:
    """The producer's credit pacing inside :meth:`VirtualDecodeQueue.enqueue`."""

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            make_queue(capacity=4, high_watermark=5, low_watermark=1)
        with pytest.raises(ValueError):
            make_queue(capacity=4, high_watermark=2, low_watermark=2)
        with pytest.raises(ValueError):
            make_queue(capacity=0, high_watermark=1, low_watermark=0)
        with pytest.raises(ValueError):
            make_queue(stall_ns=-1)
        with pytest.raises(ValueError):
            make_queue(gap_ns=-1)

    def test_hard_credit_wait_when_queue_full(self):
        queue = make_queue(consumers=1, capacity=2, high_watermark=2,
                           low_watermark=0)
        queue.enqueue([1000, 1000, 1000])
        # the third enqueue finds both credits spent: it waits until the
        # oldest completion (1000), then queues behind the second job
        assert queue.credit_waits == 1
        assert queue.throttled_ns == 1000
        assert queue.clock == 1000
        assert queue.lags.tolist() == [0, 1000, 1000]

    def test_hysteresis_engages_once_between_watermarks(self):
        queue = make_queue(consumers=1, capacity=100, high_watermark=3,
                           low_watermark=1, stall_ns=7)
        queue.enqueue([10_000] * 6)
        # depth climbed through high once; no dip to low in between
        assert queue.engagements == 1
        assert queue.engaged
        assert queue.throttled_ns == 3 * 7  # the 4th, 5th and 6th stalled


class _ReferenceQueue:
    """Step-by-step pacing: credit controller ``pace``, then queue ``admit``.

    The per-chunk implementation :meth:`VirtualDecodeQueue.enqueue`
    replaced, kept as the oracle for its fused loop.
    """

    def __init__(self, consumers, capacity, high, low, stall):
        self.capacity, self.high, self.low, self.stall = capacity, high, low, stall
        self.free = [0] * consumers
        self.in_flight = []
        self.lags = []
        self.max_depth = self.makespan_ns = 0
        self.engaged = False
        self.engagements = self.credit_waits = self.throttled_ns = 0

    def drain_until(self, now):
        while self.in_flight and self.in_flight[0] <= now:
            heapq.heappop(self.in_flight)

    def pace(self, arrival):
        self.drain_until(arrival)
        if len(self.in_flight) >= self.capacity:
            self.credit_waits += 1
            while len(self.in_flight) >= self.capacity:
                waited_until = self.in_flight[0]
                self.throttled_ns += waited_until - arrival
                arrival = waited_until
                self.drain_until(arrival)
        depth = len(self.in_flight)
        if self.engaged:
            if depth <= self.low:
                self.engaged = False
        elif depth >= self.high:
            self.engaged = True
            self.engagements += 1
        if self.engaged and self.stall:
            arrival += self.stall
            self.throttled_ns += self.stall
            self.drain_until(arrival)
        return arrival

    def admit(self, arrival, service):
        start = max(heapq.heappop(self.free), arrival)
        completion = start + service
        heapq.heappush(self.free, completion)
        heapq.heappush(self.in_flight, completion)
        self.max_depth = max(self.max_depth, len(self.in_flight))
        self.makespan_ns = max(self.makespan_ns, completion)
        self.lags.append(start - arrival)


@st.composite
def pacing_cases(draw):
    capacity = draw(st.integers(1, 12))
    high = draw(st.integers(1, capacity))
    low = draw(st.integers(0, high - 1))
    uploads = draw(st.lists(
        st.lists(st.integers(0, 20_000), max_size=40), min_size=1, max_size=4
    ))
    return (
        draw(st.integers(1, 5)), capacity, high, low,
        draw(st.sampled_from([0, 0, 1, 500, 50_000])),
        draw(st.sampled_from([0, 1, 2_000, 10_000])),
        uploads,
    )


def _paced_both_ways(consumers, capacity, high, low, stall, gap, uploads):
    fused = make_queue(consumers=consumers, capacity=capacity, high_watermark=high,
                       low_watermark=low, stall_ns=stall, gap_ns=gap)
    reference = _ReferenceQueue(consumers, capacity, high, low, stall)
    clock = 0
    for services in uploads:
        fused.enqueue(services)
        for service in services:
            clock = reference.pace(clock + gap)
            reference.admit(clock, service)
    assert fused.lags.tolist() == reference.lags
    for attr in ("max_depth", "makespan_ns", "engaged", "engagements",
                 "credit_waits", "throttled_ns"):
        assert getattr(fused, attr) == getattr(reference, attr), attr
    assert fused.clock == clock
    return fused


@settings(max_examples=200, deadline=None)
@example((1, 2, 2, 0, 0, 0, [[1000, 1000, 1000], [5, 5]]))
@given(pacing_cases())
def test_fused_pacing_matches_step_by_step_reference(case):
    _paced_both_ways(*case)


def test_reference_comparison_reaches_credit_waits():
    # the default pipeline constants never fill the queue, so pin a
    # configuration that does, stalls included
    queue = _paced_both_ways(2, 4, 3, 1, 500, 100, [[20_000] * 30, [0, 7, 20_000] * 5])
    assert queue.credit_waits > 0
    assert queue.engagements > 0


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


OWN_CR3 = 0x1000
FOREIGN_CR3 = 0x9999000
#: 48-bit TIP address far above any generated binary's blocks
UNKNOWN_ADDRESS = 0x7FFF_0000_0000

#: one chunk of a slot-shaped upload: (kind, first event, events, OVF tail)
chunk_specs = st.lists(
    st.tuples(
        st.sampled_from(["own", "own", "own", "foreign", "unknown"]),
        st.integers(0, 4000),
        st.one_of(st.just(0), st.integers(1, 12)),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


def slot_upload(path, specs) -> bytes:
    """A canonical upload of one chunk per spec, as a slot writes them."""
    chunks = []
    for index, (kind, start, count, ovf) in enumerate(specs):
        end = start + count
        raw = encode_trace([TraceSegment(
            core_id=0, pid=1, tid=2,
            cr3=FOREIGN_CR3 if kind == "foreign" else OWN_CR3,
            t_start=100 * index, t_end=100 * index + 50,
            event_start=start, event_end=end + ovf, captured_event_end=end,
            bytes_offered=1000.0, bytes_accepted=1000.0,
            path_model=path,
        )])
        if kind == "unknown":
            # keep each record's TNT and TIP header bytes, move its address
            words = np.frombuffer(raw, dtype="<u8", count=4 + count).copy()
            records = np.arange(count, dtype=np.uint64)
            words[4:] = (words[4:] & 0xFFFF) | ((UNKNOWN_ADDRESS + records) << 16)
            raw = words.tobytes() + raw[8 * words.size:]
        chunks.append(raw)
    return b"".join(chunks)


def chunk_oracle(cr3, raw, binary):
    """Stats by the per-chunk reduction: one ``decode_chunks`` entry each."""
    cr3s, bodies = zip(*split_canonical_stream(raw))
    entries = SoftwareDecoder({cr3: binary}).decode_chunks(cr3s, bodies)
    unresolved = sum(entry.unresolved for entry in entries)
    functions = np.unique(np.concatenate([entry.function_ids for entry in entries]))
    lengths = [len(body) for body in bodies]
    stats = (sum(lengths) // 8 - unresolved, int(functions.size), 0, 0, unresolved)
    return stats, lengths


def resilient_stats(cr3, raw, binary):
    decoded = SoftwareDecoder({cr3: binary}).decode(raw, resilient=True)
    return (len(decoded), len(decoded.function_histogram()), decoded.resyncs,
            decoded.bytes_skipped, decoded.unresolved)


class TestUploadStats:
    @given(specs=chunk_specs)
    @settings(max_examples=150, deadline=None)
    @example(specs=[("own", 0, 0, False)])
    @example(specs=[("foreign", 5, 3, True)])
    @example(specs=[("unknown", 7, 12, True), ("own", 9, 0, True)])
    def test_one_pass_matches_per_chunk_oracle(self, tiny_path, specs):
        raw = slot_upload(tiny_path, specs)
        binary = tiny_path.binary
        *stats, lengths = upload_stats(OWN_CR3, raw, binary)
        expected, expected_lengths = chunk_oracle(OWN_CR3, raw, binary)
        assert tuple(stats) == expected
        assert lengths.dtype == np.int64
        assert lengths.tolist() == expected_lengths
        # the own-CR3 rule: foreign and unknown-address records never resolve
        assert stats[4] == sum(
            count for kind, _start, count, _ovf in specs if kind != "own"
        )
        assert tuple(stats) == resilient_stats(OWN_CR3, raw, binary)

    def test_bad_record_framing_takes_resilient_path(self, tiny_path, tiny_binary):
        raw = slot_upload(tiny_path, [("own", 0, 6, False), ("own", 20, 4, True)])
        # an odd TNT byte in the first record: the chunk plan is canonical,
        # the record framing is not
        corrupt = raw[:32] + bytes([raw[32] | 1]) + raw[33:]
        assert split_canonical_stream(corrupt) is None
        *stats, lengths = upload_stats(OWN_CR3, corrupt, tiny_binary)
        assert lengths is None
        assert tuple(stats) == resilient_stats(OWN_CR3, corrupt, tiny_binary)

    def test_bad_header_byte_takes_resilient_path(self, tiny_path, tiny_binary):
        raw = slot_upload(tiny_path, [("own", 0, 6, False), ("own", 20, 4, False)])
        corrupt = raw[:16] + b"\x00" + raw[17:]  # the first TSC opcode
        *stats, lengths = upload_stats(OWN_CR3, corrupt, tiny_binary)
        assert lengths is None
        assert tuple(stats) == resilient_stats(OWN_CR3, corrupt, tiny_binary)
        assert stats[2] == 1  # resynchronized at the second chunk

    def test_truncated_chunk_takes_resilient_path(self, tiny_path, tiny_binary):
        raw = slot_upload(tiny_path, [("own", 0, 6, False), ("own", 20, 4, False)])
        truncated = raw[:-3]
        *stats, lengths = upload_stats(OWN_CR3, truncated, tiny_binary)
        assert lengths is None
        assert tuple(stats) == resilient_stats(OWN_CR3, truncated, tiny_binary)
        assert stats[3] > 0

    def test_empty_upload(self, tiny_binary):
        assert upload_stats(OWN_CR3, b"", tiny_binary) == (0, 0, 0, 0, 0, None)

    def test_reconcile_stats_are_pinned(self):
        # blake2b of every upload_stats tuple and chunk_lengths over the
        # uploads of a fault-free 2-node reconcile, each decoded against
        # both pods' CR3s, whole and with its last three bytes cut;
        # recorded with the per-chunk decode (one decode_chunks entry per
        # chunk through the decode cache)
        reset_identity_counters()
        master = ClusterMaster(seed=3)
        master.add_nodes(2, base_seed=20)
        master.deploy("Search1", replicas=2)
        task = master.submit(TraceTaskSpec(
            app="Search1", reason=TraceReason.ANOMALY, period_ns=40 * MSEC
        ))
        master.reconcile(task)
        assert task.status.phase is TaskPhase.COMPLETE
        pods = {pod.uid: pod for pod in master.deployments["Search1"].pods}
        uploads = [
            (pods[key.rsplit("/", 1)[1]].process.cr3, master.object_store.get(key))
            for key in task.status.trace_keys
        ]
        binary = get_workload("Search1").binary()
        digest = hashlib.blake2b(digest_size=16)
        rows = []
        for _own, raw in uploads:
            for variant in (raw, raw[:-3]):
                for cr3, _raw in uploads:
                    *stats, lengths = upload_stats(cr3, variant, binary)
                    rows.append(tuple(stats))
                    digest.update(repr(tuple(stats)).encode())
                    digest.update(
                        b"none" if lengths is None else lengths.astype("<i8").tobytes()
                    )
        assert rows == [
            (4007, 79, 0, 0, 0), (0, 0, 0, 0, 4007),
            (4007, 79, 1, 5, 0), (0, 0, 1, 5, 4007),
            (0, 0, 0, 0, 4003), (4003, 79, 0, 0, 0),
            (0, 0, 1, 5, 4003), (4003, 79, 1, 5, 0),
        ]
        assert digest.hexdigest() == "f1d5f3098322de7f375a20c6650c7faf"


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
        from repro.cluster.master import ClusterMaster
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
            streaming=streaming,
            restart_crashed_nodes=False,
        )
        return task

    def test_batch_reconcile_leaves_stream_unset(self):
        task = self._reconcile(streaming=False)
        assert task.status.stream is None

    def test_stream_accounting_on_status(self):
        task = self._reconcile()
        assert task.status.stream["uploads"] == task.status.sessions_completed
        # golden: recorded with the per-chunk pace/admit implementation;
        # the default queue fills past its high watermark on this load
        assert task.status.stream == {
            "uploads": 2,
            "empty_uploads": 0,
            "chunks": 43964,
            "chunk_bytes": 402040,
            "batches": 687,
            "unresolved_records": 0,
            "dead_letters": 0,
            "dead_letters_replayed": 0,
            "dead_letter_bytes": 0,
            "dead_letter_rate": 0.0,
            "max_queue_depth": 48,
            "backpressure_engagements": 249,
            "credit_waits": 0,
            "throttled_ns": 24900000,
            "p99_lag_ns": 110989,
            "max_lag_ns": 114400,
            "makespan_ns": 112933680,
        }

    def test_chaos_uploads_quarantine_and_replay(self):
        task = self._reconcile(faults="chaos")
        stream = task.status.stream
        assert stream is not None
        # the chaos preset corrupts uploads: they count as dead letters,
        # decode resiliently in their slots, and still account their loss
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

    def test_foreign_cr3_chunk_decodes_like_batch(self):
        # a canonical upload holding one chunk of another process: the
        # streaming submit must keep the own-CR3 rule of the batch decode
        workload = get_workload("Search1")
        binary = workload.binary()
        raw = encode_trace([
            make_segment(workload.path_model(), cr3=0x1000, e1=50),
            make_segment(workload.path_model(), cr3=0x9999000, e1=40),
        ])

        class Outcome:
            slot = 0
            cr3 = 0x1000
            label = "n/a"

        outcome = Outcome()
        outcome.raw = raw
        ingestor = StreamingIngestor(app="Search1", binary=binary)
        ingestor.submit(outcome)
        stats = ingestor.finish()
        session = (outcome.records, outcome.functions, outcome.resyncs,
                   outcome.bytes_skipped)
        assert session == upload_stats(0x1000, raw, binary)[:4]
        assert session == (50, 4, 0, 0)
        assert stats.unresolved_records == 40
