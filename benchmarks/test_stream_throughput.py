"""Streaming ingestion benchmark (reconcile decode vs whole-stream decode).

Measurements recorded to ``BENCH_stream.json`` (uniform schema via
:mod:`repro.util.bench`):

* **sustained decode throughput, streaming vs batch** — the same
  harvested upload set decoded repeatedly (steady state) through the
  whole-stream ``SoftwareDecoder.decode`` with a warm ``DecodeCache``
  attached, and through :func:`~repro.streaming.pipeline.upload_stats`,
  the one decode every reconcile slot runs (streaming or not), which
  resolves each upload in one pass and consults no cache.  The
  streaming/batch ratio is asserted ``>= 0.9`` directly — the stats
  decode must keep up with the whole-stream one.
* **full-pipeline sustained ingest** — chunks/s and MB/s through the
  complete :class:`StreamingIngestor` (``submit`` decodes each upload
  with ``upload_stats``, then paces its chunk lengths through the
  virtual queue under credit-based backpressure, accounting included),
  plus the deterministic p99 queue lag, max occupancy, and backpressure
  engagement count the virtual simulation reports.
* **dead-letter rate under chaos** — a chaos-preset streaming reconcile:
  corrupt uploads must quarantine, replay, and the streaming end state
  must stay byte-identical to batch and across jobs widths.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import emit
from repro.cluster import ClusterMaster, TraceTaskSpec
from repro.cluster.node import ClusterNode
from repro.core.config import TraceReason
from repro.experiments.scenarios import run_chaos_scenario
from repro.faults.plan import FaultPlan
from repro.hwtrace.cache import DecodeCache
from repro.hwtrace.decoder import SoftwareDecoder, split_canonical_stream
from repro.parallel.workers import shutdown_process_pool
from repro.streaming import StreamingIngestor
from repro.streaming.pipeline import QUEUE_CAPACITY, upload_stats
from repro.util.bench import write_bench
from repro.util.identity import reset_identity_counters
from repro.util.units import MSEC

REPO_ROOT = Path(__file__).resolve().parent.parent

HARVEST_NODES = 3
PERIOD_MS = 120
#: replications of the harvested upload set per timed pass (steady state)
REPLICATIONS = 12
TIMING_PASSES = 3
#: streaming decode must keep at least this fraction of batch throughput
MIN_DECODE_RATIO = 0.9
#: deterministic virtual-time p99 queue lag budget (pipeline constants)
MAX_P99_LAG_NS = 1_000_000


class _FakeOutcome:
    """Minimal stand-in for a completed SlotOutcome (bench producer)."""

    def __init__(self, slot: int, cr3: int, raw: bytes):
        self.slot = slot
        self.cr3 = cr3
        self.raw = raw
        self.label = f"bench/{slot}"
        self.records = self.functions = 0
        self.resyncs = self.bytes_skipped = 0


def _harvest_uploads():
    """Real trace uploads from one fault-free reconcile (raw bytes kept)."""
    reset_identity_counters()
    master = ClusterMaster(seed=17)
    for index in range(HARVEST_NODES):
        master.add_node(ClusterNode(f"node-{index:02d}", seed=1_700 + index))
    master.deploy("Search1", replicas=HARVEST_NODES)
    task = master.submit(TraceTaskSpec(
        app="Search1",
        reason=TraceReason.ANOMALY,
        period_ns=PERIOD_MS * MSEC,
    ))
    master.reconcile(task)
    binary = master.binary_repository.fetch("Search1")
    raws = [master.object_store.get(key) for key in task.status.trace_keys]
    cr3s = [split_canonical_stream(raw)[0][0] for raw in raws]
    return binary, list(zip(cr3s, raws))


def _best_of(fn) -> float:
    """Minimum wall clock over the timing passes (noise floor)."""
    best = float("inf")
    for _ in range(TIMING_PASSES):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _canonical_fingerprint(run: dict) -> str:
    """JSON fingerprint with the deliberately-varying jobs field zeroed."""
    run = dict(run)
    run["jobs"] = 0
    return json.dumps(run, sort_keys=True)


def test_stream_throughput():
    shutdown_process_pool()

    binary, uploads = _harvest_uploads()
    upload_bytes = sum(len(raw) for _cr3, raw in uploads)
    total_bytes = upload_bytes * REPLICATIONS
    total_mb = total_bytes / 1e6

    # -- batch whole-stream decode, cached steady state ------------------------
    batch_decoder = SoftwareDecoder({}, cache=DecodeCache())
    for cr3, _raw in uploads:
        batch_decoder.add_binary(cr3, binary)

    def batch_pass():
        for _cr3, raw in uploads:
            for _ in range(REPLICATIONS):
                batch_decoder.decode(raw, resilient=True)

    batch_pass()  # warm the cache: the sustained regime is cache-hit decode
    batch_s = _best_of(batch_pass)
    batch_mb_s = total_mb / batch_s
    emit(f"batch decode (cached, sustained):  {batch_mb_s:7.1f} MB/s")

    # -- reconcile stats decode (upload_stats), one pass per upload -----------
    chunk_count = REPLICATIONS * sum(
        len(split_canonical_stream(raw)) for _cr3, raw in uploads
    )

    def stats_pass():
        for cr3, raw in uploads:
            for _ in range(REPLICATIONS):
                upload_stats(cr3, raw, binary)

    stats_pass()
    stream_decode_s = _best_of(stats_pass)
    stream_decode_mb_s = total_mb / stream_decode_s
    decode_ratio = stream_decode_mb_s / batch_mb_s
    emit(
        f"stream decode (one pass, sustained): {stream_decode_mb_s:5.1f} MB/s "
        f"({decode_ratio:.2f}x batch)"
    )
    assert decode_ratio >= MIN_DECODE_RATIO, (
        f"upload_stats decode fell to {decode_ratio:.2f}x of batch "
        f"(floor {MIN_DECODE_RATIO}x)"
    )

    # -- full pipeline: decode + pacing + queue simulation + accounting --------
    def ingest_pass():
        ingestor = StreamingIngestor(app="Search1", binary=binary)
        slot = 0
        for _ in range(REPLICATIONS):
            for cr3, raw in uploads:
                ingestor.submit(_FakeOutcome(slot, cr3, raw))
                slot += 1
        return ingestor.finish()

    stats = ingest_pass()  # warm pass also supplies the deterministic stats
    assert stats.chunks == chunk_count
    assert stats.dead_letters == 0
    ingest_s = _best_of(ingest_pass)
    chunks_per_s = chunk_count / ingest_s
    ingest_mb_s = total_mb / ingest_s
    emit(
        f"full-pipeline ingest:              {ingest_mb_s:7.1f} MB/s "
        f"({chunks_per_s:,.0f} chunks/s)"
    )
    emit(
        f"virtual queue: p99 lag {stats.p99_lag_ns / 1e3:.1f}us, "
        f"depth<={stats.max_queue_depth}, "
        f"{stats.backpressure_engagements} backpressure engagements, "
        f"{stats.credit_waits} credit waits"
    )
    # lag comes from the virtual-time simulation: deterministic, bounded
    assert stats.p99_lag_ns <= MAX_P99_LAG_NS
    assert stats.max_queue_depth <= QUEUE_CAPACITY
    assert stats.backpressure_engagements > 0

    # -- dead-letter rate under the chaos preset -------------------------------
    reset_identity_counters()
    chaos_master = ClusterMaster(seed=11)
    for index in range(2):
        chaos_master.add_node(ClusterNode(f"node-{index:02d}", seed=1_100 + index))
    chaos_master.deploy("Search1", replicas=2)
    chaos_task = chaos_master.submit(
        TraceTaskSpec(app="Search1", reason=TraceReason.ANOMALY)
    )
    chaos_master.reconcile(
        chaos_task,
        faults=FaultPlan.parse("chaos", seed=0),
        streaming=True,
        restart_crashed_nodes=False,
    )
    stream_status = chaos_task.status.stream
    assert stream_status is not None
    assert stream_status["dead_letters"] > 0
    assert stream_status["dead_letters_replayed"] == stream_status["dead_letters"]
    emit(
        f"chaos quarantine: {stream_status['dead_letters']} dead-lettered / "
        f"{stream_status['uploads']} uploads "
        f"(rate {stream_status['dead_letter_rate']:.2f}, all replayed)"
    )

    # -- end-state parity: streaming == batch, and across jobs widths ----------
    batch_run = run_chaos_scenario(faults="chaos", fault_seed=3)
    stream_run = run_chaos_scenario(faults="chaos", fault_seed=3, streaming=True)
    parity = (
        _canonical_fingerprint(batch_run) == _canonical_fingerprint(stream_run)
    )
    assert parity, "streaming chaos reconcile diverged from batch"
    jobs_one = run_chaos_scenario(faults="chaos", fault_seed=0, streaming=True,
                                  jobs=1)
    jobs_two = run_chaos_scenario(faults="chaos", fault_seed=0, streaming=True,
                                  jobs=2)
    shutdown_process_pool()
    jobs_parity = (
        _canonical_fingerprint(jobs_one) == _canonical_fingerprint(jobs_two)
    )
    assert jobs_parity, "streaming jobs=1 and jobs=2 diverged"
    emit("parity: streaming == batch, jobs=1 == jobs=2 (chaos preset)")

    metrics = {
        "uploads": len(uploads),
        "replications": REPLICATIONS,
        "upload_bytes": upload_bytes,
        "chunks_per_pass": chunk_count,
        "batch_decode_mb_s": round(batch_mb_s, 1),
        "stream_decode_mb_s": round(stream_decode_mb_s, 1),
        "stream_vs_batch_decode_ratio": round(decode_ratio, 3),
        "stream_ingest_mb_s": round(ingest_mb_s, 1),
        "stream_chunks_per_s": round(chunks_per_s, 0),
        "p99_queue_lag_ms": round(stats.p99_lag_ns / 1e6, 4),
        "max_queue_depth": stats.max_queue_depth,
        "backpressure_engagements": stats.backpressure_engagements,
        "credit_waits": stats.credit_waits,
        "chaos_dead_letter_rate": round(stream_status["dead_letter_rate"], 3),
        "chaos_dead_letters": stream_status["dead_letters"],
        "chaos_dead_letters_replayed": stream_status["dead_letters_replayed"],
        "parity_identical": parity,
        "parity_jobs_identical": jobs_parity,
        "cpu_count": os.cpu_count(),
    }
    write_bench(REPO_ROOT / "BENCH_stream.json", "stream_throughput", metrics)

    emit("Streaming ingestion pipeline")
