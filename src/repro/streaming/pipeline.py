"""The streaming ingestion pipeline: pacing and dead-letter accounting.

Every reconcile decodes a slot's upload where the bytes are — inside the
slot, through :func:`upload_stats` — and :class:`StreamingIngestor` is
the online view of those uploads.  Completed slots enter it as their
round finishes; each canonical upload's PSB-chunk lengths are paced as
a whole through a bounded virtual-time queue under credit-based
backpressure (:class:`~repro.streaming.queue.VirtualDecodeQueue`), and
non-canonical uploads (corrupt, truncated, foreign framing) are counted
as dead letters.  A dead letter needs no replay: its slot already ran
the resilient decode, so every one counts as replayed.

Determinism contract — the property everything here is built around:

* **End-state parity with batch.**  There is one stats decoder,
  :func:`upload_stats`, so a streaming reconcile's ``(records,
  functions, resyncs, bytes_skipped)`` per upload are the batch
  reconcile's by construction; the ingestor only adds
  ``TraceTaskStatus.stream``.
* **Width independence.**  Queue lag, backpressure engagements, and
  occupancy come from the virtual-time simulation (fixed
  :data:`VIRTUAL_CONSUMERS`, integer ns) over chunk lengths, never from
  wall clocks or the worker count, so streaming stats are identical
  across ``--jobs`` widths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.hwtrace.decoder import SoftwareDecoder, _canonical_split
from repro.streaming.queue import VirtualDecodeQueue
from repro.util.stats import percentile

# Pipeline constants, all virtual-time.  VIRTUAL_CONSUMERS is
# deliberately fixed rather than the pool width: it parameterizes the
# deterministic queue simulation, which must not vary with ``--jobs``.

#: bounded queue size — the producer's total credit pool
QUEUE_CAPACITY = 64
#: occupancy at which backpressure engages
HIGH_WATERMARK = 48
#: occupancy at which engaged backpressure releases
LOW_WATERMARK = 16
#: simulated decode workers draining the virtual queue
VIRTUAL_CONSUMERS = 4
#: producer gap between consecutive chunk enqueues
ENQUEUE_GAP_NS = 2_000
#: fixed per-chunk decode cost in the simulation
CHUNK_OVERHEAD_NS = 10_000
#: marginal decode cost per body byte in the simulation
DECODE_NS_PER_BYTE = 30
#: producer delay per enqueue while backpressure is engaged
STALL_NS = 50_000
#: stream-accounting batch size (``StreamStats.batches`` counts them)
BATCH_CHUNKS = 64


def upload_stats(
    cr3: int, raw: bytes, binary
) -> Tuple[int, int, int, int, int, Optional[np.ndarray]]:
    """Session stats of one whole upload — the only reconcile decode.

    Returns ``(records, functions, resyncs, bytes_skipped, unresolved,
    chunk_lengths)``.  The decoder maps exactly the upload's own CR3 —
    the binary is fetched keyed by the traced process (§4) — so a foreign
    CR3 chunk or a corrupted PIP byte can never land on another pod's
    mapping, and the result depends on the bytes alone: not on which
    uploads the process decoded before, nor on the worker it ran in.

    A canonical upload resolves in one vectorized pass: its record words
    are gathered at once and every address is looked up with one binary
    search.  A canonical stream has no resyncs or skipped bytes, and
    ``chunk_lengths`` holds the int64 body length of every PSB chunk.
    No decode cache is consulted: real uploads are thousands of chunks of
    about one event each, so a per-chunk lookup costs more than it saves.
    Anything else takes the resilient whole-stream decode, with
    ``chunk_lengths`` ``None``.
    """
    decoder = SoftwareDecoder({cr3: binary})
    split = _canonical_split(raw)
    if split is None:
        decoded = decoder.decode(raw, resilient=True)
        return (
            len(decoded),
            len(decoded.function_histogram()),
            decoded.resyncs,
            decoded.bytes_skipped,
            decoded.unresolved,
            None,
        )
    plan, words = split
    _block_ids, function_ids, _kept, unresolved = decoder._resolve_records(plan, words)
    functions = np.unique(function_ids).size
    return (words.size - unresolved, functions, 0, 0, unresolved, plan.body_lengths)


@dataclass
class StreamStats:
    """End-of-ingest accounting (virtual-time, width-independent)."""

    uploads: int = 0
    empty_uploads: int = 0
    chunks: int = 0
    chunk_bytes: int = 0
    batches: int = 0
    unresolved_records: int = 0
    dead_letters: int = 0
    dead_letters_replayed: int = 0
    dead_letter_bytes: int = 0
    max_queue_depth: int = 0
    backpressure_engagements: int = 0
    credit_waits: int = 0
    throttled_ns: int = 0
    p99_lag_ns: int = 0
    max_lag_ns: int = 0
    makespan_ns: int = 0

    @property
    def dead_letter_rate(self) -> float:
        """Fraction of uploads counted as dead letters."""
        return self.dead_letters / self.uploads if self.uploads else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (stored on ``TraceTaskStatus.stream``)."""
        return {
            "uploads": self.uploads,
            "empty_uploads": self.empty_uploads,
            "chunks": self.chunks,
            "chunk_bytes": self.chunk_bytes,
            "batches": self.batches,
            "unresolved_records": self.unresolved_records,
            "dead_letters": self.dead_letters,
            "dead_letters_replayed": self.dead_letters_replayed,
            "dead_letter_bytes": self.dead_letter_bytes,
            "dead_letter_rate": self.dead_letter_rate,
            "max_queue_depth": self.max_queue_depth,
            "backpressure_engagements": self.backpressure_engagements,
            "credit_waits": self.credit_waits,
            "throttled_ns": self.throttled_ns,
            "p99_lag_ns": self.p99_lag_ns,
            "max_lag_ns": self.max_lag_ns,
            "makespan_ns": self.makespan_ns,
        }


class StreamingIngestor:
    """Online pacing and dead-letter accounting of completed slots.

    Lifecycle: construct per reconcile, hand over each completed slot
    outcome *in slot order* as its round finishes, then ``finish()`` —
    which closes the accounting and returns the :class:`StreamStats`.

    :meth:`ingest` takes an outcome its slot already decoded (what the
    reconcile does); :meth:`submit` first decodes a raw outcome in place
    with :func:`upload_stats` against ``binary``.  ``decode_cache`` is
    accepted for existing callers and ignored: :func:`upload_stats`
    consults no cache.
    """

    def __init__(self, app: str, binary, decode_cache=None):
        self.app = app
        self._binary = binary
        self.queue = VirtualDecodeQueue(
            consumers=VIRTUAL_CONSUMERS,
            capacity=QUEUE_CAPACITY,
            high_watermark=HIGH_WATERMARK,
            low_watermark=LOW_WATERMARK,
            stall_ns=STALL_NS,
            gap_ns=ENQUEUE_GAP_NS,
        )
        self.stats = StreamStats()
        self._slots: Set[object] = set()
        self._finished = False

    def submit(self, outcome) -> None:
        """Decode one completed slot outcome's raw upload, then ingest it.

        ``outcome`` is a :class:`~repro.cluster.master.SlotOutcome` (or
        anything exposing ``slot``, ``cr3`` and ``raw``); its
        ``records`` / ``functions`` / ``resyncs`` / ``bytes_skipped`` /
        ``unresolved`` / ``chunk_lengths`` are written in place with
        exactly the values a batch reconcile computes.
        """
        self._admit(outcome)
        (
            outcome.records,
            outcome.functions,
            outcome.resyncs,
            outcome.bytes_skipped,
            outcome.unresolved,
            outcome.chunk_lengths,
        ) = upload_stats(outcome.cr3, outcome.raw, self._binary)
        self._pace(outcome)

    def ingest(self, outcome) -> None:
        """Account one outcome its slot already decoded.

        A canonical upload's ``chunk_lengths`` are paced as a whole
        through the virtual queue; ``None`` marks a non-canonical upload,
        which counts as a dead letter.
        """
        self._admit(outcome)
        self._pace(outcome)

    def _admit(self, outcome) -> None:
        if self._finished:
            raise RuntimeError("ingestor already finished")
        if outcome.slot in self._slots:
            raise ValueError(f"duplicate slot {outcome.slot!r} submitted")
        self._slots.add(outcome.slot)

    def _pace(self, outcome) -> None:
        stats = self.stats
        stats.uploads += 1
        raw = outcome.raw
        if not raw:
            stats.empty_uploads += 1
            return
        lengths = outcome.chunk_lengths
        if lengths is None:
            stats.dead_letters += 1
            stats.dead_letter_bytes += len(raw)
            return
        self.queue.enqueue(
            (lengths * DECODE_NS_PER_BYTE + CHUNK_OVERHEAD_NS).tolist()
        )
        stats.chunks += len(lengths)
        stats.chunk_bytes += int(lengths.sum())
        stats.unresolved_records += outcome.unresolved

    def finish(self) -> StreamStats:
        """Close the accounting and return the final stats (idempotent).

        Every dead letter counts as replayed: its slot already ran the
        resilient decode, so its stats are in hand.
        """
        if self._finished:
            return self.stats
        self._finished = True
        stats = self.stats
        stats.batches = -(-stats.chunks // BATCH_CHUNKS)
        stats.dead_letters_replayed = stats.dead_letters
        queue = self.queue
        stats.max_queue_depth = queue.max_depth
        stats.backpressure_engagements = queue.engagements
        stats.credit_waits = queue.credit_waits
        stats.throttled_ns = queue.throttled_ns
        stats.makespan_ns = queue.makespan_ns
        if queue.lags:
            stats.p99_lag_ns = int(percentile(queue.lags, 99.0))
            stats.max_lag_ns = int(max(queue.lags))
        return stats
