"""The streaming ingestion pipeline: producers, consumers, accounting.

:class:`StreamingIngestor` is the online counterpart of the batch
reconcile's decode step.  Completed tracing slots *submit* their raw
uploads as they finish; each canonical upload is split into PSB-chunk
work units (:func:`repro.hwtrace.decoder.canonical_chunks`), paced as a
whole through a bounded virtual-time queue under credit-based
backpressure (:class:`~repro.streaming.queue.VirtualDecodeQueue`), and
decoded incrementally in :data:`BATCH_CHUNKS` batches — over the
persistent worker pool when one is available (competing consumers),
in-process otherwise, one batched cache lookup per batch either way.
Non-canonical uploads (corrupt, truncated, foreign framing) are
quarantined in a dead-letter queue and replayed through the resilient
whole-stream decoder at the end.

Determinism contract — the property everything here is built around:

* **End-state parity with batch.**  For every submitted slot outcome the
  ingestor produces exactly the ``(records, functions, resyncs,
  bytes_skipped)`` tuple the batch path's ``decode(raw,
  resilient=True)`` produces for the same bytes.  Canonical uploads
  decode chunk-by-chunk (the per-chunk results aggregate commutatively:
  record counts sum, distinct function ids union), and a canonical
  stream has zero resyncs and skipped bytes by construction; dead-letter
  replays run the *identical* resilient decode call
  (:func:`upload_stats`).  Coverage, degradation reports, and
  decode-loss accounting downstream are therefore byte-identical.
* **Width independence.**  Queue lag, backpressure engagements, and
  occupancy come from the virtual-time simulation (fixed
  :data:`VIRTUAL_CONSUMERS`, integer ns), never from wall clocks or the
  worker count, so streaming stats are identical across ``--jobs``
  widths; real pool dispatch only changes wall-clock speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.hwtrace.cache import process_decode_cache
from repro.hwtrace.decoder import SoftwareDecoder, canonical_chunks
from repro.program.workloads import get_workload
from repro.streaming.deadletter import DeadLetterQueue
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
#: chunk work units dispatched to the real consumers per flush
BATCH_CHUNKS = 64


def upload_stats(cr3: int, raw: bytes, binary, cache) -> Tuple[int, int, int, int]:
    """``(records, functions, resyncs, bytes_skipped)`` of one whole upload.

    The resilient decode every reconcile path runs on a slot's raw bytes.
    The decoder maps exactly the upload's own CR3 — the binary is fetched
    keyed by the traced process (§4) — so a corrupted PIP byte can never
    land on another pod's mapping, and the result depends on the bytes
    alone: not on which uploads the process decoded before, nor on the
    worker a pooled decode ran in.
    """
    decoded = SoftwareDecoder({cr3: binary}, cache=cache).decode(raw, resilient=True)
    return (
        len(decoded),
        len(decoded.function_histogram()),
        decoded.resyncs,
        decoded.bytes_skipped,
    )


def _consume_chunk_batch(payload) -> List[Tuple[object, int, Tuple[int, ...], int]]:
    """Decode one consumer's batch of chunk work units in a pool worker.

    ``payload`` is ``(app, use_cache, items)`` with items
    ``(key, cr3, body)``.  Returns per upload key the kept record
    count, the *distinct* function ids among kept records, and the
    unresolved count — the commutative pieces session stats aggregate
    from, small enough to ride the result pipe.  Chunks of the same key
    fold together here (sums and one dedup per key) so the hot loop
    never pays a per-chunk ``np.unique``.
    """
    app, use_cache, items = payload
    binary = get_workload(app).binary()
    decoder = SoftwareDecoder(
        {cr3: binary for _key, cr3, _body in items},
        cache=process_decode_cache() if use_cache else None,
    )
    entries = decoder.decode_chunks(
        [cr3 for _key, cr3, _body in items], [body for _key, _cr3, body in items]
    )
    records: Dict[object, int] = {}
    functions: Dict[object, List[np.ndarray]] = {}
    unresolved: Dict[object, int] = {}
    for (key, _cr3, _body), entry in zip(items, entries):
        if key in records:
            records[key] += entry.block_ids.size
            unresolved[key] += entry.unresolved
        else:
            records[key] = entry.block_ids.size
            functions[key] = []
            unresolved[key] = entry.unresolved
        if entry.function_ids.size:
            functions[key].append(entry.function_ids)
    return [
        (
            key,
            int(records[key]),
            tuple(
                np.unique(np.concatenate(functions[key])).tolist()
            ) if functions[key] else (),
            unresolved[key],
        )
        for key in records
    ]


def _replay_upload(payload) -> Tuple[int, int, int, int]:
    """Resilient whole-stream decode of one dead-lettered upload.

    ``payload`` is ``(app, use_cache, cr3, raw)``; returns
    :func:`upload_stats` for the same bytes.
    """
    app, use_cache, cr3, raw = payload
    cache = process_decode_cache() if use_cache else None
    return upload_stats(cr3, raw, get_workload(app).binary(), cache)


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
        """Fraction of uploads that hit quarantine."""
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


#: kept-record count of a decoded chunk entry
_KEPT = attrgetter("block_ids.size")
#: function ids of a decoded chunk entry's kept records
_FUNCTIONS = attrgetter("function_ids")
#: unresolved-record count of a decoded chunk entry
_UNRESOLVED = attrgetter("unresolved")


class _SessionAccumulator:
    """Chunk-level stats folding into one upload's session tuple.

    Function-id dedup is deferred to :meth:`as_stats` — the hot path
    only appends the per-chunk id arrays (once per distinct entry of a
    batch), and one ``np.unique`` over their concatenation at finish
    replaces a per-chunk dedup (set union is commutative either way, so
    batch and shard layout still cannot matter).
    """

    __slots__ = ("records", "function_arrays")

    def __init__(self) -> None:
        self.records = 0
        self.function_arrays: List[np.ndarray] = []

    def as_stats(self) -> Tuple[int, int, int, int]:
        # a canonical stream decodes with zero resyncs / skipped bytes
        functions = (
            int(np.unique(np.concatenate(self.function_arrays)).size)
            if self.function_arrays else 0
        )
        return (int(self.records), functions, 0, 0)


class StreamingIngestor:
    """Online decode of completed tracing slots (see module docstring).

    Lifecycle: construct per reconcile, ``submit`` each completed slot
    outcome *in slot order* as its round finishes, then ``finish()`` —
    which flushes pending consumer batches, replays the dead-letter
    quarantine, writes every outcome's session stats in place, and
    returns the :class:`StreamStats`.

    ``pool`` (optional :class:`~repro.parallel.RunPool`) fans consumer
    batches and replays across the persistent workers; pass it only when
    ``binary`` is the app's memoized workload binary (workers regenerate
    it from the fork-inherited cache).  The in-process path decodes with
    ``decode_cache`` attached, mirroring the batch coordinator.
    """

    def __init__(
        self,
        app: str,
        binary,
        decode_cache=None,
        pool=None,
    ):
        self.app = app
        self._binary = binary
        self._use_cache = decode_cache is not None
        self._pool = pool if (pool is not None and pool.parallel) else None
        self._decoder = SoftwareDecoder({}, cache=decode_cache)
        self._known_cr3s: Set[int] = set()
        self.queue = VirtualDecodeQueue(
            consumers=VIRTUAL_CONSUMERS,
            capacity=QUEUE_CAPACITY,
            high_watermark=HIGH_WATERMARK,
            low_watermark=LOW_WATERMARK,
            stall_ns=STALL_NS,
            gap_ns=ENQUEUE_GAP_NS,
        )
        self.dead_letters = DeadLetterQueue()
        self.stats = StreamStats()
        #: chunks awaiting dispatch, as ``(key, cr3s, bodies)`` runs of
        #: one upload each; never more than BATCH_CHUNKS chunks in total
        self._pending: List[Tuple[object, List[int], List[bytes]]] = []
        self._pending_chunks = 0
        self._outcomes: Dict[object, object] = {}
        self._accumulators: Dict[object, _SessionAccumulator] = {}
        self._final: Dict[object, Tuple[int, int, int, int]] = {}
        self._finished = False

    # -- producer side -----------------------------------------------------

    def submit(self, outcome) -> None:
        """Ingest one completed slot outcome's raw upload.

        ``outcome`` is a :class:`~repro.cluster.master.SlotOutcome` (or
        anything exposing ``slot``, ``cr3``, ``label``, ``raw`` and the
        four session-stat fields); its stats are written at
        :meth:`finish`.  The whole upload is paced through the virtual
        queue in one pass, then handed to the consumers in
        :data:`BATCH_CHUNKS` batches, which continue across uploads.
        """
        if self._finished:
            raise RuntimeError("ingestor already finished")
        key = outcome.slot
        if key in self._outcomes:
            raise ValueError(f"duplicate slot {key!r} submitted")
        self._outcomes[key] = outcome
        self.stats.uploads += 1
        raw = outcome.raw
        if not raw:
            self.stats.empty_uploads += 1
            self._final[key] = (0, 0, 0, 0)
            return
        chunks = canonical_chunks(raw)
        if chunks is None:
            self.stats.dead_letters += 1
            self.stats.dead_letter_bytes += len(raw)
            self.dead_letters.quarantine(
                key, raw, f"non-canonical upload from {outcome.label or key}"
            )
            return
        self._accumulators[key] = _SessionAccumulator()
        cr3s, bodies = chunks
        lengths = np.fromiter(map(len, bodies), np.int64, len(bodies))
        self.queue.enqueue(
            (lengths * DECODE_NS_PER_BYTE + CHUNK_OVERHEAD_NS).tolist()
        )
        self.stats.chunks += len(bodies)
        self.stats.chunk_bytes += int(lengths.sum())
        if self._pool is None:
            for cr3 in dict.fromkeys(cr3s):
                if cr3 not in self._known_cr3s:
                    self._decoder.add_binary(cr3, self._binary)
                    self._known_cr3s.add(cr3)
        first = 0
        while first < len(bodies):
            last = min(len(bodies), first + BATCH_CHUNKS - self._pending_chunks)
            self._pending.append((key, cr3s[first:last], bodies[first:last]))
            self._pending_chunks += last - first
            first = last
            if self._pending_chunks == BATCH_CHUNKS:
                self._flush()

    # -- consumer side -----------------------------------------------------

    def _flush(self) -> None:
        """Dispatch the pending chunk batch to the competing consumers."""
        if not self._pending:
            return
        batch = self._pending
        self._pending = []
        self._pending_chunks = 0
        self.stats.batches += 1
        accumulators = self._accumulators
        if self._pool is not None:
            items = [
                (key, cr3, body)
                for key, cr3s, bodies in batch
                for cr3, body in zip(cr3s, bodies)
            ]
            width = min(len(items), self._pool.max_workers)
            shards = [items[offset::width] for offset in range(width)]
            results = [
                result
                for shard_results in self._pool.map(
                    _consume_chunk_batch,
                    [(self.app, self._use_cache, shard) for shard in shards],
                )
                for result in shard_results
            ]
            # aggregation is commutative (sums and distinct-id unions),
            # so shard layout cannot influence the session stats
            for key, kept, function_ids, unresolved in results:
                accumulator = accumulators[key]
                accumulator.records += kept
                if function_ids:
                    accumulator.function_arrays.append(
                        np.asarray(function_ids, dtype=np.int64)
                    )
                self.stats.unresolved_records += unresolved
            return
        cr3s: List[int] = []
        bodies: List[bytes] = []
        for _key, run_cr3s, run_bodies in batch:
            cr3s += run_cr3s
            bodies += run_bodies
        entries = self._decoder.decode_chunks(cr3s, bodies)
        first = 0
        for key, run_cr3s, _run_bodies in batch:
            last = first + len(run_cr3s)
            chunk_entries = entries[first:last]
            accumulator = accumulators[key]
            accumulator.records += sum(map(_KEPT, chunk_entries))
            # cached entries repeat: one id array per distinct entry
            accumulator.function_arrays.extend(
                map(_FUNCTIONS, dict.fromkeys(chunk_entries))
            )
            first = last
        self.stats.unresolved_records += sum(map(_UNRESOLVED, entries))

    def _replay_dead_letters(self) -> None:
        """Resilient-decode quarantined uploads and record their stats."""
        entries = self.dead_letters.entries
        if not entries:
            return
        results_by_key: Dict[object, Tuple[int, int, int, int]] = {}
        if self._pool is not None:
            payloads = [
                (self.app, self._use_cache, self._outcomes[e.key].cr3, e.payload)
                for e in entries
            ]
            for entry, result in zip(
                entries, self._pool.map(_replay_upload, payloads)
            ):
                results_by_key[entry.key] = tuple(result)
        else:
            for entry in entries:
                results_by_key[entry.key] = upload_stats(
                    self._outcomes[entry.key].cr3,
                    entry.payload,
                    self._binary,
                    self._decoder.cache,
                )
        for entry, result in self.dead_letters.replay(
            lambda e: results_by_key.get(e.key)
        ):
            self._final[entry.key] = result
            self.stats.dead_letters_replayed += 1

    # -- completion --------------------------------------------------------

    def finish(self) -> StreamStats:
        """Flush, replay quarantine, write outcome stats, return stats.

        Every submitted outcome's ``records`` / ``functions`` /
        ``resyncs`` / ``bytes_skipped`` fields are written in place with
        exactly the values the batch decode path computes, so the
        reconcile's upload/accounting loop runs unchanged afterwards.
        Idempotent.
        """
        if self._finished:
            return self.stats
        self._finished = True
        self._flush()
        self._replay_dead_letters()
        for key, accumulator in self._accumulators.items():
            self._final[key] = accumulator.as_stats()
        for key, outcome in self._outcomes.items():
            (
                outcome.records,
                outcome.functions,
                outcome.resyncs,
                outcome.bytes_skipped,
            ) = self._final[key]
        stats = self.stats
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
