"""Repetition-aware decode cache (the RCO observation applied to decode).

EXIST's RCO (§3.4) rests on the fact that replicas of one service run the
*same binary* and therefore produce heavily repeated control-flow.  The
encoded consequence is visible at the byte level: every trace segment
serializes as ``PSB TSC PIP (TNT TIP)* [OVF]``, and sibling repetitions
(and repeated tracing waves of the same app) emit segments whose *event
bodies* are identical — only the ``TSC`` timestamp and ``PIP`` CR3 in the
32-byte header differ.  Decoding such a stream from scratch re-resolves
the same addresses against the same binary over and over.

:class:`DecodeCache` removes that redundancy.  It is content-addressed:
the key of one PSB-aligned chunk is ``(binary fingerprint for the
chunk's CR3, body bytes)`` where the body is everything after the 32-byte
``PSB TSC PIP`` header.  The cached value is the chunk's reconstruction
result with the context stripped out — resolved block ids, function ids,
and the unresolved count — which the cached decode path re-bases onto
each chunk's own timestamp and CR3.  Identical segments therefore decode
once per cache lifetime, no matter which replica, wave, or campaign they
came from.

Correctness contract: the cached path is byte-identical to the uncached
one.  It only engages for *fully canonical* streams (every chunk is
``PSB TSC PIP`` + well-formed event records + optional trailing ``OVF``
— exactly what :func:`repro.hwtrace.decoder.encode_trace` emits); any
deviation (corruption, truncation, hand-built packet mixes, bytes before
the first PSB) makes the decoder fall back to the ordinary full-stream
scan, so error offsets, resynchronization counts, and PTWRITE handling
are those of the uncached implementation by construction.

Invalidation is structural, not temporal: the per-CR3 binary fingerprint
participates in every key, so replacing the binary mapped at a CR3
changes the key and old entries simply stop matching (and age out of the
LRU).  Entries are evicted least-recently-used under a ``max_bytes``
budget.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict, deque
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: sentinel fingerprint for CR3s with no registered binary; every TIP in
#: such a chunk is unresolved, which depends only on the body content
UNKNOWN_BINARY_FP = b"\x00<unknown-binary>"

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: the body half of a ``(fingerprint, body)`` cache key
_BODY = itemgetter(1)


def binary_fingerprint(binary) -> bytes:
    """Content fingerprint of a :class:`~repro.program.binary.Binary`.

    Hashes the decode-relevant content — name, base address, block start
    addresses, and per-block function ids — so two binaries that resolve
    TIP addresses identically share a fingerprint and regenerated copies
    of the same binary (e.g. in pool workers) hit the same cache entries.
    The digest is memoized on the instance.
    """
    cached = getattr(binary, "_decode_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(digest_size=16)
    digest.update(binary.name.encode())
    digest.update(int(binary.base_address).to_bytes(8, "little"))
    digest.update(np.ascontiguousarray(binary.block_addresses).tobytes())
    digest.update(np.ascontiguousarray(binary.block_function_ids).tobytes())
    fingerprint = digest.digest()
    binary._decode_fingerprint = fingerprint
    return fingerprint


class ChunkEntry:
    """Cached reconstruction of one chunk body (context-free).

    ``block_ids`` / ``function_ids`` hold only the *resolved* records (in
    body order); ``unresolved`` counts the dropped ones; ``n_records`` is
    the body's total event-record count.  Timestamps and CR3s are not
    stored — they re-base from each matching chunk's own header.
    """

    __slots__ = ("block_ids", "function_ids", "unresolved", "n_records")

    def __init__(
        self,
        block_ids: np.ndarray,
        function_ids: np.ndarray,
        unresolved: int,
        n_records: int,
    ):
        self.block_ids = block_ids
        self.function_ids = function_ids
        self.unresolved = unresolved
        self.n_records = n_records

    @property
    def cost_bytes(self) -> int:
        return int(self.block_ids.nbytes + self.function_ids.nbytes) + 64


class DecodeCache:
    """LRU cache of decoded chunk bodies, keyed on content.

    Keys are ``(binary fingerprint, body bytes)``; values are
    :class:`ChunkEntry` objects.  The cache is safe to share across
    decoders and threads — sharing is the point: one instance (see
    :func:`process_decode_cache`) amortizes decode work across every
    decoder it is attached to.  The reconcile decode
    (:func:`repro.streaming.pipeline.upload_stats`) attaches none.
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        #: least recently used first
        self._entries: "OrderedDict[Tuple[bytes, bytes], ChunkEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0
        #: body bytes served from cache instead of being re-decoded
        self.bytes_saved = 0
        #: body bytes decoded and inserted
        self.bytes_decoded = 0
        #: streams that bypassed the cache (non-canonical / corrupt)
        self.fallbacks = 0

    # -- lookup ------------------------------------------------------------

    def get_or_resolve(
        self,
        keys: Sequence[Tuple[bytes, bytes]],
        resolve: Callable[[List[int]], List[ChunkEntry]],
    ) -> List[ChunkEntry]:
        """Entries for a batch of keys, resolving the misses in one call.

        ``resolve`` receives the positions in ``keys`` of the distinct
        missed keys and returns their entries, which are inserted.  The
        lock is taken once for the whole batch.  Counters equal those of
        looking the keys up one at a time, in order, and inserting each
        miss before the next lookup: a key repeating one that missed
        earlier in the batch is a hit.  Only a batch that overflows the
        byte budget can tell the two apart: its new entries rank as more
        recently used than its hits, and a repeat of an entry too large
        to cache still counts a hit.
        """
        with self._lock:
            table = self._entries
            found: List[Optional[ChunkEntry]] = list(map(table.get, keys))
            missed: Dict[Tuple[bytes, bytes], int] = {}
            if None in found:
                for position, (key, entry) in enumerate(zip(keys, found)):
                    if entry is None and key not in missed:
                        missed[key] = position
                hit_keys = [key for key, entry in zip(keys, found) if entry is not None]
            else:
                hit_keys = keys
            # the common all-hit batch never leaves C: lookups above,
            # recency refresh and byte count here
            deque(map(table.move_to_end, hit_keys), maxlen=0)
            self.hits += len(keys) - len(missed)
            self.bytes_saved += sum(map(len, map(_BODY, keys))) - sum(
                map(len, map(_BODY, missed))
            )
            if missed:
                self.misses += len(missed)
                positions = list(missed.values())
                for key, position, entry in zip(missed, positions, resolve(positions)):
                    found[position] = entry
                    cost = entry.cost_bytes + len(key[1])
                    if cost > self.max_bytes:
                        continue  # larger than the whole budget: not worth caching
                    table[key] = entry
                    self.current_bytes += cost
                    self.insertions += 1
                    self.bytes_decoded += len(key[1])
                    while self.current_bytes > self.max_bytes:
                        evicted_key, evicted = table.popitem(last=False)
                        self.current_bytes -= evicted.cost_bytes + len(evicted_key[1])
                        self.evictions += 1
                for position, key in enumerate(keys):
                    if found[position] is None:
                        found[position] = found[missed[key]]
        return found  # type: ignore[return-value]

    def note_fallback(self) -> None:
        """Record one stream that had to bypass the cached path."""
        with self._lock:
            self.fallbacks += 1

    # -- bookkeeping -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """Flat, JSON-friendly statistics snapshot."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "current_bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": round(self.hit_rate, 4),
                "evictions": self.evictions,
                "insertions": self.insertions,
                "bytes_saved": self.bytes_saved,
                "bytes_decoded": self.bytes_decoded,
                "fallbacks": self.fallbacks,
            }

    def clear(self) -> None:
        """Drop all entries and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0
            self.hits = self.misses = self.evictions = 0
            self.insertions = self.bytes_saved = self.bytes_decoded = 0
            self.fallbacks = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecodeCache(entries={len(self._entries)}, "
            f"bytes={self.current_bytes}/{self.max_bytes}, "
            f"hits={self.hits}, misses={self.misses})"
        )


#: the process-wide cache, for decoders that share one
_PROCESS_CACHE: Optional[DecodeCache] = None


def process_decode_cache() -> DecodeCache:
    """The process-wide shared decode cache (created on first use)."""
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = DecodeCache()
    return _PROCESS_CACHE


# ---------------------------------------------------------------------------
# canonical chunk analysis (vectorized)
# ---------------------------------------------------------------------------

#: byte layout of a canonical chunk header: PSB(16) TSC(1+7) PIP(2+6)
CHUNK_HEADER_BYTES = 32
_TSC_OFF = 16
_PIP_OFF = 24


class ChunkPlan:
    """PSB-aligned split of one stream, with vectorized header analysis.

    ``starts``/``ends`` delimit each chunk; ``canonical_headers`` marks
    chunks opening with the exact ``PSB TSC PIP`` header, whose timestamp
    and CR3 are pre-extracted into ``times``/``cr3s`` (event-record
    validation is the decoder's job).
    """

    __slots__ = (
        "starts", "ends", "canonical_headers", "times", "cr3s", "tail_ovf"
    )

    def __init__(self, starts, ends, canonical_headers, times, cr3s, tail_ovf):
        self.starts = starts
        self.ends = ends
        self.canonical_headers = canonical_headers
        self.times = times
        self.cr3s = cr3s
        #: chunk closes with an OVF marker (counts one overflow)
        self.tail_ovf = tail_ovf

    def __len__(self) -> int:
        return int(self.starts.size)

    @property
    def all_canonical(self) -> bool:
        return bool(self.canonical_headers.all())

    @property
    def body_lengths(self) -> np.ndarray:
        """Event-record bytes of each canonical chunk (header and OVF off)."""
        return self.ends - self.starts - CHUNK_HEADER_BYTES - 2 * self.tail_ovf


def find_psb_offsets(data: bytes, psb: bytes) -> np.ndarray:
    """All non-overlapping PSB positions, in ``bytes.find`` order (int64).

    Matches the resynchronization search of the resilient scanner, so the
    chunk boundaries equal the only positions a resync can land on.  A
    PSB is one byte pair repeated (``02 82`` eight times): one numpy mask
    of where the pair sits, ANDed with itself at offsets 2, 4, ... up to
    the PSB's length, marks every position a PSB starts at.  Inside a run
    of more pairs than one PSB those positions overlap; only then does a
    greedy pass keep the leftmost non-overlapping ones, as ``find`` does.
    """
    width = len(psb)
    pair = psb[:2]
    if width < 2 or psb != pair * (width // 2):
        raise ValueError(f"PSB pattern {psb!r} is not a repeated byte pair")
    buf = np.frombuffer(data, dtype=np.uint8)
    positions = buf.size - width + 1
    if positions <= 0:
        return np.empty(0, dtype=np.int64)
    is_pair = (buf[:-1] == pair[0]) & (buf[1:] == pair[1])
    match = is_pair[:positions].copy()
    for offset in range(2, width, 2):
        match &= is_pair[offset : offset + positions]
    starts = np.flatnonzero(match).astype(np.int64, copy=False)
    if starts.size > 1 and (np.diff(starts) < width).any():
        kept = []
        free = 0
        for start in starts.tolist():
            if start >= free:
                kept.append(start)
                free = start + width
        starts = np.array(kept, dtype=np.int64)
    return starts


def _gather_le(buf: np.ndarray, starts: np.ndarray, offset: int, width: int) -> np.ndarray:
    """Little-endian ints of ``width`` bytes at ``starts + offset`` (int64)."""
    out = np.zeros(starts.size, dtype=np.int64)
    for byte_index in range(width):
        out |= buf[starts + (offset + byte_index)].astype(np.int64) << (
            8 * byte_index
        )
    return out


def plan_chunks(data: bytes, buf: np.ndarray, psb: bytes) -> Optional[ChunkPlan]:
    """Split ``data`` on PSB boundaries and analyze chunk headers.

    Returns ``None`` when the stream does not start with a PSB at offset
    zero (the cached path then falls back to the full-stream scan).
    """
    starts = find_psb_offsets(data, psb)
    if not starts.size or starts[0] != 0:
        return None
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = len(data)
    lengths = ends - starts

    n = len(data)
    long_enough = lengths >= CHUNK_HEADER_BYTES
    # clip probe indices so short chunks index safely (masked out anyway)
    tsc_at = np.minimum(starts + _TSC_OFF, n - 1)
    pip_at = np.minimum(starts + _PIP_OFF, n - 2)
    canonical = (
        long_enough
        & (buf[tsc_at] == 0x19)
        & (buf[pip_at] == 0x02)
        & (buf[pip_at + 1] == 0x43)
    )

    body_len = lengths - CHUNK_HEADER_BYTES
    remainder = np.where(canonical, body_len % 8, -1)
    tail_ovf = remainder == 2
    ovf_at = np.maximum(ends - 2, 0)
    tail_ok = tail_ovf & (buf[ovf_at] == 0x02) & (buf[np.minimum(ovf_at + 1, n - 1)] == 0xF3)
    canonical = canonical & ((remainder == 0) | tail_ok)

    # canonical chunks always have 32 in-bounds header bytes; zero the
    # start of non-canonical ones so the masked gather never indexes past
    # the buffer end
    safe_starts = np.where(canonical, starts, 0)
    times = np.where(canonical, _gather_le(buf, safe_starts, _TSC_OFF + 1, 7), 0)
    cr3s = np.where(canonical, _gather_le(buf, safe_starts, _PIP_OFF + 2, 6), 0)
    return ChunkPlan(
        starts=starts,
        ends=ends,
        canonical_headers=canonical,
        times=times,
        cr3s=cr3s,
        tail_ovf=tail_ovf & canonical,
    )
