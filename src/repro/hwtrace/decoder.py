"""Software trace decoder (the libipt stand-in).

Two halves:

* :func:`encode_trace` — serialize captured :class:`TraceSegment`s into a
  binary packet stream (what the hardware would have written to memory
  and the facility uploaded to object storage);
* :class:`SoftwareDecoder` — parse that stream back and reconstruct the
  control flow against the program binaries, producing a
  :class:`DecodedTrace` (timestamped block executions attributed to a
  process via PIP/CR3).

The round trip is genuine: the decoder sees only bytes and binaries.
:meth:`SoftwareDecoder.decode` is one pipeline.  A fully canonical upload
(everything :func:`encode_trace` emits) needs no packet scan: each PSB
chunk's timestamp and CR3 sit in its header, so its 8-byte event records
resolve in bulk — all at once, or as one batch of chunk bodies through a
:class:`~repro.hwtrace.cache.DecodeCache`.  Anything else takes the
columnar packet scan (:mod:`repro.hwtrace.codec`) and a TSC/PIP
forward-fill.  Every route resolves TIP addresses with one group-by-CR3
binary search; :meth:`SoftwareDecoder.decode_objects` keeps the
per-packet reference the equality tests compare against.
"""

from __future__ import annotations

from itertools import accumulate, compress, repeat
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.hwtrace.cache import (
    CHUNK_HEADER_BYTES,
    UNKNOWN_BINARY_FP,
    ChunkEntry,
    ChunkPlan,
    DecodeCache,
    binary_fingerprint,
    plan_chunks,
)
from repro.hwtrace.codec import (
    KIND_OVF,
    KIND_PIP,
    KIND_PTW,
    KIND_TIP,
    KIND_TNT,
    KIND_TSC,
    ScannedStream,
    scan_stream,
    scan_stream_resilient,
)
from repro.hwtrace.packets import (
    OVF_BYTES,
    PSB_BYTES,
    OvfPacket,
    PacketError,
    PipPacket,
    PtwPacket,
    TipPacket,
    TscPacket,
    parse_stream,
    parse_stream_resilient,
)
from repro.hwtrace.tracer import TraceSegment
from repro.program.binary import Binary
from repro.program.path import PathModel

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: TIP header byte of an 8-byte event record (codec framing)
_TIP_HEADER_BYTE = 0x0D

#: the 48-bit TIP address occupies a record word's high 6 bytes
_ADDRESS_SHIFT = np.uint64(16)

#: PSB as two little-endian words, and the TSC/PIP framing the encoder
#: writes ahead of each segment's event records
_PSB_WORDS = np.frombuffer(PSB_BYTES, dtype="<u8")
_TSC_HEADER = np.uint64(0x19)
_TSC_SHIFT = np.uint64(8)
_PIP_HEADER = np.uint64(0x4302)  # extended prefix 0x02, PIP opcode 0x43
_CR3_SHIFT = np.uint64(16)
_TIP_HEADER_WORD = np.uint64(_TIP_HEADER_BYTE << 8)

#: the segment fields the encoder reads, one column each
_SEGMENT_FIELDS = tuple(
    attrgetter(name)
    for name in (
        "t_start", "cr3", "event_start", "captured_event_end", "event_end",
        "path_model",
    )
)

#: header / body / OVF run of a canonical chunk: only the body is kept
_RUN_IS_BODY = np.array([False, True, False])

#: shared entry for canonical chunks with no event records
_EMPTY_ENTRY = ChunkEntry(_EMPTY_I64, _EMPTY_I64, unresolved=0, n_records=0)


def _canonical_split(data: bytes) -> Optional[Tuple[ChunkPlan, np.ndarray]]:
    """``(plan, uint64 record words)`` of a canonical upload, in one pass.

    The chunk plan is built once.  Every chunk is a run of header bytes,
    a run of body bytes and an optional 2-byte OVF run, and the runs
    tile the upload, so one ``np.repeat`` over the run lengths masks the
    body bytes and one boolean gather packs them into whole little-endian
    event-record words — no per-chunk ``bytes`` object is made.  Each
    word must then frame a ``TNT TIP`` record.

    ``None`` under the same conditions as :func:`split_canonical_stream`;
    the packet scan, whose error semantics are definitive, then owns it.
    """
    if not data:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    plan = plan_chunks(data, buf, PSB_BYTES)
    if plan is None or not plan.all_canonical:
        return None
    # canonical chunks hold whole records, so the bodies fill whole words
    runs = np.empty((len(plan), 3), dtype=np.int64)
    runs[:, 0] = CHUNK_HEADER_BYTES
    runs[:, 1] = plan.body_lengths
    runs[:, 2] = 2 * plan.tail_ovf
    is_body = np.repeat(np.tile(_RUN_IS_BODY, len(plan)), runs.ravel())
    words = buf[is_body].view("<u8")
    # little-endian word: byte0 = TNT (even, >= 4), byte1 = TIP header
    framed = (
        ((words & 0x01) == 0)
        & ((words & 0xFF) >= 4)
        & ((words & 0xFF00) == _TIP_HEADER_BYTE << 8)
    )
    if not framed.all():
        return None
    return plan, words


def _chunk_bodies(data: bytes, plan: ChunkPlan) -> List[bytes]:
    """Each canonical chunk's body: after its header, before any OVF."""
    starts = (plan.starts + CHUNK_HEADER_BYTES).tolist()
    ends = (plan.starts + CHUNK_HEADER_BYTES + plan.body_lengths).tolist()
    return [data[start:end] for start, end in zip(starts, ends)]


def split_canonical_stream(data: bytes) -> Optional[List[Tuple[int, bytes]]]:
    """Split a canonical upload into per-chunk ``(cr3, body)`` work units.

    Returns one entry per PSB chunk of a fully canonical stream — the
    body is everything after the 32-byte ``PSB TSC PIP`` header with any
    trailing OVF stripped, ready for
    :meth:`SoftwareDecoder.decode_chunks` — or ``None`` when the upload is
    empty, is not a pure canonical chunk sequence, or any event record is
    malformed.  ``None`` signals that the bytes need the full resilient
    scan instead of incremental decode.
    """
    split = _canonical_split(data)
    if split is None:
        return None
    plan, _words = split
    return list(zip(plan.cr3s.tolist(), _chunk_bodies(data, plan)))


def _address_table(binary: Binary) -> Tuple[np.ndarray, np.ndarray]:
    """``(sorted block addresses, block id per sorted slot)`` of a binary.

    Memoized on the instance (like :func:`binary_fingerprint`), so every
    decoder mapping the binary shares one table and building a decoder
    costs nothing per block.
    """
    table = getattr(binary, "_decode_table", None)
    if table is None:
        addresses = binary.block_addresses
        order = np.argsort(addresses)
        table = (addresses[order], order.astype(np.int64))
        binary._decode_table = table
    return table


def _chunk_entries(
    block_ids: np.ndarray, function_ids: np.ndarray, counts: List[int]
) -> List[ChunkEntry]:
    """Context-free entries of consecutive chunks' records (-1 = unresolved).

    ``counts`` gives each chunk's record count.  Unresolved records drop
    in one pass over the whole batch; each entry then owns a copy of its
    slice, so a cached entry never pins the batch's arrays.
    """
    keep = block_ids >= 0
    kept = counts
    if not keep.all():
        chunk_of = np.repeat(np.arange(len(counts)), counts)
        kept = np.bincount(chunk_of[keep], minlength=len(counts)).tolist()
        block_ids = block_ids[keep]
        function_ids = function_ids[keep]
    return [
        ChunkEntry(
            block_ids=block_ids[end - n_kept:end].copy(),
            function_ids=function_ids[end - n_kept:end].copy(),
            unresolved=n_records - n_kept,
            n_records=n_records,
        )
        for end, n_kept, n_records in zip(accumulate(kept), kept, counts)
    ]


def _first_outside(values: Sequence[int], limit: int) -> int:
    """Index of the first value outside ``[0, limit)``, else ``len(values)``."""
    if min(values) >= 0 and max(values) < limit:
        return len(values)
    return next(i for i, value in enumerate(values) if not 0 <= value < limit)


def _record_table(binary: Binary) -> Tuple[np.ndarray, np.ndarray]:
    """``(TNT TIP record word, address out of range)`` per block id.

    A record is ``TNT, 0x0D, 6-byte address`` as one little-endian word;
    the TNT byte carries payload bits 1..4 from the block id's low
    nibble, the stop marker at bit 5 and bit 0 clear -- exactly
    ``TntPacket(bits).encode()``.
    """
    addresses = binary.block_addresses
    tnt = ((np.arange(addresses.size) & 0xF) << 1) | 0x20
    words = (
        (addresses.astype(np.uint64) << _ADDRESS_SHIFT)
        | _TIP_HEADER_WORD
        | tnt.astype(np.uint64)
    )
    return words, (addresses < 0) | (addresses >= (1 << 48))


def _segment_records(
    models: Sequence[PathModel], starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(record words, counts)`` of segments' captured events.

    Segment ``i`` captured events ``[starts[i], ends[i])`` of
    ``models[i]``.  The words are every segment's event records,
    concatenated in segment order; ``counts`` holds each segment's share.
    One :meth:`~repro.program.path.PathModel.range_events` gather and one
    record-table gather per distinct path model.  Raises
    :class:`PacketError` for the first event, in segment order, whose
    address does not fit the TIP's 48 bits.
    """
    distinct = {model: index for index, model in enumerate(dict.fromkeys(models))}
    owner = np.fromiter(map(distinct.__getitem__, models), np.int64, len(models))
    counts = np.empty(len(models), dtype=np.int64)
    gathered = []
    first_bad: Optional[Tuple[int, int]] = None  # (segment, address)
    for index, model in enumerate(distinct):
        rows = np.flatnonzero(owner == index)
        block_ids, counts[rows] = model.range_events(starts[rows], ends[rows])
        table, out_of_range = _record_table(model.binary)
        hits = np.flatnonzero(out_of_range[block_ids]) if out_of_range.any() else []
        if len(hits):
            local = np.searchsorted(np.cumsum(counts[rows]), hits[0], side="right")
            address = model.binary.block_addresses[block_ids[hits[0]]]
            bad = (int(rows[local]), int(address))
            first_bad = bad if first_bad is None else min(first_bad, bad)
        gathered.append(table[block_ids])
    if first_bad is not None:
        raise PacketError(f"address {first_bad[1]:#x} out of 48-bit range")
    if len(gathered) == 1:
        return gathered[0], counts
    # each model's records are in segment order, so they fill its slots
    record_owner = np.repeat(owner, counts)
    records = np.empty(record_owner.size, dtype=np.uint64)
    for index, words in enumerate(gathered):
        records[record_owner == index] = words
    return records, counts


def encode_trace(segments: Sequence[TraceSegment]) -> bytes:
    """Serialize captured segments into one packet stream.

    Each segment becomes ``PSB TSC PIP (TNT TIP)* [OVF]``: per captured
    symbolic event, one TNT byte carries representative conditional
    branch outcomes and one TIP carries the event's block address.  A
    truncated segment ends with an OVF packet so the decoder knows data
    was lost there.

    A slot writes one segment per captured slice, so an upload is
    thousands of segments and most hold no event at all (in a chaos
    reconcile: median 0, mean 1.1, maximum 12).  The whole upload is
    therefore encoded in one vectorized pass: every segment's events are
    gathered at once, the 32-byte headers and 8-byte event records are
    written as little-endian words into one array, and the OVF trailers
    are spliced in last.

    The first offending segment raises :class:`PacketError`; within one
    segment the timestamp is checked first, then the CR3, then the event
    addresses.  Blake2b goldens in the codec and cluster tests pin the
    bytes.
    """
    if not segments:
        return b""
    t_starts, cr3s, starts, ends, event_ends, models = (
        list(map(field, segments)) for field in _SEGMENT_FIELDS
    )
    starts = np.array(starts, dtype=np.int64)
    ends = np.array(ends, dtype=np.int64)
    bad_tsc = _first_outside(t_starts, 1 << 56)
    bad_cr3 = _first_outside(cr3s, 1 << 48)
    backwards = np.flatnonzero(ends < starts)
    bad_range = int(backwards[0]) if backwards.size else len(segments)
    # nothing from the first bad header on can be encoded; an address
    # error only counts when it comes before that segment
    n = min(bad_tsc, bad_cr3, bad_range)
    records, counts = _segment_records(models[:n], starts[:n], ends[:n])
    if n < len(segments):
        if n == bad_tsc:
            raise PacketError(f"timestamp {t_starts[n]} out of range")
        if n == bad_cr3:
            raise PacketError(f"CR3 {cr3s[n]:#x} out of 48-bit range")
        raise ValueError("end before start")

    # per segment: PSB (2 words), TSC, PIP, then one word per record
    heads = 4 * np.arange(n) + (np.cumsum(counts) - counts)
    is_record = np.ones(4 * n + records.size, dtype=bool)
    is_record[heads[:, None] + np.arange(4)] = False
    words = np.empty(is_record.size, dtype="<u8")
    words[is_record] = records
    words[heads] = _PSB_WORDS[0]
    words[heads + 1] = _PSB_WORDS[1]
    words[heads + 2] = (np.array(t_starts, dtype=np.uint64) << _TSC_SHIFT) | _TSC_HEADER
    words[heads + 3] = (np.array(cr3s, dtype=np.uint64) << _CR3_SHIFT) | _PIP_HEADER
    stream = words.tobytes()
    truncated = ends < np.array(event_ends, dtype=np.int64)
    if not truncated.any():
        return stream
    # splice an OVF in after each truncated segment's last record
    cuts = [0, *(8 * (heads + 4 + counts)[truncated]).tolist(), len(stream)]
    return OVF_BYTES.join(stream[a:b] for a, b in zip(cuts, cuts[1:]))


class DecodedRecord:
    """One reconstructed block execution (object view of one SoA row)."""

    __slots__ = ("timestamp", "cr3", "block_id", "function_id")

    def __init__(self, timestamp: int, cr3: int, block_id: int, function_id: int):
        self.timestamp = timestamp
        self.cr3 = cr3
        self.block_id = block_id
        self.function_id = function_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecodedRecord(timestamp={self.timestamp}, cr3={self.cr3:#x}, "
            f"block_id={self.block_id}, function_id={self.function_id})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecodedRecord):
            return NotImplemented
        return (
            self.timestamp == other.timestamp
            and self.cr3 == other.cr3
            and self.block_id == other.block_id
            and self.function_id == other.function_id
        )

    def __hash__(self) -> int:
        return hash((self.timestamp, self.cr3, self.block_id, self.function_id))


class DecodedTrace:
    """Reconstruction result for one packet stream, structure-of-arrays.

    Four parallel int64 arrays hold one reconstructed block execution per
    index: ``timestamps``, ``cr3s``, ``block_ids``, ``function_ids``.
    All aggregation helpers operate on the columns directly; the
    ``records`` property materializes the old object-level view for
    callers that still want :class:`DecodedRecord` instances.
    """

    def __init__(
        self,
        timestamps: Optional[np.ndarray] = None,
        cr3s: Optional[np.ndarray] = None,
        block_ids: Optional[np.ndarray] = None,
        function_ids: Optional[np.ndarray] = None,
        overflows: int = 0,
        unresolved: int = 0,
        resyncs: int = 0,
        ptwrites: Optional[List[tuple]] = None,
        bytes_skipped: int = 0,
    ):
        self.timestamps = timestamps if timestamps is not None else _EMPTY_I64
        self.cr3s = cr3s if cr3s is not None else _EMPTY_I64
        self.block_ids = block_ids if block_ids is not None else _EMPTY_I64
        self.function_ids = function_ids if function_ids is not None else _EMPTY_I64
        #: count of OVF packets seen (data-loss points)
        self.overflows = overflows
        #: TIP addresses that matched no known binary block
        self.unresolved = unresolved
        #: PSB resynchronizations performed on corrupt input
        self.resyncs = resyncs
        #: input bytes discarded while resynchronizing past corruption
        self.bytes_skipped = bytes_skipped
        #: PTWRITE payloads, timestamped ((time, cr3, value))
        self.ptwrites: List[tuple] = ptwrites if ptwrites is not None else []

    @classmethod
    def from_records(
        cls,
        records: Sequence[DecodedRecord],
        overflows: int = 0,
        unresolved: int = 0,
        resyncs: int = 0,
        ptwrites: Optional[List[tuple]] = None,
    ) -> "DecodedTrace":
        """Build the SoA form from an object-level record sequence."""
        n = len(records)
        return cls(
            timestamps=np.fromiter((r.timestamp for r in records), np.int64, n),
            cr3s=np.fromiter((r.cr3 for r in records), np.int64, n),
            block_ids=np.fromiter((r.block_id for r in records), np.int64, n),
            function_ids=np.fromiter((r.function_id for r in records), np.int64, n),
            overflows=overflows,
            unresolved=unresolved,
            resyncs=resyncs,
            ptwrites=ptwrites,
        )

    @property
    def records(self) -> List[DecodedRecord]:
        """Object-level compatibility view (built on demand)."""
        return [
            DecodedRecord(t, c, b, f)
            for t, c, b, f in zip(
                self.timestamps.tolist(),
                self.cr3s.tolist(),
                self.block_ids.tolist(),
                self.function_ids.tolist(),
            )
        ]

    def _select(self, column: np.ndarray, cr3: Optional[int]) -> np.ndarray:
        return column if cr3 is None else column[self.cr3s == cr3]

    def block_sequence(self, cr3: Optional[int] = None) -> List[int]:
        """Ordered block ids (optionally restricted to one process)."""
        return self._select(self.block_ids, cr3).tolist()

    def function_histogram(self, cr3: Optional[int] = None) -> Dict[int, int]:
        """function_id -> occurrence count."""
        function_ids = self._select(self.function_ids, cr3)
        unique, counts = np.unique(function_ids, return_counts=True)
        return {int(f): int(c) for f, c in zip(unique, counts)}

    def visit_counts(self, n_blocks: int, cr3: Optional[int] = None) -> np.ndarray:
        """Per-block execution counts over the reconstruction."""
        block_ids = self._select(self.block_ids, cr3)
        counts = np.bincount(block_ids, minlength=n_blocks)
        if counts.size > n_blocks:
            raise IndexError(
                f"block id {int(block_ids.max())} out of range for "
                f"{n_blocks} blocks"
            )
        return counts.astype(np.int64)

    def __len__(self) -> int:
        return int(self.block_ids.size)


class SoftwareDecoder:
    """Reconstructs execution flow from packet bytes and binaries.

    ``binaries`` maps CR3 values to program binaries, mirroring how the
    production decoder fetches binaries from the binary repository keyed
    by the traced process (§4).  A whole upload should be decoded against
    exactly its own process's mapping: every registered CR3 is one a
    corrupted PIP byte could land on.

    ``cache`` (optional) enables the repetition-aware decode cache
    (:mod:`repro.hwtrace.cache`): canonical chunk bodies seen before, by
    *any* decoder sharing it, skip resolution.  Results are identical.
    """

    def __init__(
        self,
        binaries: Mapping[int, Binary],
        cache: Optional[DecodeCache] = None,
    ):
        self._binaries: Dict[int, Binary] = {}
        # cr3 -> content fingerprint of its binary (decode-cache keying)
        self._fingerprints: Dict[int, bytes] = {}
        self.cache = cache
        for cr3, binary in binaries.items():
            self.add_binary(cr3, binary)

    def add_binary(self, cr3: int, binary: Binary) -> None:
        """Register (or replace) the binary mapped at ``cr3``.

        Address tables and fingerprints are memoized on the binary, so
        this costs O(1).  Replacing a binary also replaces the CR3's
        cache fingerprint, so decode-cache entries produced under the old
        binary can never resolve against the new one.
        """
        self._binaries[cr3] = binary
        self._fingerprints[cr3] = binary_fingerprint(binary)

    @classmethod
    def for_processes(cls, processes: Iterable[object]) -> "SoftwareDecoder":
        """Build from kernel :class:`Process` objects carrying binaries."""
        mapping = {}
        for process in processes:
            binary = getattr(process, "binary", None)
            if isinstance(binary, Binary):
                mapping[process.cr3] = binary
        return cls(mapping)

    # -- the decode pipeline -------------------------------------------------

    def decode(self, data: bytes, resilient: bool = False) -> DecodedTrace:
        """Parse and reconstruct one core's packet stream.

        ``resilient`` enables PSB resynchronization on corrupt input (the
        production decoder's behaviour); strict mode raises on bad
        framing, which is what tests and integrity checks want.  A
        canonical upload decodes straight from its chunk headers and
        record words — with a :class:`DecodeCache` attached, as one
        :meth:`decode_chunks` batch — and anything else takes the packet
        scan.  Every route returns the same bytes.
        """
        if not data:
            return DecodedTrace()
        split = _canonical_split(data)
        if split is None:
            if self.cache is not None:
                self.cache.note_fallback()
            if resilient:
                return self._reconstruct(scan_stream_resilient(data))
            return self._reconstruct(scan_stream(data))
        plan, words = split
        if self.cache is None:
            block_ids, function_ids, kept, unresolved = self._resolve_records(plan, words)
        else:
            entries = self.decode_chunks(plan.cr3s.tolist(), _chunk_bodies(data, plan))
            kept = np.fromiter(
                (entry.block_ids.size for entry in entries), np.int64, len(entries)
            )
            block_ids = np.concatenate([entry.block_ids for entry in entries])
            function_ids = np.concatenate([entry.function_ids for entry in entries])
            unresolved = sum(entry.unresolved for entry in entries)
        # canonical chunks carry no mid-chunk context: every kept record
        # takes its chunk header's timestamp and CR3
        return DecodedTrace(
            timestamps=np.repeat(plan.times, kept),
            cr3s=np.repeat(plan.cr3s, kept),
            block_ids=block_ids,
            function_ids=function_ids,
            overflows=int(np.count_nonzero(plan.tail_ovf)),
            unresolved=unresolved,
        )

    def decode_chunk(self, cr3: int, body: bytes) -> ChunkEntry:
        """Decode one canonical chunk *body* against ``cr3``'s binary.

        A one-chunk :meth:`decode_chunks`.
        """
        return self.decode_chunks((cr3,), (body,))[0]

    def decode_chunks(
        self, cr3s: Sequence[int], bodies: Sequence[bytes]
    ) -> List[ChunkEntry]:
        """Decode a batch of canonical chunk *bodies*, one entry per body.

        The streaming-ingest unit of work: each body is everything after
        a chunk's 32-byte ``PSB TSC PIP`` header (trailing OVF stripped),
        exactly as produced by :func:`split_canonical_stream`, and
        decodes against the binary of the CR3 at the same position.
        Returns the context-free :class:`ChunkEntry` of each (resolved
        block/function ids plus the unresolved count).  Empty bodies need
        no lookup.  With a cache attached, the batch takes its lock once
        and resolves the distinct bodies it misses in one pass; without
        one, every body resolves in that pass.  The caller must have
        validated the record framing.
        """
        fingerprints = map(self._fingerprints.get, cr3s, repeat(UNKNOWN_BINARY_FP))
        keys = list(compress(zip(fingerprints, bodies), bodies))

        def resolve(positions: List[int]) -> List[ChunkEntry]:
            key_cr3s = list(compress(cr3s, bodies))
            chunk_cr3s = [key_cr3s[position] for position in positions]
            chunk_bodies = [keys[position][1] for position in positions]
            words = np.frombuffer(b"".join(chunk_bodies), dtype="<u8")
            counts = [len(body) >> 3 for body in chunk_bodies]
            block_ids, function_ids = self._resolve(
                (words >> _ADDRESS_SHIFT).astype(np.int64),
                np.repeat(np.asarray(chunk_cr3s, dtype=np.int64), counts),
                chunk_cr3s,
            )
            return _chunk_entries(block_ids, function_ids, counts)

        if not keys:
            found = []
        elif self.cache is None:
            found = resolve(list(range(len(keys))))
        else:
            found = self.cache.get_or_resolve(keys, resolve)
        if len(found) == len(bodies):
            return found
        filled = iter(found)
        return [next(filled) if body else _EMPTY_ENTRY for body in bodies]

    def _resolve_records(
        self, plan: ChunkPlan, words: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Resolve every record of a canonical upload in one pass.

        Returns the kept block and function ids, the kept-record count
        per chunk, and the unresolved count.
        """
        counts = plan.body_lengths >> 3
        cr3s = plan.cr3s
        if (cr3s == cr3s[0]).all():
            record_cr3s, candidates = None, [int(cr3s[0])]
        else:
            record_cr3s, candidates = np.repeat(cr3s, counts), np.unique(cr3s).tolist()
        block_ids, function_ids = self._resolve(
            (words >> _ADDRESS_SHIFT).astype(np.int64), record_cr3s, candidates
        )
        keep = block_ids >= 0
        unresolved = int(block_ids.size - np.count_nonzero(keep))
        if unresolved:
            chunk_of = np.repeat(np.arange(len(plan)), counts)
            counts = np.bincount(chunk_of[keep], minlength=len(plan))
            block_ids = block_ids[keep]
            function_ids = function_ids[keep]
        return block_ids, function_ids, counts, unresolved

    def _resolve(
        self,
        addresses: np.ndarray,
        record_cr3s: Optional[np.ndarray],
        candidates: Iterable[int],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(block_ids, function_ids)`` of TIP addresses, -1 = unresolved.

        ``record_cr3s`` gives each address's CR3 out of ``candidates``
        (``None`` when there is one candidate).  Each CR3 group resolves
        with one binary search over its binary's sorted address table.
        """
        groups = sorted(set(candidates))
        if len(groups) == 1:
            return self._lookup(groups[0], addresses)
        block_ids = np.full(addresses.size, -1, dtype=np.int64)
        function_ids = np.full(addresses.size, -1, dtype=np.int64)
        for cr3 in groups:
            if cr3 not in self._binaries:
                continue
            selected = record_cr3s == cr3
            if selected.any():
                blocks, functions = self._lookup(cr3, addresses[selected])
                block_ids[selected] = blocks
                function_ids[selected] = functions
        return block_ids, function_ids

    def _lookup(self, cr3: int, addresses: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One CR3's share of :meth:`_resolve`."""
        binary = self._binaries.get(cr3)
        if binary is None or not binary.blocks:
            misses = np.full(addresses.size, -1, dtype=np.int64)
            return misses, misses
        sorted_addresses, slot_block_ids = _address_table(binary)
        slots = np.searchsorted(sorted_addresses, addresses)
        np.minimum(slots, sorted_addresses.size - 1, out=slots)
        hits = sorted_addresses[slots] == addresses
        if hits.all():
            # the overwhelmingly common case: skip the masked blends
            block_ids = slot_block_ids[slots]
            return block_ids, binary.block_function_ids[block_ids]
        block_ids = np.where(hits, slot_block_ids[slots], -1)
        function_ids = np.where(hits, binary.block_function_ids[np.maximum(block_ids, 0)], -1)
        return block_ids, function_ids

    def _reconstruct(self, scanned: ScannedStream) -> DecodedTrace:
        """Turn scanned packet columns into a decoded SoA trace."""
        kinds = scanned.kinds
        values = scanned.values
        # TNT packets carry no event-level information below symbolic
        # resolution; drop their rows once so every later pass runs on
        # half the column length
        relevant = kinds != KIND_TNT
        kinds = kinds[relevant]
        values = values[relevant]
        overflows = int(np.count_nonzero(kinds == KIND_OVF))
        tip_mask = kinds == KIND_TIP
        ptw_mask = kinds == KIND_PTW
        if not tip_mask.any() and not ptw_mask.any():
            return DecodedTrace(
                overflows=overflows,
                resyncs=scanned.resyncs,
                bytes_skipped=scanned.bytes_skipped,
            )

        # forward-fill decode context over the packet sequence: each
        # packet sees the value of the last TSC / PIP at or before it
        pip_mask = kinds == KIND_PIP
        times = _forward_fill(kinds == KIND_TSC, values)
        cr3s = _forward_fill(pip_mask, values)

        ptwrites = [
            (int(t), int(c), int(v))
            for t, c, v in zip(
                times[ptw_mask], cr3s[ptw_mask], values[ptw_mask]
            )
        ]

        tip_times = times[tip_mask]
        tip_cr3s = cr3s[tip_mask]
        # candidate contexts come from the (few) PIP packets, not from a
        # sort over the per-record cr3 column; 0 is the pre-PIP default
        candidates = set(np.unique(values[pip_mask]).tolist())
        candidates.add(0)
        block_ids, function_ids = self._resolve(
            values[tip_mask].astype(np.int64), tip_cr3s, candidates
        )
        keep = block_ids >= 0
        unresolved = int(block_ids.size - np.count_nonzero(keep))
        return DecodedTrace(
            timestamps=tip_times[keep],
            cr3s=tip_cr3s[keep],
            block_ids=block_ids[keep],
            function_ids=function_ids[keep],
            overflows=overflows,
            unresolved=unresolved,
            resyncs=scanned.resyncs,
            ptwrites=ptwrites,
            bytes_skipped=scanned.bytes_skipped,
        )

    # -- object-level reference path ---------------------------------------

    def decode_objects(self, data: bytes, resilient: bool = False) -> DecodedTrace:
        """Reference decode via per-packet objects (the pre-columnar path).

        Semantically identical to :meth:`decode` — kept as the golden
        reference the equality tests and the codec benchmark compare the
        vectorized path against.
        """
        records: List[DecodedRecord] = []
        ptwrites: List[tuple] = []
        overflows = 0
        unresolved = 0
        current_time = 0
        current_cr3 = 0
        # cr3 -> {block address: block id}, built on first use
        address_maps: Dict[int, Dict[int, int]] = {}
        address_map: Optional[Dict[int, int]] = None
        binary: Optional[Binary] = None
        if resilient:
            packets, resyncs = parse_stream_resilient(data)
        else:
            packets = parse_stream(data)
            resyncs = 0
        for packet in packets:
            if isinstance(packet, TscPacket):
                current_time = packet.timestamp
            elif isinstance(packet, PipPacket):
                current_cr3 = packet.cr3
                binary = self._binaries.get(current_cr3)
                if binary is not None and current_cr3 not in address_maps:
                    address_maps[current_cr3] = {
                        block.address: block.block_id for block in binary.blocks
                    }
                address_map = address_maps.get(current_cr3)
            elif isinstance(packet, TipPacket):
                if address_map is None or binary is None:
                    unresolved += 1
                    continue
                block_id = address_map.get(packet.address)
                if block_id is None:
                    unresolved += 1
                    continue
                records.append(
                    DecodedRecord(
                        timestamp=current_time,
                        cr3=current_cr3,
                        block_id=block_id,
                        function_id=binary.blocks[block_id].function_id,
                    )
                )
            elif isinstance(packet, OvfPacket):
                overflows += 1
            elif isinstance(packet, PtwPacket):
                ptwrites.append((current_time, current_cr3, packet.value))
            # PSB and TNT packets carry no event-level information here:
            # PSB is sync, TNT intra-event detail below symbolic resolution
        return DecodedTrace.from_records(
            records,
            overflows=overflows,
            unresolved=unresolved,
            resyncs=resyncs,
            ptwrites=ptwrites,
        )


def _forward_fill(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-position value of the last ``mask`` slot at or before it (0 start)."""
    n = mask.size
    indices = np.where(mask, np.arange(n), -1)
    np.maximum.accumulate(indices, out=indices)
    filled = values[np.maximum(indices, 0)].astype(np.int64)
    filled[indices < 0] = 0
    return filled
