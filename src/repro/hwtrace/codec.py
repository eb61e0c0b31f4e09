"""Vectorized columnar trace codec.

The object-level API in :mod:`repro.hwtrace.packets` materializes one
frozen dataclass per packet — faithful, but far too slow for the volumes
the hardware emits (a 10 MB stream is ~1.3 million packets).  This module
is the throughput path: it scans the same byte format with numpy and
produces a **structure-of-arrays** view of the stream instead of objects.

The scanner exploits the stream's dominant regularity: the encoder emits
each captured event as a fixed 8-byte ``TNT TIP`` record (1-byte TNT,
1-byte TIP header, 6-byte address), so between the rare header packets
(PSB/TSC/PIP) the stream is a long run of aligned records.  The scan loop
therefore advances packet-by-packet only over the rare packets; whenever
it lands on a TNT it validates the longest run of well-formed 8-byte
records in one vectorized mask check and consumes the whole run at once.
Python-level iterations are O(#segments + #irregular packets), not
O(#packets).

Error semantics are byte-for-byte identical to the object parser: the
strict scan raises :class:`~repro.hwtrace.packets.PacketError` with the
same message and structured ``offset`` at the same byte position, and the
resilient scan performs the same PSB resynchronization and returns the
same packet sequence and resync count (proved by the golden tests in
``tests/test_hwtrace_codec.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.hwtrace.packets import (
    PSB_BYTES,
    OvfPacket,
    Packet,
    PacketError,
    PipPacket,
    PsbPacket,
    PtwPacket,
    TipPacket,
    TscPacket,
    _parse_tnt,
)

#: packet-kind codes used in the columnar representation
KIND_PSB = 0
KIND_OVF = 1
KIND_PIP = 2
KIND_TSC = 3
KIND_TIP = 4
KIND_TNT = 5
KIND_PTW = 6

_EXT_PREFIX = 0x02
_EXT_PSB = 0x82
_EXT_OVF = 0xF3
_EXT_PIP = 0x43
_EXT_PTW = 0x12
_TSC_HEADER = 0x19
_TIP_HEADER = 0x0D

_EMPTY_KINDS = np.empty(0, dtype=np.uint8)
_EMPTY_VALUES = np.empty(0, dtype=np.uint64)

#: initial / maximum event records validated per vectorized chunk on the
#: run fast path; the chunk grows geometrically so overscan past the end
#: of a run stays proportional to the run's own length
_RUN_CHUNK_MIN = 1 << 9
_RUN_CHUNK_MAX = 1 << 16


@dataclass
class ScannedStream:
    """Columnar scan of a packet stream: one row per packet, in order.

    ``kinds`` holds a ``KIND_*`` code per packet; ``values`` the payload
    (PIP: CR3, TSC: timestamp, TIP: address, PTW: value, TNT: the raw
    byte; PSB/OVF: 0).  This is the input the vectorized decoder
    forward-fills context over — no per-packet objects exist anywhere on
    the path.
    """

    kinds: np.ndarray = field(default_factory=lambda: _EMPTY_KINDS)
    values: np.ndarray = field(default_factory=lambda: _EMPTY_VALUES)
    #: PSB resynchronizations performed (resilient scans only)
    resyncs: int = 0
    #: bytes discarded while skipping from corruption to the next PSB
    bytes_skipped: int = 0

    def __len__(self) -> int:
        return int(self.kinds.size)

    def to_packets(self) -> List[Packet]:
        """Materialize the object-level packet list (compatibility view).

        Equal to what :func:`repro.hwtrace.packets.parse_stream` (or the
        resilient variant) returns on the same bytes — used by the golden
        tests and anything that still wants objects.
        """
        out: List[Packet] = []
        for kind, value in zip(self.kinds.tolist(), self.values.tolist()):
            if kind == KIND_TIP:
                out.append(TipPacket(value))
            elif kind == KIND_TNT:
                out.append(_parse_tnt(value))
            elif kind == KIND_TSC:
                out.append(TscPacket(value))
            elif kind == KIND_PIP:
                out.append(PipPacket(value))
            elif kind == KIND_PSB:
                out.append(PsbPacket())
            elif kind == KIND_OVF:
                out.append(OvfPacket())
            else:
                out.append(PtwPacket(value))
        return out


def _le6(mat: np.ndarray) -> np.ndarray:
    """Little-endian uint64 values from an (n, 6) uint8 byte matrix."""
    padded = np.zeros((mat.shape[0], 8), dtype=np.uint8)
    padded[:, :6] = mat
    return padded.view("<u8").ravel()


def _scan(
    data: bytes, start: int, buf: np.ndarray
) -> Tuple[List[np.ndarray], List[np.ndarray], Optional[Tuple[int, str]]]:
    """Scan from ``start``; returns (kind_chunks, value_chunks, error).

    ``error`` is ``None`` on a clean scan, else ``(offset, message)`` for
    the first malformed packet — chunks cover everything before it.
    """
    kind_chunks: List[np.ndarray] = []
    value_chunks: List[np.ndarray] = []
    pending_kinds: List[int] = []
    pending_values: List[int] = []

    def flush() -> None:
        if pending_kinds:
            kind_chunks.append(np.array(pending_kinds, dtype=np.uint8))
            value_chunks.append(np.array(pending_values, dtype=np.uint64))
            pending_kinds.clear()
            pending_values.clear()

    i = start
    n = len(data)
    error: Optional[Tuple[int, str]] = None
    while i < n:
        b0 = data[i]
        if b0 == _EXT_PREFIX:
            if i + 1 >= n:
                error = (i, f"truncated extended packet at offset {i}")
                break
            b1 = data[i + 1]
            if b1 == _EXT_PSB:
                if data[i : i + 16] != PSB_BYTES:
                    error = (i, f"corrupt PSB at offset {i}")
                    break
                pending_kinds.append(KIND_PSB)
                pending_values.append(0)
                i += 16
            elif b1 == _EXT_OVF:
                pending_kinds.append(KIND_OVF)
                pending_values.append(0)
                i += 2
            elif b1 == _EXT_PIP:
                if i + 8 > n:
                    error = (i, f"truncated PIP at offset {i}")
                    break
                pending_kinds.append(KIND_PIP)
                pending_values.append(int.from_bytes(data[i + 2 : i + 8], "little"))
                i += 8
            elif b1 == _EXT_PTW:
                if i + 10 > n:
                    error = (i, f"truncated PTWRITE at offset {i}")
                    break
                pending_kinds.append(KIND_PTW)
                pending_values.append(int.from_bytes(data[i + 2 : i + 10], "little"))
                i += 10
            else:
                error = (i, f"unknown extended opcode {b1:#04x} at offset {i}")
                break
        elif b0 == _TSC_HEADER:
            if i + 8 > n:
                error = (i, f"truncated TSC at offset {i}")
                break
            pending_kinds.append(KIND_TSC)
            pending_values.append(int.from_bytes(data[i + 1 : i + 8], "little"))
            i += 8
        elif (b0 & 0x01) == 0 and b0 != 0:
            # TNT.  Hot path: consume the longest run of well-formed
            # 8-byte (TNT, TIP) event records, validated in bounded
            # vectorized chunks (so a run stopping early — e.g. at the
            # next segment's PSB — never rescans the whole remainder).
            whole_records = (n - i) // 8
            run = 0
            chunk = _RUN_CHUNK_MIN
            while run < whole_records:
                upper = min(run + chunk, whole_records)
                chunk = min(chunk * 2, _RUN_CHUNK_MAX)
                view = buf[i + run * 8 : i + upper * 8].reshape(upper - run, 8)
                valid = (
                    ((view[:, 0] & 0x01) == 0)
                    & (view[:, 0] >= 4)
                    & (view[:, 1] == _TIP_HEADER)
                )
                if valid.all():
                    run = upper
                    continue
                run += int(np.argmin(valid))
                break
            if run:
                flush()
                records = buf[i : i + run * 8].reshape(run, 8)
                kinds = np.empty(2 * run, dtype=np.uint8)
                kinds[0::2] = KIND_TNT
                kinds[1::2] = KIND_TIP
                values = np.empty(2 * run, dtype=np.uint64)
                values[0::2] = records[:, 0]
                values[1::2] = _le6(records[:, 2:8])
                kind_chunks.append(kinds)
                value_chunks.append(values)
                i += run * 8
            else:
                # standalone TNT (whatever follows is not a TIP record);
                # bytes >= 4 with bit0 clear are always valid TNT framing
                pending_kinds.append(KIND_TNT)
                pending_values.append(b0)
                i += 1
        elif b0 == _TIP_HEADER:
            if i + 7 > n:
                error = (i, f"truncated TIP at offset {i}")
                break
            pending_kinds.append(KIND_TIP)
            pending_values.append(int.from_bytes(data[i + 1 : i + 7], "little"))
            i += 7
        else:
            error = (i, f"unrecognized packet header {b0:#04x} at offset {i}")
            break
    flush()
    return kind_chunks, value_chunks, error


def _assemble(
    kind_chunks: List[np.ndarray],
    value_chunks: List[np.ndarray],
    resyncs: int,
    bytes_skipped: int = 0,
) -> ScannedStream:
    if not kind_chunks:
        return ScannedStream(resyncs=resyncs, bytes_skipped=bytes_skipped)
    return ScannedStream(
        kinds=np.concatenate(kind_chunks),
        values=np.concatenate(value_chunks),
        resyncs=resyncs,
        bytes_skipped=bytes_skipped,
    )


def scan_stream(data: bytes) -> ScannedStream:
    """Strict columnar scan; raises :class:`PacketError` on bad framing."""
    buf = np.frombuffer(data, dtype=np.uint8)
    kind_chunks, value_chunks, error = _scan(data, 0, buf)
    if error is not None:
        raise PacketError(error[1], error[0])
    return _assemble(kind_chunks, value_chunks, 0)


def scan_stream_resilient(data: bytes) -> ScannedStream:
    """Columnar scan with PSB resynchronization on corruption.

    Mirrors :func:`repro.hwtrace.packets.parse_stream_resilient`: on a
    framing error it keeps everything scanned so far, skips to the next
    PSB, and resumes; ``resyncs`` counts the recoveries.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    kind_chunks: List[np.ndarray] = []
    value_chunks: List[np.ndarray] = []
    resyncs = 0
    bytes_skipped = 0
    offset = 0
    while offset < len(data):
        chunk_kinds, chunk_values, error = _scan(data, offset, buf)
        kind_chunks.extend(chunk_kinds)
        value_chunks.extend(chunk_values)
        if error is None:
            break
        resyncs += 1
        next_psb = data.find(PSB_BYTES, error[0] + 1)
        if next_psb == -1:
            bytes_skipped += len(data) - error[0]
            break
        bytes_skipped += next_psb - error[0]
        offset = next_psb
    return _assemble(kind_chunks, value_chunks, resyncs, bytes_skipped)
