"""Golden-equality and fuzz tests for the vectorized columnar codec.

The columnar scanner (:mod:`repro.hwtrace.codec`) and the SoA decode path
must be indistinguishable from the object-level reference: encoder
bytes pinned by a golden digest, identical records/counters out of the
decoder, identical packets and resync counts out of the resilient scan —
on clean streams, corrupt streams, and arbitrary packet mixes.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.hwtrace.codec import scan_stream, scan_stream_resilient
from repro.hwtrace.decoder import DecodedTrace, SoftwareDecoder, encode_trace
from repro.hwtrace.packets import (
    OvfPacket,
    PacketError,
    PipPacket,
    PsbPacket,
    PtwPacket,
    TipPacket,
    TntPacket,
    TscPacket,
    encode_packets,
    parse_stream,
    parse_stream_resilient,
)
from repro.hwtrace.tracer import TraceSegment
from repro.program.binary import FunctionCategory
from repro.program.generator import BinaryShape, generate_binary
from repro.program.path import PathModel


def make_segment(path, *, cr3=0x1000, e0=0, e1=50, t0=100, truncate=None):
    captured = truncate if truncate is not None else e1
    return TraceSegment(
        core_id=0, pid=1, tid=2, cr3=cr3,
        t_start=t0, t_end=t0 + 100,
        event_start=e0, event_end=e1, captured_event_end=captured,
        bytes_offered=1000.0, bytes_accepted=1000.0,
        path_model=path,
    )


@pytest.fixture
def segments(tiny_path):
    return [
        make_segment(tiny_path, cr3=0x1000, e0=0, e1=400, t0=100),
        make_segment(tiny_path, cr3=0x2000, e0=3, e1=200, t0=50, truncate=90),
        make_segment(tiny_path, cr3=0x1000, e0=7, e1=7, t0=10),
        make_segment(tiny_path, cr3=0x3000, e0=5, e1=60, t0=400),
    ]


def _second_binary(name):
    shape = BinaryShape(
        n_functions=6,
        blocks_per_function_mean=4.0,
        category_weights={FunctionCategory.APP: 1.0},
    )
    return generate_binary(name, shape, seed=5)


@pytest.fixture(scope="module")
def second_path():
    """A second binary, interleaved with ``tiny_path`` under another CR3."""
    return PathModel(_second_binary("tinybin2"), seed=5, length=512, stride=1024)


def slot_segments(path_a, path_b, n_segments=600, seed=2026):
    """Segments shaped like one slot's upload.

    A slot writes one segment per captured slice, so about half carry no
    event at all and the rest a handful (1-12).  Two binaries/CR3s
    interleave, a few segments are truncated (some to zero captured
    events), two span at least a whole walk cycle, and the first event
    indices sit just before the walk's wrap point.
    """
    rng = np.random.default_rng(seed)
    cursors = {0x1000: path_a.length - 20, 0x2000: path_b.length - 3}
    whole_cycle = {41: path_a, 302: path_b}
    segments = []
    t_start = 1_000
    for index in range(n_segments):
        path, cr3 = (path_b, 0x2000) if index % 3 == 1 else (path_a, 0x1000)
        if index in whole_cycle:
            path, cr3 = whole_cycle[index], (0x1000 if index == 41 else 0x2000)
            n_events = path.length + int(rng.integers(60))
        elif rng.random() < 0.5:
            n_events = 0
        else:
            n_events = int(rng.integers(1, 13))
        e0 = cursors[cr3]
        e1 = e0 + n_events
        captured = e1
        if n_events and rng.random() < 0.12:
            captured = e0 + int(rng.integers(n_events))
        cursors[cr3] = e1
        t_start += int(rng.integers(1, 5_000))
        segments.append(TraceSegment(
            core_id=index % 4, pid=cr3 >> 12, tid=index % 5, cr3=cr3,
            t_start=t_start, t_end=t_start + 900,
            event_start=e0, event_end=e1, captured_event_end=captured,
            bytes_offered=1000.0, bytes_accepted=1000.0,
            path_model=path,
        ))
    # the top of the TSC and CR3 ranges, so every header byte is exercised
    segments[7].t_start = (1 << 56) - 1
    segments[8].cr3 = (1 << 48) - 1
    return segments


def assert_traces_equal(a: DecodedTrace, b: DecodedTrace):
    assert np.array_equal(a.timestamps, b.timestamps)
    assert np.array_equal(a.cr3s, b.cr3s)
    assert np.array_equal(a.block_ids, b.block_ids)
    assert np.array_equal(a.function_ids, b.function_ids)
    assert a.overflows == b.overflows
    assert a.unresolved == b.unresolved
    assert a.resyncs == b.resyncs
    assert a.ptwrites == b.ptwrites


class TestGoldenEncode:
    def test_byte_identical_to_object_encoder(self, segments):
        # digest of the bytes the retired per-packet object encoder
        # produced for this fixture
        data = encode_trace(segments)
        assert len(data) == 4466
        digest = hashlib.blake2b(data, digest_size=16).hexdigest()
        assert digest == "bde7714d429c058d32affd6b39353b7b"

    def test_empty(self):
        assert encode_trace([]) == b""

    def test_slot_shaped_upload(self, tiny_path, second_path):
        # recorded with the per-segment encoder this one-pass encoder
        # replaced: 600 mostly header-only segments, two CR3s
        segments = slot_segments(tiny_path, second_path)
        data = encode_trace(segments)
        assert len(data) == 71638
        digest = hashlib.blake2b(data, digest_size=16).hexdigest()
        assert digest == "fa40675d5f28c193f81adf293d265764"


class TestEncodeErrors:
    """The first offending segment raises; within it, TSC > CR3 > address."""

    @pytest.fixture(scope="class")
    def bad_path(self):
        binary = _second_binary("badaddr")
        path = PathModel(binary, seed=5, length=512, stride=1024)
        # every block address one past the 48-bit TIP range
        binary._block_addresses = binary.block_addresses + (1 << 48)
        return path

    @staticmethod
    def _message(segments):
        with pytest.raises(PacketError) as excinfo:
            encode_trace(segments)
        assert excinfo.value.offset is None
        return str(excinfo.value)

    def test_tsc_beats_cr3_beats_address(self, bad_path):
        bad_tsc = 1 << 56
        bad_cr3 = 1 << 48
        everything = make_segment(bad_path, t0=bad_tsc, cr3=bad_cr3, e1=5)
        assert self._message([everything]) == f"timestamp {bad_tsc} out of range"
        cr3_and_address = make_segment(bad_path, cr3=bad_cr3, e1=5)
        assert self._message([cr3_and_address]) == (
            f"CR3 {bad_cr3:#x} out of 48-bit range"
        )
        address = int(bad_path.binary.block_addresses[bad_path.events(0, 5)[0]])
        assert self._message([make_segment(bad_path, e1=5)]) == (
            f"address {address:#x} out of 48-bit range"
        )

    def test_negative_header_values(self, tiny_path):
        assert self._message([make_segment(tiny_path, t0=-1)]) == (
            "timestamp -1 out of range"
        )
        assert self._message([make_segment(tiny_path, cr3=-1)]) == (
            f"CR3 {-1:#x} out of 48-bit range"
        )

    def test_earlier_segment_wins(self, tiny_path, bad_path):
        good = make_segment(tiny_path, e1=5)
        bad_tsc = make_segment(tiny_path, t0=1 << 56, e1=5)
        bad_cr3 = make_segment(tiny_path, cr3=1 << 48, e1=5)
        bad_address = make_segment(bad_path, e0=3, e1=4)
        address = int(bad_path.binary.block_addresses[bad_path.events(3, 4)[0]])
        address_message = f"address {address:#x} out of 48-bit range"
        assert self._message([good, bad_address, bad_tsc]) == address_message
        assert self._message([good, bad_address, bad_cr3]) == address_message
        assert self._message([good, bad_cr3, bad_tsc]) == (
            f"CR3 {1 << 48:#x} out of 48-bit range"
        )
        assert self._message([bad_tsc, bad_cr3, bad_address]) == (
            f"timestamp {1 << 56} out of range"
        )

    def test_header_only_segment_skips_address_check(self, bad_path):
        # no captured event, so no TIP: the bad binary is never consulted
        header_only = make_segment(bad_path, e0=4, e1=9, truncate=4)
        assert len(encode_trace([header_only])) == 32 + 2


class TestGoldenDecode:
    def test_strict_matches_object_path(self, segments, tiny_binary):
        decoder = SoftwareDecoder({0x1000: tiny_binary, 0x2000: tiny_binary})
        data = encode_trace(segments)
        assert_traces_equal(
            decoder.decode(data), decoder.decode_objects(data)
        )

    def test_records_view_matches(self, segments, tiny_binary):
        decoder = SoftwareDecoder({0x1000: tiny_binary, 0x2000: tiny_binary})
        data = encode_trace(segments)
        assert decoder.decode(data).records == decoder.decode_objects(data).records

    def test_resilient_matches_on_corrupt_streams(self, segments, tiny_binary):
        decoder = SoftwareDecoder({0x1000: tiny_binary, 0x2000: tiny_binary})
        base = encode_trace(segments)
        rng = random.Random(20250806)
        for _ in range(100):
            data = bytearray(base)
            for _ in range(rng.randrange(1, 8)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            data = bytes(data)
            vectorized = decoder.decode(data, resilient=True)
            reference = decoder.decode_objects(data, resilient=True)
            assert_traces_equal(vectorized, reference)

    def test_strict_raises_same_error(self, segments, tiny_binary):
        decoder = SoftwareDecoder({0x1000: tiny_binary})
        data = bytearray(encode_trace(segments))
        data[40] = 0x01  # invalid header mid-stream
        with pytest.raises(PacketError) as vectorized_error:
            decoder.decode(bytes(data))
        with pytest.raises(PacketError) as reference_error:
            decoder.decode_objects(bytes(data))
        assert str(vectorized_error.value) == str(reference_error.value)
        assert vectorized_error.value.offset == reference_error.value.offset


class TestScanPacketEquivalence:
    ALL_TYPES = [
        PsbPacket(),
        TscPacket(1_000_000),
        PipPacket(0x7700_0000),
        TntPacket((True, False, True, True)),
        TipPacket(0x401000),
        PtwPacket(0xDEADBEEF),
        TntPacket((False,)),
        TipPacket(0x402040),
        OvfPacket(),
    ]

    def test_all_packet_types_roundtrip(self):
        data = encode_packets(self.ALL_TYPES)
        assert scan_stream(data).to_packets() == parse_stream(data)
        assert scan_stream(data).to_packets() == self.ALL_TYPES

    def test_empty_stream(self):
        scanned = scan_stream(b"")
        assert len(scanned) == 0
        assert scanned.to_packets() == []

    def test_fuzz_roundtrip_random_packet_mixes(self):
        rng = random.Random(7)
        makers = [
            lambda r: PsbPacket(),
            lambda r: OvfPacket(),
            lambda r: PipPacket(r.randrange(1 << 48)),
            lambda r: TscPacket(r.randrange(1 << 56)),
            lambda r: TipPacket(r.randrange(1 << 48)),
            lambda r: PtwPacket(r.randrange(1 << 64)),
            lambda r: TntPacket(
                tuple(bool(r.randrange(2)) for _ in range(r.randrange(1, 7)))
            ),
        ]
        for _ in range(60):
            packets = [
                rng.choice(makers)(rng) for _ in range(rng.randrange(0, 40))
            ]
            data = encode_packets(packets)
            assert scan_stream(data).to_packets() == packets

    def test_fuzz_resilient_scan_matches_object_parser(self):
        rng = random.Random(99)
        packets = [
            PsbPacket(), TscPacket(1), PipPacket(0x1000), TipPacket(0x400000),
            TntPacket((True, False)), PtwPacket(7),
            PsbPacket(), TscPacket(2), PipPacket(0x2000), TipPacket(0x400040),
        ]
        base = encode_packets(packets)
        for _ in range(200):
            data = bytearray(base)
            for _ in range(rng.randrange(1, 6)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            data = bytes(data)
            reference, resyncs = parse_stream_resilient(data)
            scanned = scan_stream_resilient(data)
            assert scanned.to_packets() == reference
            assert scanned.resyncs == resyncs


class TestPacketErrorOffset:
    def test_offset_is_structured(self):
        with pytest.raises(PacketError) as excinfo:
            parse_stream(b"\x19\x01\x02")  # truncated TSC at offset 0
        assert excinfo.value.offset == 0
        assert "at offset 0" in str(excinfo.value)

    def test_offset_mid_stream(self):
        data = TscPacket(5).encode() + bytes([0x01])
        with pytest.raises(PacketError) as excinfo:
            parse_stream(data)
        assert excinfo.value.offset == 8

    def test_encode_errors_have_no_offset(self):
        with pytest.raises(PacketError) as excinfo:
            TipPacket(1 << 48).encode()
        assert excinfo.value.offset is None

    def test_scan_errors_carry_offset(self):
        data = TscPacket(5).encode() + bytes([0x01])
        with pytest.raises(PacketError) as excinfo:
            scan_stream(data)
        assert excinfo.value.offset == 8


class TestSoaView:
    def test_columns_are_parallel_int64(self, segments, tiny_binary):
        decoder = SoftwareDecoder({0x1000: tiny_binary, 0x2000: tiny_binary})
        decoded = decoder.decode(encode_trace(segments))
        n = len(decoded)
        for column in (
            decoded.timestamps,
            decoded.cr3s,
            decoded.block_ids,
            decoded.function_ids,
        ):
            assert column.dtype == np.int64
            assert column.shape == (n,)

    def test_histogram_matches_bincount(self, segments, tiny_binary):
        decoder = SoftwareDecoder({0x1000: tiny_binary, 0x2000: tiny_binary})
        decoded = decoder.decode(encode_trace(segments))
        histogram = decoded.function_histogram()
        assert sum(histogram.values()) == len(decoded)
        counts = decoded.visit_counts(tiny_binary.n_blocks)
        assert int(counts.sum()) == len(decoded)

    def test_from_records_roundtrip(self, segments, tiny_binary):
        decoder = SoftwareDecoder({0x1000: tiny_binary, 0x2000: tiny_binary})
        decoded = decoder.decode(encode_trace(segments))
        rebuilt = DecodedTrace.from_records(
            decoded.records,
            overflows=decoded.overflows,
            unresolved=decoded.unresolved,
            resyncs=decoded.resyncs,
            ptwrites=list(decoded.ptwrites),
        )
        assert_traces_equal(decoded, rebuilt)
