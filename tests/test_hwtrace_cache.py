"""Tests for the repetition-aware decode cache (byte-identity contract).

Cached decodes are checked against the per-packet reference decoder
(:meth:`SoftwareDecoder.decode_objects`), which shares no code with the
columnar pipeline they exercise.
"""

import numpy as np
import pytest

from repro.hwtrace.cache import DecodeCache, binary_fingerprint, process_decode_cache
from repro.hwtrace.decoder import (
    DecodedTrace,
    SoftwareDecoder,
    encode_trace,
    split_canonical_stream,
)
from repro.hwtrace.packets import (
    PacketError,
    PipPacket,
    PsbPacket,
    PtwPacket,
    TipPacket,
    TntPacket,
    TscPacket,
    encode_packets,
)
from repro.hwtrace.tracer import TraceSegment

COLUMNS = ("timestamps", "cr3s", "block_ids", "function_ids")
# the reference decoder does not count skipped bytes
COUNTERS = ("overflows", "unresolved", "resyncs", "ptwrites")


def make_segment(path, *, cr3=0x1000, e0=0, e1=50, t0=100, truncate=None):
    captured = truncate if truncate is not None else e1
    return TraceSegment(
        core_id=0, pid=1, tid=2, cr3=cr3,
        t_start=t0, t_end=t0 + 100,
        event_start=e0, event_end=e1, captured_event_end=captured,
        bytes_offered=1000.0, bytes_accepted=1000.0,
        path_model=path,
    )


def assert_identical(left: DecodedTrace, right: DecodedTrace) -> None:
    for attr in COLUMNS:
        assert np.array_equal(getattr(left, attr), getattr(right, attr)), attr
    for attr in COUNTERS:
        assert getattr(left, attr) == getattr(right, attr), attr


def assert_matches_reference(decoder, data: bytes, resilient: bool = False) -> None:
    """``decoder.decode`` of ``data`` equals the per-packet reference."""
    assert_identical(
        decoder.decode(data, resilient=resilient),
        decoder.decode_objects(data, resilient=resilient),
    )


def golden_streams(path):
    """Representative canonical streams (the encode_trace output family)."""
    return [
        b"",
        encode_trace([make_segment(path)]),
        encode_trace([make_segment(path, e1=1)]),
        encode_trace([make_segment(path, truncate=10)]),
        encode_trace([
            make_segment(path, e0=0, e1=40, t0=100),
            make_segment(path, e0=0, e1=40, t0=200),
            make_segment(path, cr3=0x9999000, e0=0, e1=10, t0=300),
            make_segment(path, e0=40, e1=80, t0=400, truncate=60),
        ]),
    ]


class TestByteIdentity:
    def test_cached_matches_reference_on_golden_streams(self, tiny_path, tiny_binary):
        cached = SoftwareDecoder({0x1000: tiny_binary}, cache=DecodeCache())
        for stream in golden_streams(tiny_path):
            assert_matches_reference(cached, stream)
            # second decode serves from cache; must stay identical
            assert_matches_reference(cached, stream)

    def test_repetitions_hit_the_cache(self, tiny_path, tiny_binary):
        cache = DecodeCache()
        decoder = SoftwareDecoder({0x1000: tiny_binary}, cache=cache)
        # two "replicas": same behaviour, different timestamps
        replica_a = encode_trace([make_segment(tiny_path, t0=100)])
        replica_b = encode_trace([make_segment(tiny_path, t0=999)])
        decoder.decode(replica_a)
        misses_before = cache.misses
        decoder.decode(replica_b)
        assert cache.hits > 0
        assert cache.misses == misses_before  # body identical -> no decode
        assert cache.bytes_saved > 0

    def test_whole_upload_and_per_chunk_decodes_count_alike(
        self, tiny_path, tiny_binary
    ):
        # replicas repeat bodies inside one upload: the second and third
        # segments repeat the first's body, the fourth has its own
        raw = encode_trace([
            make_segment(tiny_path, e0=0, e1=40, t0=100),
            make_segment(tiny_path, e0=0, e1=40, t0=200),
            make_segment(tiny_path, e0=0, e1=40, t0=300),
            make_segment(tiny_path, e0=40, e1=80, t0=400),
        ])
        whole = SoftwareDecoder({0x1000: tiny_binary}, cache=DecodeCache())
        whole.decode(raw)
        chunked = SoftwareDecoder({0x1000: tiny_binary}, cache=DecodeCache())
        for cr3, body in split_canonical_stream(raw):
            chunked.decode_chunk(cr3, body)
        assert whole.cache.stats() == chunked.cache.stats()
        assert whole.cache.misses == 2 and whole.cache.hits == 2

    def test_corrupt_stream_resilient_falls_back_identically(
        self, tiny_path, tiny_binary
    ):
        raw = bytearray(encode_trace([
            make_segment(tiny_path, e1=40, t0=100),
            make_segment(tiny_path, e1=40, t0=200),
        ]))
        raw[40] ^= 0xFF
        raw = bytes(raw)
        cache = DecodeCache()
        cached = SoftwareDecoder({0x1000: tiny_binary}, cache=cache)
        assert_matches_reference(cached, raw, resilient=True)
        assert cache.fallbacks >= 1

    def test_corrupt_stream_strict_raises_same_error(self, tiny_path, tiny_binary):
        raw = bytearray(encode_trace([make_segment(tiny_path)]))
        raw[40] ^= 0xFF
        raw = bytes(raw)
        cached = SoftwareDecoder({0x1000: tiny_binary}, cache=DecodeCache())
        with pytest.raises(PacketError) as reference_error:
            cached.decode_objects(raw)
        with pytest.raises(PacketError) as cached_error:
            cached.decode(raw)
        assert str(reference_error.value) == str(cached_error.value)
        assert reference_error.value.offset == cached_error.value.offset

    def test_ptwrite_stream_falls_back_identically(self, tiny_binary):
        block = tiny_binary.blocks[0]
        raw = encode_packets([
            PsbPacket(), TscPacket(77), PipPacket(0x1000),
            TntPacket((True, False, False, False)), TipPacket(block.address),
            PtwPacket(0xDEAD),
        ])
        cache = DecodeCache()
        cached = SoftwareDecoder({0x1000: tiny_binary}, cache=cache)
        assert_matches_reference(cached, raw)
        assert cache.fallbacks == 1
        assert len(cache) == 0

    def test_garbage_prefix_falls_back(self, tiny_path, tiny_binary):
        raw = b"\x00\x00" + encode_trace([make_segment(tiny_path)])
        cache = DecodeCache()
        cached = SoftwareDecoder({0x1000: tiny_binary}, cache=cache)
        assert_matches_reference(cached, raw, resilient=True)
        assert cache.fallbacks == 1


class TestEviction:
    def test_tiny_budget_evicts_lru(self, tiny_path, tiny_binary):
        cache = DecodeCache(max_bytes=2048)
        decoder = SoftwareDecoder({0x1000: tiny_binary}, cache=cache)
        for start in range(0, 400, 40):
            decoder.decode(
                encode_trace([make_segment(tiny_path, e0=start, e1=start + 40)])
            )
        assert cache.evictions > 0
        assert cache.current_bytes <= cache.max_bytes
        # decode results stay correct under heavy eviction
        stream = encode_trace([make_segment(tiny_path, e0=0, e1=40)])
        assert_matches_reference(decoder, stream)

    def test_oversized_entry_is_skipped(self, tiny_path, tiny_binary):
        cache = DecodeCache(max_bytes=64)
        decoder = SoftwareDecoder({0x1000: tiny_binary}, cache=cache)
        stream = encode_trace([make_segment(tiny_path, e1=100)])
        assert_matches_reference(decoder, stream)
        assert len(cache) == 0
        assert cache.evictions == 0

    def test_clear_resets_everything(self, tiny_path, tiny_binary):
        cache = DecodeCache()
        decoder = SoftwareDecoder({0x1000: tiny_binary}, cache=cache)
        decoder.decode(encode_trace([make_segment(tiny_path)]))
        assert len(cache) > 0
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes == 0
        assert cache.stats()["hits"] == 0


class TestInvalidation:
    def test_fingerprint_distinguishes_binaries(self, tiny_binary):
        from repro.program.binary import FunctionCategory
        from repro.program.generator import BinaryShape, generate_binary

        other = generate_binary(
            "otherbin",
            BinaryShape(
                n_functions=4,
                blocks_per_function_mean=3.0,
                category_weights={FunctionCategory.APP: 1.0},
            ),
            seed=123,
        )
        assert binary_fingerprint(tiny_binary) != binary_fingerprint(other)
        # memoized: same object -> same digest object
        assert binary_fingerprint(other) is binary_fingerprint(other)

    def test_add_binary_invalidates_old_entries(self, tiny_path, tiny_binary):
        from repro.program.binary import FunctionCategory
        from repro.program.generator import BinaryShape, generate_binary

        cache = DecodeCache()
        decoder = SoftwareDecoder({0x1000: tiny_binary}, cache=cache)
        stream = encode_trace([make_segment(tiny_path)])
        decoder.decode(stream)
        hits_before = cache.hits
        other = generate_binary(
            "replacement",
            BinaryShape(
                n_functions=4,
                blocks_per_function_mean=3.0,
                category_weights={FunctionCategory.APP: 1.0},
            ),
            seed=5,
        )
        decoder.add_binary(0x1000, other)
        result = decoder.decode(stream)
        # the fingerprint changed, so nothing could have been served from
        # the old binary's entries
        assert cache.hits == hits_before
        assert_identical(result, decoder.decode_objects(stream))


class TestClusterSmoke:
    def test_reconcile_ignores_decode_cache_keyword(self, monkeypatch):
        """A 2-replica reconcile gives the same rows whatever ``decode_cache``
        says, and never consults a cache: each upload resolves in one pass."""
        from repro.cluster import ClusterMaster, ClusterNode, TraceTaskSpec
        from repro.core.config import TraceReason
        from repro.util.identity import reset_identity_counters
        from repro.util.units import MSEC

        def consulted(*_args, **_kwargs):
            raise AssertionError("the reconcile consulted a decode cache")

        monkeypatch.setattr(DecodeCache, "get_or_resolve", consulted)
        monkeypatch.setattr(DecodeCache, "note_fallback", consulted)
        instance = DecodeCache()
        rows = []
        for setting in (True, False, instance):
            reset_identity_counters()
            master = ClusterMaster(seed=3, decode_cache=setting)
            for index in range(2):
                master.add_node(ClusterNode(f"node-{index:02d}", seed=index))
            master.deploy("Search1", replicas=2)
            task = master.submit(TraceTaskSpec(
                app="Search1",
                reason=TraceReason.ANOMALY,
                period_ns=100 * MSEC,
            ))
            master.reconcile(task)
            assert task.status.sessions_completed == 2
            rows.append(master.sessions_for(task))
        assert all(row["records"] > 0 for row in rows[0])
        assert rows[0] == rows[1] == rows[2]
        assert len(instance) == 0

    def test_process_cache_is_shared(self):
        assert process_decode_cache() is process_decode_cache()
