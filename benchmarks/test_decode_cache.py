"""Decode-cache benchmark: what the cache saves on repeated replicas.

Builds the repetition scenario RCO exploits — several replicas of one
service whose trace streams differ only in timestamps and CR3s — and
decodes the fleet four ways: through the packet scan (the path every
non-canonical upload takes), through the uncached canonical decode,
with a cold cache (a fresh cache per run still decodes one replica's
worth of unique bodies), and with a warm cache (every body served from
cache).
Writes MB/s for each, the hit rate and ``bytes_saved`` to
``BENCH_decode_cache.json`` at the repository root.

The gate is what the cache saves: a hit rate above 90% and bytes saved,
both over the fill pass plus one warm pass (fixed work, independent of
``REPEATS``), and warm cached decode at >= 3x the packet scan.  The uncached
canonical decode resolves a whole upload in one vectorized pass, so
the cache buys little over it; that ratio is recorded and printed as
``warm_over_uncached`` but not gated.  Every cached result must be
byte-identical to the uncached one.  Each timing is the median of
``REPEATS`` runs (:func:`repro.util.bench.measure`).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from conftest import emit
from repro.hwtrace.cache import DecodeCache
from repro.hwtrace.codec import scan_stream
from repro.hwtrace.decoder import SoftwareDecoder, encode_trace
from repro.hwtrace.tracer import TraceSegment
from repro.program.binary import FunctionCategory
from repro.program.generator import BinaryShape, generate_binary
from repro.program.path import PathModel
from repro.util.bench import measure, write_bench

REPO_ROOT = Path(__file__).resolve().parent.parent
EVENTS_PER_SEGMENT = 4096
SEGMENTS_PER_REPLICA = 60
REPLICAS = 8
REPEATS = 5
MIN_WARM_SPEEDUP = 3.0


def _build_fleet():
    """One binary, REPLICAS streams identical modulo t_start and CR3."""
    shape = BinaryShape(
        n_functions=16,
        blocks_per_function_mean=6.0,
        category_weights={FunctionCategory.APP: 1.0},
    )
    binary = generate_binary("cachebench", shape, seed=3)
    path = PathModel(binary, seed=3, length=1 << 16, stride=1024)
    cycle = 1 << 16

    def replica_stream(t_base: int, cr3: int) -> bytes:
        segments = [
            TraceSegment(
                core_id=0, pid=1, tid=2, cr3=cr3,
                t_start=t_base + i * 1000, t_end=t_base + i * 1000 + 999,
                event_start=(i * EVENTS_PER_SEGMENT) % cycle,
                event_end=(i * EVENTS_PER_SEGMENT) % cycle + EVENTS_PER_SEGMENT,
                captured_event_end=(i * EVENTS_PER_SEGMENT) % cycle
                + EVENTS_PER_SEGMENT,
                bytes_offered=1.0, bytes_accepted=1.0,
                path_model=path,
            )
            for i in range(SEGMENTS_PER_REPLICA)
        ]
        return encode_trace(segments)

    cr3s = [0x1000 + 0x1000 * r for r in range(REPLICAS)]
    streams = [
        replica_stream(10**6 * r, cr3) for r, cr3 in enumerate(cr3s)
    ]
    return {cr3: binary for cr3 in cr3s}, streams


def _scan_decode(decoder, stream):
    """Decode through the packet scan, as a non-canonical upload does."""
    return decoder._reconstruct(scan_stream(stream))


def test_decode_cache_speedup():
    binaries, streams = _build_fleet()
    total_mb = sum(len(s) for s in streams) / 1e6

    def decode_all(decoder):
        return [decoder.decode(s) for s in streams]

    plain = SoftwareDecoder(binaries)
    plain.decode(streams[0])  # warm numpy / allocator
    uncached = measure(lambda: decode_all(plain), REPEATS)
    scanned = measure(
        lambda: [_scan_decode(plain, s) for s in streams], REPEATS
    )

    cold = measure(
        decode_all,
        REPEATS,
        setup=lambda: SoftwareDecoder(binaries, cache=DecodeCache()),
    )
    cache = DecodeCache()
    cached = SoftwareDecoder(binaries, cache=cache)
    decode_all(cached)  # fill
    decode_all(cached)  # one warm pass
    # the cache's savings over a fixed amount of work, the fill pass plus
    # one warm pass, so they do not grow with REPEATS
    stats = cache.stats()
    warm = measure(lambda: decode_all(cached), REPEATS)

    reference = uncached.result
    for ref, result in zip(
        reference * 3, scanned.result + cold.result + warm.result
    ):
        assert np.array_equal(ref.timestamps, result.timestamps)
        assert np.array_equal(ref.cr3s, result.cr3s)
        assert np.array_equal(ref.block_ids, result.block_ids)
        assert np.array_equal(ref.function_ids, result.function_ids)
        assert ref.overflows == result.overflows
        assert ref.unresolved == result.unresolved

    metrics = {
        "stream_mb": round(total_mb, 3),
        "replicas": REPLICAS,
        "repeats": REPEATS,
        "scan_mb_s": round(total_mb / scanned.median, 2),
        "uncached_mb_s": round(total_mb / uncached.median, 2),
        "cached_cold_mb_s": round(total_mb / cold.median, 2),
        "cached_warm_mb_s": round(total_mb / warm.median, 2),
        "warm_over_scan_speedup": round(scanned.median / warm.median, 2),
        "warm_over_uncached": round(uncached.median / warm.median, 2),
        "hit_rate": stats["hit_rate"],
        "bytes_saved": stats["bytes_saved"],
        "bytes_saved_per_pass": stats["bytes_saved"] // 2,
        "cache_entries": stats["entries"],
    }
    report = write_bench(
        REPO_ROOT / "BENCH_decode_cache.json", "decode_cache", metrics
    )["metrics"]

    warm_mb_s = report["cached_warm_mb_s"]
    emit(f"Decode cache ({REPLICAS} replicas, {total_mb:.1f} MB total)")
    emit(f"{'path':<20}{'MB/s':>12}{'warm is':>12}")
    for label, key in (
        ("packet scan", "scan_mb_s"),
        ("uncached canonical", "uncached_mb_s"),
        ("cached cold", "cached_cold_mb_s"),
    ):
        emit(f"{label:<20}{report[key]:>12.1f}{warm_mb_s / report[key]:>11.2f}x")
    emit(f"{'cached warm':<20}{warm_mb_s:>12.1f}")
    emit(
        f"hit rate {report['hit_rate']:.1%}, {report['cache_entries']} entries, "
        f"{report['bytes_saved_per_pass']:,} bytes saved per fleet pass; over "
        f"the uncached canonical decode the warm cache buys "
        f"{report['warm_over_uncached']:.2f}x"
    )

    assert report["hit_rate"] > 0.9, (
        f"replica bodies should dedupe; hit rate {report['hit_rate']:.1%}"
    )
    assert report["bytes_saved"] > 0, "no decode work was saved"
    assert report["warm_over_scan_speedup"] >= MIN_WARM_SPEEDUP, (
        f"warm cached decode only {report['warm_over_scan_speedup']:.1f}x "
        f"the packet scan; need >= {MIN_WARM_SPEEDUP:.0f}x"
    )
