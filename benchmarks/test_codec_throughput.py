"""Codec throughput microbenchmark: columnar encode, object vs. columnar decode.

Encodes a ~10 MB synthetic packet stream of 4,096-event segments with
the columnar encoder (``encode_trace``) and decodes it with both the
per-packet object pipeline (``SoftwareDecoder.decode_objects``) and the
vectorized columnar pipeline (``SoftwareDecoder.decode``), then writes
MB/s for each to ``BENCH_codec.json`` at the repository root — the perf
trajectory other PRs regress against.  The vectorized decode must beat
the object decode by >= 10x on this stream.

``encode_slot_mb_s`` times ``encode_trace`` on the segment shape a
reconcile slot actually uploads — one segment per captured slice, half
of them header-only, about one event on average — which the 4,096-event
stream says nothing about.

Every timing is the median of ``REPEATS`` runs
(:func:`repro.util.bench.measure`).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from conftest import emit
from repro.hwtrace.decoder import SoftwareDecoder, encode_trace
from repro.hwtrace.tracer import TraceSegment
from repro.program.binary import FunctionCategory
from repro.program.generator import BinaryShape, generate_binary
from repro.program.path import PathModel
from repro.util.bench import measure, write_bench

REPO_ROOT = Path(__file__).resolve().parent.parent
TARGET_STREAM_BYTES = 10 * 1000 * 1000
EVENTS_PER_SEGMENT = 4096
MIN_SPEEDUP = 10.0

#: captured events per segment and their share, as counted over the 8
#: uploads (17,588 segments) of a ``chaos`` reconcile of 8 Search1 nodes
SLOT_EVENT_SHARES = {
    0: 0.5029, 1: 0.1039, 2: 0.2195, 3: 0.1185, 4: 0.0392, 5: 0.0116,
    6: 0.0030, 7: 0.0009, 8: 0.0003, 9: 0.0001, 10: 0.0001, 12: 0.0001,
}
SLOT_SEGMENTS = 100_000
#: one segment in this many is truncated (31 of the 17,588 above)
SLOT_TRUNCATE_EVERY = 500
REPEATS = 3


def _build_segments():
    shape = BinaryShape(
        n_functions=16,
        blocks_per_function_mean=6.0,
        category_weights={FunctionCategory.APP: 1.0},
    )
    binary = generate_binary("codecbench", shape, seed=3)
    path = PathModel(binary, seed=3, length=1 << 16, stride=1024)
    bytes_per_segment = 32 + 8 * EVENTS_PER_SEGMENT
    n_segments = TARGET_STREAM_BYTES // bytes_per_segment + 1
    segments = [
        TraceSegment(
            core_id=0, pid=1, tid=2, cr3=0x1000,
            t_start=i * 1000, t_end=i * 1000 + 999,
            event_start=i * EVENTS_PER_SEGMENT,
            event_end=(i + 1) * EVENTS_PER_SEGMENT,
            captured_event_end=(i + 1) * EVENTS_PER_SEGMENT,
            bytes_offered=1.0, bytes_accepted=1.0,
            path_model=path,
        )
        for i in range(n_segments)
    ]
    return binary, path, segments


def _build_slot_segments(path):
    """Segments with the event-count mix of a real reconcile slot."""
    rng = np.random.default_rng(11)
    sizes = np.array(list(SLOT_EVENT_SHARES))
    shares = np.array(list(SLOT_EVENT_SHARES.values()))
    counts = rng.choice(sizes, size=SLOT_SEGMENTS, p=shares / shares.sum())
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    segments = []
    for i, (start, count) in enumerate(zip(starts.tolist(), counts.tolist())):
        truncated = i % SLOT_TRUNCATE_EVERY == SLOT_TRUNCATE_EVERY - 1
        segments.append(TraceSegment(
            core_id=i % 8, pid=1, tid=2 + i % 4, cr3=0x1000,
            t_start=i * 1000, t_end=i * 1000 + 999,
            event_start=start,
            event_end=start + count + (2 if truncated else 0),
            captured_event_end=start + count,
            bytes_offered=1.0, bytes_accepted=1.0,
            path_model=path,
        ))
    return segments


def test_codec_throughput():
    binary, path, segments = _build_segments()

    encode = measure(lambda: encode_trace(segments), REPEATS)
    stream, t_encode_columnar = encode.result, encode.median
    megabytes = len(stream) / 1e6
    assert megabytes >= 9.5, f"stream too small: {megabytes:.1f} MB"

    slot_segments = _build_slot_segments(path)
    encode_slot = measure(lambda: encode_trace(slot_segments), REPEATS)
    slot_stream, t_encode_slot = encode_slot.result, encode_slot.median
    slot_megabytes = len(slot_stream) / 1e6

    decoder = SoftwareDecoder({0x1000: binary})
    decoder.decode(stream)  # warm numpy / allocator
    decode = measure(lambda: decoder.decode(stream), REPEATS)
    decode_objects = measure(lambda: decoder.decode_objects(stream), REPEATS)
    decoded, t_decode_columnar = decode.result, decode.median
    reference, t_decode_objects = decode_objects.result, decode_objects.median
    assert len(decoded) == len(reference)
    assert decoded.block_sequence()[:1000] == reference.block_sequence()[:1000]

    metrics = {
        "stream_mb": round(megabytes, 3),
        "records": len(decoded),
        "encode_columnar_mb_s": round(megabytes / t_encode_columnar, 2),
        "slot_segments": len(slot_segments),
        "slot_stream_mb": round(slot_megabytes, 3),
        "encode_slot_mb_s": round(slot_megabytes / t_encode_slot, 2),
        "decode_object_mb_s": round(megabytes / t_decode_objects, 2),
        "decode_columnar_mb_s": round(megabytes / t_decode_columnar, 2),
        "decode_speedup": round(t_decode_objects / t_decode_columnar, 2),
    }
    report = write_bench(
        REPO_ROOT / "BENCH_codec.json", "codec_throughput", metrics
    )["metrics"]

    emit("Codec throughput (10 MB synthetic stream)")
    emit(f"{'path':<20}{'encode MB/s':>14}{'decode MB/s':>14}")
    emit(
        f"{'object':<20}{'-':>14}"
        f"{report['decode_object_mb_s']:>14.1f}"
    )
    emit(
        f"{'columnar':<20}{report['encode_columnar_mb_s']:>14.1f}"
        f"{report['decode_columnar_mb_s']:>14.1f}"
    )
    emit(
        f"{'columnar, slot':<20}{report['encode_slot_mb_s']:>14.1f}{'-':>14}"
    )
    emit(f"speedup: decode {report['decode_speedup']:.1f}x")

    assert report["decode_speedup"] >= MIN_SPEEDUP, (
        f"columnar decode only {report['decode_speedup']:.1f}x faster; "
        f"need >= {MIN_SPEEDUP:.0f}x"
    )
