"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.rco import augment_traces, interval_intersection, interval_length, merge_intervals
from repro.hwtrace.cache import DecodeCache
from repro.hwtrace.decoder import SoftwareDecoder, encode_trace, split_canonical_stream
from repro.hwtrace.packets import (
    PipPacket,
    PsbPacket,
    TipPacket,
    TntPacket,
    TscPacket,
    encode_packets,
    parse_stream,
)
from repro.hwtrace.topa import OutputMode, ToPAOutput
from repro.hwtrace.tracer import TraceSegment
from repro.kernel.events import Simulator
from repro.util.stats import OnlineStats, normalized_l1_distance, percentile

# ---------------------------------------------------------------------------
# interval algebra
# ---------------------------------------------------------------------------

intervals = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)).map(
        lambda pair: (min(pair), max(pair))
    ),
    max_size=30,
)


@given(intervals)
def test_merge_intervals_disjoint_and_sorted(items):
    merged = merge_intervals(items)
    for (_a1, b1), (a2, _b2) in zip(merged, merged[1:]):
        assert b1 < a2  # strictly disjoint and sorted
    for a, b in merged:
        assert a < b


@given(intervals)
def test_merge_idempotent(items):
    merged = merge_intervals(items)
    assert merge_intervals(merged) == merged


@given(intervals)
def test_merge_preserves_membership(items):
    merged = merge_intervals(items)

    def covered(point, ivs):
        return any(a <= point < b for a, b in ivs)

    for a, b in items:
        if b > a:
            for probe in (a, (a + b) // 2, b - 1):
                assert covered(probe, merged)


@given(intervals, intervals)
def test_intersection_bounded_by_operands(left, right):
    inter = interval_intersection(merge_intervals(left), merge_intervals(right))
    length = interval_length(inter)
    assert length <= interval_length(left)
    assert length <= interval_length(right)


@given(intervals, intervals)
def test_intersection_commutative(left, right):
    a = interval_intersection(merge_intervals(left), merge_intervals(right))
    b = interval_intersection(merge_intervals(right), merge_intervals(left))
    assert a == b


@given(st.lists(intervals, max_size=5))
def test_augmentation_union_bounds(workers):
    result = augment_traces(workers)
    assert result.union_events <= sum(result.per_worker_events)
    assert result.union_events >= (
        max(result.per_worker_events) if result.per_worker_events else 0
    )
    assert result.redundant_events == sum(result.per_worker_events) - result.union_events


# ---------------------------------------------------------------------------
# packet streams
# ---------------------------------------------------------------------------

packet_strategy = st.one_of(
    st.just(PsbPacket()),
    st.builds(TscPacket, st.integers(0, (1 << 56) - 1)),
    st.builds(PipPacket, st.integers(0, (1 << 48) - 1)),
    st.builds(TipPacket, st.integers(0, (1 << 48) - 1)),
    st.builds(
        TntPacket,
        st.lists(st.booleans(), min_size=1, max_size=6).map(tuple),
    ),
)


@given(st.lists(packet_strategy, max_size=50))
def test_packet_stream_roundtrip(packets):
    assert parse_stream(encode_packets(packets)) == packets


@given(st.lists(packet_strategy, min_size=1, max_size=20))
def test_stream_length_is_sum_of_packets(packets):
    total = sum(len(p.encode()) for p in packets)
    assert len(encode_packets(packets)) == total


# ---------------------------------------------------------------------------
# canonical chunk framing
# ---------------------------------------------------------------------------

KNOWN_CR3 = 0x1000
UNKNOWN_CR3 = 0x9999000

#: (cr3, first event, event count, captured events or None, start time)
segment_specs = st.lists(
    st.tuples(
        st.sampled_from([KNOWN_CR3, UNKNOWN_CR3]),
        st.integers(0, 4000),
        st.integers(0, 40),
        st.one_of(st.none(), st.integers(0, 40)),
        st.integers(0, 1 << 40),
    ),
    min_size=1,
    max_size=6,
)


def _segments(path, specs):
    segments = []
    for cr3, start, count, captured, t_start in specs:
        end = start + count
        segments.append(TraceSegment(
            core_id=0, pid=1, tid=2, cr3=cr3,
            t_start=t_start, t_end=t_start + 100,
            event_start=start, event_end=end,
            captured_event_end=end if captured is None else start + min(captured, count),
            bytes_offered=1000.0, bytes_accepted=1000.0,
            path_model=path,
        ))
    return segments


def _assert_same_trace(left, right):
    for column in ("timestamps", "cr3s", "block_ids", "function_ids"):
        assert np.array_equal(getattr(left, column), getattr(right, column)), column
    for counter in ("overflows", "unresolved", "resyncs", "ptwrites"):
        assert getattr(left, counter) == getattr(right, counter), counter


@given(segment_specs)
def test_chunk_framing_roundtrip(tiny_path, specs):
    segments = _segments(tiny_path, specs)
    data = encode_trace(segments)
    decoder = SoftwareDecoder({KNOWN_CR3: tiny_path.binary})
    units = split_canonical_stream(data)
    assert units is not None
    assert [cr3 for cr3, _body in units] == [segment.cr3 for segment in segments]

    decoded = decoder.decode(data)
    entries = [decoder.decode_chunk(cr3, body) for cr3, body in units]
    assert np.concatenate([e.block_ids for e in entries]).tolist() == decoded.block_ids.tolist()
    assert (
        np.concatenate([e.function_ids for e in entries]).tolist()
        == decoded.function_ids.tolist()
    )
    assert sum(e.unresolved for e in entries) == decoded.unresolved

    reference = decoder.decode_objects(data)
    _assert_same_trace(decoded, reference)
    cached = SoftwareDecoder({KNOWN_CR3: tiny_path.binary}, cache=DecodeCache())
    _assert_same_trace(cached.decode(data), reference)  # cold cache
    _assert_same_trace(cached.decode(data), reference)  # warm cache


# ---------------------------------------------------------------------------
# ToPA buffers
# ---------------------------------------------------------------------------

@given(
    st.integers(1, 64).map(lambda pages: pages * 4096),
    st.lists(st.integers(0, 100_000), max_size=30),
)
def test_topa_stop_mode_conservation(capacity, writes):
    output = ToPAOutput.single_region(capacity, mode=OutputMode.STOP_ON_FULL)
    accepted_total = sum(output.write(n) for n in writes)
    assert accepted_total == output.written
    assert output.written <= output.capacity
    assert output.total_offered == sum(writes)


@given(
    st.integers(1, 64).map(lambda pages: pages * 4096),
    st.lists(st.integers(0, 100_000), max_size=30),
)
def test_topa_ring_mode_accepts_everything(capacity, writes):
    output = ToPAOutput.single_region(capacity, mode=OutputMode.RING)
    for n in writes:
        assert output.write(n) == n
    assert output.written <= output.capacity
    assert output.written + output.wrapped_bytes == sum(writes)


# ---------------------------------------------------------------------------
# event queue
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(0, 1_000_000), min_size=1, max_size=100))
def test_simulator_fires_in_nondecreasing_time_order(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.schedule(t, lambda t=t: fired.append(sim.now))
    sim.run_until_idle()
    assert fired == sorted(fired)
    assert len(fired) == len(times)
    assert sim.now == max(times)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
def test_percentile_within_range(samples):
    for pct in (0, 25, 50, 75, 100):
        value = percentile(samples, pct)
        assert min(samples) <= value <= max(samples)


@given(
    st.dictionaries(st.integers(0, 20), st.floats(0.001, 1e3), max_size=10),
    st.dictionaries(st.integers(0, 20), st.floats(0.001, 1e3), max_size=10),
)
def test_l1_distance_bounds_and_symmetry(a, b):
    d = normalized_l1_distance(a, b)
    assert 0.0 <= d <= 2.0 + 1e-9
    assert abs(d - normalized_l1_distance(b, a)) < 1e-9


@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=300))
def test_online_stats_matches_direct_computation(values):
    stats = OnlineStats()
    for value in values:
        stats.add(value)
    assert stats.count == len(values)
    assert stats.minimum == min(values)
    assert stats.maximum == max(values)
    mean = sum(values) / len(values)
    assert stats.mean == __import__("pytest").approx(mean, rel=1e-6, abs=1e-6)
