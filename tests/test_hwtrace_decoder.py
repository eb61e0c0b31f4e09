"""Unit tests for trace serialization and the software decoder."""


from repro.hwtrace.decoder import SoftwareDecoder, encode_trace
from repro.hwtrace.tracer import TraceSegment


def make_segment(path, *, cr3=0x1000, e0=0, e1=50, t0=100, t1=200, truncate=None):
    captured = truncate if truncate is not None else e1
    return TraceSegment(
        core_id=0, pid=1, tid=2, cr3=cr3,
        t_start=t0, t_end=t1,
        event_start=e0, event_end=e1, captured_event_end=captured,
        bytes_offered=1000.0, bytes_accepted=1000.0,
        path_model=path,
    )


class TestEncode:
    def test_stream_nonempty(self, tiny_path):
        data = encode_trace([make_segment(tiny_path)])
        assert len(data) > 50

    def test_truncated_segment_gets_ovf(self, tiny_path):
        data = encode_trace([make_segment(tiny_path, truncate=10)])
        decoder = SoftwareDecoder({0x1000: tiny_path.binary})
        decoded = decoder.decode(data)
        assert decoded.overflows == 1

    def test_empty_segment_list(self):
        assert encode_trace([]) == b""


class TestDecode:
    def test_roundtrip_block_sequence(self, tiny_path, tiny_binary):
        segment = make_segment(tiny_path, e0=7, e1=57)
        data = encode_trace([segment])
        decoder = SoftwareDecoder({0x1000: tiny_binary})
        decoded = decoder.decode(data)
        expected = tiny_path.events(7, 57).tolist()
        assert decoded.block_sequence() == expected
        assert decoded.unresolved == 0

    def test_function_ids_attributed(self, tiny_path, tiny_binary):
        data = encode_trace([make_segment(tiny_path)])
        decoded = SoftwareDecoder({0x1000: tiny_binary}).decode(data)
        for record in decoded.records:
            assert (
                record.function_id
                == tiny_binary.blocks[record.block_id].function_id
            )

    def test_timestamps_from_tsc(self, tiny_path, tiny_binary):
        data = encode_trace([make_segment(tiny_path, t0=12345)])
        decoded = SoftwareDecoder({0x1000: tiny_binary}).decode(data)
        assert all(r.timestamp == 12345 for r in decoded.records)
        assert decoded.time_span() == (12345, 12345)

    def test_unknown_cr3_counts_unresolved(self, tiny_path):
        data = encode_trace([make_segment(tiny_path, cr3=0x9999000)])
        decoded = SoftwareDecoder({0x1000: tiny_path.binary}).decode(data)
        assert len(decoded.records) == 0
        assert decoded.unresolved == 50

    def test_multi_process_attribution(self, tiny_path, tiny_binary):
        segments = [
            make_segment(tiny_path, cr3=0x1000, e0=0, e1=10),
            make_segment(tiny_path, cr3=0x2000, e0=0, e1=20),
        ]
        decoder = SoftwareDecoder({0x1000: tiny_binary, 0x2000: tiny_binary})
        decoded = decoder.decode(encode_trace(segments))
        assert len(decoded.block_sequence(cr3=0x1000)) == 10
        assert len(decoded.block_sequence(cr3=0x2000)) == 20

    def test_histogram_matches_records(self, tiny_path, tiny_binary):
        data = encode_trace([make_segment(tiny_path, e1=200)])
        decoded = SoftwareDecoder({0x1000: tiny_binary}).decode(data)
        histogram = decoded.function_histogram()
        assert sum(histogram.values()) == len(decoded.records)

    def test_visit_counts(self, tiny_path, tiny_binary):
        data = encode_trace([make_segment(tiny_path, e1=100)])
        decoded = SoftwareDecoder({0x1000: tiny_binary}).decode(data)
        counts = decoded.visit_counts(tiny_binary.n_blocks)
        assert counts.sum() == 100


class TestForProcesses:
    def test_builds_from_kernel_processes(self, tiny_path, tiny_binary):
        from repro.kernel.task import Process

        process = Process(name="app", binary=tiny_binary)
        decoder = SoftwareDecoder.for_processes([process])
        data = encode_trace([make_segment(tiny_path, cr3=process.cr3, e1=5)])
        assert len(decoder.decode(data)) == 5

    def test_ignores_processes_without_binaries(self):
        from repro.kernel.task import Process

        decoder = SoftwareDecoder.for_processes([Process(name="nobin")])
        assert decoder.decode(b"") is not None


class TestDecodedTraceEdgeCases:
    def test_empty_trace(self):
        import numpy as np

        from repro.hwtrace.decoder import DecodedTrace

        trace = DecodedTrace()
        assert len(trace) == 0
        assert trace.records == []
        assert trace.block_sequence() == []
        assert trace.function_histogram() == {}
        assert trace.time_span() is None
        counts = trace.visit_counts(4)
        assert counts.shape == (4,) and not np.any(counts)

    def test_single_record_trace(self):
        from repro.hwtrace.decoder import DecodedRecord, DecodedTrace

        trace = DecodedTrace.from_records([DecodedRecord(7, 0x1000, 2, 1)])
        assert len(trace) == 1
        assert trace.time_span() == (7, 7)
        assert trace.block_sequence() == [2]
        assert trace.block_sequence(cr3=0x2000) == []
        assert trace.visit_counts(3).tolist() == [0, 0, 1]

    def test_visit_counts_out_of_range_block_id(self):
        import pytest

        from repro.hwtrace.decoder import DecodedRecord, DecodedTrace

        trace = DecodedTrace.from_records([DecodedRecord(1, 0x1000, 9, 0)])
        with pytest.raises(IndexError, match="block id 9 out of range"):
            trace.visit_counts(4)

    def test_forward_fill_all_masked(self):
        import numpy as np

        from repro.hwtrace.decoder import _forward_fill

        values = np.array([10, 20, 30], dtype=np.int64)
        filled = _forward_fill(np.zeros(3, dtype=bool), values)
        assert filled.tolist() == [0, 0, 0]

    def test_forward_fill_partial_mask(self):
        import numpy as np

        from repro.hwtrace.decoder import _forward_fill

        mask = np.array([False, True, False, True, False])
        values = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        assert _forward_fill(mask, values).tolist() == [0, 2, 2, 4, 4]
