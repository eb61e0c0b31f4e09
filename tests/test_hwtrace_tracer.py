"""Unit tests for the per-core tracer."""

import pytest

from repro.core.otc import OperationAwareTracingController
from repro.hwtrace.msr import CtlBits
from repro.hwtrace.topa import OutputMode, ToPAOutput
from repro.hwtrace.tracer import CoreTracer, VolumeModel
from repro.util.units import MIB


@pytest.fixture
def tracer(ledger):
    return CoreTracer(core_id=0, ledger=ledger)


def observe(tracer, path, *, cr3=0x1000, e0=0, e1=100, branches=100_000, t0=0, t1=1000):
    return tracer.observe_slice(
        pid=1, tid=2, cr3=cr3, t_start=t0, t_end=t1,
        event_start=e0, event_end=e1, branches=branches, path_model=path,
    )


def arm(tracer, size=4 * MIB, cr3_match=0, mode=OutputMode.STOP_ON_FULL):
    tracer.attach_output(ToPAOutput.single_region(size, mode=mode))
    flags = CtlBits.BRANCH_EN | CtlBits.TOPA
    if cr3_match:
        flags |= CtlBits.CR3_FILTER
    tracer.msr.configure(flags, cr3_match=cr3_match or None)
    tracer.msr.enable()


class TestVolumeModel:
    def test_slice_bytes_has_header_floor(self):
        volume = VolumeModel()
        assert volume.slice_bytes(0, 0.1) == volume.segment_header_bytes

    def test_more_indirect_means_more_bytes(self):
        volume = VolumeModel()
        low = volume.slice_bytes(10_000, 0.02)
        high = volume.slice_bytes(10_000, 0.20)
        assert high > low

    def test_bandwidth_realistic_scale(self):
        """~100-250 MB/s for Table 1 parameters, matching IPT reality."""
        volume = VolumeModel()
        bw = volume.bytes_per_second(0.15, 3.0, 0.06)
        assert 50e6 < bw < 400e6


class TestCapture:
    def test_disabled_tracer_captures_nothing(self, tracer, tiny_path):
        assert observe(tracer, tiny_path) is None
        assert tracer.segments == []

    def test_enabled_tracer_stores_segment(self, tracer, tiny_path):
        arm(tracer)
        segment = observe(tracer, tiny_path)
        assert segment is not None
        assert segment.captured_event_end == 100
        assert not segment.truncated
        assert tracer.bytes_captured > 0

    def test_cr3_filter_drops_mismatches(self, tracer, tiny_path):
        arm(tracer, cr3_match=0xAAA000)
        assert observe(tracer, tiny_path, cr3=0xBBB000) is None
        assert tracer.filtered_slices == 1
        assert observe(tracer, tiny_path, cr3=0xAAA000) is not None

    def test_enabled_without_output_is_an_error(self, tracer, tiny_path):
        tracer.msr.configure(CtlBits.BRANCH_EN)
        tracer.msr.enable()
        with pytest.raises(RuntimeError):
            observe(tracer, tiny_path)

    def test_buffer_full_truncates_events(self, tracer, tiny_path):
        arm(tracer, size=4096)  # tiny buffer
        segment = observe(tracer, tiny_path, branches=10_000_000, e1=1000)
        assert segment is not None
        assert segment.truncated
        assert segment.captured_event_end < 1000
        assert segment.bytes_accepted < segment.bytes_offered

    def test_stopped_buffer_drops_whole_slices(self, tracer, tiny_path):
        arm(tracer, size=4096)
        observe(tracer, tiny_path, branches=10_000_000)
        dropped = observe(tracer, tiny_path, branches=10_000)
        assert dropped is None
        assert tracer.overflow_slices == 1

    def test_ring_mode_never_truncates(self, tracer, tiny_path):
        arm(tracer, size=4096, mode=OutputMode.RING)
        for _ in range(5):
            segment = observe(tracer, tiny_path, branches=10_000_000, e1=1000)
            assert segment is not None
            assert not segment.truncated


class TestLifecycle:
    def test_take_segments_clears(self, tracer, tiny_path):
        arm(tracer)
        observe(tracer, tiny_path)
        taken = tracer.take_segments()
        assert len(taken) == 1
        assert tracer.segments == []

    def test_reset_rearms_buffer(self, tracer, tiny_path):
        arm(tracer, size=4096)
        observe(tracer, tiny_path, branches=10_000_000)
        assert tracer.output.stopped
        tracer.reset()
        assert not tracer.output.stopped
        assert tracer.segments == []
        assert tracer.overflow_slices == 0


class TestControlBitsView:
    @pytest.mark.parametrize(
        "flags",
        [
            CtlBits(0),
            CtlBits.BRANCH_EN | CtlBits.TOPA,
            CtlBits.BRANCH_EN | CtlBits.TOPA | CtlBits.CR3_FILTER,
            OperationAwareTracingController.TRACE_FLAGS,
        ],
    )
    def test_int_masks_agree_with_flag_view(self, tracer, flags):
        def check():
            ctl = tracer.msr.ctl
            assert type(tracer.msr.ctl_value) is int
            assert tracer.msr.trace_enabled == bool(ctl & CtlBits.TRACE_EN)
            assert tracer.enabled == tracer.msr.trace_enabled
            assert tracer.cr3_filtering == bool(ctl & CtlBits.CR3_FILTER)

        tracer.msr.configure(flags, cr3_match=0x5000)
        check()
        assert not tracer.enabled
        tracer.msr.enable()
        check()
        assert tracer.enabled
        tracer.msr.disable()
        check()
        assert not tracer.enabled
        assert tracer.msr.ctl == flags
