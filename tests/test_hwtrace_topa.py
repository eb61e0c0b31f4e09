"""Unit tests for ToPA output buffers."""

import pytest

from repro.hwtrace.topa import OutputMode, ToPAEntry, ToPAOutput
from repro.util.units import MIB


class TestEntries:
    def test_page_multiple_required(self):
        with pytest.raises(ValueError):
            ToPAEntry(base=0, size=1000)
        with pytest.raises(ValueError):
            ToPAEntry(base=0, size=0)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            ToPAOutput([], OutputMode.STOP_ON_FULL)

    def test_single_region_rounds_to_pages(self):
        output = ToPAOutput.single_region(10_000)
        assert output.capacity == 8192

    def test_multi_region_capacity(self):
        output = ToPAOutput(
            [ToPAEntry(0, 4096), ToPAEntry(8192, 8192)], OutputMode.STOP_ON_FULL
        )
        assert output.capacity == 12288


class TestStopOnFull:
    """Compulsory tracing: EXIST's §3.3 choice ①."""

    def test_accepts_until_full(self):
        output = ToPAOutput.single_region(8192)
        assert output.write(5000) == 5000
        assert output.write(3000) == 3000
        assert not output.stopped

    def test_partial_accept_then_stop(self):
        output = ToPAOutput.single_region(8192)
        accepted = output.write(10_000)
        assert accepted == 8192
        assert output.stopped
        assert output.overflowed

    def test_stopped_rejects_everything(self):
        output = ToPAOutput.single_region(4096)
        output.write(5000)
        assert output.write(100) == 0
        assert output.total_offered == 5100
        assert output.written == 4096

    def test_negative_write_rejected(self):
        output = ToPAOutput.single_region(4096)
        with pytest.raises(ValueError):
            output.write(-1)

class TestRing:
    """Conventional circular buffer (REPT-style / perf)."""

    def test_accepts_everything(self):
        output = ToPAOutput.single_region(4096, mode=OutputMode.RING)
        assert output.write(10_000) == 10_000
        assert not output.stopped

    def test_wraps_and_tracks_overwritten(self):
        output = ToPAOutput.single_region(4096, mode=OutputMode.RING)
        output.write(3000)
        output.write(3000)
        assert output.written == 4096
        assert output.wrapped_bytes == 6000 - 4096
        assert output.total_offered == 6000


class TestReset:
    def test_reset_rearms(self):
        output = ToPAOutput.single_region(4096)
        output.write(9999)
        output.reset()
        assert not output.stopped
        assert output.written == 0
        assert output.write(100) == 100


class TestConstrain:
    """Memory-pressure shrinking (the fault injector's exhaust path)."""

    def test_constrain_removes_capacity(self):
        output = ToPAOutput.single_region(MIB)
        removed = output.constrain(0.5)
        assert removed > 0
        assert output.capacity == MIB - removed

    def test_constrain_latches_stop_when_already_consumed(self):
        output = ToPAOutput.single_region(64 * 4096)
        output.write(40 * 4096)
        output.constrain(0.9)
        assert output.stopped
        assert output.overflowed
        assert output.written == output.capacity

    def test_constrain_keeps_written_bytes(self):
        output = ToPAOutput.single_region(64 * 4096)
        output.write(2 * 4096)
        output.constrain(0.5)
        assert output.written == 2 * 4096
        assert not output.stopped

    def test_constrain_never_below_one_page(self):
        output = ToPAOutput.single_region(4096)
        assert output.constrain(0.99) == 0
        assert output.capacity == 4096

    def test_invalid_fraction_rejected(self):
        output = ToPAOutput.single_region(4096)
        with pytest.raises(ValueError):
            output.constrain(1.0)
        with pytest.raises(ValueError):
            output.constrain(-0.1)
