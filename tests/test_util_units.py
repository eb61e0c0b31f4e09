"""Unit tests for time/size units."""

import pytest

from repro.util.units import GIB, KIB, MIB, MSEC, SEC, USEC, fmt_bytes, fmt_time


class TestConversions:

    def test_unit_ratios(self):
        assert SEC == 1000 * MSEC == 1_000_000 * USEC
        assert GIB == 1024 * MIB == 1024 * 1024 * KIB


class TestFormatting:
    @pytest.mark.parametrize(
        "ns,expected",
        [
            (500, "500ns"),
            (1_500, "1.500us"),
            (2 * MSEC, "2.000ms"),
            (3 * SEC, "3.000s"),
        ],
    )
    def test_fmt_time(self, ns, expected):
        assert fmt_time(ns) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [
            (512, "512B"),
            (2048, "2.0KiB"),
            (3 * MIB, "3.0MiB"),
            (2 * GIB, "2.00GiB"),
        ],
    )
    def test_fmt_bytes(self, n, expected):
        assert fmt_bytes(n) == expected
