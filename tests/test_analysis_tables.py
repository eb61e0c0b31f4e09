"""Tests for table rendering."""

from repro.analysis.tables import format_table


class TestFormatTable:
    def test_headers_and_separator(self):
        out = format_table([["a", 1]], headers=["key", "value"])
        lines = out.splitlines()
        assert lines[0].startswith("key")
        assert set(lines[1]) <= {"-", "+"}
        assert lines[2].startswith("a")

    def test_alignment(self):
        out = format_table([["long-cell", 1], ["x", 22]], headers=["c1", "c2"])
        lines = out.splitlines()
        # all rows aligned to the widest cell
        assert lines[2].index("|") == lines[3].index("|")

    def test_title(self):
        out = format_table([["a"]], title="My Table")
        assert out.startswith("My Table\n")

    def test_no_headers(self):
        out = format_table([["a", "b"]])
        assert "-" not in out

    def test_ragged_rows_padded(self):
        out = format_table([["a"], ["b", "c"]])
        assert len(out.splitlines()) == 2

    def test_empty(self):
        assert format_table([]) == ""
