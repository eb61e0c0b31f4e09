"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "not-a-workload"])

    def test_defaults(self):
        args = build_parser().parse_args(["trace", "om"])
        assert args.period_ms == 500
        assert args.top == 5

    def test_scheme_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "om", "--schemes", "Zipkin"])


class TestCommands:
    def test_workloads_lists_table1(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("pb", "xz", "mc", "Search1", "Agent"):
            assert name in out

    def test_trace_compute(self, capsys):
        assert main(["trace", "ex", "--period-ms", "200", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "traced ex" in out
        assert "MSR operations" in out
        assert "top 2 functions" in out

    @pytest.mark.slow
    def test_trace_service_without_decode(self, capsys):
        assert main(["trace", "mc", "--period-ms", "120", "--top", "0"]) == 0
        out = capsys.readouterr().out
        assert "traced mc" in out
        assert "top" not in out

    @pytest.mark.slow
    def test_compare_two_schemes(self, capsys):
        assert main([
            "compare", "ng", "--schemes", "Oracle", "EXIST",
            "--window-s", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "EXIST" in out
        assert "WRMSRs" in out

    def test_cluster_flow(self, capsys):
        assert main([
            "cluster", "--app", "Agent", "--nodes", "2", "--replicas", "2",
            "--period-ms", "120",
        ]) == 0
        out = capsys.readouterr().out
        assert "Complete" in out
        assert "management pod" in out


class TestProfile:
    def test_profile_wraps_command(self, capsys, tmp_path):
        report = tmp_path / "prof.json"
        assert main(
            ["profile", "--top", "5", "--json", str(report), "--", "workloads"]
        ) == 0
        out = capsys.readouterr().out
        assert "tottime" in out and "cumtime" in out

        import json

        payload = json.loads(report.read_text())
        assert payload["command"] == ["workloads"]
        assert payload["exit_code"] == 0
        assert 0 < len(payload["hotspots"]) <= 5
        hotspot = payload["hotspots"][0]
        assert {"function", "file", "ncalls", "tottime", "cumtime"} <= set(hotspot)

    def test_profile_propagates_exit_code(self, capsys):
        with pytest.raises(SystemExit):
            main(["profile", "--", "not-a-command"])

    def test_profile_requires_wrapped_command(self, capsys):
        assert main(["profile"]) == 2
        assert main(["profile", "--", "profile", "workloads"]) == 2
