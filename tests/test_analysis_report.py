"""Tests for the markdown session report."""

import pytest

from repro.analysis.report import TOP_FUNCTIONS, build_session_report
from repro.core.exist import ExistScheme
from repro.kernel.system import KernelSystem, SystemConfig
from repro.program.workloads import get_workload
from repro.tracing.base import SchemeArtifacts
from repro.util.units import MSEC


@pytest.fixture(scope="module")
def traced_session():
    system = KernelSystem(SystemConfig.small_node(8, seed=13))
    target = get_workload("Recommend").spawn(system, seed=13)
    exist = ExistScheme(period_ns=300 * MSEC, continuous=False)
    exist.install(system, [target])
    system.run_for(360 * MSEC)
    return exist.artifacts(), target


class TestReport:
    def test_all_sections_present(self, traced_session):
        artifacts, target = traced_session
        report = build_session_report(artifacts, target)
        for heading in (
            "# Tracing report: Recommend",
            "## Capture",
            "## Hottest functions",
            "## Costly-function families",
            "## Memory access widths",
            "## IPC",
        ):
            assert heading in report, heading

    def test_report_names_real_functions(self, traced_session):
        artifacts, target = traced_session
        report = build_session_report(artifacts, target)
        assert "Recommend::" in report

    def test_empty_artifacts(self, traced_session):
        _, target = traced_session
        empty = SchemeArtifacts(scheme="EXIST")
        report = build_session_report(empty, target)
        assert "no trace data captured" in report

    def test_top_functions_limit(self, traced_session):
        artifacts, target = traced_session
        report = build_session_report(artifacts, target)
        hot_section = report.split("## Hottest functions")[1].split("##")[0]
        data_rows = [
            line for line in hot_section.splitlines()
            if "Recommend::" in line
        ]
        assert len(data_rows) == TOP_FUNCTIONS
