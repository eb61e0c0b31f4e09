"""Tests for the CYC-style IPC timeline metrics."""

import pytest

from repro.analysis.metrics import IPC_BUCKET_NS, detect_ipc_anomalies, ipc_timeline
from repro.experiments.scenarios import run_traced_execution
from repro.hwtrace.tracer import TraceSegment
from repro.util.units import MSEC


def make_segment(path, *, t0=0, t1=1000, e0=0, e1=50, captured=None):
    return TraceSegment(
        core_id=0, pid=1, tid=2, cr3=0x1000, t_start=t0, t_end=t1,
        event_start=e0, event_end=e1,
        captured_event_end=captured if captured is not None else e1,
        bytes_offered=1.0, bytes_accepted=1.0, path_model=path,
    )


@pytest.fixture(scope="module")
def traced_run():
    return run_traced_execution("de", "EXIST", cpuset=[0, 1], seed=21)


class TestIpcTimeline:
    def test_uniform_segments_uniform_ipc(self, tiny_path):
        segments = [
            make_segment(tiny_path, t0=i * MSEC, t1=(i + 1) * MSEC,
                         e0=i * 100, e1=(i + 1) * 100)
            for i in range(20)
        ]
        samples = ipc_timeline(segments, branch_per_instr=0.15)
        assert len(samples) == 20 * MSEC // IPC_BUCKET_NS
        ipcs = [s.ipc for s in samples]
        assert max(ipcs) / min(ipcs) < 1.05

    def test_stall_shows_as_ipc_drop(self, tiny_path):
        segments = []
        for i in range(20):
            # 10-15ms: same wall time, a quarter of the events (stall)
            events = 25 if 10 <= i < 15 else 100
            segments.append(make_segment(
                tiny_path, t0=i * MSEC, t1=(i + 1) * MSEC,
                e0=0, e1=events,
            ))
        samples = ipc_timeline(segments, branch_per_instr=0.15)
        anomalies = detect_ipc_anomalies(samples)
        assert anomalies
        assert all(10 * MSEC <= a.t_start < 15 * MSEC for a in anomalies)

    def test_empty(self):
        assert ipc_timeline([], branch_per_instr=0.15) == []
        assert detect_ipc_anomalies([]) == []

    def test_invalid_density(self, tiny_path):
        with pytest.raises(ValueError):
            ipc_timeline([make_segment(tiny_path)], branch_per_instr=0)

    def test_real_run_plausible_ipc(self, traced_run):
        run = traced_run
        profile_bpi = 0.15  # de's branch density
        samples = ipc_timeline(
            run.artifacts.segments, branch_per_instr=profile_bpi
        )
        assert samples
        mean_ipc = sum(s.ipc for s in samples) / len(samples)
        # de runs ~3 instr/ns on a 2.9 GHz model -> IPC near 1
        assert 0.3 < mean_ipc < 3.0
