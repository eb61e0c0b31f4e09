"""Unit tests for the execution engines."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.task import SLICE_DONE, SLICE_SYSCALL, SLICE_TIMESLICE
from repro.program.execution import ProgramExecution, ServerLoopExecution
from repro.util.units import MSEC


def make_compute(tiny_path, work=1e6, **kwargs):
    defaults = dict(
        path_model=tiny_path,
        work_total=work,
        nominal_ips=1.0,
        branch_per_instr=0.2,
        syscall_interval=1e9,  # effectively no syscalls unless overridden
        seed=1,
    )
    defaults.update(kwargs)
    return ProgramExecution(**defaults)


def make_server(tiny_path, **kwargs):
    defaults = dict(
        path_model=tiny_path,
        request_instr_mean=1e4,
        nominal_ips=1.0,
        branch_per_instr=0.2,
        seed=1,
    )
    defaults.update(kwargs)
    return ServerLoopExecution(**defaults)


class TestProgramExecution:
    def test_runs_to_completion(self, tiny_path):
        engine = make_compute(tiny_path, work=5e5)
        total = 0.0
        while not engine.finished:
            result = engine.advance(1 * MSEC, 1.0, False)
            total += result.work_done
        assert total == pytest.approx(5e5)

    def test_timeslice_consumes_full_budget(self, tiny_path):
        engine = make_compute(tiny_path, work=1e9)
        result = engine.advance(100_000, 1.0, False)
        assert result.outcome == SLICE_TIMESLICE
        assert result.ran_ns == 100_000
        assert result.work_done == pytest.approx(100_000)

    def test_work_rate_slows_progress_not_time(self, tiny_path):
        fast = make_compute(tiny_path, work=1e9)
        slow = make_compute(tiny_path, work=1e9)
        r_fast = fast.advance(100_000, 1.0, False)
        r_slow = slow.advance(100_000, 0.5, False)
        assert r_fast.ran_ns == r_slow.ran_ns == 100_000
        assert r_slow.work_done == pytest.approx(r_fast.work_done / 2)

    def test_done_outcome(self, tiny_path):
        engine = make_compute(tiny_path, work=50_000)
        result = engine.advance(1 * MSEC, 1.0, False)
        assert result.outcome == SLICE_DONE
        assert engine.finished
        assert result.ran_ns == pytest.approx(50_000, abs=2)

    def test_advance_after_done_raises(self, tiny_path):
        engine = make_compute(tiny_path, work=10)
        engine.advance(1 * MSEC, 1.0, False)
        with pytest.raises(RuntimeError):
            engine.advance(1 * MSEC, 1.0, False)

    def test_syscalls_emitted_at_interval(self, tiny_path):
        engine = make_compute(
            tiny_path, work=1e6, syscall_interval=1e5,
            syscall_mix={"brk": 1.0},
        )
        syscalls = 0
        while not engine.finished:
            result = engine.advance(1 * MSEC, 1.0, False)
            if result.outcome == SLICE_SYSCALL:
                assert result.syscall == "brk"
                syscalls += 1
        # ~10 expected at interval 1e5 over 1e6 work
        assert 3 <= syscalls <= 25

    def test_event_range_tracks_branches(self, tiny_path):
        engine = make_compute(tiny_path, work=1e9)
        result = engine.advance(1 * MSEC, 1.0, True)
        e0, e1 = result.event_range
        # 1e6 work * 0.2 bpi / stride 1024 ≈ 195 events
        assert e0 == 0
        assert e1 == pytest.approx(195, abs=3)

    def test_event_indices_continuous_across_slices(self, tiny_path):
        engine = make_compute(tiny_path, work=1e9)
        first = engine.advance(1 * MSEC, 1.0, True)
        second = engine.advance(1 * MSEC, 1.0, True)
        assert second.event_range[0] == first.event_range[1]

    def test_progress_independent_of_slicing(self, tiny_path):
        """The same total budget yields the same cumulative state
        regardless of how it is sliced — the determinism accuracy
        experiments rely on."""
        coarse = make_compute(tiny_path, work=1e9)
        fine = make_compute(tiny_path, work=1e9)
        coarse.advance(1 * MSEC, 1.0, False)
        for _ in range(10):
            fine.advance(100_000, 1.0, False)
        assert fine.instructions_done == pytest.approx(coarse.instructions_done)
        assert fine.event_index == coarse.event_index

    def test_invalid_parameters(self, tiny_path):
        with pytest.raises(ValueError):
            make_compute(tiny_path, work=0)
        with pytest.raises(ValueError):
            make_compute(tiny_path, nominal_ips=0)
        with pytest.raises(ValueError):
            make_compute(tiny_path, branch_per_instr=1.5)
        engine = make_compute(tiny_path)
        with pytest.raises(ValueError):
            engine.advance(0, 1.0, False)


class TestServerLoopExecution:
    def test_requests_complete(self, tiny_path):
        engine = make_server(tiny_path)
        for _ in range(200):
            if engine.finished:
                break
            engine.advance(1 * MSEC, 1.0, False)
        assert engine.requests_completed > 5

    def test_request_structure(self, tiny_path):
        engine = make_server(tiny_path, max_requests=3)
        syscalls = []
        while not engine.finished:
            result = engine.advance(10 * MSEC, 1.0, False)
            if result.outcome == SLICE_SYSCALL:
                syscalls.append(result.syscall)
        assert syscalls == ["recvfrom", "sendto"] * 3
        assert engine.requests_completed == 3

    def test_extra_syscalls_injected(self, tiny_path):
        engine = make_server(
            tiny_path, max_requests=50, extra_syscalls={"fsync": 1.0}
        )
        syscalls = []
        while not engine.finished:
            result = engine.advance(10 * MSEC, 1.0, False)
            if result.outcome == SLICE_SYSCALL:
                syscalls.append(result.syscall)
        assert syscalls.count("fsync") == 50

    def test_custom_recv_syscall(self, tiny_path):
        engine = make_server(tiny_path, recv_syscall="recv_ready", max_requests=1)
        result = engine.advance(1 * MSEC, 1.0, False)
        assert result.outcome == SLICE_SYSCALL
        assert result.syscall == "recv_ready"

    def test_deterministic_request_sizes(self, tiny_path):
        a = make_server(tiny_path, seed=9, max_requests=5)
        b = make_server(tiny_path, seed=9, max_requests=5)
        for _ in range(20):
            if a.finished:
                break
            ra = a.advance(1 * MSEC, 1.0, False)
            rb = b.advance(1 * MSEC, 1.0, False)
            assert ra.work_done == rb.work_done
            assert ra.outcome == rb.outcome


class TestSyscallPick:
    """The CDF bisect pick against ``Generator.choice`` as the reference."""

    @settings(max_examples=150, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1, max_size=8
        ).filter(lambda w: sum(w) > 0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bisect_matches_choice(self, tiny_path, weights, seed):
        mix = {f"sys{i}": w for i, w in enumerate(weights)}
        engine = make_compute(tiny_path, syscall_mix=mix)
        cdf = engine._mix_cdf
        p = np.array(weights) / np.sum(weights)
        ours = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        for _ in range(20):
            pick = bisect.bisect_right(cdf, ours.random())
            assert pick == int(reference.choice(len(weights), p=p))
            assert weights[pick] > 0
        assert ours.random() == reference.random()

    @pytest.mark.parametrize(
        "mix", [{"brk": 0.5, "mmap": -0.1}, {"brk": 0.0, "mmap": 0.0}]
    )
    def test_bad_mix_rejected_at_construction(self, tiny_path, mix):
        with pytest.raises(ValueError):
            make_compute(tiny_path, syscall_mix=mix)

    def test_script_picks_follow_the_mix(self, tiny_path):
        engine = make_compute(
            tiny_path,
            work=2e7,
            syscall_interval=1e4,
            syscall_mix={"brk": 1.0, "mmap": 0.0, "madvise": 3.0},
        )
        names = [p for kind, p in engine._make_script() if kind == "syscall"]
        assert "mmap" not in names
        assert 0.65 < names.count("madvise") / len(names) < 0.85
