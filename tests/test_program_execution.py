"""Unit tests for the execution engines."""

import bisect
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.task import SLICE_DONE, SLICE_SYSCALL, SLICE_TIMESLICE
from repro.program.execution import (
    REQUEST_END,
    SYSCALL,
    WORK,
    ProgramExecution,
    ServerLoopExecution,
)
from repro.program.workloads import get_workload
from repro.util.units import MSEC, USEC


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


def script_items(engine):
    """``engine``'s script as ``(kind, payload)`` pairs, block by block."""
    while True:
        kinds, payloads = engine._refill()
        if not kinds:
            return
        yield from zip(kinds, payloads)


class TestProgramExecution:
    def test_runs_to_completion(self, tiny_path):
        engine = make_compute(tiny_path, work=5e5)
        total = 0.0
        while not engine.finished:
            result = engine.advance(1 * MSEC, 1.0)
            total += result.work_done
        assert total == pytest.approx(5e5)

    def test_timeslice_consumes_full_budget(self, tiny_path):
        engine = make_compute(tiny_path, work=1e9)
        result = engine.advance(100_000, 1.0)
        assert result.outcome == SLICE_TIMESLICE
        assert result.ran_ns == 100_000
        assert result.work_done == pytest.approx(100_000)

    def test_work_rate_slows_progress_not_time(self, tiny_path):
        fast = make_compute(tiny_path, work=1e9)
        slow = make_compute(tiny_path, work=1e9)
        r_fast = fast.advance(100_000, 1.0)
        r_slow = slow.advance(100_000, 0.5)
        assert r_fast.ran_ns == r_slow.ran_ns == 100_000
        assert r_slow.work_done == pytest.approx(r_fast.work_done / 2)

    def test_done_outcome(self, tiny_path):
        engine = make_compute(tiny_path, work=50_000)
        result = engine.advance(1 * MSEC, 1.0)
        assert result.outcome == SLICE_DONE
        assert engine.finished
        assert result.ran_ns == pytest.approx(50_000, abs=2)

    def test_advance_after_done_raises(self, tiny_path):
        engine = make_compute(tiny_path, work=10)
        engine.advance(1 * MSEC, 1.0)
        with pytest.raises(RuntimeError):
            engine.advance(1 * MSEC, 1.0)

    def test_syscalls_emitted_at_interval(self, tiny_path):
        engine = make_compute(
            tiny_path, work=1e6, syscall_interval=1e5,
            syscall_mix={"brk": 1.0},
        )
        syscalls = 0
        while not engine.finished:
            result = engine.advance(1 * MSEC, 1.0)
            if result.outcome == SLICE_SYSCALL:
                assert result.syscall == "brk"
                syscalls += 1
        # ~10 expected at interval 1e5 over 1e6 work
        assert 3 <= syscalls <= 25

    def test_event_range_tracks_branches(self, tiny_path):
        engine = make_compute(tiny_path, work=1e9)
        result = engine.advance(1 * MSEC, 1.0)
        e0, e1 = result.event_range
        # 1e6 work * 0.2 bpi / stride 1024 ≈ 195 events
        assert e0 == 0
        assert e1 == pytest.approx(195, abs=3)

    def test_event_indices_continuous_across_slices(self, tiny_path):
        engine = make_compute(tiny_path, work=1e9)
        first = engine.advance(1 * MSEC, 1.0)
        second = engine.advance(1 * MSEC, 1.0)
        assert second.event_range[0] == first.event_range[1]

    def test_progress_independent_of_slicing(self, tiny_path):
        """The same total budget yields the same cumulative state
        regardless of how it is sliced — the determinism accuracy
        experiments rely on."""
        coarse = make_compute(tiny_path, work=1e9)
        fine = make_compute(tiny_path, work=1e9)
        coarse.advance(1 * MSEC, 1.0)
        for _ in range(10):
            fine.advance(100_000, 1.0)
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
            engine.advance(0, 1.0)


class TestServerLoopExecution:
    def test_requests_complete(self, tiny_path):
        engine = make_server(tiny_path)
        for _ in range(200):
            if engine.finished:
                break
            engine.advance(1 * MSEC, 1.0)
        assert engine.requests_completed > 5

    def test_request_structure(self, tiny_path):
        engine = make_server(tiny_path, max_requests=3)
        syscalls = []
        while not engine.finished:
            result = engine.advance(10 * MSEC, 1.0)
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
            result = engine.advance(10 * MSEC, 1.0)
            if result.outcome == SLICE_SYSCALL:
                syscalls.append(result.syscall)
        assert syscalls.count("fsync") == 50

    def test_custom_recv_syscall(self, tiny_path):
        engine = make_server(tiny_path, recv_syscall="recv_ready", max_requests=1)
        result = engine.advance(1 * MSEC, 1.0)
        assert result.outcome == SLICE_SYSCALL
        assert result.syscall == "recv_ready"

    def test_deterministic_request_sizes(self, tiny_path):
        a = make_server(tiny_path, seed=9, max_requests=5)
        b = make_server(tiny_path, seed=9, max_requests=5)
        for _ in range(20):
            if a.finished:
                break
            ra = a.advance(1 * MSEC, 1.0)
            rb = b.advance(1 * MSEC, 1.0)
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
        names = [p for kind, p in script_items(engine) if kind == SYSCALL]
        assert "mmap" not in names
        assert 0.65 < names.count("madvise") / len(names) < 0.85


class TestScriptGolden:
    """The scripts' RNG draw order and ``advance`` arithmetic, pinned.

    Recorded at seed 7, thread 0, through the generator script that the
    block API replaced.  ``xz`` is a compute job, ``mc`` a server loop
    without extra syscalls and ``ms`` one with extras (read, write, fsync).
    """

    ITEMS = {
        "xz": "9f84541c458d3c0b7ae8b4419652649f",
        "mc": "187caa47c51eb97ce227e61143b7a1c3",
        "ms": "a3097d3305d967b6c5c0c2617428a3c8",
    }
    SLICES = {
        "xz": "34555e084c7ddc78173ca724104a200f",
        "mc": "fd60af8ce3ab4f9ea3fd25c18b7394e1",
        "ms": "01e86d9da1b56c089b8d1d61ff433388",
    }
    #: (requests_completed, instructions_done) after the advance sequence
    FINAL = {
        "xz": (0, 2383105148.5228477),
        "mc": (1499, 2003162007.5096803),
        "ms": (739, 8778893186.945988),
    }
    KIND_NAMES = {WORK: "work", SYSCALL: "syscall", REQUEST_END: "request_end"}
    BUDGETS = (2 * MSEC, 50 * USEC, 300 * USEC, 7_777)
    RATES = (1.0, 0.71, 0.93)

    @staticmethod
    def _digest(obj) -> str:
        return hashlib.blake2b(json.dumps(obj).encode(), digest_size=16).hexdigest()

    @pytest.mark.parametrize("workload", sorted(ITEMS))
    def test_first_items(self, workload):
        engine = get_workload(workload).make_engine(0, seed=7)
        items = [
            [self.KIND_NAMES[kind], payload]
            for kind, payload in itertools.islice(script_items(engine), 2_000)
        ]
        assert len(items) == 2_000
        assert self._digest(items) == self.ITEMS[workload]

    @pytest.mark.parametrize("workload", sorted(SLICES))
    def test_advance_sequence(self, workload):
        engine = get_workload(workload).make_engine(0, seed=7)
        slices = []
        for i in range(3_000):
            r = engine.advance(self.BUDGETS[i % 4], self.RATES[i % 3])
            slices.append(
                [r.ran_ns, r.work_done, r.branches, r.outcome, r.syscall,
                 list(r.event_range)]
            )
        assert self._digest(slices) == self.SLICES[workload]
        final = (engine.requests_completed, engine.instructions_done)
        assert final == self.FINAL[workload]

    def test_ms_script_takes_the_extra_syscall_branch(self):
        engine = get_workload("ms").make_engine(0, seed=7)
        names = {
            payload
            for kind, payload in itertools.islice(script_items(engine), 2_000)
            if kind == SYSCALL
        }
        assert {"read", "write", "fsync"} <= names
