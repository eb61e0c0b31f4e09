"""Execution engines driven by the scheduler.

An engine converts CPU-time budgets into retired instructions, branches,
syscalls, and symbolic path-event ranges.  Two concrete engines cover the
paper's workload classes:

* :class:`ProgramExecution` — a finite compute job (SPEC-like): a fixed
  instruction budget interleaved with background syscalls.
* :class:`ServerLoopExecution` — an endless request loop (memcached /
  nginx / mysql / cloud services under a saturating closed-loop client):
  each request is a receive syscall, a burst of work, and a send syscall;
  completed requests are counted for throughput.

Both share the scripted-execution core: a generator yields ``("work", n)``
and ``("syscall", name)`` items, and :meth:`advance` consumes them against
the slice budget.  Progress (and therefore the symbolic path) depends only
on cumulative retired work — never on timing — so runs under different
tracing schemes execute identical paths at different speeds.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.kernel.task import SLICE_DONE, SLICE_SYSCALL, SLICE_TIMESLICE, SliceResult
from repro.program.path import PathModel
from repro.util.rng import derive_seed

ScriptItem = Tuple[str, object]


class _ScriptedExecution:
    """Shared advance loop over a (work | syscall) script."""

    def __init__(
        self,
        path_model: PathModel,
        nominal_ips: float,
        branch_per_instr: float,
        seed: int,
        label: str,
        phase_offset_instr: float = 0.0,
    ):
        if nominal_ips <= 0:
            raise ValueError("nominal_ips must be positive")
        if not 0.0 < branch_per_instr < 1.0:
            raise ValueError("branch_per_instr must be in (0, 1)")
        if phase_offset_instr < 0:
            raise ValueError("phase offset cannot be negative")
        self.path_model = path_model
        self.nominal_ips = nominal_ips
        self.branch_per_instr = branch_per_instr
        self._rng = np.random.default_rng(derive_seed(seed, "exec", label))
        self._script: Iterator[ScriptItem] = self._make_script()
        self._current: Optional[ScriptItem] = None
        self._current_progress: float = 0.0
        #: replicas of long-running services start at different phases of
        #: the behaviour cycle; the offset shifts the symbolic path index
        self.phase_offset_instr = float(phase_offset_instr)
        self.instructions_done: float = float(phase_offset_instr)
        self._finished = False

    # -- subclass contract ---------------------------------------------------

    def _make_script(self) -> Iterator[ScriptItem]:
        raise NotImplementedError

    def _on_item_complete(self, item: ScriptItem) -> None:
        """Subclass notification when a script item fully completes."""

    # -- engine protocol -------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def branches_cum(self) -> float:
        return self.instructions_done * self.branch_per_instr

    @property
    def event_index(self) -> int:
        """Current absolute symbolic path-event index."""
        return int(self.branches_cum // self.path_model.stride)

    def advance(
        self, budget_ns: int, work_rate: float, record_path: bool
    ) -> SliceResult:
        if self._finished:
            raise RuntimeError("advance() after completion")
        if budget_ns <= 0:
            raise ValueError("budget must be positive")
        work_rate = max(work_rate, 1e-6)
        ips = self.nominal_ips * work_rate
        budget_instr = budget_ns * ips

        bpi = self.branch_per_instr
        stride = self.path_model.stride
        branches_before = self.instructions_done * bpi
        consumed_instr = 0.0
        outcome = SLICE_TIMESLICE
        syscall: Optional[str] = None

        while True:
            if self._current is None:
                self._current = next(self._script, None)
                self._current_progress = 0.0
            if self._current is None:
                self._finished = True
                outcome = SLICE_DONE
                break
            kind, payload = self._current
            if kind == "work":
                remaining = float(payload) - self._current_progress  # type: ignore[arg-type]
                available = budget_instr - consumed_instr
                take = min(remaining, available)
                consumed_instr += take
                self._current_progress += take
                if self._current_progress >= float(payload) - 1e-9:  # type: ignore[arg-type]
                    item = self._current
                    self._current = None
                    self._on_item_complete(item)
                    continue
                outcome = SLICE_TIMESLICE
                break
            if kind == "syscall":
                item = self._current
                self._current = None
                self._on_item_complete(item)
                outcome = SLICE_SYSCALL
                syscall = str(payload)
                break
            # zero-cost marker items (e.g. "request_end"): complete and move on
            item = self._current
            self._current = None
            self._on_item_complete(item)

        self.instructions_done += consumed_instr
        branches_after = self.instructions_done * bpi
        ran_ns = int(math.ceil(consumed_instr / ips)) if consumed_instr else 0
        event_range = (
            int(branches_before // stride),
            int(branches_after // stride),
        )
        return SliceResult(
            ran_ns,
            consumed_instr,
            int(branches_after) - int(branches_before),
            outcome,
            syscall,
            0,
            event_range,
        )


class ProgramExecution(_ScriptedExecution):
    """Finite compute job with Poisson background syscalls.

    ``work_total`` is the job's instruction budget; ``syscall_interval``
    the mean instructions between syscalls; ``syscall_mix`` maps syscall
    names to selection probabilities.
    """

    def __init__(
        self,
        path_model: PathModel,
        work_total: float,
        nominal_ips: float = 3.0,
        branch_per_instr: float = 0.18,
        syscall_interval: float = 2.0e6,
        syscall_mix: Optional[Dict[str, float]] = None,
        seed: int = 0,
        label: str = "compute",
        phase_offset_instr: float = 0.0,
    ):
        if work_total <= 0:
            raise ValueError("work_total must be positive")
        self.work_total = float(work_total)
        self.syscall_interval = float(syscall_interval)
        self.syscall_mix = syscall_mix or {"brk": 0.5, "madvise": 0.3, "mmap": 0.2}
        self._mix_names = list(self.syscall_mix)
        mix = np.array([self.syscall_mix[n] for n in self._mix_names], dtype=float)
        total = mix.sum()
        if not (mix >= 0).all() or not 0 < total < math.inf:
            raise ValueError(
                "syscall_mix weights must be non-negative with a positive sum"
            )
        # the CDF Generator.choice(n, p=probs) would rebuild on every draw;
        # bisecting it with one random() gives the same pick and leaves the
        # RNG stream exactly where choice() would
        cdf = (mix / total).cumsum()
        cdf /= cdf[-1]
        self._mix_cdf = cdf.tolist()
        super().__init__(
            path_model, nominal_ips, branch_per_instr, seed, label,
            phase_offset_instr=phase_offset_instr,
        )

    def _make_script(self) -> Iterator[ScriptItem]:
        emitted = 0.0
        while emitted < self.work_total:
            gap = float(self._rng.exponential(self.syscall_interval))
            chunk = min(gap, self.work_total - emitted)
            yield ("work", chunk)
            emitted += chunk
            if emitted < self.work_total:
                pick = bisect.bisect_right(self._mix_cdf, self._rng.random())
                yield ("syscall", self._mix_names[pick])


class ServerLoopExecution(_ScriptedExecution):
    """Endless request-serving loop under a saturating closed-loop client.

    Per request: a short blocking receive (the client round-trip), a
    work burst sampled lognormally around ``request_instr_mean``, optional
    extra mid-request syscalls (e.g. mysql touching storage), and a
    non-blocking send.  ``max_requests`` bounds the script so simulations
    terminate; throughput experiments read :attr:`requests_completed`
    within a measurement window instead of running to completion.
    """

    def __init__(
        self,
        path_model: PathModel,
        request_instr_mean: float = 1.5e5,
        request_instr_sigma: float = 0.35,
        recv_syscall: str = "recvfrom",
        send_syscall: str = "sendto",
        extra_syscalls: Optional[Dict[str, float]] = None,
        max_requests: int = 2_000_000,
        nominal_ips: float = 3.0,
        branch_per_instr: float = 0.16,
        seed: int = 0,
        label: str = "server",
        phase_offset_instr: float = 0.0,
    ):
        self.request_instr_mean = float(request_instr_mean)
        self.request_instr_sigma = float(request_instr_sigma)
        self.recv_syscall = recv_syscall
        self.send_syscall = send_syscall
        #: name -> expected occurrences per request (Poisson-thinned)
        self.extra_syscalls = extra_syscalls or {}
        self.max_requests = max_requests
        self.requests_completed = 0
        super().__init__(
            path_model, nominal_ips, branch_per_instr, seed, label,
            phase_offset_instr=phase_offset_instr,
        )

    def _make_script(self) -> Iterator[ScriptItem]:
        mu = math.log(self.request_instr_mean) - 0.5 * self.request_instr_sigma**2
        for _ in range(self.max_requests):
            yield ("syscall", self.recv_syscall)
            burst = float(self._rng.lognormal(mu, self.request_instr_sigma))
            if self.extra_syscalls:
                # split the burst around mid-request syscalls
                extras = [
                    name
                    for name, rate in self.extra_syscalls.items()
                    if self._rng.random() < rate
                ]
                parts = len(extras) + 1
                for name in extras:
                    yield ("work", burst / parts)
                    yield ("syscall", name)
                yield ("work", burst / parts)
            else:
                yield ("work", burst)
            yield ("syscall", self.send_syscall)
            yield ("request_end", None)

    def _on_item_complete(self, item: ScriptItem) -> None:
        if item[0] == "request_end":
            self.requests_completed += 1
