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

Both share the scripted-execution core.  A script is a sequence of items,
each an int kind code (:data:`WORK`, :data:`SYSCALL`, :data:`REQUEST_END`)
with a payload (instructions as a float, a syscall name, or ``None``).
Each engine's ``_refill`` produces the next small block of items as two
plain lists, and :meth:`_ScriptedExecution.advance` walks them with an
index against the slice budget, so a slice allocates nothing per item.
``_refill`` draws the block's random numbers ahead of use, in the same
scalar order item by item; that is safe only because each engine's RNG
is private to its script.  Progress (and therefore the symbolic path)
depends only on cumulative retired work — never on timing — so runs
under different tracing schemes execute identical paths at different
speeds.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.kernel.task import SLICE_DONE, SLICE_SYSCALL, SLICE_TIMESLICE, SliceResult
from repro.program.path import PathModel
from repro.util.rng import derive_seed

#: script item kind codes
WORK = 0
SYSCALL = 1
REQUEST_END = 2

#: most work chunks (compute jobs) or requests (server loops) per block;
#: kept small because every live engine holds its prefetched block
BLOCK_ITEMS = 16

#: one block of script items: kind codes and their payloads
ScriptBlock = Tuple[List[int], List[object]]


class _ScriptedExecution:
    """Shared advance loop over a (work | syscall | request end) script."""

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
        #: the current block, the index of its next item, and the
        #: instructions already retired of that item when it is work
        self._kinds: List[int] = []
        self._payloads: List[object] = []
        self._pos = 0
        self._progress = 0.0
        #: replicas of long-running services start at different phases of
        #: the behaviour cycle; the offset shifts the symbolic path index
        self.phase_offset_instr = float(phase_offset_instr)
        self.instructions_done: float = float(phase_offset_instr)
        #: request-end items passed (stays 0 for scripts without them)
        self.requests_completed = 0
        self._finished = False

    # -- subclass contract ---------------------------------------------------

    def _refill(self) -> ScriptBlock:
        """The script's next block of items; empty lists once it is done."""
        raise NotImplementedError

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

    def advance(self, budget_ns: int, work_rate: float) -> SliceResult:
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
        syscall = None

        kinds = self._kinds
        payloads = self._payloads
        pos = self._pos
        progress = self._progress
        while True:
            if pos == len(kinds):
                kinds, payloads = self._refill()
                self._kinds = kinds
                self._payloads = payloads
                pos = 0
                if not kinds:
                    self._finished = True
                    outcome = SLICE_DONE
                    break
            kind = kinds[pos]
            if kind == WORK:
                payload = payloads[pos]
                remaining = payload - progress
                available = budget_instr - consumed_instr
                take = min(remaining, available)
                consumed_instr += take
                progress += take
                if progress >= payload - 1e-9:
                    pos += 1
                    progress = 0.0
                    continue
                break
            pos += 1
            if kind == SYSCALL:
                outcome = SLICE_SYSCALL
                syscall = payloads[pos - 1]
                break
            # REQUEST_END: a zero-cost marker
            self.requests_completed += 1
        self._pos = pos
        self._progress = progress

        self.instructions_done += consumed_instr
        branches_after = self.instructions_done * bpi
        ran_ns = math.ceil(consumed_instr / ips) if consumed_instr else 0
        return SliceResult(
            ran_ns,
            consumed_instr,
            int(branches_after) - int(branches_before),
            outcome,
            syscall,
            (int(branches_before // stride), int(branches_after // stride)),
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
        #: instructions scripted so far
        self._emitted = 0.0
        super().__init__(
            path_model, nominal_ips, branch_per_instr, seed, label,
            phase_offset_instr=phase_offset_instr,
        )

    def _refill(self) -> ScriptBlock:
        kinds: List[int] = []
        payloads: List[object] = []
        rng = self._rng
        total = self.work_total
        emitted = self._emitted
        for _ in range(BLOCK_ITEMS):
            if emitted >= total:
                break
            gap = float(rng.exponential(self.syscall_interval))
            chunk = min(gap, total - emitted)
            kinds.append(WORK)
            payloads.append(chunk)
            emitted += chunk
            if emitted < total:
                pick = bisect.bisect_right(self._mix_cdf, rng.random())
                kinds.append(SYSCALL)
                payloads.append(self._mix_names[pick])
        self._emitted = emitted
        return kinds, payloads


class ServerLoopExecution(_ScriptedExecution):
    """Endless request-serving loop under a saturating closed-loop client.

    Per request: a short blocking receive (the client round-trip), a
    work burst sampled lognormally around ``request_instr_mean``, optional
    extra mid-request syscalls (e.g. mysql touching storage), and a
    non-blocking ``sendto``.  ``max_requests`` bounds the script so simulations
    terminate; throughput experiments read :attr:`requests_completed`
    within a measurement window instead of running to completion.
    """

    def __init__(
        self,
        path_model: PathModel,
        request_instr_mean: float = 1.5e5,
        request_instr_sigma: float = 0.35,
        recv_syscall: str = "recvfrom",
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
        #: name -> expected occurrences per request (Poisson-thinned)
        self.extra_syscalls = extra_syscalls or {}
        self.max_requests = max_requests
        #: requests scripted so far
        self._requests_scripted = 0
        super().__init__(
            path_model, nominal_ips, branch_per_instr, seed, label,
            phase_offset_instr=phase_offset_instr,
        )

    def _refill(self) -> ScriptBlock:
        kinds: List[int] = []
        payloads: List[object] = []
        n = min(BLOCK_ITEMS, self.max_requests - self._requests_scripted)
        self._requests_scripted += n
        rng = self._rng
        sigma = self.request_instr_sigma
        mu = math.log(self.request_instr_mean) - 0.5 * sigma**2
        recv = self.recv_syscall
        send = "sendto"
        for _ in range(n):
            burst = float(rng.lognormal(mu, sigma))
            if not self.extra_syscalls:
                kinds.extend((SYSCALL, WORK, SYSCALL, REQUEST_END))
                payloads.extend((recv, burst, send, None))
                continue
            # split the burst around mid-request syscalls
            extras = [
                name
                for name, rate in self.extra_syscalls.items()
                if rng.random() < rate
            ]
            part = burst / (len(extras) + 1)
            kinds.append(SYSCALL)
            payloads.append(recv)
            for name in extras:
                kinds.extend((WORK, SYSCALL))
                payloads.extend((part, name))
            kinds.extend((WORK, SYSCALL, REQUEST_END))
            payloads.extend((part, send, None))
        return kinds, payloads
