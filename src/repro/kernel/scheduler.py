"""CFS-like scheduler over the simulated topology.

Threads run in bounded slices; every core-local switch from one thread to
another fires the ``sched_switch`` tracepoint, whose hooks may charge
kernel time — this is precisely the path EXIST optimizes, so the fidelity
of switch counting matters more here than scheduling-policy details.  The
policy is a simplified CFS: per-core run queues ordered by virtual
runtime, wakeup placement on the least-loaded allowed core, and no
mid-slice preemption (slices are short enough that latency effects are
captured at slice granularity).

Tracing facilities integrate through :class:`SchedulerHooks`:

* ``slice_tax`` — continuous CPU fraction stolen from a running thread
  (per-branch tracing tax, PMI sampling, perf's buffer draining, ...);
* ``on_slice`` — delivery of each finished slice (the per-core tracer
  consumes branch counts and path chunks here).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Protocol, Set, Tuple

from repro.kernel.cpu import CpuTopology, LogicalCore
from repro.kernel.events import Simulator
from repro.kernel.syscalls import SyscallTable
from repro.kernel.task import SLICE_DONE, SLICE_SYSCALL, SliceResult, Thread, ThreadState
from repro.kernel.tracepoints import (
    SCHED_SWITCH,
    SYS_ENTER,
    SchedSwitchRecord,
    SyscallRecord,
    TracepointRegistry,
)
from repro.util.rng import RngFactory
from repro.util.units import MSEC, USEC

#: low bits of the packed hook-cache key ``(tid << HOOK_KEY_CORE_BITS) |
#: core_id`` that hold the core id; :class:`Scheduler` rejects topologies
#: with core ids that do not fit
HOOK_KEY_CORE_BITS = 10


class SchedulerHooks(Protocol):
    """Integration surface for tracing facilities (duck-typed)."""

    def slice_tax(self, thread: Thread, core: LogicalCore) -> float:
        """Continuous CPU fraction stolen while ``thread`` runs."""
        ...  # pragma: no cover - protocol

    def on_slice(
        self, core: LogicalCore, thread: Thread, start_ns: int, result: SliceResult
    ) -> None:
        """Delivery of each finished slice."""
        ...  # pragma: no cover - protocol


@dataclass
class SchedulerConfig:
    """Scheduler timing constants (Linux-ish defaults)."""

    timeslice_ns: int = 2 * MSEC
    context_switch_cost_ns: int = 2 * USEC
    migration_cost_ns: int = 4 * USEC
    #: wakeup vruntime bonus, as a fraction of one timeslice
    wakeup_bonus: float = 0.5


class _RunQueue:
    """Min-vruntime queue of ``(vruntime, tid, thread)`` tuples.

    A thread is queued at most once, so ``(vruntime, tid)`` keys are
    unique and heapq's sift compares never reach the thread.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Thread]] = []
        self._tids: Set[int] = set()
        self.min_vruntime: float = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, thread: Thread) -> None:
        if thread.tid in self._tids:
            raise RuntimeError(f"{thread} already enqueued")
        self._tids.add(thread.tid)
        heapq.heappush(self._heap, (thread.vruntime, thread.tid, thread))

    def pop(self) -> Optional[Thread]:
        if not self._heap:
            return None
        vruntime, tid, thread = heapq.heappop(self._heap)
        self._tids.remove(tid)
        if vruntime > self.min_vruntime:
            self.min_vruntime = vruntime
        return thread

    def push_pop(self, thread: Thread) -> Thread:
        """:meth:`push` then :meth:`pop` in one heap operation."""
        if thread.tid in self._tids:
            raise RuntimeError(f"{thread} already enqueued")
        vruntime, tid, nxt = heapq.heappushpop(
            self._heap, (thread.vruntime, thread.tid, thread)
        )
        if nxt is not thread:
            self._tids.remove(tid)
            self._tids.add(thread.tid)
        if vruntime > self.min_vruntime:
            self.min_vruntime = vruntime
        return nxt


class Scheduler:
    """Drives thread execution over all cores of one node."""

    def __init__(
        self,
        sim: Simulator,
        topology: CpuTopology,
        tracepoints: TracepointRegistry,
        syscalls: SyscallTable,
        rng: RngFactory,
        config: Optional[SchedulerConfig] = None,
    ):
        for core in topology.cores:
            if not 0 <= core.core_id < (1 << HOOK_KEY_CORE_BITS):
                raise ValueError(
                    f"core id {core.core_id} does not fit the "
                    f"{HOOK_KEY_CORE_BITS}-bit core slot of the hook-cache key"
                )
        self.sim = sim
        self.topology = topology
        self.tracepoints = tracepoints
        #: the registry's live hook lists: a switch or syscall builds its
        #: record and fires only while hooks are attached
        self._switch_hooks = tracepoints.live_hooks(SCHED_SWITCH)
        self._sys_enter_hooks = tracepoints.live_hooks(SYS_ENTER)
        self.syscalls = syscalls
        self.config = config or SchedulerConfig()
        self._rng = rng.stream("scheduler")
        self._queues: Dict[int, _RunQueue] = {
            core.core_id: _RunQueue() for core in topology.cores
        }
        self._hooks: List[SchedulerHooks] = []
        #: packed (tid << HOOK_KEY_CORE_BITS | core_id) -> (epoch, tax)
        #: decision table; entries are valid while their epoch matches
        #: :attr:`_hook_epoch` — see invalidate_hook_cache()
        self._hook_cache: Dict[int, Tuple[int, float]] = {}
        #: current tracing epoch; bumping it invalidates every cached
        #: decision in O(1) instead of clearing the table
        self._hook_epoch = 0
        self.total_context_switches = 0
        self.total_migrations = 0
        #: (timestamp, cpu, pid, tid) log of switches, kept only if enabled
        self.switch_log: Optional[List[Tuple[int, int, int, int]]] = None
        self._threads: List[Thread] = []
        #: called with each thread right after it exits; run-to-completion
        #: uses it to stop the clock when its last target finishes
        self.on_thread_exit: Optional[Callable[[Thread], None]] = None

    # -- facility integration ----------------------------------------------

    def add_hooks(self, hooks: SchedulerHooks) -> None:
        """Register a tracing facility's hook surface."""
        self._hooks.append(hooks)
        self.invalidate_hook_cache()

    def remove_hooks(self, hooks: SchedulerHooks) -> None:
        """Unregister a previously added hook surface."""
        self._hooks.remove(hooks)
        self.invalidate_hook_cache()

    def invalidate_hook_cache(self) -> None:
        """Invalidate cached per-thread hook decisions.

        ``slice_tax`` answers are cached per
        ``(tid, core_id)`` because for every scheme they are constant
        between *tracing epochs* — the points where a facility flips
        per-core tracer state (EXIST's OTC enabling/disabling cores,
        schemes installing or removing).  Facilities that mutate state a
        hook reads MUST call this at each such flip; ``add_hooks`` /
        ``remove_hooks`` invalidate automatically.

        Invalidation bumps the epoch counter instead of clearing the
        table: every stale entry dies in O(1), and a re-queried decision
        overwrites its slot in place.  Under OTC's frequent window flips
        this turns the per-epoch cost from O(#threads x #cores) into a
        constant.  The table is cleared wholesale only when it outgrows a
        fixed bound (long campaigns churning many thousands of threads),
        which keeps stale-epoch entries from accumulating forever.
        """
        self._hook_epoch += 1
        if len(self._hook_cache) > 65536:
            self._hook_cache.clear()

    def enable_switch_log(self) -> None:
        """Retain a (timestamp, cpu, pid, tid) record per context switch."""
        self.switch_log = []

    # -- thread admission ----------------------------------------------------

    def add_thread(self, thread: Thread) -> None:
        """Admit a READY thread; it starts running as cores become free."""
        if thread.state is not ThreadState.READY:
            raise ValueError(f"cannot admit thread in state {thread.state}")
        self._threads.append(thread)
        core = self._place(thread)
        thread.vruntime = max(
            thread.vruntime, self._queues[core.core_id].min_vruntime
        )
        self._enqueue(core, thread)

    def _place(
        self, thread: Thread, preferred_core: Optional[int] = None
    ) -> LogicalCore:
        """Pick the least-loaded core the thread may run on."""
        if preferred_core is not None and thread.allowed(preferred_core):
            return self.topology.core(preferred_core)
        candidates = [
            core for core in self.topology.cores if thread.allowed(core.core_id)
        ]
        if not candidates:
            raise ValueError(f"{thread} has empty effective cpuset")

        def load(core: LogicalCore) -> Tuple[int, int]:
            running = 0 if core.running is None else 1
            return (len(self._queues[core.core_id]) + running, core.core_id)

        return min(candidates, key=load)

    def _enqueue(self, core: LogicalCore, thread: Thread) -> None:
        if thread.last_core is not None and thread.last_core != core.core_id:
            thread.migrations += 1
            self.total_migrations += 1
        self._queues[core.core_id].push(thread)
        if core.running is None:
            # core is idle: dispatch immediately (as a fresh event so state
            # settles before the switch fires hooks)
            self.sim.post(self.sim.now, partial(self._dispatch, core))

    # -- core dispatch loop ---------------------------------------------------

    def _dispatch(self, core: LogicalCore) -> None:
        """If idle, pick the next thread on ``core`` and start a slice."""
        if core.running is not None:
            return
        thread = self._queues[core.core_id].pop()
        if thread is None:
            return
        self._context_switch(core, prev=None, nxt=thread)
        self._start_slice(core, thread)

    def _switch_out(self, core: LogicalCore, prev: Thread) -> None:
        """``prev`` left the core (blocked or exited): switch to the next
        runnable thread, or to idle (the swapper) if none — either way
        ``sched_switch`` fires, as on a real kernel."""
        if core.running is not None:  # pragma: no cover - defensive
            return
        nxt = self._queues[core.core_id].pop()
        self._context_switch(core, prev=prev, nxt=nxt)
        if nxt is not None:
            self._start_slice(core, nxt)

    def _context_switch(
        self, core: LogicalCore, prev: Optional[Thread], nxt: Optional[Thread]
    ) -> None:
        """Account one switch and fire the tracepoint hooks."""
        core.context_switches += 1
        self.total_context_switches += 1
        hook_cost = 0
        if self._switch_hooks:
            hook_cost = self.tracepoints.fire(
                SCHED_SWITCH, SchedSwitchRecord(self.sim.now, core.core_id, prev, nxt)
            )
        cost = self.config.context_switch_cost_ns + hook_cost
        core.kernel_ns += cost
        if self.switch_log is not None:
            self.switch_log.append(
                (
                    self.sim.now,
                    core.core_id,
                    nxt.pid if nxt is not None else 0,
                    nxt.tid if nxt is not None else 0,
                )
            )
        if nxt is not None:
            nxt.context_switches_in += 1
            nxt.kernel_ns += cost
            if hook_cost:
                nxt.tracing_overhead_ns += hook_cost
            # the incoming thread pays the switch by starting late
            nxt.switch_penalty_ns = cost

    def _start_slice(self, core: LogicalCore, thread: Thread) -> None:
        thread.state = ThreadState.RUNNING
        thread.current_core = core.core_id
        thread.last_core = core.core_id
        core.running = thread

        if not self._hooks:
            # untraced systems skip the decision table entirely
            tax = 0.0
        else:
            # packed int key: tuple construction and tuple hashing are
            # measurably slower than a single int on this per-switch path
            key = (thread.tid << HOOK_KEY_CORE_BITS) | core.core_id
            epoch = self._hook_epoch
            cached = self._hook_cache.get(key)
            if cached is not None and cached[0] == epoch:
                tax = cached[1]
            else:
                tax = 0.0
                for hooks in self._hooks:
                    tax += hooks.slice_tax(thread, core)
                tax = min(tax, 0.95)
                self._hook_cache[key] = (epoch, tax)

        speed = self.topology.speed_factor(core, thread.process.llc_pressure)
        work_rate = speed * (1.0 - tax)
        budget = self.config.timeslice_ns
        start = self.sim.now
        result = thread.engine.advance(budget, work_rate)
        if result.ran_ns <= 0 and result.outcome not in (SLICE_DONE, SLICE_SYSCALL):
            raise RuntimeError(
                f"engine for {thread} made no progress (outcome={result.outcome})"
            )
        penalty = thread.switch_penalty_ns
        if penalty:
            thread.switch_penalty_ns = 0
        self.sim.post(
            start + penalty + result.ran_ns,
            partial(self._finish_slice, core, thread, start, result),
        )

    def _finish_slice(
        self, core: LogicalCore, thread: Thread, start_ns: int, result: SliceResult
    ) -> None:
        # accounting
        thread.cpu_ns += result.ran_ns
        thread.work_done += result.work_done
        thread.branches_retired += result.branches
        core.busy_ns += result.ran_ns
        weight_scale = 1024.0 / thread.weight
        thread.vruntime += result.ran_ns * weight_scale

        for hooks in self._hooks:
            hooks.on_slice(core, thread, start_ns, result)

        if result.outcome == SLICE_DONE:
            thread.state = ThreadState.DONE
            thread.done_at = self.sim.now
            thread.current_core = None
            core.running = None
            self._switch_out(core, prev=thread)
            if self.on_thread_exit is not None:
                self.on_thread_exit(thread)
            return

        if result.outcome == SLICE_SYSCALL:
            self._handle_syscall(core, thread, result)
            return

        # timeslice expiry or voluntary yield: requeue and pick next
        thread.state = ThreadState.READY
        thread.current_core = None
        core.running = None
        nxt = self._queues[core.core_id].push_pop(thread)
        if nxt is not thread:
            self._context_switch(core, prev=thread, nxt=nxt)
        self._start_slice(core, nxt)

    # -- syscalls ---------------------------------------------------------------

    def _handle_syscall(
        self, core: LogicalCore, thread: Thread, result: SliceResult
    ) -> None:
        assert result.syscall is not None
        spec = self.syscalls.get(result.syscall)
        thread.syscall_count += 1
        probe_cost = 0
        if self._sys_enter_hooks:
            probe_cost = self.tracepoints.fire(
                SYS_ENTER,
                SyscallRecord(self.sim.now, core.core_id, thread, result.syscall),
            )
        kernel_cost = spec.kernel_ns + probe_cost
        core.kernel_ns += kernel_cost
        thread.kernel_ns += kernel_cost
        if probe_cost:
            thread.tracing_overhead_ns += probe_cost

        # the core stays busy for the kernel part of the syscall, then
        # moves on; that follow-up is this event's last act, so the
        # simulator may fire it inline (see Simulator.follow)
        core.busy_ns += kernel_cost
        thread.current_core = None
        core.running = None
        sim = self.sim
        if spec.blocking:
            block_ns = self._sample_block(spec)
            thread.state = ThreadState.BLOCKED
            sim.post(sim.now + kernel_cost + block_ns, partial(self._wake, thread))
            sim.follow(sim.now + kernel_cost, partial(self._switch_out, core, thread))
        else:
            thread.state = ThreadState.READY
            sim.follow(
                sim.now + kernel_cost, partial(self._resume_after_syscall, core, thread)
            )

    def _resume_after_syscall(self, core: LogicalCore, thread: Thread) -> None:
        if core.running is not None:  # pragma: no cover - defensive
            self._queues[core.core_id].push(thread)
            return
        nxt = self._queues[core.core_id].push_pop(thread)
        if nxt is not thread:
            self._context_switch(core, prev=thread, nxt=nxt)
        self._start_slice(core, nxt)

    def _sample_block(self, spec) -> int:
        if spec.block_jitter <= 0.0:
            return spec.block_ns
        noise = math.exp(self._rng.normal(0.0, spec.block_jitter))
        return max(1, int(spec.block_ns * noise))

    def _wake(self, thread: Thread) -> None:
        if thread.state is not ThreadState.BLOCKED:
            return
        thread.state = ThreadState.READY
        thread.wakeups += 1
        core = self._place(thread, preferred_core=thread.last_core)
        bonus = self.config.wakeup_bonus * self.config.timeslice_ns
        thread.vruntime = max(
            thread.vruntime, self._queues[core.core_id].min_vruntime - bonus
        )
        self._enqueue(core, thread)
