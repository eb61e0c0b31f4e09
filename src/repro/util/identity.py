"""Process-global identity counters, resettable for replay harnesses.

Several simulation entities draw identities from module-global
``itertools.count`` streams (pids/tids, pod uids, session ids, task
names).  Those streams make identities unique across every
cluster built in one interpreter — which is what experiments want — but
they also leak across *independent* runs: the second cluster built in a
process gets different pids, hence different CR3 values, hence different
trace *bytes* than the first, even with identical seeds.

Byte-level replay comparisons (the fault-injection determinism check:
same fault seed, ``jobs=1`` vs ``jobs=N``, byte-identical
DegradationReport and merged rows) therefore call
:func:`reset_identity_counters` before each run, returning every stream
to its boot value.  Only replay harnesses should do this — resetting
while entities from a previous run are still in use would mint duplicate
identities.

RPC span ids are not such a stream: the service engine derives them
from ``(request_id, call_index)`` via
:func:`repro.services.rpc.span_id_for`, so its output is
placement-invariant without any counter to rewind.
"""

from __future__ import annotations

import itertools

#: Module-global mutable state that is *deliberately* process-lifetime —
#: never reset by replay harnesses — each with the reason it is exempt.
#: This registry is the static half of the determinism contract: the
#: EX005 rule of :mod:`repro.staticcheck` fails the build when a module
#: grows mutable global state that is neither rewound by
#: :func:`reset_identity_counters` nor consciously listed here.  The
#: bar for an entry: its contents must be *output-invisible* (pure
#: memoization — a hit and a miss produce byte-identical results) or
#: explicit process configuration set through a documented API.
PROCESS_LIFETIME_STATE = frozenset({
    # pure memoization: cache hits never change decoded bytes, only speed
    ("repro.hwtrace.cache", "_PROCESS_CACHE"),
    ("repro.program.generator", "_BINARY_CACHE"),
    ("repro.program.path", "_PATH_CACHE"),
    # process-role marker: set once by the pool worker initializer so
    # nested RunPools degrade to in-process execution
    ("repro.parallel.pool", "_IN_WORKER"),
    # the persistent process-wide worker pool (process_pool() /
    # shutdown_process_pool()): execution machinery, output-invisible —
    # results are merged by task index, never by worker or pool identity
    ("repro.parallel.workers", "_PROCESS_POOL"),
    # monotonic worker-id stream: ids only name OS processes (respawned
    # workers get fresh ids); no simulation output ever derives from them
    ("repro.parallel.workers", "_worker_ids"),
})


def reset_identity_counters() -> None:
    """Rewind all module-global identity streams to their boot values."""
    from repro.cluster import crd, pod
    from repro.core import otc
    from repro.kernel import task

    task._pid_counter = itertools.count(1000)
    task._tid_counter = itertools.count(5000)
    crd._task_counter = itertools.count(1)
    pod._pod_counter = itertools.count(1)
    otc._session_ids = itertools.count(1)
